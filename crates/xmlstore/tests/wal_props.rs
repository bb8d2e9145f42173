//! Property tests for the write-ahead-log encoding, on the in-tree
//! `smallrand` harness:
//!
//! * any single corrupted byte in a stored log truncates the readable
//!   prefix at exactly the frame holding the corruption — no record
//!   beyond it survives, no record before it is lost, and no garbage
//!   record is ever decoded;
//! * a duplicated tail (the same bytes appended twice, as a retried
//!   write would) is self-identifying: the reader stops where the
//!   duplication starts, and replay over the duplicated log returns
//!   what replay over the clean log returns.

use smallrand::prop::{check, Gen};
use xmlstore::storage::{DiskManager, SharedDisk};
use xmlstore::wal;
use xmlstore::{Lsn, Wal, WalRecord};

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn temp_log_path() -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("xmlstore_wal_props_{}_{n}.wal", std::process::id()))
}

/// Write a random history (a checkpoint, then commits of random sizes)
/// and return the durable log bytes plus the records as written.
fn build_log(g: &mut Gen) -> (Vec<u8>, Vec<(Lsn, WalRecord)>) {
    let path = temp_log_path();
    let disk = SharedDisk::new(DiskManager::in_memory());
    let checkpoint = vec![0xCC; g.usize_in(1, 96)];
    let mut w = Wal::create(Some(&path), disk, checkpoint).unwrap();
    for t in 1..=g.usize_in(1, 8) {
        let meta = vec![t as u8; g.usize_in(1, 48)];
        w.write(&WalRecord::Commit { meta }).unwrap();
    }
    drop(w);
    let bytes = std::fs::read(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let contents = wal::read_log(&bytes);
    assert_eq!(
        contents.valid_len,
        bytes.len() as u64,
        "clean log reads whole"
    );
    (bytes, contents.records)
}

#[test]
fn any_single_corrupted_byte_truncates_at_its_frame() {
    check(
        "any_single_corrupted_byte_truncates_at_its_frame",
        192,
        |g| {
            let (mut bytes, records) = build_log(g);
            let offset = g.usize_in(0, bytes.len() - 1);
            let xor = g.usize_in(1, 255) as u8;
            bytes[offset] ^= xor;

            // The frame holding the corrupted byte: record boundaries are
            // exactly the LSNs (a record's LSN is its byte offset).
            let victim = records
                .iter()
                .rposition(|&(lsn, _)| lsn <= offset as u64)
                .unwrap();
            let parsed = wal::read_log(&bytes);
            assert_eq!(
                parsed.records,
                records[..victim],
                "corrupt byte at {offset} (xor {xor:#04x}): reader must \
             keep exactly the records before the damaged frame"
            );
            assert_eq!(parsed.valid_len, records[victim].0);
        },
    );
}

#[test]
fn duplicated_tail_is_ignored_and_replay_stays_idempotent() {
    check(
        "duplicated_tail_is_ignored_and_replay_stays_idempotent",
        96,
        |g| {
            let (bytes, records) = build_log(g);
            // Duplicate everything from a random record boundary onward —
            // the shape a retried write produces.
            let j = g.usize_in(0, records.len() - 1);
            let mut doubled = bytes.clone();
            doubled.extend_from_slice(&bytes[records[j].0 as usize..]);

            let parsed = wal::read_log(&doubled);
            assert_eq!(parsed.records, records, "duplicate tail must be dropped");
            assert_eq!(parsed.valid_len, bytes.len() as u64);

            // Replay sees through the duplication: the checkpoint and the
            // commits are those of the clean log, every one of them.
            let clean = wal::replay(&bytes).unwrap();
            assert_eq!(clean.commits.len(), records.len() - 1);
            assert_eq!(wal::replay(&doubled).unwrap(), clean);
        },
    );
}
