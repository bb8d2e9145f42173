//! Property tests for the write-ahead-log encoding, on the in-tree
//! `smallrand` harness:
//!
//! * any single corrupted byte in a stored log truncates the readable
//!   prefix at exactly the frame holding the corruption — no record
//!   beyond it survives, no record before it is lost, and no garbage
//!   record is ever decoded;
//! * a duplicated tail (the same bytes appended twice, as a retried
//!   append would) is self-identifying: the reader stops where the
//!   duplication starts, and replay over the duplicated log leaves page
//!   bytes identical to replay over the clean log.

use smallrand::prop::{check, Gen};
use xmlstore::storage::{DiskManager, SharedDisk};
use xmlstore::wal;
use xmlstore::{Lsn, PageId, Wal, WalRecord, PAGE_SIZE};

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn temp_log_path() -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("xmlstore_wal_props_{}_{n}.wal", std::process::id()))
}

/// Append a random multi-transaction history (page images over a
/// handful of pages, commits, interleaved group flushes) and return the
/// durable log bytes plus the records as written.
fn build_log(g: &mut Gen) -> (Vec<u8>, Vec<(Lsn, WalRecord)>) {
    let path = temp_log_path();
    let disk = SharedDisk::new(DiskManager::in_memory());
    let mut w = Wal::create(Some(&path), disk, vec![0xCC; 9]).unwrap();
    for t in 1..=g.usize_in(1, 4) as u64 {
        for _ in 0..g.usize_in(0, 3) {
            let mut after = Box::new([0u8; PAGE_SIZE]);
            for b in after.iter_mut().take(96) {
                *b = g.usize_in(0, 255) as u8;
            }
            w.append(WalRecord::PageImage {
                txn: t,
                pid: PageId(g.usize_in(0, 3) as u32),
                after,
            });
        }
        if g.bool() {
            w.append(WalRecord::Commit {
                txn: t,
                meta: vec![t as u8; g.usize_in(1, 16)],
            });
        }
        if g.ratio(1, 3) {
            w.flush().unwrap();
        }
    }
    w.flush().unwrap();
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

/// Replay `log` onto a fresh in-memory page file and return every
/// resulting page image.
fn replay_pages(log: &[u8]) -> Vec<[u8; PAGE_SIZE]> {
    let mut disk = DiskManager::in_memory();
    wal::replay(&mut disk, log).unwrap();
    let mut pages = Vec::new();
    let mut buf = [0u8; PAGE_SIZE];
    for p in 0..disk.num_pages() {
        disk.read_page(PageId(p), &mut buf).unwrap();
        pages.push(buf);
    }
    pages
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
            // the shape a retried append produces.
            let j = g.usize_in(0, records.len() - 1);
            let mut doubled = bytes.clone();
            doubled.extend_from_slice(&bytes[records[j].0 as usize..]);

            let parsed = wal::read_log(&doubled);
            assert_eq!(parsed.records, records, "duplicate tail must be dropped");
            assert_eq!(parsed.valid_len, bytes.len() as u64);

            // Replay sees through the duplication: page bytes match a clean
            // replay, and replaying the doubled log twice changes nothing.
            let clean = replay_pages(&bytes);
            assert_eq!(replay_pages(&doubled), clean);
            let mut disk = DiskManager::in_memory();
            wal::replay(&mut disk, &doubled).unwrap();
            wal::replay(&mut disk, &doubled).unwrap();
            let mut buf = [0u8; PAGE_SIZE];
            for (p, expect) in clean.iter().enumerate() {
                disk.read_page(PageId(p as u32), &mut buf).unwrap();
                assert_eq!(&buf[..], &expect[..], "page {p} after double replay");
            }
        },
    );
}
