//! The write-ahead log and crash recovery.
//!
//! ## Log format
//!
//! The log is a linear file of checksummed, length-prefixed records:
//!
//! ```text
//! [len: u32 LE] [crc: u32 LE over payload] [payload: len bytes]
//! payload = [lsn: u64 LE] [kind: u8] [body]
//! ```
//!
//! A record's **LSN is the byte offset of its frame in the log file**.
//! That convention buys two properties for free: LSNs are totally
//! ordered and dense, and a *duplicated tail* (the same bytes appended
//! twice, e.g. by a retried write) is self-identifying — the duplicate
//! records carry LSNs that disagree with their actual offset, so the
//! reader truncates exactly where the duplication starts.
//!
//! The log carries metadata only, in two record kinds: `Checkpoint`
//! (the one full metadata snapshot: whole name table, document
//! directory, document counter; always the first record of a log,
//! nowhere else) and `Commit` (the transaction's metadata *delta*: the new
//! document counter, the dictionary names interned since the last
//! durable record, the document-table entry removed and/or added).
//! Both payloads are opaque bytes here — the `document::meta` codec
//! owns their layout, and recovery hands them back in log order for the
//! store to fold.
//!
//! ## Durability rules
//!
//! * **Only free pages are written**: a fresh extent, or a run the
//!   allocator took from the free list after the freeing commit's record
//!   was durable. No state recovery can reach holds such a page as live
//!   until a durable `Commit` makes it live, so no write ever needs
//!   undoing or redoing.
//! * A commit writes its pages to the page file and syncs it, then
//!   writes its `Commit`: a durable `Commit` names only synced pages.
//! * A transaction is committed iff its `Commit` record is fully
//!   durable. [`Wal::write`] writes and syncs one record; the fault
//!   injector persists only a *strict prefix* of a write it fails, and a
//!   failed write cuts the log back to its durable length, so an
//!   operation that returned an error can never have a durable commit
//!   record, and the next record lands at the offset its LSN names.
//!
//! A log is installed whole, never truncated in place: [`Wal::create`]
//! and [`Wal::checkpoint`] write the new log, holding one `Checkpoint`,
//! to `<log>.tmp`, sync it, rename it over the old log and sync the
//! directory. A crash before the rename leaves the old log in charge.
//!
//! ## Recovery
//!
//! [`replay`] is analysis only: it reads the valid prefix of the log
//! (truncating at the first checksum or LSN mismatch — a torn final
//! record) and returns the checkpoint payload and the commit payloads
//! after it, in log order. It reads no page.

use crate::checksum::crc32;
use crate::error::{Result, StoreError};
use crate::fault::LogFault;
use crate::storage::SharedDisk;
use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Log sequence number: the byte offset of a record in the log file.
pub type Lsn = u64;

/// Bytes of frame header (length + checksum) preceding each payload.
const FRAME_HEADER: usize = 8;

const KIND_COMMIT: u8 = 3;
const KIND_CHECKPOINT: u8 = 5;

/// One log record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A transaction committed; `meta` is what it changed in the store
    /// metadata.
    Commit {
        /// Serialized metadata delta (the `document::meta` codec).
        meta: Vec<u8>,
    },
    /// The full metadata snapshot; always the first record of a log
    /// file.
    Checkpoint {
        /// Serialized metadata snapshot (the `document::meta` codec).
        meta: Vec<u8>,
    },
}

/// Encode one record (with its frame header) at LSN `lsn` into `out`.
pub fn encode_record(lsn: Lsn, rec: &WalRecord, out: &mut Vec<u8>) {
    let (kind, meta) = match rec {
        WalRecord::Commit { meta } => (KIND_COMMIT, meta),
        WalRecord::Checkpoint { meta } => (KIND_CHECKPOINT, meta),
    };
    let mut payload = Vec::with_capacity(13 + meta.len());
    payload.extend_from_slice(&lsn.to_le_bytes());
    payload.push(kind);
    payload.extend_from_slice(&(meta.len() as u32).to_le_bytes());
    payload.extend_from_slice(meta);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
}

fn rd_u32(b: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_le_bytes(b.get(at..at + 4)?.try_into().ok()?))
}

fn rd_u64(b: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_le_bytes(b.get(at..at + 8)?.try_into().ok()?))
}

/// Decode one payload. Returns `None` on any structural problem (the
/// reader treats that as a torn tail and truncates).
fn decode_payload(payload: &[u8]) -> Option<(Lsn, WalRecord)> {
    let lsn = rd_u64(payload, 0)?;
    let kind = *payload.get(8)?;
    let len = rd_u32(payload, 9)? as usize;
    let meta = payload.get(13..13 + len)?.to_vec();
    if payload.len() != 13 + len {
        return None;
    }
    let rec = match kind {
        KIND_COMMIT => WalRecord::Commit { meta },
        KIND_CHECKPOINT => WalRecord::Checkpoint { meta },
        _ => return None,
    };
    Some((lsn, rec))
}

/// The readable prefix of a log image.
#[derive(Debug)]
pub struct LogContents {
    /// Records in log order with their LSNs.
    pub records: Vec<(Lsn, WalRecord)>,
    /// Bytes of the valid prefix (everything past this is a torn tail,
    /// a duplicated tail, or garbage, and is ignored).
    pub valid_len: u64,
}

/// Parse `bytes` as a log, truncating at the first frame whose length
/// field overruns the file, whose checksum mismatches, or whose payload
/// LSN disagrees with its offset.
pub fn read_log(bytes: &[u8]) -> LogContents {
    let mut records = Vec::new();
    let mut off = 0usize;
    while off + FRAME_HEADER <= bytes.len() {
        let len = match rd_u32(bytes, off) {
            Some(l) => l as usize,
            None => break,
        };
        let crc = match rd_u32(bytes, off + 4) {
            Some(c) => c,
            None => break,
        };
        let start = off + FRAME_HEADER;
        if len == 0 || start + len > bytes.len() {
            break; // torn final record
        }
        let payload = &bytes[start..start + len];
        if crc32(payload) != crc {
            break; // torn or corrupted final record
        }
        match decode_payload(payload) {
            Some((lsn, rec)) if lsn == off as u64 => records.push((lsn, rec)),
            // An intact frame at the wrong offset is a duplicated tail
            // (or a misplaced write): recovery must stop before it.
            _ => break,
        }
        off = start + len;
    }
    LogContents {
        records,
        valid_len: off as u64,
    }
}

/// Counters of write-ahead-log activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records handed to the log (the first checkpoint included, later
    /// checkpoints not), durable or not: a retried write counts again.
    pub records: u64,
    /// Bytes of those records.
    pub appended_bytes: u64,
    /// Record writes that landed and were synced.
    pub flushes: u64,
    /// Bytes made durable by those writes.
    pub synced_bytes: u64,
    /// Checkpoints taken (log truncations).
    pub checkpoints: u64,
}

enum WalBackend {
    File {
        file: std::fs::File,
        path: PathBuf,
    },
    /// In-memory log for `on_disk: false` stores: the write path runs
    /// (and is measurable) but nothing survives the process.
    Mem(Vec<u8>),
}

/// The append side of the log.
///
/// [`Wal::write`] writes and syncs one record at a time; there is no
/// volatile tail. The simulated-crash injector is shared with the page
/// file's [`DiskManager`](crate::storage::DiskManager) (via
/// [`SharedDisk`]) so one `crash=N` schedule counts page writes and log
/// writes on a single clock, and each log write consults it once.
pub struct Wal {
    backend: WalBackend,
    disk: SharedDisk,
    durable: u64,
    /// A failed write could not cut the log back to `durable`: bytes
    /// past it may sit where the next record would go, so no later
    /// write is attempted.
    stuck: bool,
    stats: WalStats,
}

impl Wal {
    /// Install a fresh log at `path` (in memory if `None`) whose one
    /// record is `Checkpoint { meta }`. A log already at `path` stays in
    /// charge until the new one has replaced it whole.
    pub fn create(path: Option<&Path>, disk: SharedDisk, meta: Vec<u8>) -> Result<Self> {
        let content = checkpoint_log(meta);
        let backend = install(path, &disk, &content)?;
        let len = content.len() as u64;
        Ok(Wal {
            backend,
            disk,
            durable: len,
            stuck: false,
            stats: WalStats {
                records: 1,
                appended_bytes: len,
                flushes: 1,
                synced_bytes: len,
                checkpoints: 0,
            },
        })
    }

    /// Activity counters.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// Write `rec` at the end of the log and fdatasync it. On `Ok` the
    /// record is durable. On a failed write the log is cut back to its
    /// durable length, so a retry lands at the offset its LSN names; if
    /// the cut fails too, every later write is refused as
    /// [`StoreError::WalCorrupt`].
    pub fn write(&mut self, rec: &WalRecord) -> Result<()> {
        if self.stuck {
            return Err(StoreError::WalCorrupt {
                offset: self.durable,
                reason: "a failed write could not be cut back",
            });
        }
        let mut frame = Vec::new();
        encode_record(self.durable, rec, &mut frame);
        self.stats.records += 1;
        self.stats.appended_bytes += frame.len() as u64;
        let fault = self.disk.lock().on_log_write(frame.len());
        let written = match fault {
            // A short write, then the error.
            LogFault::Error { persist } => {
                self.write_durable(&frame[..persist])
                    .and(Err(StoreError::Io(std::io::Error::new(
                        std::io::ErrorKind::Interrupted,
                        "injected transient log write error",
                    ))))
            }
            LogFault::Crash { persist } => {
                // The machine dies mid-write: a strict prefix of the
                // record lands.
                self.write_durable(&frame[..persist])?;
                self.durable += persist as u64;
                return Err(StoreError::SimulatedCrash);
            }
            LogFault::None => self.write_durable(&frame),
        };
        if let Err(e) = written {
            self.stuck = self.cut_back().is_err();
            return Err(e);
        }
        self.durable += frame.len() as u64;
        self.stats.flushes += 1;
        self.stats.synced_bytes += frame.len() as u64;
        Ok(())
    }

    fn write_durable(&mut self, bytes: &[u8]) -> Result<()> {
        match &mut self.backend {
            WalBackend::Mem(log) => log.extend_from_slice(bytes),
            WalBackend::File { file, .. } => {
                if !bytes.is_empty() {
                    file.write_all(bytes)?;
                }
                // fdatasync: the appended bytes and the length needed to
                // read them are persisted; the inode metadata `sync_all`
                // additionally flushes buys nothing for a pure append.
                file.sync_data()?;
            }
        }
        Ok(())
    }

    /// Drop every byte past `durable` from the log, and append from there.
    fn cut_back(&mut self) -> std::io::Result<()> {
        use std::io::Seek;
        match &mut self.backend {
            WalBackend::Mem(log) => log.truncate(self.durable as usize),
            WalBackend::File { file, .. } => {
                file.set_len(self.durable)?;
                file.seek(std::io::SeekFrom::End(0))?;
            }
        }
        Ok(())
    }

    /// Truncate the log: install a brand-new log holding only
    /// `Checkpoint { meta }` in place of the old one. The caller must
    /// have synced the page file first.
    pub fn checkpoint(&mut self, meta: Vec<u8>) -> Result<()> {
        let content = checkpoint_log(meta);
        let path = match &self.backend {
            WalBackend::File { path, .. } => Some(path.clone()),
            WalBackend::Mem(_) => None,
        };
        self.backend = install(path.as_deref(), &self.disk, &content)?;
        self.durable = content.len() as u64;
        self.stuck = false;
        self.stats.checkpoints += 1;
        Ok(())
    }

    /// The full durable log image (for tests and recovery of in-memory
    /// stores within one process).
    pub fn durable_bytes(&mut self) -> Result<Vec<u8>> {
        match &mut self.backend {
            WalBackend::Mem(log) => Ok(log.clone()),
            WalBackend::File { path, .. } => Ok(std::fs::read(&*path)?),
        }
    }
}

/// A whole log holding one `Checkpoint { meta }`.
fn checkpoint_log(meta: Vec<u8>) -> Vec<u8> {
    let mut content = Vec::new();
    encode_record(0, &WalRecord::Checkpoint { meta }, &mut content);
    content
}

/// Make `content` the whole log at `path` (in memory if `None`), after
/// one consultation of the injector: write it to `<path>.tmp`, sync it,
/// rename it over `path` and sync the directory, so that at every
/// instant either the old log or the new one is in place. Returns the
/// new log, open for appending.
fn install(path: Option<&Path>, disk: &SharedDisk, content: &[u8]) -> Result<WalBackend> {
    let crash = match disk.lock().on_log_write(content.len()) {
        LogFault::Error { .. } => {
            return Err(StoreError::Io(std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                "injected transient log write error while installing a log",
            )))
        }
        LogFault::Crash { persist } => Some(persist),
        LogFault::None => None,
    };
    let Some(path) = path else {
        return match crash {
            Some(_) => Err(StoreError::SimulatedCrash),
            None => Ok(WalBackend::Mem(content.to_vec())),
        };
    };
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    if let Some(persist) = crash {
        // Die before the rename: the old log stays in charge, and the
        // torn temp bytes are never read.
        let _ = std::fs::write(&tmp, &content[..persist]);
        return Err(StoreError::SimulatedCrash);
    }
    let mut file = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(&tmp)?;
    file.write_all(content)?;
    file.sync_all()?;
    std::fs::rename(&tmp, path)?;
    // The rename is durable only once the directory entry is.
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    std::fs::File::open(dir)?.sync_all()?;
    Ok(WalBackend::File {
        file,
        path: path.to_owned(),
    })
}

/// What [`replay`] read from a log.
#[derive(Debug, PartialEq)]
pub struct RecoveredState {
    /// The checkpoint's metadata snapshot bytes.
    pub checkpoint: Vec<u8>,
    /// The metadata delta of every durably committed transaction after
    /// the checkpoint, in log order. Folding them over the checkpoint
    /// gives the recovered metadata.
    pub commits: Vec<Vec<u8>>,
}

/// Analyse `log_bytes`: its first record must be a `Checkpoint` and
/// every later one a `Commit`. Reads no page; a pure function of the
/// bytes.
pub fn replay(log_bytes: &[u8]) -> Result<RecoveredState> {
    let mut records = read_log(log_bytes).records.into_iter();
    let Some((_, WalRecord::Checkpoint { meta: checkpoint })) = records.next() else {
        return Err(StoreError::WalCorrupt {
            offset: 0,
            reason: "log does not start with a checkpoint record",
        });
    };
    let commits = records
        .map(|(lsn, rec)| match rec {
            WalRecord::Commit { meta } => Ok(meta),
            WalRecord::Checkpoint { .. } => Err(StoreError::WalCorrupt {
                offset: lsn,
                reason: "a checkpoint record after the first",
            }),
        })
        .collect::<Result<_>>()?;
    Ok(RecoveredState {
        checkpoint,
        commits,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::DiskManager;

    fn commit(meta: &[u8]) -> WalRecord {
        WalRecord::Commit {
            meta: meta.to_vec(),
        }
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Checkpoint {
                meta: vec![1, 2, 3],
            },
            commit(&[9, 9]),
            commit(&[7]),
        ]
    }

    fn encode_all(records: &[WalRecord]) -> Vec<u8> {
        let mut out = Vec::new();
        for rec in records {
            let lsn = out.len() as u64;
            encode_record(lsn, rec, &mut out);
        }
        out
    }

    fn mem_wal() -> Wal {
        let disk = SharedDisk::new(DiskManager::in_memory());
        Wal::create(None, disk, vec![1]).unwrap()
    }

    #[test]
    fn records_round_trip() {
        let records = sample_records();
        let bytes = encode_all(&records);
        let parsed = read_log(&bytes);
        assert_eq!(parsed.valid_len, bytes.len() as u64);
        let got: Vec<WalRecord> = parsed.records.into_iter().map(|(_, r)| r).collect();
        assert_eq!(got, records);
    }

    /// The frame header (`len`, `crc`) of one record of each kind, pinned
    /// at the values the bytewise CRC32 kernel produced: the CRC covers
    /// the whole payload, so a changed kernel or payload layout shows
    /// here before it can make an existing log unreadable.
    #[test]
    fn golden_frames_pin_the_log_format() {
        let records = [
            WalRecord::Commit {
                meta: (0..40).collect(),
            },
            WalRecord::Checkpoint {
                meta: (0..200).map(|i| (i * 7) as u8).collect(),
            },
        ];
        let headers: Vec<(u32, u32)> = records
            .iter()
            .map(|rec| {
                let mut frame = Vec::new();
                encode_record(0x1234_5678, rec, &mut frame);
                (rd_u32(&frame, 0).unwrap(), rd_u32(&frame, 4).unwrap())
            })
            .collect();
        let golden = [(53, 0x0B16_F937), (213, 0x6048_5BF7)];
        assert_eq!(headers, golden);
    }

    #[test]
    fn torn_tail_truncates_cleanly() {
        let records = sample_records();
        let bytes = encode_all(&records);
        // Chop the file anywhere: the reader returns a valid prefix and
        // never panics.
        for cut in 0..bytes.len() {
            let parsed = read_log(&bytes[..cut]);
            assert!(parsed.valid_len <= cut as u64);
            let reparsed = read_log(&bytes[..parsed.valid_len as usize]);
            assert_eq!(reparsed.records.len(), parsed.records.len());
        }
    }

    #[test]
    fn duplicated_tail_is_ignored() {
        let records = sample_records();
        let bytes = encode_all(&records);
        // Append a stale copy of the last frame (e.g. a retried write
        // after a partially-acknowledged one).
        let mut doubled = bytes.clone();
        let mut tail = Vec::new();
        encode_record(0, &commit(&[7]), &mut tail);
        doubled.extend_from_slice(&tail);
        let parsed = read_log(&doubled);
        assert_eq!(parsed.valid_len, bytes.len() as u64);
        assert_eq!(parsed.records.len(), records.len());
    }

    #[test]
    fn replay_returns_the_checkpoint_and_every_commit_in_log_order() {
        let mut log = encode_all(&sample_records());
        let state = replay(&log).unwrap();
        assert_eq!(state.checkpoint, vec![1, 2, 3]);
        assert_eq!(state.commits, vec![vec![9, 9], vec![7]]);
        // A torn final commit is not committed.
        let torn = replay(&log[..log.len() - 1]).unwrap();
        assert_eq!(torn.commits, vec![vec![9, 9]]);
        // No log this store writes holds a second checkpoint.
        let at = log.len() as u64;
        let second = WalRecord::Checkpoint { meta: vec![4] };
        encode_record(at, &second, &mut log);
        match replay(&log) {
            Err(StoreError::WalCorrupt { offset, .. }) => assert_eq!(offset, at),
            other => panic!("expected WalCorrupt, got {other:?}"),
        }
    }

    #[test]
    fn a_failed_write_leaves_nothing_for_a_later_write_to_carry() {
        // Every log write lands half its bytes and fails; the page range
        // matches no page.
        let log_down: crate::FaultConfig = "seed=1,write_err=1.0,pages=4294967295-4294967295"
            .parse()
            .unwrap();
        let disk = SharedDisk::new(DiskManager::in_memory());
        let mut wal = Wal::create(None, disk.clone(), vec![1]).unwrap();
        wal.write(&commit(&[1])).unwrap();
        let before = wal.durable_bytes().unwrap();
        disk.set_fault_injector(Some(crate::FaultInjector::new(log_down)));
        let err = wal.write(&commit(&[2; 64])).unwrap_err();
        assert!(err.is_transient(), "{err}");
        assert_eq!(wal.durable_bytes().unwrap(), before, "cut back");
        disk.set_fault_injector(None);
        wal.write(&commit(&[3])).unwrap();
        let state = replay(&wal.durable_bytes().unwrap()).unwrap();
        assert_eq!(state.commits, vec![vec![1], vec![3]]);
        let stats = wal.stats();
        assert_eq!((stats.records, stats.flushes), (4, 3));
    }

    #[test]
    fn log_without_checkpoint_is_typed_corruption() {
        let log = encode_all(&[commit(&[1])]);
        match replay(&log) {
            Err(StoreError::WalCorrupt { offset: 0, .. }) => {}
            other => panic!("expected WalCorrupt, got {other:?}"),
        }
    }

    #[test]
    fn checkpoint_truncates_log() {
        let mut wal = mem_wal();
        for i in 0..10 {
            wal.write(&commit(&[i])).unwrap();
        }
        let before = wal.durable_bytes().unwrap().len();
        wal.checkpoint(vec![2]).unwrap();
        let bytes = wal.durable_bytes().unwrap();
        assert!(bytes.len() < before);
        let parsed = read_log(&bytes);
        assert_eq!(parsed.records.len(), 1);
        match &parsed.records[0].1 {
            WalRecord::Checkpoint { meta } => assert_eq!(meta, &vec![2]),
            other => panic!("expected checkpoint, got {other:?}"),
        }
        assert_eq!(wal.stats().checkpoints, 1);
        // The next record follows the new checkpoint.
        wal.write(&commit(&[3])).unwrap();
        let state = replay(&wal.durable_bytes().unwrap()).unwrap();
        assert_eq!(state.commits, vec![vec![3]]);
    }
}
