//! The write-ahead log and redo-only crash recovery.
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
//! twice, e.g. by a retried append) is self-identifying — the duplicate
//! records carry LSNs that disagree with their actual offset, so the
//! reader truncates exactly where the duplication starts and replay
//! stays idempotent.
//!
//! Record kinds: `PageImage` (a full after image — physical logging —
//! behind a flag byte that is always 0; a commit syncs its pages in
//! place and logs none, but a log of this format may hold them, and
//! redo reinstalls every one), `Commit` (carrying the
//! transaction's metadata *delta*: new counters, the dictionary names
//! interned since the last durable record, the document-table entry
//! removed and/or added), and `Checkpoint` (the one full metadata
//! snapshot: whole name table, document directory, counters; always the
//! first record of a log). Both payloads are opaque bytes here — the
//! `document::meta` codec owns their layout, and recovery hands them
//! back in log order for the store to fold.
//!
//! ## Durability rules
//!
//! * **Only free pages are written**: a fresh extent, or a run the
//!   allocator took from the free list after the freeing commit's record
//!   was durable. No state recovery can reach holds such a page as live
//!   until a durable `Commit` makes it live, so no write ever needs
//!   undoing.
//! * A commit writes its pages to the page file and syncs it, then
//!   appends its `Commit` and flushes the log: the log carries no page
//!   bytes, and a durable `Commit` names only synced pages.
//! * A transaction is committed iff its `Commit` record is fully
//!   durable. The fault injector persists only a *strict prefix* of a
//!   flush it fails, and a failed flush cuts the log back to its durable
//!   length, so an operation that returned an error can never have a
//!   durable commit record, and the next record lands at the offset its
//!   LSN names.
//!
//! Checkpoints truncate: a checkpoint writes a brand-new log containing
//! one `Checkpoint` record (after syncing the page file) and atomically
//! renames it over the old log.
//!
//! ## Recovery
//!
//! [`recover`] reads the log tail (truncating at the first checksum or
//! LSN mismatch — a torn final record), then runs two phases:
//!
//! 1. **Analysis** — find the checkpoint payload and the committed
//!    payloads that follow it, in log order;
//! 2. **Redo** — every page image is rewritten in log order, committed
//!    or not (full images make this idempotent, and it also repairs
//!    pages torn by a crash mid-commit). A loser's image only ever
//!    lands on a page that is free in the recovered metadata.
//!
//! Replaying recovery twice leaves the same bytes as replaying it once.

use crate::checksum::crc32;
use crate::error::{Result, StoreError};
use crate::fault::LogFault;
use crate::page::{PageId, PAGE_SIZE};
use crate::storage::{DiskManager, SharedDisk};
use std::collections::HashSet;
use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Log sequence number: the byte offset of a record in the log file.
pub type Lsn = u64;

/// Transaction identifier.
pub type TxnId = u64;

/// Bytes of frame header (length + checksum) preceding each payload.
const FRAME_HEADER: usize = 8;

const KIND_PAGE_IMAGE: u8 = 2;
const KIND_COMMIT: u8 = 3;
const KIND_CHECKPOINT: u8 = 5;

/// One log record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A full physical page image written by `txn`. Only a free or
    /// fresh page is ever written, so if `txn` loses, redo leaves the
    /// image on a page the recovered metadata holds free.
    PageImage {
        /// The writing transaction.
        txn: TxnId,
        /// The page written.
        pid: PageId,
        /// State to reinstall if `txn` wins.
        after: Box<[u8; PAGE_SIZE]>,
    },
    /// `txn` committed; `meta` is what it changed in the store metadata.
    Commit {
        /// The committing transaction.
        txn: TxnId,
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

impl WalRecord {
    fn kind(&self) -> u8 {
        match self {
            WalRecord::PageImage { .. } => KIND_PAGE_IMAGE,
            WalRecord::Commit { .. } => KIND_COMMIT,
            WalRecord::Checkpoint { .. } => KIND_CHECKPOINT,
        }
    }
}

/// Encode one record (with its frame header) at LSN `lsn` into `out`.
pub fn encode_record(lsn: Lsn, rec: &WalRecord, out: &mut Vec<u8>) {
    let mut payload = Vec::with_capacity(32);
    payload.extend_from_slice(&lsn.to_le_bytes());
    payload.push(rec.kind());
    match rec {
        WalRecord::PageImage { txn, pid, after } => {
            payload.extend_from_slice(&txn.to_le_bytes());
            payload.extend_from_slice(&pid.0.to_le_bytes());
            // The flag byte, always 0: the reader ends the valid log at
            // any other value.
            payload.push(0);
            payload.extend_from_slice(&after[..]);
        }
        WalRecord::Commit { txn, meta } => {
            payload.extend_from_slice(&txn.to_le_bytes());
            payload.extend_from_slice(&(meta.len() as u32).to_le_bytes());
            payload.extend_from_slice(meta);
        }
        WalRecord::Checkpoint { meta } => {
            payload.extend_from_slice(&(meta.len() as u32).to_le_bytes());
            payload.extend_from_slice(meta);
        }
    }
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

fn rd_page(b: &[u8], at: usize) -> Option<Box<[u8; PAGE_SIZE]>> {
    let slice = b.get(at..at + PAGE_SIZE)?;
    let mut boxed = Box::new([0u8; PAGE_SIZE]);
    boxed.copy_from_slice(slice);
    Some(boxed)
}

/// Decode one payload. Returns `None` on any structural problem (the
/// reader treats that as a torn tail and truncates).
fn decode_payload(payload: &[u8]) -> Option<(Lsn, WalRecord)> {
    let lsn = rd_u64(payload, 0)?;
    let kind = *payload.get(8)?;
    let rec = match kind {
        KIND_PAGE_IMAGE => {
            let txn = rd_u64(payload, 9)?;
            let pid = PageId(rd_u32(payload, 17)?);
            // Any flag but 0 ends the valid log.
            if *payload.get(21)? != 0 {
                return None;
            }
            let after = rd_page(payload, 22)?;
            if payload.len() != 22 + PAGE_SIZE {
                return None;
            }
            WalRecord::PageImage { txn, pid, after }
        }
        KIND_COMMIT => {
            let txn = rd_u64(payload, 9)?;
            let len = rd_u32(payload, 17)? as usize;
            let meta = payload.get(21..21 + len)?.to_vec();
            if payload.len() != 21 + len {
                return None;
            }
            WalRecord::Commit { txn, meta }
        }
        KIND_CHECKPOINT => {
            let len = rd_u32(payload, 9)? as usize;
            let meta = payload.get(13..13 + len)?.to_vec();
            if payload.len() != 13 + len {
                return None;
            }
            WalRecord::Checkpoint { meta }
        }
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
            // (or a misplaced append): replay must stop before it.
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
    /// Records appended (buffered; not necessarily durable yet).
    pub records: u64,
    /// Bytes appended to the in-memory tail buffer.
    pub appended_bytes: u64,
    /// Flush (group-fsync) calls that actually pushed bytes.
    pub flushes: u64,
    /// Bytes made durable by flushes.
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
/// Appends go to a volatile tail buffer; [`Wal::flush`] persists and
/// fsyncs it. The simulated-crash injector is shared with the page
/// file's [`DiskManager`] (via [`SharedDisk`]) so one `crash=N` schedule
/// counts page writes and log flushes on a single clock — and a crash
/// mid-flush loses the unflushed tail, just like a real kill would.
pub struct Wal {
    backend: WalBackend,
    disk: SharedDisk,
    buf: Vec<u8>,
    durable: u64,
    /// A failed flush could not cut the log back to `durable`: bytes
    /// past it may sit where the next record would go, so no later
    /// flush is attempted.
    stuck: bool,
    stats: WalStats,
}

impl Wal {
    /// Create a fresh log (truncating `path` if given, in-memory
    /// otherwise) whose first record is `Checkpoint { meta }`.
    pub fn create(path: Option<&Path>, disk: SharedDisk, meta: Vec<u8>) -> Result<Self> {
        let backend = match path {
            Some(p) => WalBackend::File {
                file: OpenOptions::new()
                    .read(true)
                    .write(true)
                    .create(true)
                    .truncate(true)
                    .open(p)?,
                path: p.to_owned(),
            },
            None => WalBackend::Mem(Vec::new()),
        };
        let mut wal = Wal {
            backend,
            disk,
            buf: Vec::new(),
            durable: 0,
            stuck: false,
            stats: WalStats::default(),
        };
        wal.append(WalRecord::Checkpoint { meta });
        wal.flush()?;
        Ok(wal)
    }

    /// Activity counters.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// LSN the next appended record will get.
    pub fn next_lsn(&self) -> Lsn {
        self.durable + self.buf.len() as u64
    }

    /// Append `rec` to the volatile tail, returning its LSN. Nothing is
    /// durable until the next flush.
    pub fn append(&mut self, rec: WalRecord) -> Lsn {
        let lsn = self.next_lsn();
        let before = self.buf.len();
        encode_record(lsn, &rec, &mut self.buf);
        self.stats.records += 1;
        self.stats.appended_bytes += (self.buf.len() - before) as u64;
        lsn
    }

    /// Drop every *buffered* (not yet durable) record at or after
    /// `from_lsn`. This is the commit-path rollback: when a commit flush
    /// fails without a crash, the commit record must not linger in the
    /// buffer where a later group flush would silently make it durable
    /// after the operation already reported failure. Durable bytes are
    /// never touched; when `from_lsn` is already durable, everything
    /// still buffered comes after it and all of it goes.
    pub fn truncate_pending(&mut self, from_lsn: Lsn) {
        let keep = from_lsn.saturating_sub(self.durable) as usize;
        self.buf.truncate(keep);
    }

    /// Flush and fsync the whole tail buffer. The buffer is kept until
    /// the write and the sync have both succeeded; a failed flush cuts
    /// the log back to its durable length, so a retry writes at the
    /// offset its LSNs name. If the cut fails too, every later flush is
    /// refused as [`StoreError::WalCorrupt`].
    pub fn flush(&mut self) -> Result<()> {
        if self.stuck {
            return Err(StoreError::WalCorrupt {
                offset: self.durable,
                reason: "a failed flush could not be cut back",
            });
        }
        if self.buf.is_empty() {
            if self.disk.crashed() {
                return Err(StoreError::SimulatedCrash);
            }
            return Ok(());
        }
        let pending = std::mem::take(&mut self.buf);
        let fault = self.disk.lock().on_log_write(pending.len());
        let written = match fault {
            // A short write, then the error.
            LogFault::Error { persist } => {
                self.write_durable(&pending[..persist])
                    .and(Err(StoreError::Io(std::io::Error::new(
                        std::io::ErrorKind::Interrupted,
                        "injected transient log write error",
                    ))))
            }
            LogFault::Crash { persist } => {
                // The machine dies mid-flush: a strict prefix of the
                // pending bytes lands; the rest of the tail is lost.
                self.write_durable(&pending[..persist])?;
                self.durable += persist as u64;
                return Err(StoreError::SimulatedCrash);
            }
            LogFault::None => self.write_durable(&pending),
        };
        if let Err(e) = written {
            self.buf = pending;
            self.stuck = self.cut_back().is_err();
            return Err(e);
        }
        self.durable += pending.len() as u64;
        self.stats.flushes += 1;
        self.stats.synced_bytes += pending.len() as u64;
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
        match &mut self.backend {
            WalBackend::Mem(log) => log.truncate(self.durable as usize),
            WalBackend::File { file, .. } => {
                file.set_len(self.durable)?;
                file.seek_to_end()?;
            }
        }
        Ok(())
    }

    /// Truncate the log: write a brand-new log containing only
    /// `Checkpoint { meta }` and atomically swap it in. The caller must
    /// have synced the page file first — after this, the old page
    /// images are gone.
    pub fn checkpoint(&mut self, meta: Vec<u8>) -> Result<()> {
        let mut content = Vec::new();
        encode_record(0, &WalRecord::Checkpoint { meta }, &mut content);

        let fault = self.disk.lock().on_log_write(content.len());
        match fault {
            LogFault::Error { .. } => {
                return Err(StoreError::Io(std::io::Error::new(
                    std::io::ErrorKind::Interrupted,
                    "injected transient log write error during checkpoint",
                )))
            }
            LogFault::Crash { persist } => {
                // Die before the atomic rename: the old log stays
                // authoritative, torn temp bytes are ignored.
                if let WalBackend::File { path, .. } = &self.backend {
                    let tmp = tmp_path(path);
                    let _ = std::fs::write(&tmp, &content[..persist]);
                }
                self.buf.clear();
                return Err(StoreError::SimulatedCrash);
            }
            LogFault::None => {}
        }

        match &mut self.backend {
            WalBackend::Mem(log) => {
                log.clear();
                log.extend_from_slice(&content);
            }
            WalBackend::File { file, path, .. } => {
                let tmp = tmp_path(path);
                {
                    let mut f = OpenOptions::new()
                        .write(true)
                        .create(true)
                        .truncate(true)
                        .open(&tmp)?;
                    f.write_all(&content)?;
                    f.sync_all()?;
                }
                std::fs::rename(&tmp, &*path)?;
                *file = OpenOptions::new().read(true).write(true).open(&*path)?;
                file.seek_to_end()?;
            }
        }
        self.buf.clear();
        self.durable = content.len() as u64;
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

fn tmp_path(path: &Path) -> PathBuf {
    let mut os = path.as_os_str().to_owned();
    os.push(".tmp");
    PathBuf::from(os)
}

trait SeekToEnd {
    fn seek_to_end(&mut self) -> std::io::Result<()>;
}

impl SeekToEnd for std::fs::File {
    fn seek_to_end(&mut self) -> std::io::Result<()> {
        use std::io::Seek;
        self.seek(std::io::SeekFrom::End(0)).map(|_| ())
    }
}

/// What [`recover`] reconstructed.
#[derive(Debug)]
pub struct RecoveredState {
    /// The checkpoint's metadata snapshot bytes.
    pub checkpoint: Vec<u8>,
    /// The metadata delta of every durably committed transaction after
    /// the checkpoint, in log order. Folding them over the checkpoint
    /// gives the recovered metadata.
    pub commits: Vec<Vec<u8>>,
    /// One past the highest transaction id seen in the log.
    pub next_txn: TxnId,
    /// Valid log length (offset where the next record would go).
    pub log_len: u64,
    /// Page images rewritten during redo, committed or not.
    pub redone: usize,
    /// Committed transactions found by analysis.
    pub committed: usize,
    /// Transactions whose images the log holds without a `Commit`.
    pub losers: usize,
}

/// Run analysis and redo over `log_bytes` against the open page file in
/// `disk`. Pure function of its inputs: replaying it twice leaves the
/// same page bytes as replaying it once.
pub fn replay(disk: &mut DiskManager, log_bytes: &[u8]) -> Result<RecoveredState> {
    let mut contents = read_log(log_bytes);
    let first_is_checkpoint = matches!(
        contents.records.first(),
        Some((0, WalRecord::Checkpoint { .. }))
    );
    if !first_is_checkpoint {
        return Err(StoreError::WalCorrupt {
            offset: 0,
            reason: "log does not start with a checkpoint record",
        });
    }

    // ---- analysis ----------------------------------------------------
    // Metadata payloads are moved out of the records: redo below reads
    // page images only.
    let mut checkpoint: Vec<u8> = Vec::new();
    let mut commits: Vec<Vec<u8>> = Vec::new();
    let mut committed: HashSet<TxnId> = HashSet::new();
    let mut imaged: HashSet<TxnId> = HashSet::new();
    let mut next_txn: TxnId = 1;
    for (_, rec) in &mut contents.records {
        match rec {
            WalRecord::Checkpoint { meta } => {
                checkpoint = std::mem::take(meta);
                commits.clear();
            }
            WalRecord::PageImage { txn, .. } => {
                imaged.insert(*txn);
                next_txn = next_txn.max(*txn + 1);
            }
            WalRecord::Commit { txn, meta } => {
                committed.insert(*txn);
                next_txn = next_txn.max(*txn + 1);
                commits.push(std::mem::take(meta));
            }
        }
    }

    // ---- redo: every image, in log order -----------------------------
    let mut redone = 0usize;
    for (_, rec) in &contents.records {
        if let WalRecord::PageImage { pid, after, .. } = rec {
            ensure_allocated(disk, *pid)?;
            disk.write_page(*pid, after)?;
            redone += 1;
        }
    }
    disk.sync()?;

    Ok(RecoveredState {
        checkpoint,
        commits,
        next_txn,
        log_len: contents.valid_len,
        redone,
        committed: committed.len(),
        losers: imaged.difference(&committed).count(),
    })
}

/// Open the page file at `page_path`, replay the log at `wal_path`, and
/// return the recovered state (the caller rebuilds its in-memory
/// projection from the metadata and reopens the [`Wal`] for appending).
pub fn recover(page_path: &Path, wal_path: &Path) -> Result<(DiskManager, RecoveredState)> {
    let log_bytes = std::fs::read(wal_path)?;
    let mut disk = DiskManager::open_existing(page_path)?;
    let state = replay(&mut disk, &log_bytes)?;
    Ok((disk, state))
}

fn ensure_allocated(disk: &mut DiskManager, pid: PageId) -> Result<()> {
    while disk.num_pages() <= pid.0 {
        disk.allocate()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PAGE_HEADER_SIZE;

    fn image(fill: u8) -> Box<[u8; PAGE_SIZE]> {
        let mut b = Box::new([0u8; PAGE_SIZE]);
        for x in b[PAGE_HEADER_SIZE..].iter_mut() {
            *x = fill;
        }
        b
    }

    fn commit(txn: TxnId, meta: &[u8]) -> WalRecord {
        WalRecord::Commit {
            txn,
            meta: meta.to_vec(),
        }
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Checkpoint {
                meta: vec![1, 2, 3],
            },
            WalRecord::PageImage {
                txn: 1,
                pid: PageId(0),
                after: image(0xAA),
            },
            commit(1, &[9, 9]),
            commit(2, &[7]),
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
        use smallrand::{RngCore, SeedableRng, StdRng};
        let mut rng = StdRng::seed_from_u64(24);
        let mut seeded = || {
            let mut b = Box::new([0u8; PAGE_SIZE]);
            b.iter_mut().for_each(|x| *x = rng.next_u64() as u8);
            b
        };
        // The first page drawn was an explicit before image, which the
        // log no longer writes; drawing it still keeps the after image
        // the one the `PageImage` row pins.
        let (_, after) = (seeded(), seeded());
        let records = [
            WalRecord::PageImage {
                txn: 9,
                pid: PageId(7),
                after,
            },
            WalRecord::Commit {
                txn: 9,
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
        let golden = [(8214, 0x7647_7A40), (61, 0x421F_FEA1), (213, 0x6048_5BF7)];
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
        // A page image whose flag byte is not 0, with a valid checksum,
        // ends the valid log at its frame: 1 once meant logged
        // before-image bytes, and no write path logs them.
        let at = encode_all(&records[..1]).len();
        for flag in [1u8, 2] {
            let mut bad = bytes.clone();
            let payload = &mut bad[at + FRAME_HEADER..];
            let len = rd_u32(&bytes, at).unwrap() as usize;
            payload[21] = flag;
            let crc = crc32(&payload[..len]);
            bad[at + 4..at + FRAME_HEADER].copy_from_slice(&crc.to_le_bytes());
            let parsed = read_log(&bad);
            assert_eq!(parsed.valid_len, at as u64, "flag {flag}");
            assert_eq!(parsed.records.len(), 1, "flag {flag}");
        }
    }

    #[test]
    fn duplicated_tail_is_ignored() {
        let records = sample_records();
        let bytes = encode_all(&records);
        // Append a stale copy of the last frame (e.g. a retried append
        // after a partially-acknowledged write).
        let mut doubled = bytes.clone();
        let mut tail = Vec::new();
        encode_record(0, &commit(7, &[7]), &mut tail);
        doubled.extend_from_slice(&tail);
        let parsed = read_log(&doubled);
        assert_eq!(parsed.valid_len, bytes.len() as u64);
        assert_eq!(parsed.records.len(), records.len());
    }

    #[test]
    fn replay_redoes_every_image_and_folds_only_commits() {
        let mut disk = DiskManager::in_memory();
        disk.allocate().unwrap();
        disk.allocate().unwrap();
        let log = encode_all(&[
            WalRecord::Checkpoint { meta: vec![0] },
            WalRecord::PageImage {
                txn: 1,
                pid: PageId(0),
                after: image(0xAA),
            },
            commit(1, &[1]),
            WalRecord::PageImage {
                txn: 2,
                pid: PageId(1),
                after: image(0xBB),
            },
            // no commit for txn 2: loser
        ]);
        let state = replay(&mut disk, &log).unwrap();
        assert_eq!(state.checkpoint, vec![0]);
        assert_eq!(state.commits, vec![vec![1]], "only the winner's delta");
        assert_eq!((state.committed, state.losers), (1, 1));
        assert_eq!(state.redone, 2);
        assert_eq!(state.next_txn, 3);
        let mut buf = [0u8; PAGE_SIZE];
        disk.read_page(PageId(0), &mut buf).unwrap();
        assert_eq!(buf[PAGE_HEADER_SIZE], 0xAA, "winner redone");
        // The loser's page is free in the metadata the deltas fold to,
        // so its image is left where it landed.
        disk.read_page(PageId(1), &mut buf).unwrap();
        assert_eq!(
            buf[PAGE_HEADER_SIZE], 0xBB,
            "loser redone onto its free page"
        );
    }

    #[test]
    fn truncate_pending_drops_the_whole_tail_of_a_partly_durable_transaction() {
        let disk = SharedDisk::new(DiskManager::in_memory());
        let mut wal = Wal::create(None, disk, vec![1]).unwrap();
        // Wholly buffered: the cut lands inside the buffer.
        let keep = wal.append(commit(1, &[1]));
        let start = wal.append(WalRecord::PageImage {
            txn: 2,
            pid: PageId(0),
            after: image(0x22),
        });
        wal.append(commit(2, &[2]));
        wal.truncate_pending(start);
        assert_eq!(wal.next_lsn(), start);
        assert!(wal.next_lsn() > keep);
        // Partly durable: the start is behind the durable mark, and the
        // buffered commit still goes.
        let start = wal.append(WalRecord::PageImage {
            txn: 3,
            pid: PageId(0),
            after: image(0x33),
        });
        wal.flush().unwrap();
        let durable = wal.next_lsn();
        wal.append(commit(3, &[3]));
        assert!(start < durable);
        wal.truncate_pending(start);
        assert_eq!(wal.next_lsn(), durable);
        wal.flush().unwrap();
        let records = read_log(&wal.durable_bytes().unwrap()).records;
        let commits: Vec<TxnId> = records
            .iter()
            .filter_map(|(_, r)| match r {
                WalRecord::Commit { txn, .. } => Some(*txn),
                _ => None,
            })
            .collect();
        assert_eq!(commits, [1]);
    }

    #[test]
    fn replay_twice_is_idempotent() {
        let mut disk = DiskManager::in_memory();
        let log = encode_all(&[
            WalRecord::Checkpoint { meta: vec![0] },
            WalRecord::PageImage {
                txn: 1,
                pid: PageId(0),
                after: image(0xCC),
            },
            commit(1, &[1]),
            WalRecord::PageImage {
                txn: 2,
                pid: PageId(1),
                after: image(0xDD),
            },
        ]);
        replay(&mut disk, &log).unwrap();
        let snapshot: Vec<[u8; PAGE_SIZE]> = (0..disk.num_pages())
            .map(|i| {
                let mut b = [0u8; PAGE_SIZE];
                disk.read_page(PageId(i), &mut b).unwrap();
                b
            })
            .collect();
        replay(&mut disk, &log).unwrap();
        for (i, before) in snapshot.iter().enumerate() {
            let mut after = [0u8; PAGE_SIZE];
            disk.read_page(PageId(i as u32), &mut after).unwrap();
            assert_eq!(&after[..], &before[..], "page {i} changed on replay");
        }
    }

    #[test]
    fn log_without_checkpoint_is_typed_corruption() {
        let mut disk = DiskManager::in_memory();
        let log = encode_all(&[commit(1, &[1])]);
        match replay(&mut disk, &log) {
            Err(StoreError::WalCorrupt { offset: 0, .. }) => {}
            other => panic!("expected WalCorrupt, got {other:?}"),
        }
    }

    #[test]
    fn checkpoint_truncates_log() {
        let disk = SharedDisk::new(DiskManager::in_memory());
        let mut wal = Wal::create(None, disk, vec![1]).unwrap();
        for i in 0..10 {
            wal.append(commit(i, &[i as u8]));
        }
        wal.flush().unwrap();
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
    }
}
