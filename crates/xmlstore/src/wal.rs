//! The write-ahead log and ARIES-style crash recovery.
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
//! Record kinds: `Begin`, `PageImage` (a full after image — physical
//! logging; the before image is a flag byte, always 0 for the all-zero
//! page, since only free or fresh pages are written and they are zeroed
//! on reuse),
//! `Commit` (carrying the transaction's metadata *delta*: new counters,
//! the dictionary names interned since the last durable record, the
//! document-table entry removed and/or added), `Abort`, and `Checkpoint`
//! (the one full metadata snapshot: whole name table, document
//! directory, counters; always the first record of a log). Both
//! payloads are opaque bytes here — the `document::meta` codec owns
//! their layout, and recovery hands them back in log order for the
//! store to fold.
//!
//! ## Durability rules
//!
//! * **Steal**: a dirty page may be written back before its transaction
//!   commits — the buffer pool calls [`Wal::flush_to`] with the frame's
//!   LSN first, so the page's images are durable before the page is.
//! * **No-force**: commit does not flush data pages; it flushes the log
//!   (group fsync: one `flush` call pushes every buffered record).
//! * A transaction is committed iff its `Commit` record is fully
//!   durable. The simulated-crash injector persists only a *strict
//!   prefix* of any pending flush, so an operation that returned an
//!   error can never have a durable commit record.
//!
//! Checkpoints truncate: a checkpoint writes a brand-new log containing
//! one `Checkpoint` record (after flushing all dirty pages) and
//! atomically renames it over the old log.
//!
//! ## Recovery
//!
//! [`recover`] reads the log tail (truncating at the first checksum or
//! LSN mismatch — a torn final record), then runs three phases:
//!
//! 1. **Analysis** — find the committed set, the checkpoint payload and
//!    the committed payloads that follow it, in log order (a transaction
//!    with an `Abort` is a loser whatever else the log holds of it);
//! 2. **Redo** — repeat history: every page image is rewritten in log
//!    order, stamping the record's LSN into the page header (full
//!    images make this idempotent, and it also repairs pages torn by a
//!    crash mid-writeback);
//! 3. **Undo** — loser transactions' images are rolled back in reverse
//!    log order, zeroing the page again, but only where the loser's
//!    write is still the newest on that page (last-image check), so a
//!    later committed reuse of the page survives.
//!
//! Replaying recovery twice leaves the same bytes as replaying it once.

use crate::checksum::crc32;
use crate::error::{Result, StoreError};
use crate::fault::LogFault;
use crate::page::{self, PageId, PAGE_SIZE};
use crate::storage::{DiskManager, SharedDisk};
use std::collections::{HashMap, HashSet};
use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// Log sequence number: the byte offset of a record in the log file.
pub type Lsn = u64;

/// Transaction identifier.
pub type TxnId = u64;

/// Bytes of frame header (length + checksum) preceding each payload.
const FRAME_HEADER: usize = 8;

const KIND_BEGIN: u8 = 1;
const KIND_PAGE_IMAGE: u8 = 2;
const KIND_COMMIT: u8 = 3;
const KIND_ABORT: u8 = 4;
const KIND_CHECKPOINT: u8 = 5;

/// One log record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A transaction started.
    Begin {
        /// The transaction.
        txn: TxnId,
    },
    /// A full physical page image written by `txn`. Only a free or
    /// fresh page is ever written (pages are zeroed on reuse), so the
    /// state to restore if `txn` loses is all-zero and is not logged.
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
    /// `txn` rolled back in-process (recovery also treats any
    /// unfinished transaction as aborted).
    Abort {
        /// The aborted transaction.
        txn: TxnId,
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
            WalRecord::Begin { .. } => KIND_BEGIN,
            WalRecord::PageImage { .. } => KIND_PAGE_IMAGE,
            WalRecord::Commit { .. } => KIND_COMMIT,
            WalRecord::Abort { .. } => KIND_ABORT,
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
        WalRecord::Begin { txn } | WalRecord::Abort { txn } => {
            payload.extend_from_slice(&txn.to_le_bytes());
        }
        WalRecord::PageImage { txn, pid, after } => {
            payload.extend_from_slice(&txn.to_le_bytes());
            payload.extend_from_slice(&pid.0.to_le_bytes());
            // The before-image flag: 0, the all-zero page.
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
        KIND_BEGIN => WalRecord::Begin {
            txn: rd_u64(payload, 9)?,
        },
        KIND_ABORT => WalRecord::Abort {
            txn: rd_u64(payload, 9)?,
        },
        KIND_PAGE_IMAGE => {
            let txn = rd_u64(payload, 9)?;
            let pid = PageId(rd_u32(payload, 17)?);
            // Any before-image flag but 0 (the all-zero page) ends the
            // valid log.
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
        temp: bool,
    },
    /// In-memory log for `on_disk: false` stores: the write path runs
    /// (and is measurable) but nothing survives the process.
    Mem(Vec<u8>),
}

/// The append side of the log.
///
/// Appends go to a volatile tail buffer; [`Wal::flush`] /
/// [`Wal::flush_to`] persist and fsync it. The simulated-crash injector
/// is shared with the page file's [`DiskManager`] (via [`SharedDisk`])
/// so one `crash=N` schedule counts page writes and log flushes on a
/// single clock — and a crash mid-flush loses the unflushed tail, just
/// like a real kill would.
pub struct Wal {
    backend: WalBackend,
    disk: SharedDisk,
    buf: Vec<u8>,
    durable: u64,
    stats: WalStats,
}

impl Wal {
    /// Create a fresh log (truncating `path` if given, in-memory
    /// otherwise) whose first record is `Checkpoint { meta }`.
    pub fn create(
        path: Option<&Path>,
        temp: bool,
        disk: SharedDisk,
        meta: Vec<u8>,
    ) -> Result<Self> {
        let backend = match path {
            Some(p) => WalBackend::File {
                file: OpenOptions::new()
                    .read(true)
                    .write(true)
                    .create(true)
                    .truncate(true)
                    .open(p)?,
                path: p.to_owned(),
                temp,
            },
            None => WalBackend::Mem(Vec::new()),
        };
        let mut wal = Wal {
            backend,
            disk,
            buf: Vec::new(),
            durable: 0,
            stats: WalStats::default(),
        };
        wal.append(WalRecord::Checkpoint { meta });
        wal.flush()?;
        Ok(wal)
    }

    /// Reopen an existing on-disk log for appending. `durable` must be
    /// the valid length reported by [`read_log`] — a torn tail beyond it
    /// is truncated away so new records land at consistent offsets.
    pub fn open(path: &Path, temp: bool, disk: SharedDisk, durable: u64) -> Result<Self> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(durable)?;
        file.seek_to_end()?;
        Ok(Wal {
            backend: WalBackend::File {
                file,
                path: path.to_owned(),
                temp,
            },
            disk,
            buf: Vec::new(),
            durable,
            stats: WalStats::default(),
        })
    }

    /// Activity counters.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// LSN the next appended record will get.
    pub fn next_lsn(&self) -> Lsn {
        self.durable + self.buf.len() as u64
    }

    /// Bytes known durable (flushed and fsynced).
    pub fn durable_lsn(&self) -> Lsn {
        self.durable
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
    /// never touched — a transaction whose earlier images reached the
    /// disk stays in the log and is rolled back as a loser at recovery.
    /// When `from_lsn` itself is already durable (an eviction flushed
    /// the transaction's first records), everything still buffered
    /// comes after it and all of it goes.
    pub fn truncate_pending(&mut self, from_lsn: Lsn) {
        let keep = from_lsn.saturating_sub(self.durable) as usize;
        self.buf.truncate(keep);
    }

    /// Make every record up to and including `lsn` durable. A no-op if
    /// `lsn` is already durable; otherwise the *entire* tail buffer is
    /// flushed in one write + fsync (group commit).
    pub fn flush_to(&mut self, lsn: Lsn) -> Result<()> {
        if lsn < self.durable || self.buf.is_empty() {
            return Ok(());
        }
        self.flush()
    }

    /// Flush and fsync the whole tail buffer.
    pub fn flush(&mut self) -> Result<()> {
        if self.buf.is_empty() {
            if self.disk.crashed() {
                return Err(StoreError::SimulatedCrash);
            }
            return Ok(());
        }
        let fault = self.disk.lock().on_log_write(self.buf.len());
        match fault {
            LogFault::Error => Err(StoreError::Io(std::io::Error::new(
                std::io::ErrorKind::Interrupted,
                "injected transient log write error",
            ))),
            LogFault::Crash { persist } => {
                // The machine dies mid-flush: a strict prefix of the
                // pending bytes lands; the rest of the tail is lost.
                let prefix = self.buf[..persist].to_vec();
                self.write_durable(&prefix)?;
                self.durable += persist as u64;
                self.buf.clear();
                Err(StoreError::SimulatedCrash)
            }
            LogFault::None => {
                let pending = std::mem::take(&mut self.buf);
                self.write_durable(&pending)?;
                self.durable += pending.len() as u64;
                self.stats.flushes += 1;
                self.stats.synced_bytes += pending.len() as u64;
                Ok(())
            }
        }
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

    /// Truncate the log: write a brand-new log containing only
    /// `Checkpoint { meta }` and atomically swap it in. The caller must
    /// have flushed all dirty pages (and synced the page file) first —
    /// after this, the old page images are gone.
    pub fn checkpoint(&mut self, meta: Vec<u8>) -> Result<()> {
        let mut content = Vec::new();
        encode_record(0, &WalRecord::Checkpoint { meta }, &mut content);

        let fault = self.disk.lock().on_log_write(content.len());
        match fault {
            LogFault::Error => {
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

/// A shared, lockable handle to a [`Wal`]. The buffer pool holds a
/// clone so that evicting a stolen dirty frame can flush the log first.
/// Lock order is pool → wal → disk, everywhere.
#[derive(Clone)]
pub struct WalHandle(Arc<Mutex<Wal>>);

impl WalHandle {
    /// Wrap a log in a shareable handle.
    pub fn new(wal: Wal) -> Self {
        WalHandle(Arc::new(Mutex::new(wal)))
    }

    /// Lock the log. Poisoning is ignored for the same reason as in
    /// [`SharedDisk`]: the log's buffer holds no cross-call invariants a
    /// panicked append could break mid-flight.
    pub fn lock(&self) -> MutexGuard<'_, Wal> {
        self.0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
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

impl Drop for Wal {
    fn drop(&mut self) {
        if let WalBackend::File {
            path, temp: true, ..
        } = &self.backend
        {
            let _ = std::fs::remove_file(path);
            let _ = std::fs::remove_file(tmp_path(path));
        }
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
    /// Page images rewritten during redo.
    pub redone: usize,
    /// Loser images rolled back during undo.
    pub undone: usize,
    /// Committed transactions found by analysis.
    pub committed: usize,
    /// Loser (unfinished or aborted) transactions rolled back.
    pub losers: usize,
}

/// Run analysis/redo/undo over `log_bytes` against the open page file in
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
    // Metadata payloads are moved out of the records: redo and undo
    // below read page images only.
    let mut checkpoint: Vec<u8> = Vec::new();
    let mut commits: Vec<(TxnId, Vec<u8>)> = Vec::new();
    let mut committed: HashSet<TxnId> = HashSet::new();
    let mut seen: HashSet<TxnId> = HashSet::new();
    let mut aborted: HashSet<TxnId> = HashSet::new();
    let mut next_txn: TxnId = 1;
    let mut last_image: HashMap<u32, Lsn> = HashMap::new();
    for (lsn, rec) in &mut contents.records {
        match rec {
            WalRecord::Checkpoint { meta } => {
                checkpoint = std::mem::take(meta);
                commits.clear();
            }
            WalRecord::Begin { txn } => {
                seen.insert(*txn);
                next_txn = next_txn.max(*txn + 1);
            }
            WalRecord::PageImage { txn, pid, .. } => {
                seen.insert(*txn);
                next_txn = next_txn.max(*txn + 1);
                last_image.insert(pid.0, *lsn);
            }
            WalRecord::Commit { txn, meta } => {
                committed.insert(*txn);
                next_txn = next_txn.max(*txn + 1);
                commits.push((*txn, std::mem::take(meta)));
            }
            WalRecord::Abort { txn } => {
                aborted.insert(*txn);
                next_txn = next_txn.max(*txn + 1);
            }
        }
    }
    // An `Abort` means the writer rolled the transaction back in memory
    // (released its pages, left the document table and `dict_logged` as
    // they were), so it wins over a `Commit` of the same transaction:
    // the delta must not reach the fold and the images are undone. The
    // rollback drops the buffered commit record before it appends the
    // abort, so this store does not write such a log; one that holds
    // the pair anyway is read the way the writer went on.
    committed.retain(|t| !aborted.contains(t));
    commits.retain(|(t, _)| committed.contains(t));
    let losers: HashSet<TxnId> = seen
        .iter()
        .filter(|t| !committed.contains(t))
        .copied()
        .collect();

    // ---- redo: repeat history ----------------------------------------
    let mut redone = 0usize;
    for (lsn, rec) in &contents.records {
        if let WalRecord::PageImage { pid, after, .. } = rec {
            ensure_allocated(disk, *pid)?;
            let mut image = **after;
            page::set_lsn(&mut image, *lsn);
            disk.write_page(*pid, &image)?;
            redone += 1;
        }
    }

    // ---- undo: roll back losers in reverse log order -----------------
    // Only where the loser's write is still the newest on the page: a
    // later transaction (committed or not) that reused the page owns its
    // final state, and redo already installed it.
    let mut undone = 0usize;
    for (lsn, rec) in contents.records.iter().rev() {
        if let WalRecord::PageImage { txn, pid, .. } = rec {
            if !losers.contains(txn) || last_image.get(&pid.0) != Some(lsn) {
                continue;
            }
            ensure_allocated(disk, *pid)?;
            let mut image = [0u8; PAGE_SIZE];
            page::set_lsn(&mut image, *lsn);
            disk.write_page(*pid, &image)?;
            undone += 1;
        }
    }
    disk.sync()?;

    Ok(RecoveredState {
        checkpoint,
        commits: commits.into_iter().map(|(_, delta)| delta).collect(),
        next_txn,
        log_len: contents.valid_len,
        redone,
        undone,
        committed: committed.len(),
        losers: losers.len(),
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

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Checkpoint {
                meta: vec![1, 2, 3],
            },
            WalRecord::Begin { txn: 1 },
            WalRecord::PageImage {
                txn: 1,
                pid: PageId(0),
                after: image(0xAA),
            },
            WalRecord::Commit {
                txn: 1,
                meta: vec![9, 9],
            },
            WalRecord::Abort { txn: 2 },
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
            WalRecord::Begin {
                txn: 0x0102_0304_0506_0708,
            },
            WalRecord::PageImage {
                txn: 9,
                pid: PageId(7),
                after,
            },
            WalRecord::Commit {
                txn: 9,
                meta: (0..40).collect(),
            },
            WalRecord::Abort { txn: u64::MAX },
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
        let golden = [
            (17, 0xC611_CBAC),
            (8214, 0x7647_7A40),
            (61, 0x421F_FEA1),
            (17, 0x080E_BCDA),
            (213, 0x6048_5BF7),
        ];
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
        // A page image whose before-image flag is not 0, with a valid
        // checksum, ends the valid log at its frame: 1 once meant logged
        // before-image bytes, and no write path logs them.
        let at = encode_all(&records[..2]).len();
        for flag in [1u8, 2] {
            let mut bad = bytes.clone();
            let payload = &mut bad[at + FRAME_HEADER..];
            let len = rd_u32(&bytes, at).unwrap() as usize;
            payload[21] = flag;
            let crc = crc32(&payload[..len]);
            bad[at + 4..at + FRAME_HEADER].copy_from_slice(&crc.to_le_bytes());
            let parsed = read_log(&bad);
            assert_eq!(parsed.valid_len, at as u64, "flag {flag}");
            assert_eq!(parsed.records.len(), 2, "flag {flag}");
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
        encode_record(0, &WalRecord::Begin { txn: 7 }, &mut tail);
        doubled.extend_from_slice(&tail);
        let parsed = read_log(&doubled);
        assert_eq!(parsed.valid_len, bytes.len() as u64);
        assert_eq!(parsed.records.len(), records.len());
    }

    #[test]
    fn replay_redoes_winners_and_undoes_losers() {
        let mut disk = DiskManager::in_memory();
        disk.allocate().unwrap();
        disk.allocate().unwrap();
        let log = encode_all(&[
            WalRecord::Checkpoint { meta: vec![0] },
            WalRecord::Begin { txn: 1 },
            WalRecord::PageImage {
                txn: 1,
                pid: PageId(0),
                after: image(0xAA),
            },
            WalRecord::Commit {
                txn: 1,
                meta: vec![1],
            },
            WalRecord::Begin { txn: 2 },
            WalRecord::PageImage {
                txn: 2,
                pid: PageId(1),
                after: image(0xBB),
            },
            // no commit for txn 2: loser
        ]);
        let state = replay(&mut disk, &log).unwrap();
        assert_eq!(state.checkpoint, vec![0]);
        assert_eq!(state.commits, vec![vec![1]]);
        assert_eq!(state.committed, 1);
        assert_eq!(state.losers, 1);
        assert_eq!(state.next_txn, 3);
        let mut buf = [0u8; PAGE_SIZE];
        disk.read_page(PageId(0), &mut buf).unwrap();
        assert_eq!(buf[PAGE_HEADER_SIZE], 0xAA, "winner redone");
        disk.read_page(PageId(1), &mut buf).unwrap();
        assert_eq!(buf[PAGE_HEADER_SIZE], 0x00, "loser undone to zero");
    }

    #[test]
    fn undo_skips_pages_reused_by_later_transactions() {
        let mut disk = DiskManager::in_memory();
        disk.allocate().unwrap();
        let log = encode_all(&[
            WalRecord::Checkpoint { meta: vec![0] },
            // Loser writes page 0...
            WalRecord::Begin { txn: 1 },
            WalRecord::PageImage {
                txn: 1,
                pid: PageId(0),
                after: image(0x11),
            },
            WalRecord::Abort { txn: 1 },
            // ...then a committed transaction reuses it.
            WalRecord::Begin { txn: 2 },
            WalRecord::PageImage {
                txn: 2,
                pid: PageId(0),
                after: image(0x22),
            },
            WalRecord::Commit {
                txn: 2,
                meta: vec![2],
            },
        ]);
        let state = replay(&mut disk, &log).unwrap();
        assert_eq!(state.undone, 0, "loser image is not newest; undo skips");
        let mut buf = [0u8; PAGE_SIZE];
        disk.read_page(PageId(0), &mut buf).unwrap();
        assert_eq!(buf[PAGE_HEADER_SIZE], 0x22);
    }

    #[test]
    fn an_abort_wins_over_a_commit_of_the_same_transaction() {
        let mut disk = DiskManager::in_memory();
        disk.allocate().unwrap();
        let log = encode_all(&[
            WalRecord::Checkpoint { meta: vec![0] },
            WalRecord::Begin { txn: 1 },
            WalRecord::PageImage {
                txn: 1,
                pid: PageId(0),
                after: image(0x11),
            },
            WalRecord::Commit {
                txn: 1,
                meta: vec![1],
            },
            WalRecord::Abort { txn: 1 },
            WalRecord::Begin { txn: 2 },
            WalRecord::Commit {
                txn: 2,
                meta: vec![2],
            },
        ]);
        let state = replay(&mut disk, &log).unwrap();
        assert_eq!(state.commits, vec![vec![2]], "the aborted delta is dropped");
        assert_eq!((state.committed, state.losers), (1, 1));
        assert_eq!(state.next_txn, 3);
        let mut buf = [0u8; PAGE_SIZE];
        disk.read_page(PageId(0), &mut buf).unwrap();
        assert_eq!(buf[PAGE_HEADER_SIZE], 0x00, "its image is undone");
    }

    #[test]
    fn truncate_pending_drops_the_whole_tail_of_a_partly_durable_transaction() {
        let disk = SharedDisk::new(DiskManager::in_memory());
        let mut wal = Wal::create(None, false, disk, vec![1]).unwrap();
        // Wholly buffered: the cut lands inside the buffer.
        let keep = wal.append(WalRecord::Begin { txn: 1 });
        let start = wal.append(WalRecord::Begin { txn: 2 });
        wal.append(WalRecord::Commit {
            txn: 2,
            meta: vec![2],
        });
        wal.truncate_pending(start);
        assert_eq!(wal.next_lsn(), start);
        assert!(wal.next_lsn() > keep);
        // Partly durable (an eviction flushed `Begin`): the start is
        // behind the durable mark, and the buffered commit still goes.
        let start = wal.append(WalRecord::Begin { txn: 3 });
        wal.flush().unwrap();
        wal.append(WalRecord::Commit {
            txn: 3,
            meta: vec![3],
        });
        assert!(start < wal.durable_lsn());
        wal.truncate_pending(start);
        assert_eq!(wal.next_lsn(), wal.durable_lsn());
        wal.flush().unwrap();
        let records = read_log(&wal.durable_bytes().unwrap()).records;
        assert!(!records
            .iter()
            .any(|(_, r)| matches!(r, WalRecord::Commit { .. })));
    }

    #[test]
    fn replay_twice_is_idempotent() {
        let mut disk = DiskManager::in_memory();
        let log = encode_all(&[
            WalRecord::Checkpoint { meta: vec![0] },
            WalRecord::Begin { txn: 1 },
            WalRecord::PageImage {
                txn: 1,
                pid: PageId(0),
                after: image(0xCC),
            },
            WalRecord::Commit {
                txn: 1,
                meta: vec![1],
            },
            WalRecord::Begin { txn: 2 },
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
        let log = encode_all(&[WalRecord::Begin { txn: 1 }]);
        match replay(&mut disk, &log) {
            Err(StoreError::WalCorrupt { offset: 0, .. }) => {}
            other => panic!("expected WalCorrupt, got {other:?}"),
        }
    }

    #[test]
    fn wal_append_flush_reopen_cycle() {
        let dir = std::env::temp_dir().join(format!("xmlstore-waltest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let wal_path = dir.join("cycle.wal");
        let disk = SharedDisk::new(DiskManager::in_memory());
        {
            let mut wal = Wal::create(Some(&wal_path), false, disk.clone(), vec![7]).unwrap();
            wal.append(WalRecord::Begin { txn: 1 });
            wal.append(WalRecord::Commit {
                txn: 1,
                meta: vec![8],
            });
            wal.flush().unwrap();
            assert_eq!(wal.stats().records, 3);
        }
        let bytes = std::fs::read(&wal_path).unwrap();
        let parsed = read_log(&bytes);
        assert_eq!(parsed.records.len(), 3);
        // Reopen and append more; offsets continue where the log ended.
        let mut wal = Wal::open(&wal_path, false, disk, parsed.valid_len).unwrap();
        let lsn = wal.append(WalRecord::Abort { txn: 2 });
        assert_eq!(lsn, parsed.valid_len);
        wal.flush().unwrap();
        let parsed = read_log(&std::fs::read(&wal_path).unwrap());
        assert_eq!(parsed.records.len(), 4);
        std::fs::remove_file(&wal_path).unwrap();
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn checkpoint_truncates_log() {
        let disk = SharedDisk::new(DiskManager::in_memory());
        let mut wal = Wal::create(None, false, disk, vec![1]).unwrap();
        for i in 0..10 {
            wal.append(WalRecord::Begin { txn: i });
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
