//! The disk manager: a linear file of fixed-size pages, with physical
//! I/O accounting. Stands in for Shore's volume manager.
//!
//! Every page image crossing this layer carries the checksum header from
//! [`crate::page`]: `write_page` seals a private copy of the caller's
//! buffer (so all writers get checksums, whatever bytes they left in the
//! header region), and `read_page` verifies the image it hands back,
//! surfacing damage as [`StoreError::Corruption`]. Allocation writes
//! nothing: a page allocated and never written reads as `Corruption`,
//! never as data. An optional
//! [`FaultInjector`] sits between the checksum logic and the physical
//! backend, corrupting traffic deterministically for the crash-recovery
//! suites.

use crate::error::{Result, StoreError};
use crate::fault::{FaultInjector, FaultStats, LogFault, ReadFault, WriteFault};
use crate::page::{self, PageId, PAGE_SIZE};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Running counters of physical page I/O.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Pages read from the backing store.
    pub reads: u64,
    /// Pages written to the backing store.
    pub writes: u64,
}

enum Backend {
    /// A real file. The `bool` says whether to delete it on drop.
    File {
        file: File,
        path: PathBuf,
        temp: bool,
    },
    /// In-memory pages (for tests and small examples).
    Mem(Vec<Box<[u8]>>),
}

impl Backend {
    /// Persist the first `len` bytes of `buf` at page `pid` (the tail of
    /// the page keeps whatever it held before — how a torn write looks).
    fn write_prefix(&mut self, pid: PageId, buf: &[u8; PAGE_SIZE], len: usize) -> Result<()> {
        match self {
            Backend::Mem(pages) => pages[pid.0 as usize][..len].copy_from_slice(&buf[..len]),
            Backend::File { file, .. } => {
                file.seek(SeekFrom::Start(pid.byte_offset()))?;
                file.write_all(&buf[..len])?;
            }
        }
        Ok(())
    }
}

/// A linear page file.
pub struct DiskManager {
    backend: Backend,
    num_pages: u32,
    reads: u64,
    writes: u64,
    fault: Option<FaultInjector>,
}

static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

fn transient_io(what: &str, pid: PageId) -> StoreError {
    StoreError::Io(std::io::Error::new(
        std::io::ErrorKind::Interrupted,
        format!("injected transient {what} error on page {}", pid.0),
    ))
}

impl DiskManager {
    /// An in-memory page store.
    pub fn in_memory() -> Self {
        DiskManager {
            backend: Backend::Mem(Vec::new()),
            num_pages: 0,
            reads: 0,
            writes: 0,
            fault: None,
        }
    }

    /// A page store backed by a fresh temporary file, removed on drop.
    pub fn temp_file() -> Result<Self> {
        let n = TEMP_COUNTER.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("xmlstore-{}-{}.pages", std::process::id(), n));
        Self::open(&path, true)
    }

    /// A page store backed by the named file (truncated), kept on drop.
    pub fn create_at(path: &Path) -> Result<Self> {
        Self::open(path, false)
    }

    /// Reopen an existing page file without truncating it; the page count
    /// comes from the file length (a torn final page — a crash mid-extend
    /// — is rounded down: no durable commit names it, and the next
    /// allocation extends over it).
    pub fn open_existing(path: &Path) -> Result<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let num_pages = (file.metadata()?.len() / PAGE_SIZE as u64) as u32;
        Ok(DiskManager {
            backend: Backend::File {
                file,
                path: path.to_owned(),
                temp: false,
            },
            num_pages,
            reads: 0,
            writes: 0,
            fault: None,
        })
    }

    fn open(path: &Path, temp: bool) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(DiskManager {
            backend: Backend::File {
                file,
                path: path.to_owned(),
                temp,
            },
            num_pages: 0,
            reads: 0,
            writes: 0,
            fault: None,
        })
    }

    /// Number of allocated pages.
    pub fn num_pages(&self) -> u32 {
        self.num_pages
    }

    /// Physical I/O counters.
    pub fn stats(&self) -> DiskStats {
        DiskStats {
            reads: self.reads,
            writes: self.writes,
        }
    }

    /// Zero the I/O counters.
    pub fn reset_stats(&mut self) {
        self.reads = 0;
        self.writes = 0;
    }

    /// Install (or with `None`, remove) a fault injector. Subsequent
    /// reads and writes consult it; allocation never does.
    pub fn set_fault_injector(&mut self, injector: Option<FaultInjector>) {
        self.fault = injector;
    }

    /// Counters from the installed injector, if any.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.fault.as_ref().map(FaultInjector::stats)
    }

    /// Has the installed injector's `crash=N` kill point fired?
    pub fn crashed(&self) -> bool {
        self.fault.as_ref().is_some_and(FaultInjector::crashed)
    }

    /// Consult the injector about a write-ahead-log flush of `pending`
    /// bytes. The WAL shares the disk's injector so that `crash=N`
    /// schedules count page writes and log flushes on one clock.
    pub fn on_log_write(&mut self, pending: usize) -> LogFault {
        match &mut self.fault {
            Some(inj) => inj.on_log_write(pending),
            None => LogFault::None,
        }
    }

    /// Flush the backing file's buffers to stable storage (no-op for the
    /// in-memory backend). Fails once the simulated machine has crashed.
    pub fn sync(&mut self) -> Result<()> {
        if self.crashed() {
            return Err(StoreError::SimulatedCrash);
        }
        if let Backend::File { file, .. } = &mut self.backend {
            // `sync_data` (fdatasync) persists the page bytes and the
            // file size needed to read them back, skipping the metadata
            // journal flush `sync_all` pays — reads depend on nothing
            // else, and the difference is measurable on bulk loads.
            file.sync_data()?;
        }
        Ok(())
    }

    /// Allocate a run of `n` pages at the end of the file and return
    /// the first. The file grows by one `set_len` and no page is
    /// written: the caller writes every page it will read back, and an
    /// allocated page never written reads as [`StoreError::Corruption`]
    /// (its bytes are zero, and an all-zero page verifies at no page id
    /// below 3 133 096 235, a 23 TiB file). On `Err` nothing was
    /// allocated.
    pub fn allocate(&mut self, n: u32) -> Result<PageId> {
        if self.crashed() {
            return Err(StoreError::SimulatedCrash);
        }
        let first = PageId(self.num_pages);
        let total = self.num_pages + n;
        match &mut self.backend {
            Backend::Mem(pages) => {
                pages.resize_with(total as usize, || vec![0u8; PAGE_SIZE].into_boxed_slice())
            }
            Backend::File { file, .. } => file.set_len(PageId(total).byte_offset())?,
        }
        self.num_pages = total;
        Ok(first)
    }

    /// Shrink the file to its first `n` pages (at most the pages it has):
    /// the caller hands back pages nothing will read. On `Err` the file
    /// keeps every page.
    pub fn truncate(&mut self, n: u32) -> Result<()> {
        if self.crashed() {
            return Err(StoreError::SimulatedCrash);
        }
        let n = n.min(self.num_pages);
        match &mut self.backend {
            Backend::Mem(pages) => pages.truncate(n as usize),
            Backend::File { file, .. } => file.set_len(PageId(n).byte_offset())?,
        }
        self.num_pages = n;
        Ok(())
    }

    /// Read page `pid` into `buf`, verifying its checksum header.
    pub fn read_page(&mut self, pid: PageId, buf: &mut [u8; PAGE_SIZE]) -> Result<()> {
        self.check(pid)?;
        let fault = match &mut self.fault {
            Some(inj) => inj.on_read(pid),
            None => ReadFault::None,
        };
        if fault == ReadFault::Error {
            return Err(transient_io("read", pid));
        }
        if fault == ReadFault::Crash {
            return Err(StoreError::SimulatedCrash);
        }
        self.reads += 1;
        match &mut self.backend {
            Backend::Mem(pages) => buf.copy_from_slice(&pages[pid.0 as usize]),
            Backend::File { file, .. } => {
                file.seek(SeekFrom::Start(pid.byte_offset()))?;
                file.read_exact(buf)?;
            }
        }
        if let ReadFault::FlipBit { bit } = fault {
            buf[bit / 8] ^= 1 << (bit % 8);
        }
        if let Err((expected, actual)) = page::verify(pid, buf) {
            return Err(StoreError::Corruption {
                page: pid.0,
                expected,
                actual,
            });
        }
        Ok(())
    }

    /// Seal `buf`'s header (in a private copy) and write it to page
    /// `pid`. The caller's header bytes are ignored.
    pub fn write_page(&mut self, pid: PageId, buf: &[u8; PAGE_SIZE]) -> Result<()> {
        self.check(pid)?;
        let mut sealed = *buf;
        page::seal(pid, &mut sealed);
        let fault = match &mut self.fault {
            Some(inj) => inj.on_write(pid),
            None => WriteFault::None,
        };
        let len = match fault {
            WriteFault::Error => return Err(transient_io("write", pid)),
            WriteFault::FlipBit { bit } => {
                sealed[bit / 8] ^= 1 << (bit % 8);
                PAGE_SIZE
            }
            WriteFault::Torn { len } => len,
            WriteFault::Crash { len } => {
                // The kill point: persist the torn prefix, then die.
                if len > 0 {
                    self.backend.write_prefix(pid, &sealed, len)?;
                }
                return Err(StoreError::SimulatedCrash);
            }
            WriteFault::None => PAGE_SIZE,
        };
        self.writes += 1;
        self.backend.write_prefix(pid, &sealed, len)
    }

    /// XOR one raw physical byte of page `pid`, bypassing checksums,
    /// counters, and fault injection. A corruption backdoor for tests:
    /// damage planted this way must be caught by the next verified read.
    pub fn poke_byte(&mut self, pid: PageId, offset: usize, xor: u8) -> Result<()> {
        self.check(pid)?;
        assert!(offset < PAGE_SIZE, "poke offset {offset} out of page");
        match &mut self.backend {
            Backend::Mem(pages) => pages[pid.0 as usize][offset] ^= xor,
            Backend::File { file, .. } => {
                let at = pid.byte_offset() + offset as u64;
                let mut b = [0u8; 1];
                file.seek(SeekFrom::Start(at))?;
                file.read_exact(&mut b)?;
                b[0] ^= xor;
                file.seek(SeekFrom::Start(at))?;
                file.write_all(&b)?;
            }
        }
        Ok(())
    }

    fn check(&self, pid: PageId) -> Result<()> {
        if pid.0 >= self.num_pages {
            Err(StoreError::PageOutOfBounds {
                page: pid.0,
                num_pages: self.num_pages,
            })
        } else {
            Ok(())
        }
    }
}

/// A cloneable, thread-safe handle to one [`DiskManager`].
///
/// The store's buffer pool, its commit path and its log each hold a
/// clone; the mutex is taken only for the duration of a single page
/// transfer.
#[derive(Clone)]
pub struct SharedDisk(Arc<Mutex<DiskManager>>);

impl SharedDisk {
    /// Wrap a disk manager for shared use.
    pub fn new(disk: DiskManager) -> Self {
        SharedDisk(Arc::new(Mutex::new(disk)))
    }

    /// Exclusive access for a sequence of operations (allocation during
    /// load, direct reads in tests).
    pub fn lock(&self) -> MutexGuard<'_, DiskManager> {
        // Poisoning carries no meaning here: the manager holds no
        // invariants a panicked page transfer could break.
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Physical I/O counters.
    pub fn stats(&self) -> DiskStats {
        self.lock().stats()
    }

    /// Zero the I/O counters.
    pub fn reset_stats(&self) {
        self.lock().reset_stats();
    }

    /// Number of allocated pages.
    pub fn num_pages(&self) -> u32 {
        self.lock().num_pages()
    }

    /// Install (or remove) a fault injector on the underlying manager.
    pub fn set_fault_injector(&self, injector: Option<FaultInjector>) {
        self.lock().set_fault_injector(injector);
    }

    /// Counters from the installed injector, if any.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.lock().fault_stats()
    }

    /// Has the installed injector's `crash=N` kill point fired?
    pub fn crashed(&self) -> bool {
        self.lock().crashed()
    }
}

impl Drop for DiskManager {
    fn drop(&mut self) {
        if let Backend::File {
            path, temp: true, ..
        } = &self.backend
        {
            let _ = std::fs::remove_file(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultConfig;
    use crate::page::PAGE_HEADER_SIZE;

    fn roundtrip(mut dm: DiskManager) {
        let a = dm.allocate(1).unwrap();
        let b = dm.allocate(2).unwrap();
        assert_eq!(a, PageId(0));
        assert_eq!(b, PageId(1));
        assert_eq!(dm.num_pages(), 3);
        assert_eq!(dm.stats().writes, 0, "allocation writes no page");

        let mut page = [0u8; PAGE_SIZE];
        page[PAGE_HEADER_SIZE] = 0xAB;
        page[PAGE_SIZE - 1] = 0xCD;
        dm.write_page(b, &page).unwrap();

        let mut out = [0u8; PAGE_SIZE];
        dm.read_page(b, &mut out).unwrap();
        assert_eq!(out[PAGE_HEADER_SIZE], 0xAB);
        assert_eq!(out[PAGE_SIZE - 1], 0xCD);

        // Pages allocated and never written are typed corruption, never
        // data: the one before the written page, and the one after it.
        for pid in [a, PageId(2)] {
            match dm.read_page(pid, &mut out) {
                Err(StoreError::Corruption { page, .. }) => assert_eq!(page, pid.0),
                other => panic!("page {}: expected corruption, got {other:?}", pid.0),
            }
        }

        let stats = dm.stats();
        assert_eq!(stats.reads, 3);
        assert_eq!(stats.writes, 1);
    }

    #[test]
    fn mem_roundtrip() {
        roundtrip(DiskManager::in_memory());
    }

    #[test]
    fn file_roundtrip() {
        roundtrip(DiskManager::temp_file().unwrap());
    }

    #[test]
    fn out_of_bounds_read_rejected() {
        let mut dm = DiskManager::in_memory();
        let mut buf = [0u8; PAGE_SIZE];
        assert!(matches!(
            dm.read_page(PageId(0), &mut buf),
            Err(StoreError::PageOutOfBounds { .. })
        ));
    }

    #[test]
    fn temp_file_removed_on_drop() {
        let dm = DiskManager::temp_file().unwrap();
        let path = match &dm.backend {
            Backend::File { path, .. } => path.clone(),
            _ => unreachable!(),
        };
        assert!(path.exists());
        drop(dm);
        assert!(!path.exists());
    }

    #[test]
    fn reset_stats_zeroes() {
        let mut dm = DiskManager::in_memory();
        let p = dm.allocate(1).unwrap();
        let buf = [0u8; PAGE_SIZE];
        dm.write_page(p, &buf).unwrap();
        dm.reset_stats();
        assert_eq!(dm.stats(), DiskStats::default());
    }

    #[test]
    fn header_region_is_storage_owned() {
        // Garbage in the caller's header bytes must not survive a write.
        let mut dm = DiskManager::in_memory();
        let p = dm.allocate(1).unwrap();
        let mut page = [0u8; PAGE_SIZE];
        page[0] = 0xFF;
        page[7] = 0xFF;
        dm.write_page(p, &page).unwrap();
        let mut out = [0u8; PAGE_SIZE];
        dm.read_page(p, &mut out).unwrap();
    }

    fn poke_detected(mut dm: DiskManager) {
        let p = dm.allocate(1).unwrap();
        let mut page = [0u8; PAGE_SIZE];
        page[PAGE_HEADER_SIZE + 10] = 42;
        dm.write_page(p, &page).unwrap();
        dm.poke_byte(p, PAGE_HEADER_SIZE + 10, 0x04).unwrap();
        let mut out = [0u8; PAGE_SIZE];
        match dm.read_page(p, &mut out) {
            Err(StoreError::Corruption {
                page: 0,
                expected,
                actual,
            }) => assert_ne!(expected, actual),
            other => panic!("expected corruption, got {other:?}"),
        }
        // Un-poking repairs the page.
        dm.poke_byte(p, PAGE_HEADER_SIZE + 10, 0x04).unwrap();
        dm.read_page(p, &mut out).unwrap();
        assert_eq!(out[PAGE_HEADER_SIZE + 10], 42);
    }

    #[test]
    fn mem_poke_detected() {
        poke_detected(DiskManager::in_memory());
    }

    #[test]
    fn file_poke_detected() {
        poke_detected(DiskManager::temp_file().unwrap());
    }

    #[test]
    fn injected_read_error_is_transient() {
        let mut dm = DiskManager::in_memory();
        let p = dm.allocate(1).unwrap();
        dm.write_page(p, &[0u8; PAGE_SIZE]).unwrap();
        dm.set_fault_injector(Some(FaultInjector::new(
            FaultConfig::seeded(1).with_read_error(1.0),
        )));
        let mut out = [0u8; PAGE_SIZE];
        let err = dm.read_page(p, &mut out).unwrap_err();
        assert!(err.is_transient(), "{err}");
        // Removing the injector restores clean reads.
        dm.set_fault_injector(None);
        dm.read_page(p, &mut out).unwrap();
    }

    #[test]
    fn injected_read_flip_caught_and_clears() {
        let mut dm = DiskManager::in_memory();
        let p = dm.allocate(1).unwrap();
        dm.write_page(p, &[0u8; PAGE_SIZE]).unwrap();
        dm.set_fault_injector(Some(FaultInjector::new(
            FaultConfig::seeded(2).with_read_flip(1.0).with_after_ops(0),
        )));
        let mut out = [0u8; PAGE_SIZE];
        let err = dm.read_page(p, &mut out).unwrap_err();
        assert!(matches!(err, StoreError::Corruption { page: 0, .. }));
        assert_eq!(dm.fault_stats().unwrap().read_flips, 1);
        // The persisted image is intact: a fault-free read succeeds.
        dm.set_fault_injector(None);
        dm.read_page(p, &mut out).unwrap();
    }

    #[test]
    fn injected_write_flip_is_persistent() {
        let mut dm = DiskManager::in_memory();
        let p = dm.allocate(1).unwrap();
        dm.set_fault_injector(Some(FaultInjector::new(
            FaultConfig::seeded(3).with_write_flip(1.0),
        )));
        let page = [0u8; PAGE_SIZE];
        dm.write_page(p, &page).unwrap();
        dm.set_fault_injector(None);
        let mut out = [0u8; PAGE_SIZE];
        let err = dm.read_page(p, &mut out).unwrap_err();
        assert!(matches!(err, StoreError::Corruption { page: 0, .. }));
    }

    #[test]
    fn torn_write_detected_on_read() {
        let mut dm = DiskManager::in_memory();
        let p = dm.allocate(1).unwrap();
        let mut page = [0u8; PAGE_SIZE];
        for (i, b) in page[PAGE_HEADER_SIZE..].iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        dm.write_page(p, &page).unwrap();
        // Now tear the next write of different data over it.
        dm.set_fault_injector(Some(FaultInjector::new(
            FaultConfig::seeded(4).with_torn_write(1.0),
        )));
        let other = [0x5Au8; PAGE_SIZE];
        dm.write_page(p, &other).unwrap();
        dm.set_fault_injector(None);
        let mut out = [0u8; PAGE_SIZE];
        let err = dm.read_page(p, &mut out).unwrap_err();
        assert!(
            matches!(err, StoreError::Corruption { page: 0, .. }),
            "{err}"
        );
    }

    #[test]
    fn injected_write_error_persists_nothing() {
        let mut dm = DiskManager::in_memory();
        let p = dm.allocate(1).unwrap();
        dm.write_page(p, &[0u8; PAGE_SIZE]).unwrap();
        dm.set_fault_injector(Some(FaultInjector::new(
            FaultConfig::seeded(5).with_write_error(1.0),
        )));
        let mut page = [0u8; PAGE_SIZE];
        page[PAGE_HEADER_SIZE] = 9;
        let err = dm.write_page(p, &page).unwrap_err();
        assert!(err.is_transient());
        dm.set_fault_injector(None);
        let mut out = [0u8; PAGE_SIZE];
        dm.read_page(p, &mut out).unwrap();
        assert_eq!(out[PAGE_HEADER_SIZE], 0, "failed write must not persist");
    }
}
