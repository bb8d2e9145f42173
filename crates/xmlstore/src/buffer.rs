//! A clock-eviction buffer pool over the disk manager.
//!
//! The paper runs its experiments with a 32 MB pool over a ~100 MB
//! database (Sec. 6), so eviction behaviour matters: the two evaluation
//! plans differ precisely in how many data-page fetches they perform.
//! Accesses are scoped by closures rather than guards, which keeps the
//! pool simple and makes every page touch visible to the hit/miss
//! counters.
//!
//! Callers see only the checksummed page's *data region*
//! (`PAGE_DATA_SIZE` bytes); the 8-byte header belongs to the storage
//! layer. Transient faults — interrupted I/O, read-path bit flips caught
//! by the checksum — are retried with exponential backoff before being
//! surfaced, and a failed transfer always leaves the pool in a
//! consistent state (the frame either still holds its old page or is
//! invalid, never a half-installed mapping).
//!
//! The pool knows nothing of the log. Every page the commit path
//! installs is free in every state recovery can reach until a durable
//! commit makes it live, so a dirty frame may be written back at any
//! time. Lock order is pool → disk.

use crate::error::{Result, StoreError};
use crate::page::{self, PageId, PAGE_DATA_SIZE, PAGE_SIZE};
use crate::storage::{DiskManager, DiskStats, SharedDisk};
use std::collections::HashMap;
use std::sync::MutexGuard;
use std::time::Duration;

/// Extra attempts after a transient failure before giving up.
const MAX_RETRIES: u32 = 3;

/// Base backoff before the first retry; doubles per attempt.
const BACKOFF: Duration = Duration::from_micros(50);

/// Buffer pool counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Page requests served from the pool.
    pub hits: u64,
    /// Page requests that required a physical read.
    pub misses: u64,
    /// Pages evicted to make room.
    pub evictions: u64,
    /// Dirty pages written back during eviction or flush.
    pub writebacks: u64,
    /// Page transfers retried after a transient fault.
    pub retries: u64,
}

/// Run `op`, retrying transient failures with exponential backoff.
/// Increments `*retries` once per extra attempt.
fn with_retry<T>(retries: &mut u64, mut op: impl FnMut() -> Result<T>) -> Result<T> {
    let mut attempt = 0u32;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if e.is_transient() && attempt < MAX_RETRIES => {
                attempt += 1;
                *retries += 1;
                std::thread::sleep(BACKOFF * 2u32.pow(attempt - 1));
            }
            Err(e) => return Err(e),
        }
    }
}

struct Frame {
    pid: PageId,
    data: Box<[u8; PAGE_SIZE]>,
    dirty: bool,
    refbit: bool,
    valid: bool,
}

impl Frame {
    fn empty() -> Self {
        Frame {
            pid: PageId(u32::MAX),
            data: Box::new([0u8; PAGE_SIZE]),
            dirty: false,
            refbit: false,
            valid: false,
        }
    }
}

/// A fixed-capacity page cache with second-chance (clock) replacement.
///
/// The pool does not lock internally; the store keeps its one pool
/// behind a mutex, over a [`SharedDisk`] it also writes to directly.
pub struct BufferPool {
    disk: SharedDisk,
    frames: Vec<Frame>,
    table: HashMap<PageId, usize>,
    hand: usize,
    stats: BufferStats,
}

/// Write one frame back to disk.
fn write_back(
    disk: &SharedDisk,
    retries: &mut u64,
    pid: PageId,
    data: &[u8; PAGE_SIZE],
) -> Result<()> {
    with_retry(retries, || disk.lock().write_page(pid, data))
}

impl BufferPool {
    /// Create a pool of `capacity_pages` frames over `disk`.
    pub fn new(disk: DiskManager, capacity_pages: usize) -> Result<Self> {
        Self::with_shared(SharedDisk::new(disk), capacity_pages)
    }

    /// Create a pool over an already-shared disk.
    pub fn with_shared(disk: SharedDisk, capacity_pages: usize) -> Result<Self> {
        if capacity_pages == 0 {
            return Err(StoreError::PoolTooSmall);
        }
        Ok(BufferPool {
            disk,
            frames: (0..capacity_pages).map(|_| Frame::empty()).collect(),
            table: HashMap::with_capacity(capacity_pages),
            hand: 0,
            stats: BufferStats::default(),
        })
    }

    /// Pool capacity in pages.
    pub fn capacity(&self) -> usize {
        self.frames.len()
    }

    /// Buffer counters.
    pub fn stats(&self) -> BufferStats {
        self.stats
    }

    /// Physical I/O counters of the underlying disk manager.
    pub fn disk_stats(&self) -> DiskStats {
        self.disk.stats()
    }

    /// Zero both buffer and disk counters.
    pub fn reset_stats(&mut self) {
        self.stats = BufferStats::default();
        self.disk.reset_stats();
    }

    /// Access to the underlying disk manager (for allocation during load).
    pub fn disk_mut(&mut self) -> MutexGuard<'_, DiskManager> {
        self.disk.lock()
    }

    /// A clone of the shared-disk handle this pool reads through.
    pub fn shared_disk(&self) -> SharedDisk {
        self.disk.clone()
    }

    /// Run `f` over the data region of page `pid`, faulting it in if
    /// necessary.
    pub fn with_page<R>(
        &mut self,
        pid: PageId,
        f: impl FnOnce(&[u8; PAGE_DATA_SIZE]) -> R,
    ) -> Result<R> {
        let idx = self.fetch(pid)?;
        Ok(f(page::data(&self.frames[idx].data)))
    }

    /// Install a full page image into the pool without reading the old
    /// contents from disk, marking the frame dirty. This is the image
    /// write path: the page is free until the caller's commit lands, so
    /// the frame may be written back whenever it is evicted.
    pub fn write_page_image(&mut self, pid: PageId, data: &[u8; PAGE_SIZE]) -> Result<()> {
        let idx = match self.table.get(&pid) {
            Some(&idx) => idx,
            None => {
                let idx = self.evict_for(pid)?;
                self.frames[idx].pid = pid;
                self.frames[idx].valid = true;
                self.table.insert(pid, idx);
                idx
            }
        };
        *self.frames[idx].data = *data;
        self.frames[idx].dirty = true;
        self.frames[idx].refbit = true;
        Ok(())
    }

    /// Write all dirty frames back to disk.
    pub fn flush_all(&mut self) -> Result<()> {
        let mut retries = 0;
        for i in 0..self.frames.len() {
            if self.frames[i].valid && self.frames[i].dirty {
                let f = &self.frames[i];
                let res = write_back(&self.disk, &mut retries, f.pid, &f.data);
                self.stats.retries += std::mem::take(&mut retries);
                res?;
                self.frames[i].dirty = false;
                self.stats.writebacks += 1;
            }
        }
        Ok(())
    }

    /// Drop every cached page (flushing dirty ones), emptying the pool.
    /// Used by benchmarks to start measurements cold.
    pub fn clear(&mut self) -> Result<()> {
        self.flush_all()?;
        for f in &mut self.frames {
            f.valid = false;
            f.refbit = false;
        }
        self.table.clear();
        Ok(())
    }

    fn fetch(&mut self, pid: PageId) -> Result<usize> {
        if let Some(&idx) = self.table.get(&pid) {
            self.stats.hits += 1;
            self.frames[idx].refbit = true;
            return Ok(idx);
        }
        self.stats.misses += 1;
        let idx = self.evict_for(pid)?;
        let mut retries = 0;
        let res = with_retry(&mut retries, || {
            self.disk.lock().read_page(pid, &mut self.frames[idx].data)
        });
        self.stats.retries += retries;
        // On failure the frame is already invalid and unmapped.
        res?;
        self.frames[idx].pid = pid;
        self.frames[idx].valid = true;
        self.frames[idx].dirty = false;
        self.frames[idx].refbit = true;
        self.table.insert(pid, idx);
        Ok(idx)
    }

    /// Pick a victim frame and make it free (writing back its dirty
    /// contents first). On return the frame is invalid and unmapped.
    fn evict_for(&mut self, _incoming: PageId) -> Result<usize> {
        let idx = self.victim()?;
        let mut retries = 0;
        if self.frames[idx].valid {
            if self.frames[idx].dirty {
                let f = &self.frames[idx];
                let res = write_back(&self.disk, &mut retries, f.pid, &f.data);
                self.stats.retries += std::mem::take(&mut retries);
                // On failure the frame still holds its (dirty) page and
                // the table still maps it: nothing was lost.
                res?;
                self.frames[idx].dirty = false;
                self.stats.writebacks += 1;
            }
            // Unmap only once the old contents are safe on disk.
            self.table.remove(&self.frames[idx].pid);
            self.frames[idx].valid = false;
            self.stats.evictions += 1;
        }
        Ok(idx)
    }

    /// Choose a frame to fill: first invalid frame, else clock scan.
    fn victim(&mut self) -> Result<usize> {
        if let Some(idx) = self.frames.iter().position(|f| !f.valid) {
            return Ok(idx);
        }
        // Second-chance scan; bounded at two full sweeps, after which every
        // refbit is clear and the current hand must be evictable.
        for _ in 0..2 * self.frames.len() + 1 {
            let idx = self.hand;
            self.hand = (self.hand + 1) % self.frames.len();
            if self.frames[idx].refbit {
                self.frames[idx].refbit = false;
            } else {
                return Ok(idx);
            }
        }
        unreachable!("clock scan always terminates");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultConfig, FaultInjector};
    use crate::page::PAGE_HEADER_SIZE;

    /// A page image whose data byte `offset` holds `value`.
    fn image(offset: usize, value: u8) -> [u8; PAGE_SIZE] {
        let mut buf = [0u8; PAGE_SIZE];
        buf[PAGE_HEADER_SIZE + offset] = value;
        buf
    }

    fn pool_with_pages(capacity: usize, npages: u32) -> BufferPool {
        let mut disk = DiskManager::in_memory();
        for i in 0..npages {
            let pid = disk.allocate().unwrap();
            let mut buf = [0u8; PAGE_SIZE];
            buf[PAGE_HEADER_SIZE] = i as u8;
            disk.write_page(pid, &buf).unwrap();
        }
        disk.reset_stats();
        BufferPool::new(disk, capacity).unwrap()
    }

    #[test]
    fn hit_after_miss() {
        let mut pool = pool_with_pages(4, 2);
        let v = pool.with_page(PageId(1), |p| p[0]).unwrap();
        assert_eq!(v, 1);
        pool.with_page(PageId(1), |_| ()).unwrap();
        let s = pool.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 1);
        assert_eq!(pool.disk_stats().reads, 1);
    }

    #[test]
    fn eviction_when_full() {
        let mut pool = pool_with_pages(2, 4);
        for i in 0..4 {
            pool.with_page(PageId(i), |_| ()).unwrap();
        }
        let s = pool.stats();
        assert_eq!(s.misses, 4);
        assert_eq!(s.evictions, 2);
    }

    #[test]
    fn clock_gives_second_chance_to_hot_page() {
        let mut pool = pool_with_pages(3, 5);
        // Fill the pool; all refbits set.
        for i in 0..3 {
            pool.with_page(PageId(i), |_| ()).unwrap();
        }
        // Fault page 3: the sweep clears every refbit, then evicts the
        // frame at the hand (page 0).
        pool.with_page(PageId(3), |_| ()).unwrap();
        // Re-reference page 1: it alone gets a second chance now.
        pool.with_page(PageId(1), |_| ()).unwrap();
        // Fault page 4: the victim must not be page 1.
        pool.with_page(PageId(4), |_| ()).unwrap();
        let before = pool.stats().misses;
        pool.with_page(PageId(1), |_| ()).unwrap();
        assert_eq!(
            pool.stats().misses,
            before,
            "hot page 1 must still be cached"
        );
    }

    #[test]
    fn dirty_pages_written_back_on_eviction() {
        let mut pool = pool_with_pages(1, 2);
        pool.write_page_image(PageId(0), &image(5, 99)).unwrap();
        pool.with_page(PageId(1), |_| ()).unwrap(); // evicts dirty page 0
        assert_eq!(pool.stats().writebacks, 1);
        let v = pool.with_page(PageId(0), |p| p[5]).unwrap();
        assert_eq!(v, 99);
    }

    #[test]
    fn flush_all_persists() {
        let mut pool = pool_with_pages(2, 2);
        pool.write_page_image(PageId(1), &image(7, 42)).unwrap();
        pool.flush_all().unwrap();
        assert_eq!(pool.stats().writebacks, 1);
        // Direct disk read sees the change in the data region.
        let mut buf = [0u8; PAGE_SIZE];
        pool.disk_mut().read_page(PageId(1), &mut buf).unwrap();
        assert_eq!(buf[PAGE_HEADER_SIZE + 7], 42);
    }

    #[test]
    fn clear_empties_pool() {
        let mut pool = pool_with_pages(2, 2);
        pool.with_page(PageId(0), |_| ()).unwrap();
        pool.clear().unwrap();
        pool.reset_stats();
        pool.with_page(PageId(0), |_| ()).unwrap();
        assert_eq!(pool.stats().misses, 1);
    }

    #[test]
    fn zero_capacity_rejected() {
        let disk = DiskManager::in_memory();
        assert!(matches!(
            BufferPool::new(disk, 0),
            Err(StoreError::PoolTooSmall)
        ));
    }

    #[test]
    fn scan_larger_than_pool_thrashes() {
        // A repeated sequential scan over more pages than the pool holds
        // must miss every time (clock degenerates like LRU here).
        let mut pool = pool_with_pages(3, 6);
        for _ in 0..2 {
            for i in 0..6 {
                pool.with_page(PageId(i), |_| ()).unwrap();
            }
        }
        assert_eq!(pool.stats().hits, 0);
        assert_eq!(pool.stats().misses, 12);
    }

    #[test]
    fn transient_read_errors_absorbed_by_retry() {
        let mut pool = pool_with_pages(2, 4);
        pool.shared_disk()
            .set_fault_injector(Some(FaultInjector::new(
                FaultConfig::seeded(11).with_read_error(0.3),
            )));
        // Deterministic schedule (seed 11): every fetch succeeds within
        // the retry budget.
        for round in 0..5 {
            for i in 0..4 {
                let v = pool.with_page(PageId(i), |p| p[0]).unwrap();
                assert_eq!(v, i as u8, "round {round}");
            }
        }
        assert!(pool.stats().retries > 0, "schedule must exercise retries");
    }

    #[test]
    fn persistent_corruption_exhausts_retries() {
        let mut pool = pool_with_pages(2, 2);
        pool.disk_mut()
            .poke_byte(PageId(0), PAGE_HEADER_SIZE + 3, 0xFF)
            .unwrap();
        let err = pool.with_page(PageId(0), |_| ()).unwrap_err();
        assert!(matches!(err, StoreError::Corruption { page: 0, .. }));
        assert_eq!(pool.stats().retries, MAX_RETRIES as u64);
        // The pool is still usable for healthy pages afterwards...
        pool.with_page(PageId(1), |p| assert_eq!(p[0], 1)).unwrap();
        // ...and the damaged page recovers once the damage is undone.
        pool.disk_mut()
            .poke_byte(PageId(0), PAGE_HEADER_SIZE + 3, 0xFF)
            .unwrap();
        pool.with_page(PageId(0), |p| assert_eq!(p[0], 0)).unwrap();
    }

    #[test]
    fn failed_writeback_keeps_dirty_page_mapped() {
        let mut pool = pool_with_pages(1, 2);
        pool.write_page_image(PageId(0), &image(5, 99)).unwrap();
        // Every write fails: evicting the dirty page must error out
        // without losing it.
        pool.shared_disk()
            .set_fault_injector(Some(FaultInjector::new(
                FaultConfig::seeded(1).with_write_error(1.0),
            )));
        let err = pool.with_page(PageId(1), |_| ()).unwrap_err();
        assert!(err.is_transient());
        pool.shared_disk().set_fault_injector(None);
        // The dirty page is still cached with its modification.
        let s = pool.stats();
        let v = pool.with_page(PageId(0), |p| p[5]).unwrap();
        assert_eq!(v, 99);
        assert_eq!(pool.stats().hits, s.hits + 1, "page 0 must still be a hit");
        // And eviction works again once writes heal.
        pool.with_page(PageId(1), |_| ()).unwrap();
        let v = pool.with_page(PageId(0), |p| p[5]).unwrap();
        assert_eq!(v, 99);
    }
}
