//! A clock-eviction buffer pool over the disk manager.
//!
//! The paper runs its experiments with a 32 MB pool over a ~100 MB
//! database (Sec. 6), so eviction behaviour matters: the two evaluation
//! plans differ precisely in how many data-page fetches they perform.
//! Accesses are scoped by closures rather than guards, which keeps the
//! pool simple and makes every page touch visible to the hit/miss
//! counters.
//!
//! The 32 MB is a cap, not a reservation: a frame is allocated the
//! first time a miss needs one, and the clock starts only once the
//! pool holds its capacity. A miss takes the lowest-index invalid
//! frame, else a new frame, else the clock's victim — the frame an
//! eagerly allocated pool would take — so hits, misses and evictions
//! do not depend on when frames were allocated. A frame, once
//! allocated, lives as long as the pool.
//!
//! Callers see only the checksummed page's *data region*
//! (`PAGE_DATA_SIZE` bytes); the 8-byte header belongs to the storage
//! layer. Transient faults — interrupted I/O, read-path bit flips caught
//! by the checksum — are retried with exponential backoff before being
//! surfaced, and a failed read leaves the frame invalid and unmapped.
//!
//! The pool only reads. The commit path writes its pages to the page
//! file itself and [`discard`](BufferPool::discard)s any cached frame
//! of them, so a frame always equals its page on disk, eviction and
//! [`clear`](BufferPool::clear) only drop frames, and no read ever
//! writes. Lock order is pool → disk.

use crate::error::{Result, StoreError};
use crate::page::{self, PageId, PAGE_DATA_SIZE, PAGE_SIZE};
use crate::storage::{DiskManager, DiskStats, SharedDisk};
use std::collections::{BTreeSet, HashMap};
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
    /// Page transfers retried after a transient fault.
    pub retries: u64,
}

/// Run `op`, retrying transient failures with exponential backoff.
/// Increments `*retries` once per extra attempt. The pool reads every
/// page under this rule, and so does `open`, which reads node pages
/// around the pool.
pub(crate) fn with_retry<T>(retries: &mut u64, mut op: impl FnMut() -> Result<T>) -> Result<T> {
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
    /// Set by every fill and hit. Only the clock reads it, and the clock
    /// runs when every frame is valid, so an invalid frame's is stale.
    refbit: bool,
}

impl Frame {
    fn empty() -> Self {
        Frame {
            pid: PageId(u32::MAX),
            data: Box::new([0u8; PAGE_SIZE]),
            refbit: false,
        }
    }
}

/// A page cache of at most `capacity` frames with second-chance (clock)
/// replacement. Frames are allocated on first fault, up to the cap; the
/// clock runs once every frame exists and holds a page.
///
/// The pool does not lock internally; the store keeps its one pool
/// behind a mutex, over a [`SharedDisk`] its commits write to.
pub struct BufferPool {
    disk: SharedDisk,
    capacity: usize,
    frames: Vec<Frame>,
    /// Allocated frames that hold no page, lowest index first. A frame
    /// is valid — mapped in `table` — exactly when it is not in here.
    invalid: BTreeSet<usize>,
    table: HashMap<PageId, usize>,
    hand: usize,
    stats: BufferStats,
}

impl BufferPool {
    /// Create a pool of at most `capacity_pages` frames over `disk`.
    pub fn new(disk: DiskManager, capacity_pages: usize) -> Result<Self> {
        Self::with_shared(SharedDisk::new(disk), capacity_pages)
    }

    /// Create a pool over an already-shared disk. It allocates no
    /// frame until the first miss.
    pub fn with_shared(disk: SharedDisk, capacity_pages: usize) -> Result<Self> {
        if capacity_pages == 0 {
            return Err(StoreError::PoolTooSmall);
        }
        Ok(BufferPool {
            disk,
            capacity: capacity_pages,
            frames: Vec::new(),
            invalid: BTreeSet::new(),
            table: HashMap::new(),
            hand: 0,
            stats: BufferStats::default(),
        })
    }

    /// Pool capacity in pages: the cap on allocated frames.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Frames allocated so far, each `PAGE_SIZE` bytes, whether or not
    /// they hold a page: at most [`capacity`](Self::capacity), and
    /// never fewer after a [`clear`](Self::clear).
    pub fn resident(&self) -> usize {
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

    /// Whether page `pid` is cached. Touches neither the counters nor
    /// the clock.
    pub fn is_cached(&self, pid: PageId) -> bool {
        self.table.contains_key(&pid)
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

    /// Drop the cached frame of `pid`, if any, so the next request
    /// reads the page file. A commit calls this for every page it
    /// writes.
    pub fn discard(&mut self, pid: PageId) {
        if let Some(idx) = self.table.remove(&pid) {
            self.invalid.insert(idx);
        }
    }

    /// Drop every cached page, keeping the frames, and restart the clock
    /// at frame 0 with every refbit clear, so what follows counts as on a
    /// fresh pool. Used by benchmarks to start measurements cold.
    pub fn clear(&mut self) {
        self.invalid = (0..self.frames.len()).collect();
        self.table.clear();
        self.hand = 0;
        self.frames.iter_mut().for_each(|f| f.refbit = false);
    }

    fn fetch(&mut self, pid: PageId) -> Result<usize> {
        if let Some(&idx) = self.table.get(&pid) {
            self.stats.hits += 1;
            self.frames[idx].refbit = true;
            return Ok(idx);
        }
        self.stats.misses += 1;
        let idx = self.evict();
        let mut retries = 0;
        let res = with_retry(&mut retries, || {
            self.disk.lock().read_page(pid, &mut self.frames[idx].data)
        });
        self.stats.retries += retries;
        if let Err(e) = res {
            self.invalid.insert(idx);
            return Err(e);
        }
        self.frames[idx].pid = pid;
        self.frames[idx].refbit = true;
        self.table.insert(pid, idx);
        Ok(idx)
    }

    /// Pick a frame to fill — the lowest-index invalid one, else a new
    /// one while the pool is below its capacity, else by clock scan —
    /// and drop its page. On return the frame is unmapped and out of
    /// `invalid`; the caller puts it back if its read fails.
    fn evict(&mut self) -> usize {
        if let Some(idx) = self.invalid.pop_first() {
            return idx;
        }
        if self.frames.len() < self.capacity {
            self.frames.push(Frame::empty());
            return self.frames.len() - 1;
        }
        // Every frame exists and holds a page. Second-chance scan: after
        // one full sweep every refbit is clear, so it ends within two.
        loop {
            let idx = self.hand;
            self.hand = (self.hand + 1) % self.frames.len();
            if !std::mem::take(&mut self.frames[idx].refbit) {
                self.table.remove(&self.frames[idx].pid);
                self.stats.evictions += 1;
                return idx;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultConfig, FaultInjector};
    use crate::page::PAGE_HEADER_SIZE;

    fn pool_with_pages(capacity: usize, npages: u32) -> BufferPool {
        let mut disk = DiskManager::in_memory();
        for i in 0..npages {
            let pid = disk.allocate(1).unwrap();
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
    fn clear_empties_pool() {
        let mut pool = pool_with_pages(2, 2);
        pool.with_page(PageId(0), |_| ()).unwrap();
        pool.clear();
        pool.reset_stats();
        pool.with_page(PageId(0), |_| ()).unwrap();
        assert_eq!(pool.stats().misses, 1);
    }

    #[test]
    fn a_fresh_pool_holds_no_frame() {
        let pool = pool_with_pages(4096, 0);
        assert_eq!(pool.resident(), 0);
        assert_eq!(pool.capacity(), 4096);
    }

    #[test]
    fn frames_are_allocated_on_first_fault_up_to_the_cap() {
        let mut pool = pool_with_pages(3, 6);
        for k in 0..6 {
            pool.with_page(PageId(k), |_| ()).unwrap();
            // A hit allocates nothing.
            pool.with_page(PageId(k), |_| ()).unwrap();
            assert_eq!(pool.resident(), (k as usize + 1).min(3), "after {k}");
        }
        assert_eq!(pool.stats().evictions, 3);
    }

    #[test]
    fn clear_keeps_frames_and_drops_every_mapping() {
        let mut pool = pool_with_pages(4, 3);
        for i in 0..3 {
            pool.with_page(PageId(i), |_| ()).unwrap();
        }
        pool.clear();
        assert_eq!(pool.resident(), 3);
        assert!((0..3).all(|i| !pool.is_cached(PageId(i))));
        // Refilling reuses the frames, lowest index first.
        for i in (0..3).rev() {
            pool.with_page(PageId(i), |_| ()).unwrap();
        }
        assert_eq!(pool.resident(), 3);
        assert_eq!(pool.table[&PageId(2)], 0);
        assert_eq!(pool.stats().evictions, 0);
    }

    #[test]
    fn a_discarded_frame_is_refilled_before_a_new_one() {
        let mut pool = pool_with_pages(4, 3);
        pool.with_page(PageId(0), |_| ()).unwrap();
        pool.with_page(PageId(1), |_| ()).unwrap();
        pool.discard(PageId(0));
        pool.with_page(PageId(2), |_| ()).unwrap();
        assert_eq!(pool.resident(), 2);
        assert_eq!(pool.table[&PageId(2)], 0);
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
        // The pool is still usable for healthy pages afterwards, in the
        // frame the failed read left invalid...
        pool.with_page(PageId(1), |p| assert_eq!(p[0], 1)).unwrap();
        assert_eq!(pool.resident(), 1);
        // ...and the damaged page recovers once the damage is undone.
        pool.disk_mut()
            .poke_byte(PageId(0), PAGE_HEADER_SIZE + 3, 0xFF)
            .unwrap();
        pool.with_page(PageId(0), |p| assert_eq!(p[0], 0)).unwrap();
    }
}
