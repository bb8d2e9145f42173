//! Model-based property test for the buffer pool as a read cache under
//! write-through: against any sequence of page reads, whole-image
//! writes (straight to the disk, dropping the cached frame, as a commit
//! does) and clears, every read returns what a plain array of pages
//! (of data regions, the checksum header invisible) holds, after every
//! write the disk holds that array, the pool itself never writes, and
//! its statistics add up. And against any sequence of reads, discards
//! and clears, the pool — which allocates its frames on first fault —
//! counts and evicts exactly as a pool whose frames all exist up front,
//! and once cleared counts as a fresh pool does, whatever came before.
//!
//! Ported from proptest to the in-tree `smallrand::prop` harness.

use smallrand::prop::{check, Gen};
use xmlstore::buffer::BufferPool;
use xmlstore::storage::DiskManager;
use xmlstore::{PageId, PAGE_DATA_SIZE, PAGE_HEADER_SIZE, PAGE_SIZE};

#[derive(Debug, Clone)]
enum Op {
    Read { page: u8, offset: u16 },
    Write { page: u8, offset: u16, value: u8 },
    Clear,
}

fn gen_op(g: &mut Gen, npages: u8) -> Op {
    // 4 read : 4 write : 1 clear.
    match g.usize_in(0, 8) {
        0..=3 => Op::Read {
            page: g.usize_in(0, npages as usize - 1) as u8,
            offset: g.usize_in(0, PAGE_DATA_SIZE - 1) as u16,
        },
        4..=7 => Op::Write {
            page: g.usize_in(0, npages as usize - 1) as u8,
            offset: g.usize_in(0, PAGE_DATA_SIZE - 1) as u16,
            value: g.usize_in(0, 255) as u8,
        },
        _ => Op::Clear,
    }
}

#[test]
fn pool_behaves_like_flat_memory() {
    check("pool_behaves_like_flat_memory", 64, |g| {
        let capacity = g.usize_in(1, 5);
        let npages = g.usize_in(1, 7) as u8;
        let ops: Vec<Op> = {
            let n = g.usize_in(1, 119);
            (0..n).map(|_| gen_op(g, npages)).collect()
        };

        // Allocation writes nothing, so every page starts with one
        // zero-data write the counters do not see.
        let mut disk = DiskManager::in_memory();
        let first = disk.allocate(npages as u32).unwrap();
        for p in 0..npages as u32 {
            disk.write_page(PageId(first.0 + p), &[0u8; PAGE_SIZE])
                .unwrap();
        }
        disk.reset_stats();
        let mut pool = BufferPool::new(disk, capacity).unwrap();
        let mut model = vec![vec![0u8; PAGE_DATA_SIZE]; npages as usize];
        let (mut requests, mut writes, mut direct_reads) = (0u64, 0u64, 0u64);

        for op in &ops {
            match *op {
                Op::Read { page, offset } => {
                    let page = page % npages;
                    requests += 1;
                    let got = pool
                        .with_page(PageId(page as u32), |p| p[offset as usize])
                        .unwrap();
                    assert_eq!(got, model[page as usize][offset as usize]);
                }
                Op::Write {
                    page,
                    offset,
                    value,
                } => {
                    let page = page % npages;
                    model[page as usize][offset as usize] = value;
                    let mut image = [0u8; PAGE_SIZE];
                    image[PAGE_HEADER_SIZE..].copy_from_slice(&model[page as usize]);
                    pool.discard(PageId(page as u32));
                    pool.disk_mut()
                        .write_page(PageId(page as u32), &image)
                        .unwrap();
                    writes += 1;
                    // The disk agrees with the model everywhere: the raw
                    // image on the data region, and a header that verifies
                    // (checked by read_page).
                    for (i, want) in model.iter().enumerate() {
                        let mut buf = [0u8; PAGE_SIZE];
                        pool.disk_mut()
                            .read_page(PageId(i as u32), &mut buf)
                            .unwrap();
                        direct_reads += 1;
                        assert_eq!(&buf[PAGE_HEADER_SIZE..], &want[..]);
                    }
                }
                Op::Clear => pool.clear(),
            }
        }

        // Statistics add up, and every write was the caller's.
        let stats = pool.stats();
        assert_eq!(stats.hits + stats.misses, requests);
        assert_eq!(pool.disk_stats().reads, stats.misses + direct_reads);
        assert_eq!(pool.disk_stats().writes, writes);
    });
}

/// The reference: a pool whose frames all exist from the start. A miss
/// takes the lowest-index invalid frame, else the clock's victim.
struct EagerPool {
    /// `(page, refbit)` of each frame; `None` is an invalid frame.
    frames: Vec<Option<(u32, bool)>>,
    hand: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    /// One past the highest frame index ever filled.
    touched: usize,
}

impl EagerPool {
    fn new(capacity: usize) -> Self {
        EagerPool {
            frames: vec![None; capacity],
            hand: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            touched: 0,
        }
    }

    /// Read `page`; on a miss, the page it evicted, if any.
    fn read(&mut self, page: u32) -> Option<u32> {
        let frame = self
            .frames
            .iter()
            .position(|f| matches!(f, Some((p, _)) if *p == page));
        if let Some(idx) = frame {
            self.hits += 1;
            self.frames[idx] = Some((page, true));
            return None;
        }
        self.misses += 1;
        let (idx, evicted) = match self.frames.iter().position(Option::is_none) {
            Some(idx) => (idx, None),
            None => loop {
                let idx = self.hand;
                self.hand = (self.hand + 1) % self.frames.len();
                match self.frames[idx] {
                    Some((p, true)) => self.frames[idx] = Some((p, false)),
                    Some((p, false)) => {
                        self.evictions += 1;
                        break (idx, Some(p));
                    }
                    None => unreachable!("the clock runs only over a full pool"),
                }
            },
        };
        self.frames[idx] = Some((page, true));
        self.touched = self.touched.max(idx + 1);
        evicted
    }

    fn discard(&mut self, page: u32) {
        for f in &mut self.frames {
            if matches!(f, Some((p, _)) if *p == page) {
                *f = None;
            }
        }
    }

    /// Empty every frame and restart the clock at frame 0.
    fn clear(&mut self) {
        self.frames.iter_mut().for_each(|f| *f = None);
        self.hand = 0;
    }

    fn holds(&self, page: u32) -> bool {
        self.frames
            .iter()
            .any(|f| matches!(f, Some((p, _)) if *p == page))
    }
}

#[derive(Debug, Clone, Copy)]
enum PoolOp {
    Read(u32),
    Discard(u32),
    Clear,
}

#[test]
fn frames_on_demand_count_and_evict_like_an_eager_pool() {
    check(
        "frames_on_demand_count_and_evict_like_an_eager_pool",
        128,
        |g| {
            let capacity = g.usize_in(1, 8);
            let npages = g.usize_in(1, 12) as u32;
            let ops: Vec<PoolOp> = g.vec(1, 200, |g| match g.usize_in(0, 19) {
                0..=15 => PoolOp::Read(g.usize_in(0, npages as usize - 1) as u32),
                16..=18 => PoolOp::Discard(g.usize_in(0, npages as usize - 1) as u32),
                _ => PoolOp::Clear,
            });

            let mut disk = DiskManager::in_memory();
            disk.allocate(npages).unwrap();
            for p in 0..npages {
                disk.write_page(PageId(p), &[0u8; PAGE_SIZE]).unwrap();
            }
            let mut pool = BufferPool::new(disk, capacity).unwrap();
            let mut model = EagerPool::new(capacity);

            for (step, &op) in ops.iter().enumerate() {
                match op {
                    PoolOp::Read(page) => {
                        let evictions = pool.stats().evictions;
                        pool.with_page(PageId(page), |_| ()).unwrap();
                        if let Some(victim) = model.read(page) {
                            assert_eq!(pool.stats().evictions, evictions + 1, "step {step}");
                            assert!(!pool.is_cached(PageId(victim)), "step {step}: {victim}");
                        }
                    }
                    PoolOp::Discard(page) => {
                        pool.discard(PageId(page));
                        model.discard(page);
                    }
                    PoolOp::Clear => {
                        pool.clear();
                        model.clear();
                    }
                }
                let stats = pool.stats();
                let want = (model.hits, model.misses, model.evictions);
                assert_eq!(
                    (stats.hits, stats.misses, stats.evictions),
                    want,
                    "step {step}"
                );
                for p in 0..npages {
                    assert_eq!(
                        pool.is_cached(PageId(p)),
                        model.holds(p),
                        "step {step}: page {p}"
                    );
                }
                // Frames exist exactly up to the highest one the eager pool
                // ever filled, and never beyond the cap.
                assert_eq!(pool.resident(), model.touched, "step {step}");
                assert_eq!(pool.capacity(), capacity);
            }
        },
    );
}

#[test]
fn a_cleared_pool_counts_like_a_fresh_one() {
    // After any history of reads, discards and clears, `clear` and then
    // one request sequence give the same hits, misses and evictions, step
    // by step, as the same sequence on a fresh pool: a cold run depends
    // only on what it asks for.
    check("a_cleared_pool_counts_like_a_fresh_one", 128, |g| {
        let capacity = g.usize_in(1, 8);
        let npages = g.usize_in(1, 16) as u32;
        let page = |g: &mut Gen| g.usize_in(0, npages as usize - 1) as u32;
        let history: Vec<PoolOp> = g.vec(0, 200, |g| match g.usize_in(0, 19) {
            0..=15 => PoolOp::Read(page(g)),
            16..=18 => PoolOp::Discard(page(g)),
            _ => PoolOp::Clear,
        });
        let requests: Vec<u32> = g.vec(1, 200, page);
        let pool = || {
            let mut disk = DiskManager::in_memory();
            disk.allocate(npages).unwrap();
            for p in 0..npages {
                disk.write_page(PageId(p), &[0u8; PAGE_SIZE]).unwrap();
            }
            BufferPool::new(disk, capacity).unwrap()
        };
        let (mut used, mut fresh) = (pool(), pool());
        for op in &history {
            match *op {
                PoolOp::Read(p) => used.with_page(PageId(p), |_| ()).unwrap(),
                PoolOp::Discard(p) => used.discard(PageId(p)),
                PoolOp::Clear => used.clear(),
            }
        }
        used.clear();
        let counts = |p: &BufferPool| {
            let s = p.stats();
            (s.hits, s.misses, s.evictions)
        };
        let before = counts(&used);
        for (step, &p) in requests.iter().enumerate() {
            used.with_page(PageId(p), |_| ()).unwrap();
            fresh.with_page(PageId(p), |_| ()).unwrap();
            let u = counts(&used);
            let since = (u.0 - before.0, u.1 - before.1, u.2 - before.2);
            assert_eq!(since, counts(&fresh), "step {step}");
        }
    });
}
