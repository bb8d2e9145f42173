//! Model-based property test for the buffer pool as a read cache under
//! write-through: against any sequence of page reads, whole-image
//! writes (straight to the disk, dropping the cached frame, as a commit
//! does) and clears, every read returns what a plain array of pages
//! (of data regions, the checksum header invisible) holds, after every
//! write the disk holds that array, the pool itself never writes, and
//! its statistics add up.
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
