//! Model-based property test for the buffer pool: against any sequence
//! of page reads and whole-image writes (the pool's one write path), the
//! pool must behave like a plain array of pages (now of data regions,
//! with the checksum header invisible), and its statistics must add up.
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
    Flush,
    Clear,
}

fn gen_op(g: &mut Gen, npages: u8) -> Op {
    // Same weights as the old proptest strategy: 4 read : 4 write :
    // 1 flush : 1 clear.
    match g.usize_in(0, 9) {
        0..=3 => Op::Read {
            page: g.usize_in(0, npages as usize - 1) as u8,
            offset: g.usize_in(0, PAGE_DATA_SIZE - 1) as u16,
        },
        4..=7 => Op::Write {
            page: g.usize_in(0, npages as usize - 1) as u8,
            offset: g.usize_in(0, PAGE_DATA_SIZE - 1) as u16,
            value: g.usize_in(0, 255) as u8,
        },
        8 => Op::Flush,
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

        let mut disk = DiskManager::in_memory();
        for _ in 0..npages {
            disk.allocate().unwrap();
        }
        let mut pool = BufferPool::new(disk, capacity).unwrap();
        let mut model = vec![vec![0u8; PAGE_DATA_SIZE]; npages as usize];
        let mut requests = 0u64;

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
                    pool.write_page_image(PageId(page as u32), &image).unwrap();
                }
                Op::Flush => pool.flush_all().unwrap(),
                Op::Clear => pool.clear().unwrap(),
            }
        }

        // Statistics add up.
        let stats = pool.stats();
        assert_eq!(stats.hits + stats.misses, requests);
        assert_eq!(pool.disk_stats().reads, stats.misses);

        // After a final flush, the disk agrees with the model everywhere.
        pool.flush_all().unwrap();
        for (i, page) in model.iter().enumerate() {
            let mut buf = [0u8; PAGE_SIZE];
            pool.disk_mut()
                .read_page(PageId(i as u32), &mut buf)
                .unwrap();
            // The raw image agrees with the model on the data region and
            // carries a header that verifies (checked by read_page).
            assert_eq!(&buf[PAGE_HEADER_SIZE..], &page[..]);
        }
    });
}
