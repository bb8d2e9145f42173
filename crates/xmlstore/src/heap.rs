//! The name pages: every name of the store's dictionary — tags, and the
//! values of element text and attributes — once, on store-wide page runs.
//!
//! A commit that makes names durable for the first time packs them in
//! symbol order, end to end over the data regions of a fresh run of
//! pages: a name that does not fit in the rest of a page continues on
//! the next, so readers walk consecutive pages. The pages hold no
//! lengths; the log does, and where a name lies follows from its run
//! and the lengths of the names before it in that run
//! (`NamePages::push`). A row's value is its content symbol's name.
//! All offsets are relative to the page *data region* — the checksum
//! header is invisible at this layer.

use crate::error::{Result, StoreError};
use crate::node::ContentPtr;
use crate::page::{PageId, PAGE_DATA_SIZE};

/// Maximum content length (addressable by `ContentPtr::len`).
pub const MAX_CONTENT_LEN: usize = u32::MAX as usize;

/// One run of name pages: `names` names, end to end over `pages` pages
/// from page `base` on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct NameRun {
    pub base: u32,
    pub pages: u32,
    pub names: u32,
}

/// Where the store's durable names lie: their runs in symbol order, and
/// per symbol where its name lies. Symbols past `locs` are not on any
/// page yet. Only [`push`](Self::push) grows the two, in step.
#[derive(Debug, Default)]
pub(crate) struct NamePages {
    pub runs: Vec<NameRun>,
    pub locs: Vec<ContentPtr>,
}

impl NamePages {
    /// Add the run of the next symbols, whose names are `lens` bytes
    /// long, end to end from page `base` on; returns the pages they
    /// fill, which the run is taken to hold.
    pub(crate) fn push(&mut self, base: u32, lens: &[u32]) -> u32 {
        let mut at = 0usize;
        self.locs.extend(lens.iter().map(|&len| {
            let page = base.saturating_add((at / PAGE_DATA_SIZE) as u32);
            let off = (at % PAGE_DATA_SIZE) as u16;
            at += len as usize;
            ContentPtr { page, off, len }
        }));
        let pages = at.div_ceil(PAGE_DATA_SIZE) as u32;
        if !lens.is_empty() {
            let names = lens.len() as u32;
            self.runs.push(NameRun { base, pages, names });
        }
        pages
    }

    /// Where the name of content symbol `sym` lies; null for no symbol.
    pub(crate) fn loc(&self, sym: Option<u32>) -> ContentPtr {
        sym.map_or(ContentPtr::NULL, |sym| self.locs[sym as usize])
    }
}

/// The values of one batched read, in request order: one arena and the
/// end of each value in it.
#[derive(Debug, Default)]
pub struct Values {
    arena: String,
    ends: Vec<usize>,
}

impl Values {
    /// Number of values asked for.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether nothing was asked for.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Value `i` of the request; `None` where there is no content.
    pub fn get(&self, i: usize) -> Option<&str> {
        let start = i.checked_sub(1).map_or(0, |before| self.ends[before]);
        let value = &self.arena[start..self.ends[i]];
        (!value.is_empty()).then_some(value)
    }

    /// The values in request order.
    pub fn iter(&self) -> impl Iterator<Item = Option<&str>> {
        (0..self.len()).map(|i| self.get(i))
    }
}

/// Read the contents at `ptrs` (page ids absolute; a null pointer reads
/// as no content), fetching each page through `with_page`. Pages are
/// asked for in ascending order and each distinct page once: every
/// slice a page holds is copied while it is held, and a value that runs
/// past its page is carried into the next. Generic over the page
/// accessor so the store can hand out one page at a time from behind
/// its pool lock.
///
/// # Panics
///
/// On a batch of 2^32 values or more, whose requests `u32` indices
/// cannot name. A batch is the store's own list, not outside input.
pub fn read_values<F>(with_page: F, ptrs: &[ContentPtr]) -> Result<Values>
where
    F: FnMut(PageId, &mut dyn FnMut(&[u8; PAGE_DATA_SIZE])) -> Result<()>,
{
    assert!(
        u32::try_from(ptrs.len()).is_ok(),
        "a batch of {} values",
        ptrs.len()
    );
    read_in_order(with_page, ptrs, by_page(ptrs))
}

/// The requests with bytes to read, as their indices into `ptrs`, by
/// page and then by index: a stable radix sort of the indices on their
/// pages, one scatter pass per byte of the page id that is not the same
/// in every request, over counts taken in one pass. Its scratch is two
/// `u32`s a request and 4 × 256 counters, however far apart the pages
/// lie.
fn by_page(ptrs: &[ContentPtr]) -> Vec<u32> {
    let page = |i: u32| ptrs[i as usize].page;
    let mut order: Vec<u32> = (0..ptrs.len() as u32)
        .filter(|&i| ptrs[i as usize].is_some())
        .collect();
    let digit = |page: u32, byte: usize| (page >> (8 * byte)) as usize & 0xFF;
    // `at[byte][d]` counts, then places, the requests whose `byte` is `d`.
    let mut at = [[0usize; 256]; 4];
    let (mut any, mut all) = (0, u32::MAX);
    for page in order.iter().map(|&i| page(i)) {
        for (byte, at) in at.iter_mut().enumerate() {
            at[digit(page, byte)] += 1;
        }
        (any, all) = (any | page, all & page);
    }
    let mut next = vec![0; order.len()];
    for (byte, at) in (at.iter_mut().enumerate()).filter(|(b, _)| digit(any ^ all, *b) != 0) {
        let mut sum = 0;
        for slot in at.iter_mut() {
            (*slot, sum) = (sum, sum + *slot);
        }
        for &request in &order {
            let slot = &mut at[digit(page(request), byte)];
            next[*slot] = request;
            *slot += 1;
        }
        std::mem::swap(&mut order, &mut next);
    }
    order
}

/// [`read_values`] with its requests in `order`, which lists the index
/// of each request with bytes once, by page.
fn read_in_order<F>(mut with_page: F, ptrs: &[ContentPtr], order: Vec<u32>) -> Result<Values>
where
    F: FnMut(PageId, &mut dyn FnMut(&[u8; PAGE_DATA_SIZE])) -> Result<()>,
{
    let mut ends = Vec::with_capacity(ptrs.len());
    let mut total = 0usize;
    for p in ptrs {
        if p.off as usize >= PAGE_DATA_SIZE {
            return Err(StoreError::CorruptContent { page: p.page });
        }
        total += p.len as usize;
        ends.push(total);
    }
    let mut arena = vec![0u8; total];
    // Values that began on an earlier page: where their next byte goes
    // and how many are still to come.
    let mut carry: Vec<(usize, usize)> = Vec::new();
    let mut page = 0;
    let mut done = 0;
    while done < order.len() || !carry.is_empty() {
        page = if carry.is_empty() {
            ptrs[order[done] as usize].page
        } else {
            page + 1
        };
        let here = order[done..]
            .iter()
            .take_while(|&&i| ptrs[i as usize].page == page)
            .count();
        with_page(PageId(page), &mut |data| {
            carry.retain_mut(|(at, left)| {
                let take = (*left).min(PAGE_DATA_SIZE);
                arena[*at..*at + take].copy_from_slice(&data[..take]);
                *at += take;
                *left -= take;
                *left > 0
            });
            for i in order[done..done + here].iter().map(|&i| i as usize) {
                let (off, len) = (ptrs[i].off as usize, ptrs[i].len as usize);
                let at = ends[i] - len;
                let take = len.min(PAGE_DATA_SIZE - off);
                arena[at..at + take].copy_from_slice(&data[off..off + take]);
                if take < len {
                    carry.push((at + take, len - take));
                }
            }
        })?;
        done += here;
    }
    // The loader only stores valid UTF-8, so a value that does not
    // decode on its own means a pointer is stale or a page was damaged in
    // a way the checksum could not see (e.g. in memory, once verified).
    let damaged = |bytes: &[u8]| {
        let alone = |p: &ContentPtr, end: usize| &bytes[end - p.len as usize..end];
        let mut values = ptrs.iter().zip(&ends);
        let bad = values.find(|&(p, &end)| std::str::from_utf8(alone(p, end)).is_err());
        StoreError::CorruptContent {
            page: bad.map_or(0, |(p, _)| p.page),
        }
    };
    let arena = String::from_utf8(arena).map_err(|e| damaged(e.as_bytes()))?;
    if !ends.iter().all(|&e| arena.is_char_boundary(e)) {
        return Err(damaged(arena.as_bytes()));
    }
    Ok(Values { arena, ends })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::BufferPool;
    use crate::storage::DiskManager;

    /// A pool over the run of `names`, which starts at page `before`
    /// (other pages ahead of it); where each name lies, and the pages
    /// the run fills.
    fn paged(names: &[&str], before: u32) -> (BufferPool, Vec<ContentPtr>, u32) {
        let mut disk = DiskManager::in_memory();
        for _ in 0..before {
            disk.allocate(1).unwrap();
        }
        for page in crate::page::images(names.iter().map(|n| n.as_bytes())) {
            let pid = disk.allocate(1).unwrap();
            disk.write_page(pid, &page).unwrap();
        }
        let lens: Vec<u32> = names.iter().map(|n| n.len() as u32).collect();
        let mut table = NamePages::default();
        let pages = table.push(before, &lens);
        assert_eq!(pages, disk.num_pages() - before);
        (BufferPool::new(disk, 6).unwrap(), table.locs, pages)
    }

    fn read_all(pool: &mut BufferPool, ptrs: &[ContentPtr]) -> Result<Vec<Option<String>>> {
        let values = read_values(|pid, f| pool.with_page(pid, |p| f(p)), ptrs)?;
        assert_eq!(values.len(), ptrs.len());
        Ok(values.iter().map(|v| v.map(str::to_owned)).collect())
    }

    fn read_one(pool: &mut BufferPool, ptr: ContentPtr) -> Result<Option<String>> {
        Ok(read_all(pool, &[ptr])?.remove(0))
    }

    #[test]
    fn empty_value_is_null_ptr() {
        let (mut pool, locs, pages) = paged(&[""], 1);
        assert!(!locs[0].is_some());
        assert_eq!(pages, 0);
        assert_eq!(read_one(&mut pool, locs[0]).unwrap(), None);
        assert!(read_all(&mut pool, &[]).unwrap().is_empty());
        assert_eq!(pool.stats().hits + pool.stats().misses, 0);
    }

    #[test]
    fn small_values_roundtrip() {
        // End to end in symbol order, from the run's first page on.
        let (mut pool, locs, pages) = paged(&["hello", "", "world!"], 3);
        assert_eq!(pages, 1);
        let at = |off, len| ContentPtr { page: 3, off, len };
        assert_eq!(locs, [at(0, 5), at(5, 0), at(5, 6)]);
        assert!(!locs[1].is_some());
        assert_eq!(
            read_one(&mut pool, locs[0]).unwrap().as_deref(),
            Some("hello")
        );
        assert_eq!(
            read_one(&mut pool, locs[2]).unwrap().as_deref(),
            Some("world!")
        );
    }

    #[test]
    fn value_spanning_pages_roundtrips() {
        let filler = "x".repeat(PAGE_DATA_SIZE - 10);
        let long = "ab".repeat(PAGE_DATA_SIZE); // 2 pages worth
        let (mut pool, locs, pages) = paged(&[&filler, &long], 0);
        assert!(pages >= 3);
        assert_eq!(read_one(&mut pool, locs[1]).unwrap(), Some(long));
    }

    #[test]
    fn exactly_page_sized_value() {
        let v = "y".repeat(PAGE_DATA_SIZE);
        let (mut pool, locs, pages) = paged(&[&v, "tail"], 0);
        assert_eq!((pages, locs[1].page, locs[1].off), (2, 1, 0));
        assert_eq!(read_one(&mut pool, locs[0]).unwrap(), Some(v));
        assert_eq!(
            read_one(&mut pool, locs[1]).unwrap().as_deref(),
            Some("tail")
        );
    }

    #[test]
    fn multibyte_utf8_roundtrips() {
        let v = "Données ↦ schön 東京".to_owned();
        let (mut pool, locs, _) = paged(&[&v], 0);
        assert_eq!(read_one(&mut pool, locs[0]).unwrap(), Some(v));
    }

    #[test]
    fn a_batch_asks_for_each_page_once_in_request_order() {
        // Page 2: a, b, and the head of `long`; pages 3–4: its run;
        // page 4 also holds `tail`. The run sits after two other pages.
        let long = "né".repeat(PAGE_DATA_SIZE * 2 / 3);
        let (mut pool, locs, pages) = paged(&["alpha", "beta", &long, "tail"], 2);
        let [a, b, l, t] = locs[..] else {
            panic!("{locs:?}")
        };
        assert_eq!((pages, l.page, t.page), (3, 2, 4));
        let ptrs = [t, ContentPtr::NULL, l, a, l, b, a];
        let got = read_all(&mut pool, &ptrs).unwrap();
        let want = ["tail", "", &long, "alpha", &long, "beta", "alpha"];
        for (g, w) in got.iter().zip(want) {
            assert_eq!(g.as_deref().unwrap_or(""), w);
        }
        assert_eq!(got[1], None);
        // Three distinct pages, three requests — the two copies of the
        // spanning value and `tail` share the visits to pages 3 and 4.
        assert_eq!(pool.stats().hits + pool.stats().misses, 3);
        // A value alone still reads its whole run.
        assert_eq!(read_one(&mut pool, l).unwrap(), Some(long));
    }

    /// The comparison sort [`by_page`] replaced: the order it must give.
    fn by_page_sorted(ptrs: &[ContentPtr]) -> Vec<u32> {
        let mut order: Vec<u32> = (0..ptrs.len() as u32)
            .filter(|&i| ptrs[i as usize].is_some())
            .collect();
        order.sort_unstable_by_key(|&i| (ptrs[i as usize].page, i));
        order
    }

    /// Byte `at` of a synthetic page: a letter that depends on both.
    fn letter(page: u32, at: usize) -> u8 {
        b'a' + ((page as usize * 7 + at) % 26) as u8
    }

    /// The values of `ptrs` read over synthetic pages in `order`, and
    /// the pages asked for, in turn.
    fn read_synthetic(ptrs: &[ContentPtr], order: Vec<u32>) -> (Values, Vec<u32>) {
        let mut asked = Vec::new();
        let with_page = |pid: PageId, f: &mut dyn FnMut(&[u8; PAGE_DATA_SIZE])| {
            asked.push(pid.0);
            f(&std::array::from_fn(|at| letter(pid.0, at)));
            Ok(())
        };
        let values = read_in_order(with_page, ptrs, order).unwrap();
        (values, asked)
    }

    /// `ptrs` read in page-bucket order equal a read in the sorted order:
    /// each value as the synthetic pages hold it, and the same pages
    /// asked for, each once, ascending.
    fn assert_buckets_read_as_the_sort(ptrs: &[ContentPtr]) {
        let order = by_page(ptrs);
        assert_eq!(order, by_page_sorted(ptrs), "{ptrs:?}");
        let (got, asked) = read_synthetic(ptrs, order);
        let (want, sorted_asked) = read_synthetic(ptrs, by_page_sorted(ptrs));
        assert_eq!(asked, sorted_asked);
        assert!(asked.windows(2).all(|w| w[0] < w[1]), "{asked:?}");
        assert_eq!(
            got.iter().collect::<Vec<_>>(),
            want.iter().collect::<Vec<_>>()
        );
        for (p, v) in ptrs.iter().zip(got.iter()) {
            let byte = |k: usize| {
                let at = p.off as usize + k;
                let page = p.page + (at / PAGE_DATA_SIZE) as u32;
                char::from(letter(page, at % PAGE_DATA_SIZE))
            };
            let bytes: String = (0..p.len as usize).map(byte).collect();
            assert_eq!(v, p.is_some().then_some(&bytes[..]));
        }
    }

    #[test]
    fn page_buckets_order_requests_as_the_sort_does() {
        use smallrand::prop::check;
        check("page_buckets_order_requests_as_the_sort_does", 300, |g| {
            // Pages near each other, a few bytes apart, or across the
            // whole id range.
            let span = *g.pick(&[0, 3, 200, 70_000, 1 << 31]);
            let base = g.usize_in(0, 1 << 24) as u32;
            let mut ptrs: Vec<ContentPtr> = g.vec(0, 40, |g| {
                if g.ratio(1, 5) {
                    return ContentPtr::NULL;
                }
                let off = g.usize_in(0, PAGE_DATA_SIZE - 1);
                // Some values run past their page, some across three.
                let len = match g.usize_in(0, 3) {
                    0 => g.usize_in(1, 3 * PAGE_DATA_SIZE),
                    _ => g.usize_in(1, 40),
                };
                ContentPtr {
                    page: base + g.usize_in(0, span) as u32,
                    off: off as u16,
                    len: len as u32,
                }
            });
            // Repeated requests.
            for _ in 0..g.usize_in(0, 4).min(ptrs.len()) {
                let again = *g.pick(&ptrs);
                ptrs.insert(g.usize_in(0, ptrs.len()), again);
            }
            assert_buckets_read_as_the_sort(&ptrs);
        });
        assert_buckets_read_as_the_sort(&[]);
        // Two values 100 000 pages apart: two pages asked for.
        let at = |page| ContentPtr {
            page,
            off: 9,
            len: 5,
        };
        let apart = [at(100_007), ContentPtr::NULL, at(7)];
        assert_buckets_read_as_the_sort(&apart);
        assert_eq!(read_synthetic(&apart, by_page(&apart)).1, [7, 100_007]);
    }

    #[test]
    fn invalid_utf8_is_a_typed_error() {
        // A stale pointer into non-text bytes must not panic.
        let mut disk = DiskManager::in_memory();
        let pid = disk.allocate(1).unwrap();
        let mut raw = [0u8; crate::page::PAGE_SIZE];
        let data = crate::page::data_mut(&mut raw);
        data[0] = 0xFF; // lone continuation byte
        data[1] = 0xFE;
        data[2] = b'a';
        data[3..][..2].copy_from_slice("é".as_bytes());
        disk.write_page(pid, &raw).unwrap();
        let mut pool = BufferPool::new(disk, 2).unwrap();
        let at = |off, len| ContentPtr { page: 0, off, len };
        match read_one(&mut pool, at(0, 2)) {
            Err(StoreError::CorruptContent { page: 0 }) => {}
            other => panic!("expected CorruptContent, got {other:?}"),
        }
        // A pointer that ends inside a character, and an offset no page
        // has.
        assert_eq!(
            read_one(&mut pool, at(2, 3)).unwrap().as_deref(),
            Some("aé")
        );
        // The two halves of one character decode together, not apart.
        for bad in [at(2, 2), at(PAGE_DATA_SIZE as u16, 1), at(4, 1)] {
            match read_all(&mut pool, &[at(2, 2), bad]) {
                Err(StoreError::CorruptContent { page: 0 }) => {}
                other => panic!("expected CorruptContent, got {other:?}"),
            }
        }
    }
}
