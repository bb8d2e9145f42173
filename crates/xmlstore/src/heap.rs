//! The content heap: element text and attribute values, packed into pages.
//!
//! Content is appended during load, each distinct value of a document
//! once: the loader appends a value when the first row holding it
//! closes, and every later row with the same symbol points at that copy.
//! Values are packed end to end over the pages' data regions: a value
//! that does not fit in the remainder of a page simply continues on the
//! next, so readers walk consecutive pages, and where a value lies
//! follows from how many bytes precede it (`locate`). A node run
//! keeps neither: the value's length is its symbol's name's, and `open`
//! recomputes each location. All offsets are relative to the page *data
//! region* — the checksum header is invisible at this layer.

use crate::error::{Result, StoreError};
use crate::node::ContentPtr;
use crate::page::{PageId, PAGE_DATA_SIZE, PAGE_SIZE};

/// Maximum content length (addressable by `ContentPtr::len`).
pub const MAX_CONTENT_LEN: usize = u32::MAX as usize;

/// Where a value of `len` bytes lies in its heap run when `before` bytes
/// of values precede it; null for an empty value, which has no bytes.
pub(crate) fn locate(before: usize, len: u32) -> ContentPtr {
    if len == 0 {
        return ContentPtr::NULL;
    }
    ContentPtr {
        page: (before / PAGE_DATA_SIZE) as u32,
        off: (before % PAGE_DATA_SIZE) as u16,
        len,
    }
}

/// Accumulates content values into page images during document load.
#[derive(Debug, Default)]
pub struct HeapBuilder {
    /// Full page images; content lives in the data region, the header
    /// bytes stay zero until the disk manager seals them.
    pages: Vec<Box<[u8; PAGE_SIZE]>>,
    /// Bytes appended so far.
    len: usize,
}

impl HeapBuilder {
    /// A fresh, empty heap.
    pub fn new() -> Self {
        HeapBuilder::default()
    }

    /// Append `value`, returning its pointer.
    pub fn append(&mut self, value: &str) -> Result<ContentPtr> {
        let bytes = value.as_bytes();
        if bytes.len() > MAX_CONTENT_LEN {
            return Err(StoreError::ContentTooLong(bytes.len()));
        }
        let ptr = locate(self.len, bytes.len() as u32);
        let mut rest = bytes;
        while !rest.is_empty() {
            let off = self.len % PAGE_DATA_SIZE;
            if off == 0 {
                self.pages.push(Box::new([0u8; PAGE_SIZE]));
            }
            let take = rest.len().min(PAGE_DATA_SIZE - off);
            let at = PAGE_SIZE - PAGE_DATA_SIZE + off;
            let last = self.pages.len() - 1;
            self.pages[last][at..at + take].copy_from_slice(&rest[..take]);
            self.len += take;
            rest = &rest[take..];
        }
        Ok(ptr)
    }

    /// Number of pages the heap occupies.
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// Consume the builder, yielding the full page images (headers still
    /// zero; the disk manager seals them on write).
    pub fn into_pages(self) -> Vec<Box<[u8; PAGE_SIZE]>> {
        self.pages
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
pub fn read_values<F>(with_page: F, ptrs: &[ContentPtr]) -> Result<Values>
where
    F: FnMut(PageId, &mut dyn FnMut(&[u8; PAGE_DATA_SIZE])) -> Result<()>,
{
    read_in_order(with_page, ptrs, by_page(ptrs))
}

/// The requests with bytes to read, as `(page, index)`, by page and
/// then by index: a stable radix sort, one scatter pass per byte of the
/// page id that is not the same in every request, over counts taken in
/// one pass. Its scratch is the list's length and 4 × 256 counters,
/// however far apart the pages lie.
fn by_page(ptrs: &[ContentPtr]) -> Vec<(u32, usize)> {
    let mut order: Vec<(u32, usize)> = (ptrs.iter().map(|p| p.page).zip(0..))
        .filter(|&(_, i)| ptrs[i].is_some())
        .collect();
    let digit = |page: u32, byte: usize| (page >> (8 * byte)) as usize & 0xFF;
    // `at[byte][d]` counts, then places, the requests whose `byte` is `d`.
    let mut at = [[0usize; 256]; 4];
    let (mut any, mut all) = (0, u32::MAX);
    for &(page, _) in &order {
        for (byte, at) in at.iter_mut().enumerate() {
            at[digit(page, byte)] += 1;
        }
        (any, all) = (any | page, all & page);
    }
    let mut next = vec![(0, 0); order.len()];
    for (byte, at) in (at.iter_mut().enumerate()).filter(|(b, _)| digit(any ^ all, *b) != 0) {
        let mut sum = 0;
        for slot in at.iter_mut() {
            (*slot, sum) = (sum, sum + *slot);
        }
        for &request in &order {
            let slot = &mut at[digit(request.0, byte)];
            next[*slot] = request;
            *slot += 1;
        }
        std::mem::swap(&mut order, &mut next);
    }
    order
}

/// [`read_values`] with its requests in `order`, which lists each
/// request with bytes once, by page.
fn read_in_order<F>(
    mut with_page: F,
    ptrs: &[ContentPtr],
    order: Vec<(u32, usize)>,
) -> Result<Values>
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
            order[done].0
        } else {
            page + 1
        };
        let here = order[done..]
            .iter()
            .take_while(|&&(on, _)| on == page)
            .count();
        with_page(PageId(page), &mut |data| {
            carry.retain_mut(|(at, left)| {
                let take = (*left).min(PAGE_DATA_SIZE);
                arena[*at..*at + take].copy_from_slice(&data[..take]);
                *at += take;
                *left -= take;
                *left > 0
            });
            for &(_, i) in &order[done..done + here] {
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

    /// A pool over the builder's pages, placed after `before` others.
    fn pool_from_heap(builder: HeapBuilder, before: u32) -> BufferPool {
        let mut disk = DiskManager::in_memory();
        for _ in 0..before {
            disk.allocate(1).unwrap();
        }
        for page in builder.into_pages() {
            let pid = disk.allocate(1).unwrap();
            disk.write_page(pid, &page).unwrap();
        }
        BufferPool::new(disk, 6).unwrap()
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
        let mut h = HeapBuilder::new();
        let ptr = h.append("").unwrap();
        assert!(!ptr.is_some());
        assert_eq!(h.num_pages(), 0);
        let mut pool = pool_from_heap(h, 1);
        assert_eq!(read_one(&mut pool, ptr).unwrap(), None);
        assert!(read_all(&mut pool, &[]).unwrap().is_empty());
        assert_eq!(pool.stats().hits + pool.stats().misses, 0);
    }

    #[test]
    fn small_values_roundtrip() {
        let mut h = HeapBuilder::new();
        let a = h.append("hello").unwrap();
        let b = h.append("world!").unwrap();
        assert_eq!(h.num_pages(), 1);
        let mut pool = pool_from_heap(h, 0);
        assert_eq!(read_one(&mut pool, a).unwrap().as_deref(), Some("hello"));
        assert_eq!(read_one(&mut pool, b).unwrap().as_deref(), Some("world!"));
    }

    #[test]
    fn value_spanning_pages_roundtrips() {
        let mut h = HeapBuilder::new();
        let filler = "x".repeat(PAGE_DATA_SIZE - 10);
        let _ = h.append(&filler).unwrap();
        let long = "ab".repeat(PAGE_DATA_SIZE); // 2 pages worth
        let ptr = h.append(&long).unwrap();
        assert!(h.num_pages() >= 3);
        let mut pool = pool_from_heap(h, 0);
        assert_eq!(read_one(&mut pool, ptr).unwrap(), Some(long));
    }

    #[test]
    fn exactly_page_sized_value() {
        let mut h = HeapBuilder::new();
        let v = "y".repeat(PAGE_DATA_SIZE);
        let ptr = h.append(&v).unwrap();
        let w = h.append("tail").unwrap();
        let mut pool = pool_from_heap(h, 0);
        assert_eq!(read_one(&mut pool, ptr).unwrap(), Some(v));
        assert_eq!(read_one(&mut pool, w).unwrap().as_deref(), Some("tail"));
    }

    #[test]
    fn multibyte_utf8_roundtrips() {
        let mut h = HeapBuilder::new();
        let v = "Données ↦ schön 東京".to_owned();
        let ptr = h.append(&v).unwrap();
        let mut pool = pool_from_heap(h, 0);
        assert_eq!(read_one(&mut pool, ptr).unwrap(), Some(v));
    }

    #[test]
    fn a_batch_asks_for_each_page_once_in_request_order() {
        // Page 0: a, b, and the head of `long`; pages 1–2: its run;
        // page 2 also holds `tail`. The heap sits after two other pages.
        let mut h = HeapBuilder::new();
        let a = h.append("alpha").unwrap();
        let b = h.append("beta").unwrap();
        let long = "né".repeat(PAGE_DATA_SIZE * 2 / 3);
        let l = h.append(&long).unwrap();
        let t = h.append("tail").unwrap();
        assert_eq!((h.num_pages(), l.page, t.page), (3, 0, 2));
        let mut pool = pool_from_heap(h, 2);
        let ptrs: Vec<ContentPtr> = [t, ContentPtr::NULL, l, a, l, b, a]
            .iter()
            .map(|p| p.at(2))
            .collect();
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
        assert_eq!(read_one(&mut pool, l.at(2)).unwrap(), Some(long));
    }

    /// The comparison sort [`by_page`] replaced: the order it must give.
    fn by_page_sorted(ptrs: &[ContentPtr]) -> Vec<(u32, usize)> {
        let mut order: Vec<(u32, usize)> = (ptrs.iter().map(|p| p.page).zip(0..))
            .filter(|&(_, i)| ptrs[i].is_some())
            .collect();
        order.sort_unstable();
        order
    }

    /// Byte `at` of a synthetic page: a letter that depends on both.
    fn letter(page: u32, at: usize) -> u8 {
        b'a' + ((page as usize * 7 + at) % 26) as u8
    }

    /// The values of `ptrs` read over synthetic pages in `order`, and
    /// the pages asked for, in turn.
    fn read_synthetic(ptrs: &[ContentPtr], order: Vec<(u32, usize)>) -> (Values, Vec<u32>) {
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
        let mut raw = [0u8; PAGE_SIZE];
        raw[PAGE_SIZE - PAGE_DATA_SIZE] = 0xFF; // lone continuation byte
        raw[PAGE_SIZE - PAGE_DATA_SIZE + 1] = 0xFE;
        raw[PAGE_SIZE - PAGE_DATA_SIZE + 2] = b'a';
        raw[PAGE_SIZE - PAGE_DATA_SIZE + 3..][..2].copy_from_slice("é".as_bytes());
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
