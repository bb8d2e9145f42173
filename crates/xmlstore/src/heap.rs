//! The content heap: element text and attribute values, packed into pages.
//!
//! Content is appended during load. A value is stored contiguously
//! starting at `(page, off)`; if it does not fit in the remainder of a
//! page it simply continues on the next page, so readers walk consecutive
//! pages. Values never leave gaps except when a writer chooses to start a
//! fresh page. All offsets are relative to the page *data region* — the
//! checksum header is invisible at this layer.

use crate::buffer::BufferPool;
use crate::error::{Result, StoreError};
use crate::node::ContentPtr;
use crate::page::{PageId, PAGE_DATA_SIZE, PAGE_SIZE};

/// Maximum content length (addressable by `ContentPtr::len`).
pub const MAX_CONTENT_LEN: usize = u32::MAX as usize;

/// Accumulates content values into page images during document load.
#[derive(Debug, Default)]
pub struct HeapBuilder {
    /// Full page images; content lives in the data region, the header
    /// bytes stay zero until the disk manager seals them.
    pages: Vec<Box<[u8; PAGE_SIZE]>>,
    /// Fill level of the last page's data region.
    cur_off: usize,
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
        if bytes.is_empty() {
            return Ok(ContentPtr::NULL);
        }
        if self.pages.is_empty() || self.cur_off == PAGE_DATA_SIZE {
            self.pages.push(Box::new([0u8; PAGE_SIZE]));
            self.cur_off = 0;
        }
        let start_page = self.pages.len() - 1;
        let start_off = self.cur_off;

        let mut remaining = bytes;
        loop {
            let last = self.pages.len() - 1;
            let page = &mut self.pages[last];
            let room = PAGE_DATA_SIZE - self.cur_off;
            let take = remaining.len().min(room);
            let at = PAGE_SIZE - PAGE_DATA_SIZE + self.cur_off;
            page[at..at + take].copy_from_slice(&remaining[..take]);
            self.cur_off += take;
            remaining = &remaining[take..];
            if remaining.is_empty() {
                break;
            }
            self.pages.push(Box::new([0u8; PAGE_SIZE]));
            self.cur_off = 0;
        }
        Ok(ContentPtr {
            page: start_page as u32,
            off: start_off as u16,
            len: bytes.len() as u32,
        })
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

/// Read the content at `ptr`, fetching each page through `with_page`.
/// `heap_base` is the page id where heap page 0 was placed in the store
/// file. Generic over the page accessor so the store can hand out one
/// page at a time from behind its pool lock.
pub fn read_content_via<F>(mut with_page: F, heap_base: u32, ptr: ContentPtr) -> Result<String>
where
    F: FnMut(PageId, &mut dyn FnMut(&[u8; PAGE_DATA_SIZE])) -> Result<()>,
{
    if !ptr.is_some() {
        return Ok(String::new());
    }
    let mut out = Vec::with_capacity(ptr.len as usize);
    let first_page = heap_base + ptr.page;
    let mut page = first_page;
    let mut off = ptr.off as usize;
    let mut remaining = ptr.len as usize;
    while remaining > 0 {
        let take = remaining.min(PAGE_DATA_SIZE - off);
        with_page(PageId(page), &mut |p| {
            out.extend_from_slice(&p[off..off + take]);
        })?;
        remaining -= take;
        page += 1;
        off = 0;
    }
    // The loader only stores valid UTF-8, so a decode failure means the
    // pointer is stale or the page was damaged in a way the checksum
    // could not see (e.g. corrupted in memory after verification).
    String::from_utf8(out).map_err(|_| StoreError::CorruptContent { page: first_page })
}

/// Read the content at `ptr` through a single buffer pool.
pub fn read_content(pool: &mut BufferPool, heap_base: u32, ptr: ContentPtr) -> Result<String> {
    read_content_via(|pid, f| pool.with_page(pid, |p| f(p)), heap_base, ptr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::DiskManager;

    fn pool_from_heap(builder: HeapBuilder) -> (BufferPool, u32) {
        let mut disk = DiskManager::in_memory();
        for page in builder.into_pages() {
            let pid = disk.allocate().unwrap();
            disk.write_page(pid, &page).unwrap();
        }
        (BufferPool::new(disk, 6).unwrap(), 0)
    }

    #[test]
    fn empty_value_is_null_ptr() {
        let mut h = HeapBuilder::new();
        let ptr = h.append("").unwrap();
        assert!(!ptr.is_some());
        assert_eq!(h.num_pages(), 0);
    }

    #[test]
    fn small_values_roundtrip() {
        let mut h = HeapBuilder::new();
        let a = h.append("hello").unwrap();
        let b = h.append("world!").unwrap();
        assert_eq!(h.num_pages(), 1);
        let (mut pool, base) = pool_from_heap(h);
        assert_eq!(read_content(&mut pool, base, a).unwrap(), "hello");
        assert_eq!(read_content(&mut pool, base, b).unwrap(), "world!");
    }

    #[test]
    fn value_spanning_pages_roundtrips() {
        let mut h = HeapBuilder::new();
        let filler = "x".repeat(PAGE_DATA_SIZE - 10);
        let _ = h.append(&filler).unwrap();
        let long = "ab".repeat(PAGE_DATA_SIZE); // 2 pages worth
        let ptr = h.append(&long).unwrap();
        assert!(h.num_pages() >= 3);
        let (mut pool, base) = pool_from_heap(h);
        assert_eq!(read_content(&mut pool, base, ptr).unwrap(), long);
    }

    #[test]
    fn exactly_page_sized_value() {
        let mut h = HeapBuilder::new();
        let v = "y".repeat(PAGE_DATA_SIZE);
        let ptr = h.append(&v).unwrap();
        let w = h.append("tail").unwrap();
        let (mut pool, base) = pool_from_heap(h);
        assert_eq!(read_content(&mut pool, base, ptr).unwrap(), v);
        assert_eq!(read_content(&mut pool, base, w).unwrap(), "tail");
    }

    #[test]
    fn multibyte_utf8_roundtrips() {
        let mut h = HeapBuilder::new();
        let v = "Données ↦ schön 東京".to_owned();
        let ptr = h.append(&v).unwrap();
        let (mut pool, base) = pool_from_heap(h);
        assert_eq!(read_content(&mut pool, base, ptr).unwrap(), v);
    }

    #[test]
    fn heap_base_offset_respected() {
        // Place the heap after two unrelated pages.
        let mut h = HeapBuilder::new();
        let ptr = h.append("offset test").unwrap();
        let mut disk = DiskManager::in_memory();
        disk.allocate().unwrap();
        disk.allocate().unwrap();
        for page in h.into_pages() {
            let pid = disk.allocate().unwrap();
            disk.write_page(pid, &page).unwrap();
        }
        let mut pool = BufferPool::new(disk, 4).unwrap();
        assert_eq!(read_content(&mut pool, 2, ptr).unwrap(), "offset test");
    }

    #[test]
    fn invalid_utf8_is_a_typed_error() {
        // A stale pointer into non-text bytes must not panic.
        let mut disk = DiskManager::in_memory();
        let pid = disk.allocate().unwrap();
        let mut raw = [0u8; PAGE_SIZE];
        raw[PAGE_SIZE - PAGE_DATA_SIZE] = 0xFF; // lone continuation byte
        raw[PAGE_SIZE - PAGE_DATA_SIZE + 1] = 0xFE;
        disk.write_page(pid, &raw).unwrap();
        let mut pool = BufferPool::new(disk, 2).unwrap();
        let ptr = ContentPtr {
            page: 0,
            off: 0,
            len: 2,
        };
        match read_content(&mut pool, 0, ptr) {
            Err(StoreError::CorruptContent { page: 0 }) => {}
            other => panic!("expected CorruptContent, got {other:?}"),
        }
    }
}
