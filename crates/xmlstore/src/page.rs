//! Fixed-size pages, the unit of I/O.
//!
//! Every page carries a small header owned by the storage layer:
//!
//! ```text
//! byte 0..4   CRC32 over (page id ‖ bytes 4..8 ‖ data region), LE
//! byte 4..8   reserved, written as zero
//! byte 8..    data region (PAGE_DATA_SIZE bytes), owned by callers
//! ```
//!
//! [`DiskManager`](crate::storage::DiskManager) seals the header on every
//! write and verifies it on every read; layers above the buffer pool only
//! ever see the data region, so slot/offset arithmetic in the node and
//! heap layers stays zero-based.
//!
//! The expected page id participates in the checksum (it used to be
//! echoed in bytes 4..8), so a page sealed for slot A still fails
//! verification at slot B — misdirected writes stay detectable. Bytes
//! 4..8 once held a page LSN; recovery writes no page and needs none,
//! so they stay inside the checksum as reserved bytes. `seal` preserves
//! whatever they hold, so a page an older store wrote still verifies.

use crate::checksum::page_checksum;

/// Page size in bytes. The paper's experiments use 8 KB pages (Sec. 6).
pub const PAGE_SIZE: usize = 8192;

/// Bytes reserved at the front of each page for the checksum header.
pub const PAGE_HEADER_SIZE: usize = 8;

/// Bytes of each page available to callers (node records, heap content).
pub const PAGE_DATA_SIZE: usize = PAGE_SIZE - PAGE_HEADER_SIZE;

/// Identifier of a page within the store file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u32);

impl PageId {
    /// Byte offset of this page in the store file.
    pub fn byte_offset(self) -> u64 {
        self.0 as u64 * PAGE_SIZE as u64
    }
}

/// The data region of a full page image.
pub fn data(page: &[u8; PAGE_SIZE]) -> &[u8; PAGE_DATA_SIZE] {
    match page[PAGE_HEADER_SIZE..].try_into() {
        Ok(region) => region,
        // PAGE_SIZE - PAGE_HEADER_SIZE == PAGE_DATA_SIZE by construction.
        Err(_) => unreachable!(),
    }
}

/// Mutable data region of a full page image.
pub fn data_mut(page: &mut [u8; PAGE_SIZE]) -> &mut [u8; PAGE_DATA_SIZE] {
    match (&mut page[PAGE_HEADER_SIZE..]).try_into() {
        Ok(region) => region,
        Err(_) => unreachable!(),
    }
}

/// Write a fresh header checksum into `page`, preserving its reserved
/// bytes (4..8). The page id is folded into the checksum rather than
/// stored.
pub fn seal(pid: PageId, page: &mut [u8; PAGE_SIZE]) {
    let crc = page_checksum(pid.0, &page[4..]);
    page[0..4].copy_from_slice(&crc.to_le_bytes());
}

/// Check the header of `page` against its contents.
///
/// Returns `Err((expected, actual))` when the stored checksum does not
/// match the recomputed one — which also catches a misdirected write,
/// since the expected page id participates in the checksum.
pub fn verify(pid: PageId, page: &[u8; PAGE_SIZE]) -> Result<(), (u32, u32)> {
    let stored = u32::from_le_bytes([page[0], page[1], page[2], page[3]]);
    let computed = page_checksum(pid.0, &page[4..]);
    if stored != computed {
        return Err((computed, stored));
    }
    Ok(())
}

/// An in-memory page image.
pub struct Page {
    data: Box<[u8; PAGE_SIZE]>,
}

impl Page {
    /// A zeroed page.
    pub fn zeroed() -> Self {
        Page {
            data: Box::new([0u8; PAGE_SIZE]),
        }
    }

    /// Read access to the page bytes.
    pub fn bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.data
    }

    /// Write access to the page bytes.
    pub fn bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        &mut self.data
    }
}

impl Default for Page {
    fn default() -> Self {
        Page::zeroed()
    }
}

impl Clone for Page {
    fn clone(&self) -> Self {
        Page {
            data: self.data.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_is_zeroed() {
        let p = Page::zeroed();
        assert!(p.bytes().iter().all(|&b| b == 0));
    }

    #[test]
    fn byte_offset() {
        assert_eq!(PageId(0).byte_offset(), 0);
        assert_eq!(PageId(3).byte_offset(), 3 * PAGE_SIZE as u64);
    }

    #[test]
    fn mutation_roundtrip() {
        let mut p = Page::zeroed();
        p.bytes_mut()[42] = 7;
        assert_eq!(p.bytes()[42], 7);
        let q = p.clone();
        assert_eq!(q.bytes()[42], 7);
    }

    #[test]
    fn data_region_layout() {
        let mut p = Page::zeroed();
        data_mut(p.bytes_mut())[0] = 0xAB;
        assert_eq!(p.bytes()[PAGE_HEADER_SIZE], 0xAB);
        assert_eq!(data(p.bytes()).len(), PAGE_DATA_SIZE);
    }

    #[test]
    fn seal_then_verify() {
        let mut p = Page::zeroed();
        data_mut(p.bytes_mut())[17] = 99;
        seal(PageId(4), p.bytes_mut());
        assert_eq!(verify(PageId(4), p.bytes()), Ok(()));
    }

    #[test]
    fn verify_catches_data_corruption() {
        let mut p = Page::zeroed();
        seal(PageId(4), p.bytes_mut());
        p.bytes_mut()[PAGE_HEADER_SIZE + 100] ^= 0x01;
        let err = verify(PageId(4), p.bytes()).unwrap_err();
        assert_ne!(err.0, err.1);
    }

    #[test]
    fn verify_catches_header_corruption() {
        let mut p = Page::zeroed();
        seal(PageId(4), p.bytes_mut());
        p.bytes_mut()[2] ^= 0x80;
        assert!(verify(PageId(4), p.bytes()).is_err());
    }

    #[test]
    fn verify_catches_misdirected_page() {
        // A page sealed for slot 4 must not verify at slot 5.
        let mut p = Page::zeroed();
        seal(PageId(4), p.bytes_mut());
        assert!(verify(PageId(5), p.bytes()).is_err());
        assert_eq!(verify(PageId(4), p.bytes()), Ok(()));
    }

    #[test]
    fn seal_preserves_lsn_bytes() {
        // Bytes 4..8 held the page LSN in older stores: such a page
        // keeps them and still verifies.
        let mut p = Page::zeroed();
        p.bytes_mut()[4..8].copy_from_slice(&0xBEEF_0042u32.to_le_bytes());
        seal(PageId(7), p.bytes_mut());
        assert_eq!(p.bytes()[4..8], 0xBEEF_0042u32.to_le_bytes());
        assert_eq!(verify(PageId(7), p.bytes()), Ok(()));
    }

    #[test]
    fn verify_catches_lsn_corruption() {
        // The reserved bytes that once held the LSN are covered by the
        // checksum like everything else.
        let mut p = Page::zeroed();
        p.bytes_mut()[4] = 99;
        seal(PageId(4), p.bytes_mut());
        p.bytes_mut()[5] ^= 0x10;
        assert!(verify(PageId(4), p.bytes()).is_err());
    }
}
