//! Fixed-size node records with `(start, end, level)` containment labels.
//!
//! Every node — element, attribute, or mixed-content text — is one 32-byte
//! record. Records are laid out in document (pre-order) order, so the node
//! id doubles as the pre-order ordinal and a subtree occupies a contiguous
//! id range. The labels implement the containment tests used by the
//! structural-join algorithms the paper builds on (Al-Khalifa et al.,
//! ICDE 2002):
//!
//! * `a` is an ancestor of `d` ⇔ `a.start < d.start && d.end < a.end`
//! * `a` is the parent of `d` ⇔ ancestor test ∧ `d.level == a.level + 1`

use crate::catalog::TagId;
use crate::page::PAGE_DATA_SIZE;

/// Identifier of a node within a document: its pre-order ordinal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Size of one encoded node record in bytes.
pub const RECORD_SIZE: usize = 32;

/// Node records per page: 255 with 8 KB pages, after the 8-byte
/// checksum header claims one record's worth of space (with 24 bytes
/// left over).
pub const RECORDS_PER_PAGE: usize = PAGE_DATA_SIZE / RECORD_SIZE;

const _: () = assert!(RECORDS_PER_PAGE * RECORD_SIZE <= PAGE_DATA_SIZE);

/// What kind of node a record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// An XML element.
    Element,
    /// An attribute (tag is `@name`, content is the value).
    Attribute,
    /// A text node from mixed content (tag is `#text`).
    Text,
}

impl NodeKind {
    fn to_u8(self) -> u8 {
        match self {
            NodeKind::Element => 0,
            NodeKind::Attribute => 1,
            NodeKind::Text => 2,
        }
    }

    fn from_u8(v: u8) -> NodeKind {
        match v {
            0 => NodeKind::Element,
            1 => NodeKind::Attribute,
            _ => NodeKind::Text,
        }
    }
}

/// Pointer into the content heap. `len == 0` means "no content".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ContentPtr {
    /// Page where the content begins.
    pub page: u32,
    /// Byte offset within that page.
    pub off: u16,
    /// Content length in bytes; may span subsequent pages.
    pub len: u32,
}

impl ContentPtr {
    /// The null pointer (no content).
    pub const NULL: ContentPtr = ContentPtr {
        page: 0,
        off: 0,
        len: 0,
    };

    /// Whether this pointer refers to any content.
    pub fn is_some(&self) -> bool {
        self.len > 0
    }

    /// This pointer, stored relative to its document's heap run, with
    /// its page counted from the start of the file instead.
    pub fn at(mut self, heap_base: u32) -> ContentPtr {
        if self.is_some() {
            self.page += heap_base;
        }
        self
    }
}

/// One stored node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeRecord {
    /// Interned tag.
    pub tag: TagId,
    /// Pre-order region start.
    pub start: u32,
    /// Region end; all descendants have `start` and `end` inside
    /// `(start, end)`.
    pub end: u32,
    /// Content symbol (`Sym.0`), or [`NO_SYM`](crate::dict::NO_SYM)
    /// exactly where `content` is null.
    pub sym: u32,
    /// Depth; the root is level 0.
    pub level: u16,
    /// Element / attribute / text.
    pub kind: NodeKind,
    /// Location of the node's character content, if any.
    pub content: ContentPtr,
}

impl NodeRecord {
    /// Is `self` a (proper) ancestor of `d`?
    pub fn is_ancestor_of(&self, d: &NodeRecord) -> bool {
        self.start < d.start && d.end < self.end
    }

    /// Is `self` the parent of `d`?
    pub fn is_parent_of(&self, d: &NodeRecord) -> bool {
        self.is_ancestor_of(d) && d.level == self.level + 1
    }

    /// Encode into a 32-byte buffer.
    pub fn encode(&self, out: &mut [u8]) {
        debug_assert!(out.len() >= RECORD_SIZE);
        out[0..4].copy_from_slice(&self.tag.0.to_le_bytes());
        out[4..8].copy_from_slice(&self.start.to_le_bytes());
        out[8..12].copy_from_slice(&self.end.to_le_bytes());
        out[12..16].copy_from_slice(&self.sym.to_le_bytes());
        out[16..18].copy_from_slice(&self.level.to_le_bytes());
        out[18] = self.kind.to_u8();
        out[19] = 0; // reserved
        out[20..24].copy_from_slice(&self.content.page.to_le_bytes());
        out[24..26].copy_from_slice(&self.content.off.to_le_bytes());
        out[26..28].copy_from_slice(&0u16.to_le_bytes()); // reserved
        out[28..32].copy_from_slice(&self.content.len.to_le_bytes());
    }

    /// Decode from a 32-byte buffer.
    pub fn decode(buf: &[u8]) -> NodeRecord {
        debug_assert!(buf.len() >= RECORD_SIZE);
        let u32le = |r: std::ops::Range<usize>| {
            u32::from_le_bytes([
                buf[r.start],
                buf[r.start + 1],
                buf[r.start + 2],
                buf[r.start + 3],
            ])
        };
        let u16le =
            |r: std::ops::Range<usize>| u16::from_le_bytes([buf[r.start], buf[r.start + 1]]);
        NodeRecord {
            tag: TagId(u32le(0..4)),
            start: u32le(4..8),
            end: u32le(8..12),
            sym: u32le(12..16),
            level: u16le(16..18),
            kind: NodeKind::from_u8(buf[18]),
            content: ContentPtr {
                page: u32le(20..24),
                off: u16le(24..26),
                len: u32le(28..32),
            },
        }
    }
}

/// Which page and slot hold node `id`, given the first node page.
pub fn node_location(base_page: u32, id: NodeId) -> (u32, usize) {
    let page = base_page + id.0 / RECORDS_PER_PAGE as u32;
    let slot = (id.0 as usize % RECORDS_PER_PAGE) * RECORD_SIZE;
    (page, slot)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(start: u32, end: u32, level: u16) -> NodeRecord {
        NodeRecord {
            tag: TagId(3),
            start,
            end,
            sym: crate::dict::NO_SYM,
            level,
            kind: NodeKind::Element,
            content: ContentPtr::NULL,
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let r = NodeRecord {
            tag: TagId(42),
            start: 7,
            end: 90,
            sym: 3,
            level: 5,
            kind: NodeKind::Attribute,
            content: ContentPtr {
                page: 9,
                off: 1000,
                len: 123456,
            },
        };
        let mut buf = [0u8; RECORD_SIZE];
        r.encode(&mut buf);
        assert_eq!(NodeRecord::decode(&buf), r);
    }

    #[test]
    fn records_fit_in_data_region() {
        assert_eq!(RECORDS_PER_PAGE, 255);
    }

    #[test]
    fn containment_tests() {
        let a = rec(1, 10, 1);
        let child = rec(2, 5, 2);
        let grandchild = rec(3, 4, 3);
        let sibling = rec(11, 14, 1);

        assert!(a.is_ancestor_of(&child));
        assert!(a.is_ancestor_of(&grandchild));
        assert!(a.is_parent_of(&child));
        assert!(!a.is_parent_of(&grandchild));
        assert!(!a.is_ancestor_of(&sibling));
        assert!(!child.is_ancestor_of(&a));
        // A node is not its own ancestor.
        assert!(!a.is_ancestor_of(&a));
    }

    #[test]
    fn node_location_math() {
        let per = RECORDS_PER_PAGE as u32;
        assert_eq!(node_location(10, NodeId(0)), (10, 0));
        assert_eq!(node_location(10, NodeId(1)), (10, RECORD_SIZE));
        assert_eq!(node_location(10, NodeId(per)), (11, 0));
        assert_eq!(node_location(10, NodeId(per + 1)), (11, RECORD_SIZE));
    }

    #[test]
    fn kind_roundtrip() {
        for k in [NodeKind::Element, NodeKind::Attribute, NodeKind::Text] {
            assert_eq!(NodeKind::from_u8(k.to_u8()), k);
        }
    }
}
