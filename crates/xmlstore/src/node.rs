//! Fixed-size node records with `(start, end, level)` containment labels.
//!
//! Every node — element, attribute, or mixed-content text — is one row.
//! Rows are laid out in document (pre-order) order, so the node id
//! doubles as the pre-order ordinal and a subtree occupies a contiguous
//! id range. The labels implement the containment tests used by the
//! structural-join algorithms the paper builds on (Al-Khalifa et al.,
//! ICDE 2002):
//!
//! * `a` is an ancestor of `d` ⇔ `a.start < d.start && d.end < a.end`
//! * `a` is the parent of `d` ⇔ ancestor test ∧ `d.level == a.level + 1`
//!
//! On a page a row is a 12-byte record of what nothing else can give:
//! tag, content symbol, level and kind. Its labels and its value's heap
//! location follow from a document's rows in order and from the lengths
//! of the values the name table holds, and `derive` recomputes them in
//! one pass.

use crate::catalog::TagId;
use crate::heap;
use crate::page::PAGE_DATA_SIZE;

/// Identifier of a node within a document: its pre-order ordinal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Size of one encoded node record in bytes.
pub const RECORD_SIZE: usize = 12;

/// Node records per page: 682 with 8 KB pages, which fill the 8 184
/// bytes after the 8-byte checksum header exactly.
pub const RECORDS_PER_PAGE: usize = PAGE_DATA_SIZE / RECORD_SIZE;

const _: () = assert!(RECORDS_PER_PAGE * RECORD_SIZE == PAGE_DATA_SIZE);

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

    fn from_u8(v: u8) -> Option<NodeKind> {
        match v {
            0 => Some(NodeKind::Element),
            1 => Some(NodeKind::Attribute),
            2 => Some(NodeKind::Text),
            _ => None,
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

    /// Encode into a 12-byte buffer: tag, symbol, level, kind, and a
    /// reserved 0 byte. The labels and the value's location are not
    /// stored: `open` derives them from the document's rows.
    pub fn encode(&self, out: &mut [u8]) {
        debug_assert!(out.len() >= RECORD_SIZE);
        out[0..4].copy_from_slice(&self.tag.0.to_le_bytes());
        out[4..8].copy_from_slice(&self.sym.to_le_bytes());
        out[8..10].copy_from_slice(&self.level.to_le_bytes());
        out[10] = self.kind.to_u8();
        out[11] = 0; // reserved
    }

    /// Decode from a 12-byte buffer, with labels 0 and no value location
    /// until the document's rows place them. `None` for an unknown kind
    /// or a reserved byte that is not 0.
    pub fn decode(buf: &[u8]) -> Option<NodeRecord> {
        debug_assert!(buf.len() >= RECORD_SIZE);
        let u32le =
            |at: usize| u32::from_le_bytes([buf[at], buf[at + 1], buf[at + 2], buf[at + 3]]);
        if buf[11] != 0 {
            return None;
        }
        Some(NodeRecord {
            tag: TagId(u32le(0)),
            start: 0,
            end: 0,
            sym: u32le(4),
            level: u16::from_le_bytes([buf[8], buf[9]]),
            kind: NodeKind::from_u8(buf[10])?,
            content: ContentPtr::NULL,
        })
    }
}

/// What [`derive`] knows of each content symbol: the length of its name,
/// which is the value, and where the document being derived placed the
/// value first. Built once from the name table and reused for every
/// document: a placement counts only while it carries the current
/// document's number, so no document clears the table, and no row is
/// hashed.
pub(crate) struct ValueTable {
    /// Per symbol: its value's length, and the number of the document
    /// that placed the value and the row that placed it first.
    syms: Vec<(u32, u32, u32)>,
    doc: u32,
}

impl ValueTable {
    /// The table of a name table whose symbol `i` is `names[i]`. A name
    /// longer than any stored value can be names no value, as the empty
    /// one does.
    pub(crate) fn new<S: AsRef<str>>(names: &[S]) -> Self {
        let len = |n: &S| u32::try_from(n.as_ref().len()).unwrap_or(0);
        let syms = names.iter().map(|n| (len(n), 0, 0));
        ValueTable {
            syms: syms.collect(),
            doc: 0,
        }
    }
}

/// Fill in the `(start, end)` labels and the value locations (relative
/// to the document's heap run) of one document's rows, given in order
/// with their levels, kinds and content symbols — the loader's rules,
/// run backwards:
///
/// * a label counter runs over the document: an element takes one count
///   when it opens and one when it closes, a leaf (attribute or text)
///   two at once;
/// * a row's value goes onto the heap when the first row holding it
///   closes — a leaf at once, an element after its last child — and
///   every later row with the same symbol points at that copy, so the
///   document's distinct values lie in the order of their first rows'
///   `end` labels. Only a text-only element has a value, and only
///   attribute rows lie below one, so that is row order but for such an
///   element's value, which follows its attributes' values.
///
/// The first row is at level 1, every later one at most one level below
/// the innermost open element, and every symbol is [`NO_SYM`] or names
/// a non-empty value of `values`; `Err(i)` names the first row `i` that
/// breaks a rule. `Ok` holds the bytes of the document's distinct values.
///
/// [`NO_SYM`]: crate::dict::NO_SYM
pub(crate) fn derive(rows: &mut [NodeRecord], values: &mut ValueTable) -> Result<usize, usize> {
    values.doc += 1;
    let doc = values.doc;
    let (mut labels, mut heap_bytes) = (0u32, 0usize);
    // Label row `i`'s end and place its value; `Err(i)` for a symbol
    // that names no value.
    let mut close = |rows: &mut [NodeRecord], i: usize, labels: &mut u32| -> Result<(), usize> {
        rows[i].end = *labels;
        *labels += 1;
        let sym = rows[i].sym;
        if sym == crate::dict::NO_SYM {
            return Ok(());
        }
        let value = values.syms.get_mut(sym as usize).filter(|v| v.0 > 0);
        let (len, placed_by, first) = value.ok_or(i)?;
        if *placed_by == doc {
            rows[i].content = rows[*first as usize].content;
        } else {
            rows[i].content = heap::locate(heap_bytes, *len);
            heap_bytes += *len as usize;
            (*placed_by, *first) = (doc, i as u32);
        }
        Ok(())
    };
    // The elements still open, innermost last.
    let mut open: Vec<usize> = Vec::new();
    for i in 0..rows.len() {
        let level = rows[i].level;
        while let Some(&e) = open.last().filter(|&&e| rows[e].level >= level) {
            close(rows, e, &mut labels)?;
            open.pop();
        }
        let parent = open.last().map_or(0, |&e| u32::from(rows[e].level));
        if u32::from(level) != parent + 1 {
            return Err(i);
        }
        rows[i].start = labels;
        labels += 1;
        match rows[i].kind {
            NodeKind::Element => open.push(i),
            _ => close(rows, i, &mut labels)?,
        }
    }
    for &e in open.iter().rev() {
        close(rows, e, &mut labels)?;
    }
    Ok(heap_bytes)
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
            end: 8,
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
        // The labels and the location, length included, are not stored.
        let unplaced = NodeRecord {
            start: 0,
            end: 0,
            content: ContentPtr::NULL,
            ..r
        };
        assert_eq!(NodeRecord::decode(&buf), Some(unplaced));
        for (at, byte) in [(10, 3), (11, 1)] {
            let mut bad = buf;
            bad[at] = byte;
            assert_eq!(NodeRecord::decode(&bad), None, "byte {at} = {byte}");
        }
    }

    #[test]
    fn records_fit_in_data_region() {
        assert_eq!(RECORDS_PER_PAGE, 682);
        assert_eq!(RECORDS_PER_PAGE * RECORD_SIZE, PAGE_DATA_SIZE);
    }

    /// A row of `kind` at `level` whose content symbol is `sym`.
    fn row(level: u16, kind: NodeKind, sym: u32) -> NodeRecord {
        NodeRecord {
            kind,
            sym,
            ..rec(0, 0, level)
        }
    }

    const E: NodeKind = NodeKind::Element;
    const A: NodeKind = NodeKind::Attribute;
    const T: NodeKind = NodeKind::Text;
    const NONE: u32 = crate::dict::NO_SYM;

    fn locs(rows: &[NodeRecord]) -> Vec<ContentPtr> {
        rows.iter().map(|r| r.content).collect()
    }

    #[test]
    fn derive_recomputes_the_loaders_labels_and_locations() {
        // <a x="1">t<b y="22">vvv</b>w</a>: `b`'s value follows `@y`'s.
        let mut values = ValueTable::new(&["doc_root", "1", "t", "vvv", "22", "w", ""]);
        let mut rows = [
            row(1, E, NONE),
            row(2, A, 1),
            row(2, T, 2),
            row(2, E, 3),
            row(3, A, 4),
            row(2, T, 5),
        ];
        assert_eq!(derive(&mut rows, &mut values), Ok(8));
        let labels: Vec<(u32, u32)> = rows.iter().map(|r| (r.start, r.end)).collect();
        assert_eq!(labels, [(0, 11), (1, 2), (3, 4), (5, 8), (6, 7), (9, 10)]);
        let want = [(0, 0), (0, 1), (1, 1), (4, 3), (2, 2), (7, 1)];
        assert_eq!(
            locs(&rows),
            want.map(|(before, len)| heap::locate(before, len))
        );
        // A first row below level 1, a row two levels down, a row under
        // a leaf; a symbol past the table, and one that names no value.
        let cases: [(&[(u16, u32)], usize); 5] = [
            (&[(2, NONE)], 0),
            (&[(1, NONE), (3, NONE)], 1),
            (&[(1, NONE), (2, NONE), (3, NONE)], 2),
            (&[(1, NONE), (2, 7)], 1),
            (&[(1, NONE), (2, 1), (2, 6)], 2),
        ];
        for (rows, bad) in cases {
            let mut rows: Vec<NodeRecord> = rows.iter().map(|&(l, sym)| row(l, A, sym)).collect();
            rows[0].kind = E;
            assert_eq!(derive(&mut rows, &mut values), Err(bad), "{rows:?}");
        }
    }

    #[test]
    fn derive_places_a_repeated_value_once_per_document() {
        // <a x="v">v<b y="v">v</b>ww<c>ww</c></a>: "v" goes onto the heap
        // when `@x` closes, "ww" when the second `#text` does, and every
        // later row with either symbol points at that copy.
        let mut values = ValueTable::new(&["doc_root", "v", "ww"]);
        let mut rows = [
            row(1, E, NONE),
            row(2, A, 1),
            row(2, T, 1),
            row(2, E, 1),
            row(3, A, 1),
            row(2, T, 2),
            row(2, E, 2),
        ];
        assert_eq!(derive(&mut rows, &mut values), Ok(3));
        let (v, ww) = (heap::locate(0, 1), heap::locate(1, 2));
        let null = ContentPtr::NULL;
        assert_eq!(locs(&rows), [null, v, v, v, v, ww, ww]);
        // The next document with the same table places its own copy.
        let mut next = [row(1, E, 2), row(2, A, 1)];
        assert_eq!(derive(&mut next, &mut values), Ok(3));
        assert_eq!(locs(&next), [heap::locate(1, 2), heap::locate(0, 1)]);
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
            assert_eq!(NodeKind::from_u8(k.to_u8()), Some(k));
        }
        assert_eq!(NodeKind::from_u8(3), None);
    }
}
