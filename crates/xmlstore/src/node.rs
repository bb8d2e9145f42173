//! Node rows with `(start, end, level)` containment labels, and the
//! node run that stores one document's rows.
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
//! A document's node run, its pages' data regions end to end, stores
//! only what nothing else can give, as columns: an 8-byte count of the
//! document's distinct (tag, kind) pairs and one 8-byte entry per pair
//! (tag symbol u32, kind u8, three reserved 0 bytes), then per row a u16
//! index into that table (the column padded to 4 bytes), a u32 content
//! symbol and a u16 level — eight bytes a row, none straddling a page.
//! The labels and value locations follow from the rows in order and the
//! name table's value lengths; `derive` recomputes them in one pass.

use crate::catalog::TagId;
use crate::heap;
use crate::page::{PAGE_DATA_SIZE, PAGE_HEADER_SIZE, PAGE_SIZE};

/// Identifier of a node within a document: its pre-order ordinal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Most (tag, kind) pairs one document may hold: a row names one by a u16.
pub(crate) const MAX_PAIRS: usize = 1 << 16;

/// What kind of node a record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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

/// One document's rows as columns, in local ids and labels: what the
/// loader builds, a commit encodes and `open` reads back ([`read_run`]).
#[derive(Debug, Default, Clone, PartialEq)]
pub(crate) struct DocColumns {
    /// The document's distinct (tag, kind) pairs, in order of first row.
    pub pairs: Vec<(TagId, NodeKind)>,
    /// Per row: where its pair lies in `pairs`.
    pub index: Vec<u16>,
    /// Per row: content symbol, or [`NO_SYM`](crate::dict::NO_SYM).
    pub sym: Vec<u32>,
    /// Per row: depth; the document's root element is level 1.
    pub level: Vec<u16>,
    /// Per row, derived: the labels and the value's heap-run location.
    pub start: Vec<u32>,
    pub end: Vec<u32>,
    pub content: Vec<ContentPtr>,
}

/// Where a run of `pairs` pairs and `rows` rows puts its index, symbol
/// and level columns, and where it ends, in bytes from its start.
pub(crate) fn layout(pairs: usize, rows: usize) -> [usize; 4] {
    let index = 8 + 8 * pairs;
    let sym = index + (2 * rows).next_multiple_of(4);
    [index, sym, sym + 4 * rows, sym + 6 * rows]
}

impl DocColumns {
    /// The node run of these rows, one page image per `PAGE_DATA_SIZE`
    /// bytes (headers zero until the disk manager seals them).
    pub fn encode(&self) -> Vec<Box<[u8; PAGE_SIZE]>> {
        let [_, sym, _, end] = layout(self.pairs.len(), self.index.len());
        let mut run = Vec::with_capacity(end);
        run.extend((self.pairs.len() as u64).to_le_bytes());
        for &(tag, kind) in &self.pairs {
            run.extend(tag.0.to_le_bytes());
            run.extend([kind.to_u8(), 0, 0, 0]);
        }
        run.extend(self.index.iter().flat_map(|i| i.to_le_bytes()));
        run.resize(sym, 0);
        run.extend(self.sym.iter().flat_map(|s| s.to_le_bytes()));
        run.extend(self.level.iter().flat_map(|l| l.to_le_bytes()));
        let page = |bytes: &[u8]| {
            let mut page = Box::new([0u8; PAGE_SIZE]);
            page[PAGE_HEADER_SIZE..][..bytes.len()].copy_from_slice(bytes);
            page
        };
        run.chunks(PAGE_DATA_SIZE).map(page).collect()
    }
}

/// The `rows` rows of node run `run` (its pages' data regions end to
/// end), derived with `values`, and their distinct values' bytes. The
/// run is as long as its table and rows need, each entry has a kind, 0
/// reserved bytes and a tag `values` holds, and each index is in the
/// table; `Err(at)` is the run byte where a broken rule (or
/// [`derive`]'s) shows.
pub(crate) fn read_run(
    run: &[u8],
    rows: usize,
    values: &mut ValueTable,
) -> Result<(DocColumns, usize), usize> {
    let word = |b: &[u8]| b.iter().rev().fold(0u64, |w, &b| w << 8 | u64::from(b));
    let count = run.get(..8).map_or(u64::MAX, word);
    let pairs = count.min(MAX_PAIRS as u64 + 1) as usize;
    let [index, sym, level, end] = layout(pairs, rows);
    if pairs > MAX_PAIRS || end.div_ceil(PAGE_DATA_SIZE) * PAGE_DATA_SIZE != run.len() {
        return Err(0);
    }
    let mut cols = DocColumns::default();
    for (i, entry) in run[8..index].chunks_exact(8).enumerate() {
        let tag = word(&entry[..4]) as u32;
        let known = word(&entry[5..]) == 0 && (tag as usize) < values.syms.len();
        let kind = NodeKind::from_u8(entry[4]).filter(|_| known);
        cols.pairs.push((TagId(tag), kind.ok_or(8 + 8 * i)?));
    }
    let col = |at: std::ops::Range<usize>, width| run[at].chunks_exact(width).map(word);
    cols.index = col(index..index + 2 * rows, 2).map(|w| w as u16).collect();
    if let Some(bad) = cols.index.iter().position(|&i| usize::from(i) >= pairs) {
        return Err(index + 2 * bad);
    }
    cols.sym = col(sym..level, 4).map(|w| w as u32).collect();
    cols.level = col(level..end, 2).map(|w| w as u16).collect();
    let heap_bytes = derive(&mut cols, values)?;
    Ok((cols, heap_bytes))
}

/// Fill in the `(start, end)` labels and the value locations (relative
/// to the document's heap run) of one document's rows, given in order
/// with their levels, pairs and content symbols — the loader's rules,
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
/// Every row's index must lie in the table. The first row is at level 1,
/// every later one at most one level below the innermost open element,
/// and every symbol is [`NO_SYM`] or names a non-empty value of
/// `values`; `Err(at)` is the run byte of the level or symbol of the
/// first row that breaks a rule. `Ok` holds the bytes of the document's
/// distinct values.
///
/// [`NO_SYM`]: crate::dict::NO_SYM
pub(crate) fn derive(cols: &mut DocColumns, values: &mut ValueTable) -> Result<usize, usize> {
    values.doc += 1;
    let doc = values.doc;
    let rows = cols.index.len();
    let [_, sym_at, level_at, _] = layout(cols.pairs.len(), rows);
    (cols.start, cols.end) = (vec![0; rows], vec![0; rows]);
    cols.content = vec![ContentPtr::NULL; rows];
    let (mut labels, mut heap_bytes) = (0u32, 0usize);
    // Label row `i`'s end and place its value.
    let mut close = |i: usize, labels: &mut u32| -> Result<(), usize> {
        cols.end[i] = *labels;
        *labels += 1;
        let sym = cols.sym[i];
        if sym == crate::dict::NO_SYM {
            return Ok(());
        }
        let value = values.syms.get_mut(sym as usize).filter(|v| v.0 > 0);
        let (len, placed_by, first) = value.ok_or(sym_at + 4 * i)?;
        if *placed_by == doc {
            cols.content[i] = cols.content[*first as usize];
        } else {
            cols.content[i] = heap::locate(heap_bytes, *len);
            heap_bytes += *len as usize;
            (*placed_by, *first) = (doc, i as u32);
        }
        Ok(())
    };
    // The elements still open, innermost last.
    let mut open: Vec<usize> = Vec::new();
    for i in 0..rows {
        while let Some(&e) = open.last().filter(|&&e| cols.level[e] >= cols.level[i]) {
            close(e, &mut labels)?;
            open.pop();
        }
        let parent = open.last().map_or(0, |&e| u32::from(cols.level[e]));
        if u32::from(cols.level[i]) != parent + 1 {
            return Err(level_at + 2 * i);
        }
        cols.start[i] = labels;
        labels += 1;
        match cols.pairs[usize::from(cols.index[i])].1 {
            NodeKind::Element => open.push(i),
            _ => close(i, &mut labels)?,
        }
    }
    for &e in open.iter().rev() {
        close(e, &mut labels)?;
    }
    Ok(heap_bytes)
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

    const E: NodeKind = NodeKind::Element;
    const A: NodeKind = NodeKind::Attribute;
    const T: NodeKind = NodeKind::Text;
    const NONE: u32 = crate::dict::NO_SYM;

    /// Rows `(level, kind, content symbol)` as columns, with one pair per
    /// kind, whose tag symbol is the kind's byte.
    fn cols(rows: &[(u16, NodeKind, u32)]) -> DocColumns {
        let mut c = DocColumns::default();
        for &(level, kind, sym) in rows {
            let at = c.pairs.iter().position(|&(_, k)| k == kind);
            let at = at.unwrap_or_else(|| {
                c.pairs.push((TagId(u32::from(kind.to_u8())), kind));
                c.pairs.len() - 1
            });
            c.index.push(at as u16);
            c.level.push(level);
            c.sym.push(sym);
        }
        c
    }

    /// The data regions of `pages`, end to end.
    fn run_of(pages: &[Box<[u8; PAGE_SIZE]>]) -> Vec<u8> {
        pages
            .iter()
            .flat_map(|p| p[PAGE_HEADER_SIZE..].to_vec())
            .collect()
    }

    /// `<a x="1">t<b y="22">vvv</b>w</a>` and its name table: `b`'s value
    /// follows `@y`'s.
    const NAMES: [&str; 7] = ["doc_root", "1", "t", "vvv", "22", "w", ""];
    const SAMPLE: [(u16, NodeKind, u32); 6] = [
        (1, E, NONE),
        (2, A, 1),
        (2, T, 2),
        (2, E, 3),
        (3, A, 4),
        (2, T, 5),
    ];

    #[test]
    fn encode_decode_roundtrip() {
        let mut want = cols(&SAMPLE);
        let run = run_of(&want.encode());
        assert_eq!(run.len(), PAGE_DATA_SIZE);
        let (got, heap_bytes) = read_run(&run, 6, &mut ValueTable::new(&NAMES)).unwrap();
        assert_eq!(derive(&mut want, &mut ValueTable::new(&NAMES)), Ok(8));
        assert_eq!((got, heap_bytes), (want, 8));
        // Three table entries at bytes 8, 16 and 24, then the index
        // column at 32: an unknown kind, a reserved byte set, a tag
        // symbol past the name table, an index past the table, a count
        // past the limit, and a run a page longer than its rows need.
        let poked = |at: usize, byte: u8| {
            let mut run = run.clone();
            run[at] = byte;
            read_run(&run, 6, &mut ValueTable::new(&NAMES)).map(drop)
        };
        assert_eq!(poked(8 + 4, 3), Err(8));
        assert_eq!(poked(16 + 7, 1), Err(16));
        assert_eq!(poked(24, NAMES.len() as u8), Err(24));
        assert_eq!(poked(32 + 2, 3), Err(34));
        assert_eq!(poked(2, 1), Err(0));
        let long = [run.clone(), run.clone()].concat();
        assert_eq!(read_run(&long, 6, &mut ValueTable::new(&NAMES)), Err(0));
    }

    #[test]
    fn records_fit_in_data_region() {
        // Eight bytes a row: a table of 8 pairs (72 bytes) and 1 014 rows
        // fill a page's data region exactly; an odd row count pads the
        // index column by two bytes.
        assert_eq!(PAGE_DATA_SIZE, 8 * 1023);
        assert_eq!(layout(8, 1014)[3], PAGE_DATA_SIZE);
        assert_eq!(layout(8, 1013)[3], PAGE_DATA_SIZE - 6);
        let mut wide = cols(&[(1, E, NONE)]);
        wide.pairs = (0..MAX_PAIRS as u32).map(|t| (TagId(t), E)).collect();
        // A full table takes 64 pages and a bit.
        assert_eq!(wide.encode().len(), 65);
    }

    fn locs(c: &DocColumns) -> Vec<ContentPtr> {
        c.content.clone()
    }

    /// Rows `(level, content symbol)` under an element, the first bad
    /// row, and whether its symbol, not its level, breaks a rule.
    type Case = (&'static [(u16, u32)], usize, bool);

    #[test]
    fn derive_recomputes_the_loaders_labels_and_locations() {
        let mut values = ValueTable::new(&NAMES);
        let mut c = cols(&SAMPLE);
        assert_eq!(derive(&mut c, &mut values), Ok(8));
        let labels: Vec<(u32, u32)> = c.start.iter().copied().zip(c.end.clone()).collect();
        assert_eq!(labels, [(0, 11), (1, 2), (3, 4), (5, 8), (6, 7), (9, 10)]);
        let want = [(0, 0), (0, 1), (1, 1), (4, 3), (2, 2), (7, 1)];
        assert_eq!(
            locs(&c),
            want.map(|(before, len)| heap::locate(before, len))
        );
        // A first row below level 1, a row two levels down, a row under
        // a leaf; a symbol past the table, and one that names no value:
        // the run byte of the row's level or symbol.
        let cases: [Case; 5] = [
            (&[(2, NONE)], 0, false),
            (&[(1, NONE), (3, NONE)], 1, false),
            (&[(1, NONE), (2, NONE), (3, NONE)], 2, false),
            (&[(1, NONE), (2, 7)], 1, true),
            (&[(1, NONE), (2, 1), (2, 6)], 2, true),
        ];
        for (rows, bad, in_sym) in cases {
            let rows: Vec<_> = (rows.iter().enumerate())
                .map(|(i, &(l, sym))| (l, if i == 0 { E } else { A }, sym))
                .collect();
            let mut c = cols(&rows);
            let [_, sym, level, _] = layout(c.pairs.len(), c.index.len());
            let at = if in_sym {
                sym + 4 * bad
            } else {
                level + 2 * bad
            };
            assert_eq!(derive(&mut c, &mut values), Err(at), "{rows:?}");
        }
    }

    #[test]
    fn derive_places_a_repeated_value_once_per_document() {
        // <a x="v">v<b y="v">v</b>ww<c>ww</c></a>: "v" goes onto the heap
        // when `@x` closes, "ww" when the second `#text` does, and every
        // later row with either symbol points at that copy.
        let mut values = ValueTable::new(&["doc_root", "v", "ww"]);
        let mut c = cols(&[
            (1, E, NONE),
            (2, A, 1),
            (2, T, 1),
            (2, E, 1),
            (3, A, 1),
            (2, T, 2),
            (2, E, 2),
        ]);
        assert_eq!(derive(&mut c, &mut values), Ok(3));
        let (v, ww) = (heap::locate(0, 1), heap::locate(1, 2));
        let null = ContentPtr::NULL;
        assert_eq!(locs(&c), [null, v, v, v, v, ww, ww]);
        // The next document with the same table places its own copy.
        let mut next = cols(&[(1, E, 2), (2, A, 1)]);
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
        // Three pairs and five rows: the index column at 32, ten bytes
        // padded to twelve, then symbols at 44 and levels at 64.
        assert_eq!(layout(3, 5), [32, 44, 64, 74]);
        assert_eq!(layout(0, 0), [8, 8, 8, 8]);
        // Row 1 500 of a run of eight pairs and 2 000 rows keeps its index
        // on the run's first page, and its symbol and level on the second.
        let [index, sym, level, end] = layout(8, 2000);
        let rows = [index + 2 * 1500, sym + 4 * 1500, level + 2 * 1500, end - 1];
        assert_eq!(rows.map(|at| at / PAGE_DATA_SIZE), [0, 1, 1, 1]);
    }

    #[test]
    fn kind_roundtrip() {
        for k in [NodeKind::Element, NodeKind::Attribute, NodeKind::Text] {
            assert_eq!(NodeKind::from_u8(k.to_u8()), Some(k));
        }
        assert_eq!(NodeKind::from_u8(3), None);
    }
}
