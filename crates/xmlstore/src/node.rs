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
//! The labels follow from the rows in order; `decode_run` derives them
//! in one pass. A row's value is its content symbol's name, which lies
//! on the store's name pages, not in the run.

use crate::catalog::TagId;
use crate::columns::NodeColumns;
use crate::dict::NO_SYM;
use crate::page::{self, PAGE_DATA_SIZE, PAGE_SIZE};

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

/// Where a name lies on the name pages. `len == 0` means "no content".
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
    /// Content symbol (`Sym.0`), or [`NO_SYM`]
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

/// One document's rows as columns, in local ids and labels: what the
/// loader builds and a commit encodes.
#[derive(Debug, Default, Clone, PartialEq)]
pub(crate) struct DocColumns {
    /// The document's distinct (tag, kind) pairs, in order of first row.
    pub pairs: Vec<(TagId, NodeKind)>,
    /// Per row: where its pair lies in `pairs`.
    pub index: Vec<u16>,
    /// Per row: content symbol, or [`NO_SYM`].
    pub sym: Vec<u32>,
    /// Per row: depth; the document's root element is level 1.
    pub level: Vec<u16>,
    /// Per row, derived: the labels.
    pub start: Vec<u32>,
    pub end: Vec<u32>,
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
        page::images([&run[..]])
    }
}

/// Decode node run `run` (its pages' data regions end to end) of `rows`
/// rows onto the end of `cols`, its labels counted from `off`, and return
/// its (tag, kind) table. Each row's tag and kind come through the table;
/// its labels follow from the rows in order — the loader's rule, run
/// backwards: a label counter runs over the document, and an element
/// takes one count when it opens and one when it closes, a leaf
/// (attribute or text) two at once.
///
/// The run is as long as its table and rows need, each entry has a kind,
/// 0 reserved bytes and a paged tag, and each index is in the table;
/// every symbol is [`NO_SYM`] or names a non-empty name of `names`
/// (where each paged symbol's name lies); the first row is at level 1,
/// every later one at most one level below the innermost open element.
/// The rules are checked in that order, each over the whole run, and
/// `Err(at)` is the run byte where the first broken one shows; `cols`
/// then holds a partial tail, for the caller to drop.
pub(crate) fn decode_run(
    run: &[u8],
    rows: usize,
    names: &[ContentPtr],
    off: u32,
    cols: &mut NodeColumns,
) -> Result<Box<[(TagId, NodeKind)]>, usize> {
    let word = |b: &[u8]| b.iter().rev().fold(0u64, |w, &b| w << 8 | u64::from(b));
    let count = run.get(..8).map_or(u64::MAX, word);
    let pairs = count.min(MAX_PAIRS as u64 + 1) as usize;
    let [index, sym, level, end] = layout(pairs, rows);
    if pairs > MAX_PAIRS || end.div_ceil(PAGE_DATA_SIZE) * PAGE_DATA_SIZE != run.len() {
        return Err(0);
    }
    let mut table = Vec::with_capacity(pairs);
    for (i, entry) in run[8..index].chunks_exact(8).enumerate() {
        let tag = word(&entry[..4]) as u32;
        let known = word(&entry[5..]) == 0 && (tag as usize) < names.len();
        let kind = NodeKind::from_u8(entry[4]).filter(|_| known);
        table.push((TagId(tag), kind.ok_or(8 + 8 * i)?));
    }
    let u16_at = |b: &[u8]| u16::from_le_bytes([b[0], b[1]]);
    let indexes = run[index..index + 2 * rows].chunks_exact(2).map(u16_at);
    if let Some(bad) = indexes.clone().position(|i| usize::from(i) >= pairs) {
        return Err(index + 2 * bad);
    }
    let row_pairs = indexes.map(|i| table[usize::from(i)]);
    cols.tag.extend(row_pairs.clone().map(|(tag, _)| tag.0));
    cols.kind.extend(row_pairs.map(|(_, kind)| kind));
    let syms = run[sym..level]
        .chunks_exact(4)
        .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]));
    let named = |s| s == NO_SYM || names.get(s as usize).is_some_and(ContentPtr::is_some);
    if let Some(bad) = syms.clone().position(|s| !named(s)) {
        return Err(sym + 4 * bad);
    }
    cols.content.extend(syms);
    let base = cols.level.len();
    cols.level
        .extend(run[level..end].chunks_exact(2).map(u16_at));
    cols.start.resize(base + rows, 0);
    cols.end.resize(base + rows, 0);
    let (depths, kinds) = (&cols.level[base..], &cols.kind[base..]);
    let (starts, ends) = (&mut cols.start[base..], &mut cols.end[base..]);
    // By that rule, once `j` rows have opened and `l` elements of them
    // are still open, `2j - l` labels are taken. Before row `j` opens,
    // the open elements at its level or deeper close, innermost first.
    let label = |j: usize, l: usize| off + (2 * j - l) as u32;
    // The elements still open, innermost last: the one at level `l` is
    // `open[l - 1]`, so a row may lie one level below the last at most.
    let mut open: Vec<usize> = Vec::new();
    for (i, (&depth, &kind)) in depths.iter().zip(kinds).enumerate() {
        let depth = usize::from(depth);
        if depth == 0 || depth > open.len() + 1 {
            return Err(level + 2 * i);
        }
        for l in (depth..=open.len()).rev() {
            ends[open[l - 1]] = label(i, l);
        }
        open.truncate(depth - 1);
        starts[i] = label(i, depth - 1);
        match kind {
            NodeKind::Element => open.push(i),
            _ => ends[i] = starts[i] + 1,
        }
    }
    for l in (1..=open.len()).rev() {
        ends[open[l - 1]] = label(rows, l);
    }
    Ok(table.into())
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
        pages.iter().flat_map(|p| page::data(p).to_vec()).collect()
    }

    /// Where `names` lie, paged as one run from page 0 on.
    fn paged(names: &[&str]) -> Vec<ContentPtr> {
        let lens: Vec<u32> = names.iter().map(|n| n.len() as u32).collect();
        let mut table = crate::heap::NamePages::default();
        table.push(0, &lens);
        table.locs
    }

    /// `<a x="1">t<b y="22">vvv</b>w</a>` and its name table.
    const NAMES: [&str; 7] = ["doc_root", "1", "t", "vvv", "22", "w", ""];
    const SAMPLE: [(u16, NodeKind, u32); 6] = [
        (1, E, NONE),
        (2, A, 1),
        (2, T, 2),
        (2, E, 3),
        (3, A, 4),
        (2, T, 5),
    ];

    /// A run's (tag, kind) table and its rows as columns.
    type Decoded = (Box<[(TagId, NodeKind)]>, NodeColumns);

    /// Decode `run` of `rows` rows against [`NAMES`] onto empty columns,
    /// labels from 0.
    fn decode(run: &[u8], rows: usize) -> Result<Decoded, usize> {
        let mut cols = NodeColumns::default();
        let table = decode_run(run, rows, &paged(&NAMES), 0, &mut cols)?;
        Ok((table, cols))
    }

    #[test]
    fn encode_decode_roundtrip() {
        let want = cols(&SAMPLE);
        let run = run_of(&want.encode());
        assert_eq!(run.len(), PAGE_DATA_SIZE);
        let (table, got) = decode(&run, 6).unwrap();
        assert_eq!(*table, *want.pairs);
        let pairs = want.index.iter().map(|&i| want.pairs[usize::from(i)]);
        let tags: Vec<u32> = pairs.clone().map(|(tag, _)| tag.0).collect();
        assert_eq!(
            (got.tag, got.kind),
            (tags, pairs.map(|(_, kind)| kind).collect())
        );
        assert_eq!((got.content, got.level), (want.sym, want.level));
        // Three table entries at bytes 8, 16 and 24, then the index
        // column at 32: an unknown kind, a reserved byte set, a tag
        // symbol past the name table, an index past the table, a count
        // past the limit, and a run a page longer than its rows need.
        let poked = |at: usize, byte: u8| {
            let mut run = run.clone();
            run[at] = byte;
            decode(&run, 6).map(drop)
        };
        assert_eq!(poked(8 + 4, 3), Err(8));
        assert_eq!(poked(16 + 7, 1), Err(16));
        assert_eq!(poked(24, NAMES.len() as u8), Err(24));
        assert_eq!(poked(32 + 2, 3), Err(34));
        assert_eq!(poked(2, 1), Err(0));
        let long = [run.clone(), run.clone()].concat();
        assert_eq!(decode(&long, 6).map(drop), Err(0));
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

    /// Rows `(level, content symbol)` under an element, the first bad
    /// row, and whether its symbol, not its level, breaks a rule.
    type Case = (&'static [(u16, u32)], usize, bool);

    #[test]
    fn decoding_recomputes_the_loaders_labels() {
        let (_, c) = decode(&run_of(&cols(&SAMPLE).encode()), 6).unwrap();
        let labels: Vec<(u32, u32)> = c.start.iter().copied().zip(c.end).collect();
        assert_eq!(labels, [(0, 11), (1, 2), (3, 4), (5, 8), (6, 7), (9, 10)]);
        // A first row below level 1, a row two levels down, a row under
        // a leaf; a symbol past the table, and one that names no value:
        // the run byte of the row's level or symbol. Every symbol is
        // checked before any level.
        let cases: [Case; 6] = [
            (&[(2, NONE)], 0, false),
            (&[(1, NONE), (3, NONE)], 1, false),
            (&[(1, NONE), (2, NONE), (3, NONE)], 2, false),
            (&[(1, NONE), (2, 7)], 1, true),
            (&[(1, NONE), (2, 1), (2, 6)], 2, true),
            (&[(1, NONE), (3, NONE), (2, 7)], 2, true),
        ];
        for (rows, bad, in_sym) in cases {
            let rows: Vec<_> = (rows.iter().enumerate())
                .map(|(i, &(l, sym))| (l, if i == 0 { E } else { A }, sym))
                .collect();
            let c = cols(&rows);
            let [_, sym, level, _] = layout(c.pairs.len(), c.index.len());
            let at = if in_sym {
                sym + 4 * bad
            } else {
                level + 2 * bad
            };
            assert_eq!(
                decode(&run_of(&c.encode()), rows.len()).map(drop),
                Err(at),
                "{rows:?}"
            );
        }
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
