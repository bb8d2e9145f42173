//! The columnar node-label region: parallel `start[]` / `end[]` /
//! `level[]` / `tag[]` / `kind[]` / `content[]` arrays in global
//! document order, indexed by global [`NodeId`].
//!
//! Node ids are preorder ordinals, so `start[]` is strictly increasing
//! with id (past the synthetic root) and the descendant set of any node
//! is one **contiguous id range** — structural work becomes binary
//! searches and linear scans over dense arrays instead of per-node
//! record fetches through the buffer pool. This is the paper's
//! identifier-only processing (Sec. 5.3) taken to its storage-layout
//! conclusion. Each projection hands its region out behind an `Arc`, so
//! scan batches borrow it without copying and keep a consistent
//! snapshot even while the store mutates underneath. A commit builds
//! the next region with `NodeColumns::splice_into`: the removed
//! document's rows cut out, the added document's rows appended. When
//! nobody holds the region published before the current one, that
//! region is rebuilt in place, keeping the rows below the point where
//! the two diverged; otherwise the commit makes a full copy. Each
//! column stays one contiguous slice, which is what every kernel
//! assumes.

use crate::dict::NO_SYM;
use crate::index::{Cut, NodeEntry};
use crate::node::{NodeId, NodeKind};

/// The label columns of every visible node, in global id order (row 0 is
/// the synthetic `doc_root`).
#[derive(Debug, Clone, Default)]
pub struct NodeColumns {
    /// Pre-order region starts; strictly increasing for ids ≥ 1.
    pub start: Vec<u32>,
    /// Region ends.
    pub end: Vec<u32>,
    /// Depths (root = 0).
    pub level: Vec<u16>,
    /// Tag symbols (`Sym.0`).
    pub tag: Vec<u32>,
    /// Node kinds.
    pub kind: Vec<NodeKind>,
    /// Content symbols; [`NO_SYM`] when the node has no content.
    pub content: Vec<u32>,
}

impl NodeColumns {
    /// An empty region with room for `n` rows.
    pub fn with_capacity(n: usize) -> Self {
        NodeColumns {
            start: Vec::with_capacity(n),
            end: Vec::with_capacity(n),
            level: Vec::with_capacity(n),
            tag: Vec::with_capacity(n),
            kind: Vec::with_capacity(n),
            content: Vec::with_capacity(n),
        }
    }

    /// Number of rows (== the store's node count).
    pub fn len(&self) -> usize {
        self.start.len()
    }

    /// Whether the region is empty.
    pub fn is_empty(&self) -> bool {
        self.start.is_empty()
    }

    /// Append one row.
    pub fn push(
        &mut self,
        start: u32,
        end: u32,
        level: u16,
        tag: u32,
        kind: NodeKind,
        content: u32,
    ) {
        self.start.push(start);
        self.end.push(end);
        self.level.push(level);
        self.tag.push(tag);
        self.kind.push(kind);
        self.content.push(content);
    }

    /// This region without the rows of `cut` and with room for `extra`
    /// more, rebuilt in `out` by [`splice`]; empty `out` and `keep` 0
    /// make a full copy. Row 0's `end` is the caller's to patch.
    pub(crate) fn splice_into(&self, mut out: Self, keep: u32, cut: &Cut, extra: usize) -> Self {
        let ids = cut.ids.start as usize..cut.ids.end as usize;
        let (keep, shift) = (keep as usize, |l| l - cut.span);
        splice(&mut out.start, &self.start, keep, ids.clone(), extra, shift);
        splice(&mut out.end, &self.end, keep, ids.clone(), extra, shift);
        splice(&mut out.level, &self.level, keep, ids.clone(), extra, |l| l);
        splice(&mut out.tag, &self.tag, keep, ids.clone(), extra, |t| t);
        splice(&mut out.kind, &self.kind, keep, ids.clone(), extra, |k| k);
        splice(&mut out.content, &self.content, keep, ids, extra, |c| c);
        out
    }

    /// The index-style entry of row `id`.
    #[inline]
    pub fn entry(&self, id: NodeId) -> NodeEntry {
        let i = id.0 as usize;
        NodeEntry {
            id,
            start: self.start[i],
            end: self.end[i],
            level: self.level[i],
        }
    }

    /// The content symbol of row `id`, if it has content.
    pub fn content_sym(&self, id: NodeId) -> Option<u32> {
        match self.content[id.0 as usize] {
            NO_SYM => None,
            s => Some(s),
        }
    }

    /// The contiguous id range of `id`'s proper descendants. Because ids
    /// are preorder ordinals and `start[]` is increasing past the root,
    /// this is a single binary search.
    pub fn descendant_ids(&self, id: NodeId) -> std::ops::Range<u32> {
        let i = id.0 as usize;
        if i == 0 {
            // Every other node descends from the synthetic root.
            return 1..self.len() as u32;
        }
        let end = self.end[i];
        let lo = id.0 + 1;
        // Rows are sorted by start for ids ≥ 1; descendants are exactly
        // the rows whose start precedes our end. Most subtrees are a
        // handful of rows in a store of many, so the window is doubled
        // from the node outward before it is bisected: the search costs
        // the logarithm of the subtree, not of the store.
        let after = &self.start[lo as usize..];
        let mut window = 1;
        while window < after.len() && after[window - 1] < end {
            window *= 2;
        }
        let hi = lo + after[..window.min(after.len())].partition_point(|&s| s < end) as u32;
        lo..hi
    }

    /// The parent of `id`, `None` for the root: in document order, the
    /// nearest earlier row one level up (every row between the two lies
    /// in the parent's subtree at `id`'s level or deeper).
    pub fn parent_id(&self, id: NodeId) -> Option<NodeId> {
        let level = self.level[id.0 as usize];
        let up = self.level[..id.0 as usize].iter().rposition(|&l| l < level);
        up.map(|p| NodeId(p as u32))
    }

    /// The child ids of `id` (all kinds, document order), skipping over
    /// grandchild subtrees via their `end` labels. Allocation-free: the
    /// matching hot loop calls this per element, so it lazily walks the
    /// descendant range instead of materializing a `Vec`.
    pub fn child_ids(&self, id: NodeId) -> ChildIds<'_> {
        let range = self.descendant_ids(id);
        ChildIds {
            cols: self,
            next: range.start,
            end: range.end,
        }
    }

    /// The attribute children of element `id`: loading lays them out
    /// immediately after their element, so this is the leading run of
    /// `Attribute` rows one level down (in preorder, a row one level
    /// below its predecessor is that row's first child, and the row
    /// after a leaf child at that level is the next child).
    pub fn attr_ids(&self, id: NodeId) -> std::ops::Range<u32> {
        let level = self.level[id.0 as usize] + 1;
        let lo = id.0 + 1;
        let run = self.kind[lo as usize..]
            .iter()
            .zip(&self.level[lo as usize..])
            .take_while(|&(k, l)| *k == NodeKind::Attribute && *l == level)
            .count();
        lo..lo + run as u32
    }
}

/// Rebuild `out` as `src` without its rows `cut` and with room for
/// `extra` more: `out`'s first `keep` rows, which must equal `src`'s
/// (checked in debug builds), stay; then come `src`'s rows up to the cut
/// and, through `shift`, those after it. Room grows amortized: exact
/// growth would make every append to a recycled buffer copy what it kept.
pub(crate) fn splice<T: Copy + PartialEq + std::fmt::Debug>(
    out: &mut Vec<T>,
    src: &[T],
    keep: usize,
    cut: std::ops::Range<usize>,
    extra: usize,
    shift: impl Fn(T) -> T,
) {
    debug_assert_eq!(out[..keep], src[..keep], "kept rows differ");
    out.truncate(keep);
    out.reserve(src.len() - cut.len() + extra - keep);
    out.extend_from_slice(&src[keep..cut.start]);
    out.extend(src[cut.end..].iter().map(|&x| shift(x)));
}

/// Lazy iterator over the direct children of a node, advancing by
/// sibling jumps (binary search on `start` past the current child's
/// `end`) — no intermediate allocation.
pub struct ChildIds<'a> {
    cols: &'a NodeColumns,
    next: u32,
    end: u32,
}

impl Iterator for ChildIds<'_> {
    type Item = NodeId;
    fn next(&mut self) -> Option<NodeId> {
        if self.next >= self.end {
            return None;
        }
        let j = self.next;
        // Skip j's own subtree: the next sibling is the first row
        // starting after j's end.
        self.next = j
            + 1
            + self.cols.start[(j + 1) as usize..self.end as usize]
                .partition_point(|&s| s < self.cols.end[j as usize]) as u32;
        Some(NodeId(j))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// doc_root > a(@x) > (b, c > d)
    fn cols() -> NodeColumns {
        let mut c = NodeColumns::default();
        //        start end lvl tag kind            content
        c.push(0, 11, 0, 0, NodeKind::Element, NO_SYM); // doc_root
        c.push(1, 10, 1, 1, NodeKind::Element, NO_SYM); // a
        c.push(2, 3, 2, 2, NodeKind::Attribute, 7); // @x
        c.push(4, 5, 2, 3, NodeKind::Element, 8); // b
        c.push(6, 9, 2, 4, NodeKind::Element, NO_SYM); // c
        c.push(7, 8, 3, 5, NodeKind::Element, 9); // d
        c
    }

    #[test]
    fn descendants_are_contiguous() {
        let c = cols();
        assert_eq!(c.descendant_ids(NodeId(0)), 1..6);
        assert_eq!(c.descendant_ids(NodeId(1)), 2..6);
        assert_eq!(c.descendant_ids(NodeId(4)), 5..6);
        assert_eq!(c.descendant_ids(NodeId(5)), 6..6);
    }

    #[test]
    fn children_skip_subtrees() {
        let c = cols();
        let kids: Vec<u32> = c.child_ids(NodeId(1)).map(|n| n.0).collect();
        assert_eq!(kids, [2, 3, 4]);
        let kids: Vec<u32> = c.child_ids(NodeId(4)).map(|n| n.0).collect();
        assert_eq!(kids, [5]);
        assert_eq!(c.child_ids(NodeId(3)).count(), 0);
    }

    #[test]
    fn a_parent_is_the_nearest_earlier_row_one_level_up() {
        let c = cols();
        let parents: Vec<_> = (0..6).map(|i| c.parent_id(NodeId(i))).collect();
        let want = [None, Some(0), Some(1), Some(1), Some(1), Some(4)];
        assert_eq!(parents, want.map(|p| p.map(NodeId)));
    }

    #[test]
    fn splicing_cuts_rows_and_shifts_labels() {
        // doc_root > (a > @x, b > d): two documents of two rows each.
        let mut c = NodeColumns::default();
        c.push(0, 9, 0, 0, NodeKind::Element, NO_SYM);
        c.push(1, 4, 1, 1, NodeKind::Element, NO_SYM); // a
        c.push(2, 3, 2, 2, NodeKind::Attribute, 7); // @x
        c.push(5, 8, 1, 3, NodeKind::Element, NO_SYM); // b
        c.push(6, 7, 2, 5, NodeKind::Element, 9); // d

        // Take out `a`'s document (rows 1..3, labels 1..5): `b` and `d`
        // move up two rows and down four labels.
        let cut = Cut { ids: 1..3, span: 4 };
        let s = c.splice_into(NodeColumns::default(), 0, &cut, 2);
        assert_eq!(s.start, [0, 1, 2]);
        assert_eq!(s.end, [9, 4, 3]);
        assert_eq!(s.level, [0, 1, 2]);
        assert_eq!(s.tag, [0, 3, 5]);
        assert_eq!(s.content, [NO_SYM, NO_SYM, 9]);
        assert_eq!(s.kind, [NodeKind::Element; 3]);
        assert!(s.start.capacity() >= 5 && s.kind.capacity() >= 5);
        // Cutting nothing copies everything.
        let none = Cut { ids: 5..5, span: 0 };
        let copy = c.splice_into(NodeColumns::default(), 0, &none, 0);
        assert_eq!(copy.end, c.end);

        // Rebuilt in a spare whose rows below `keep` are ours: it keeps
        // them, drops what it held past them, and reallocates nothing
        // while it has room.
        let mut spare = copy.clone();
        spare.start[4] = 99;
        spare.push(9, 9, 9, 9, NodeKind::Text, 9);
        let buf = spare.start.as_ptr();
        let s = c.splice_into(spare, 4, &none, 0);
        assert_eq!(
            (s.start.as_ptr(), &s.start, &s.tag),
            (buf, &c.start, &c.tag)
        );
        // A delete below what was kept keeps only the rows before it.
        let s = c.splice_into(s, 1, &cut, 0);
        assert_eq!(
            (s.start, s.content),
            (vec![0, 1, 2], vec![NO_SYM, NO_SYM, 9])
        );
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "kept rows differ")]
    fn a_spare_that_differs_below_keep_is_caught() {
        let c = cols();
        let mut spare = c.clone();
        spare.content[3] = 0;
        let none = Cut { ids: 6..6, span: 0 };
        c.splice_into(spare, 6, &none, 0);
    }

    #[test]
    fn attrs_and_content() {
        let c = cols();
        assert_eq!(c.attr_ids(NodeId(1)), 2..3);
        assert_eq!(c.content_sym(NodeId(3)), Some(8));
        assert_eq!(c.content_sym(NodeId(1)), None);
        assert_eq!(c.entry(NodeId(4)).end, 9);
    }
}
