//! The tag-name index (the Index Manager).
//!
//! For every tag, the index holds the document-order list of
//! [`NodeEntry`] values — node id plus the `(start, end, level)` label.
//! Because the label travels with the index entry, pattern-tree node
//! candidates and all structural (containment) joins run **entirely on
//! index data**, with no data-page access; this is the property Sec. 5.2
//! of the paper relies on ("these node bindings can be found, in most
//! cases, using indices alone, without access to the actual data").

use crate::catalog::TagId;
use crate::columns::splice;
use crate::node::NodeId;

/// An index entry: a node id together with its containment label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeEntry {
    /// The node.
    pub id: NodeId,
    /// Pre-order region start.
    pub start: u32,
    /// Region end.
    pub end: u32,
    /// Depth (root = 0).
    pub level: u16,
}

impl NodeEntry {
    /// Is `self` a proper ancestor of `d`?
    pub fn is_ancestor_of(&self, d: &NodeEntry) -> bool {
        self.start < d.start && d.end < self.end
    }

    /// Is `self` the parent of `d`?
    pub fn is_parent_of(&self, d: &NodeEntry) -> bool {
        self.is_ancestor_of(d) && d.level == self.level + 1
    }

    /// Does `self` contain-or-equal `d` (reflexive ancestor test)?
    pub fn contains(&self, d: &NodeEntry) -> bool {
        self.start <= d.start && d.end <= self.end
    }
}

/// The rows an edit takes out of a projection: one document's contiguous
/// id range and the width of its label span. Entries past the range move
/// down by both; an edit that removes nothing cuts the empty range at the
/// end of the id space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Cut {
    /// Global ids of the removed rows.
    pub ids: std::ops::Range<u32>,
    /// Label positions the removed rows occupied.
    pub span: u32,
}

/// Tag-name index: `TagId → sorted-by-start Vec<NodeEntry>`.
#[derive(Debug, Default, Clone)]
pub struct TagIndex {
    lists: Vec<Vec<NodeEntry>>,
}

impl TagIndex {
    /// An empty index.
    pub fn new() -> Self {
        TagIndex::default()
    }

    /// Record that `entry` has tag `tag`. Entries must be inserted in
    /// document order (which load naturally does), keeping lists sorted
    /// by `start`.
    pub fn insert(&mut self, tag: TagId, entry: NodeEntry) {
        let idx = tag.0 as usize;
        if idx >= self.lists.len() {
            self.lists.resize_with(idx + 1, Vec::new);
        }
        debug_assert!(
            self.lists[idx]
                .last()
                .map(|prev| prev.start < entry.start)
                .unwrap_or(true),
            "index entries must arrive in document order"
        );
        self.lists[idx].push(entry);
    }

    /// This index without the rows of `cut`, rebuilt in `out` by
    /// [`splice`] keeping the entries below row `keep`, each list with
    /// room for the entries of `added` (one tag per row the caller is
    /// about to insert), so the appends do not reallocate. The counts go
    /// into a dense array beside the lists: the tag space holds every
    /// content symbol too, and a lookup per list costs more than the
    /// reallocations it saves.
    pub(crate) fn splice_into(
        &self,
        mut out: TagIndex,
        keep: u32,
        cut: &Cut,
        added: impl Iterator<Item = TagId>,
    ) -> TagIndex {
        let mut extra = vec![0usize; self.lists.len()];
        for tag in added {
            if let Some(n) = extra.get_mut(tag.0 as usize) {
                *n += 1;
            }
        }
        let rows = cut.ids.end - cut.ids.start;
        let shift = |e: NodeEntry| NodeEntry {
            id: NodeId(e.id.0 - rows),
            start: e.start - cut.span,
            end: e.end - cut.span,
            level: e.level,
        };
        out.lists.resize_with(self.lists.len(), Vec::new);
        for ((out, src), extra) in out.lists.iter_mut().zip(&self.lists).zip(extra) {
            let at = |id| src.partition_point(|e| e.id.0 < id);
            let ids = at(cut.ids.start)..at(cut.ids.end);
            splice(out, src, at(keep), ids, extra, shift);
        }
        out
    }

    /// The first entry of `tag`'s list, for patching in place (the
    /// synthetic root's `end` moves with every edit).
    pub(crate) fn first_mut(&mut self, tag: TagId) -> Option<&mut NodeEntry> {
        self.lists.get_mut(tag.0 as usize)?.first_mut()
    }

    /// The document-order node list for `tag` (empty if the tag has no
    /// nodes).
    pub fn nodes(&self, tag: TagId) -> &[NodeEntry] {
        self.lists
            .get(tag.0 as usize)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Total entries across all tags.
    pub fn total_entries(&self) -> usize {
        self.lists.iter().map(Vec::len).sum()
    }

    /// Iterate the tags that actually index nodes, with their lists.
    /// Value symbols share the tag id space but have no entries, so
    /// they are skipped here.
    pub fn tags_with_nodes(&self) -> impl Iterator<Item = (TagId, &[NodeEntry])> {
        self.lists
            .iter()
            .enumerate()
            .filter(|(_, l)| !l.is_empty())
            .map(|(i, l)| (TagId(i as u32), l.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(id: u32, start: u32, end: u32, level: u16) -> NodeEntry {
        NodeEntry {
            id: NodeId(id),
            start,
            end,
            level,
        }
    }

    #[test]
    fn insert_and_lookup() {
        let mut ix = TagIndex::new();
        ix.insert(TagId(2), entry(1, 10, 20, 1));
        ix.insert(TagId(2), entry(5, 30, 40, 1));
        ix.insert(TagId(0), entry(0, 0, 100, 0));
        assert_eq!(ix.nodes(TagId(2)).len(), 2);
        assert_eq!(ix.nodes(TagId(0)).len(), 1);
        assert_eq!(ix.nodes(TagId(1)).len(), 0);
        assert_eq!(ix.nodes(TagId(9)).len(), 0);
        assert_eq!(ix.total_entries(), 3);
    }

    #[test]
    fn lists_stay_sorted_by_start() {
        let mut ix = TagIndex::new();
        ix.insert(TagId(0), entry(0, 1, 2, 3));
        ix.insert(TagId(0), entry(1, 5, 6, 3));
        let starts: Vec<_> = ix.nodes(TagId(0)).iter().map(|e| e.start).collect();
        assert!(starts.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn splicing_cuts_an_id_range_and_shifts_what_follows() {
        let mut ix = TagIndex::new();
        for (id, start) in [(1, 1), (2, 5), (3, 9), (4, 13)] {
            ix.insert(TagId(3), entry(id, start, start + 1, 2));
        }
        // Rows 2..4 (labels 5..13) leave; row 4 becomes row 2 at label 5.
        let cut = Cut { ids: 2..4, span: 8 };
        let after = [entry(1, 1, 2, 2), entry(2, 5, 6, 2)];
        let added = [TagId(3), TagId(7), TagId(3)];
        let spliced = ix.splice_into(TagIndex::new(), 0, &cut, added.into_iter());
        assert_eq!(spliced.nodes(TagId(3)), after);
        assert!(spliced.lists[3].capacity() >= 4);
        // Cutting nothing at the end of the id space is a plain copy.
        let none = Cut { ids: 5..5, span: 0 };
        let copy = ix.splice_into(TagIndex::new(), 0, &none, std::iter::empty());
        assert_eq!(copy.nodes(TagId(3)), ix.nodes(TagId(3)));
        // Rebuilt in a spare that holds the entries below id 3: they stay,
        // the spare's own entries past them go, and so do lists the
        // source does not have.
        let mut spare = spliced.clone();
        spare.insert(TagId(9), entry(7, 20, 21, 1));
        let s = ix.splice_into(spare, 3, &none, std::iter::empty());
        assert_eq!((s.nodes(TagId(3)), s.lists.len()), (ix.nodes(TagId(3)), 4));
    }

    #[test]
    fn entry_containment() {
        let a = entry(0, 0, 100, 0);
        let b = entry(1, 10, 20, 1);
        let c = entry(2, 12, 15, 2);
        assert!(a.is_ancestor_of(&b));
        assert!(a.is_ancestor_of(&c));
        assert!(a.is_parent_of(&b));
        assert!(!a.is_parent_of(&c));
        assert!(b.is_parent_of(&c));
        assert!(a.contains(&a));
        assert!(!a.is_ancestor_of(&a));
    }
}
