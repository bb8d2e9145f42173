//! Selection (Sec. 2): pattern + adornment list → witness trees.
//!
//! Each data tree in the output is the witness tree induced by one
//! embedding of the pattern — one row of the
//! [`Bindings`](crate::matching::Bindings) table the
//! matcher returns; the adornment list `SL` names pattern nodes whose
//! *entire data subtrees* (not just the nodes) are kept. Selection is
//! one-many: a pattern can match many times in one document.
//!
//! No witness tree is built: the executor's scan hands on the rows of
//! its table ([`Matches::select`](crate::batch::Matches::select)), the
//! fused select→project keeps them, or the root column, where its
//! projection list allows
//! ([`Matches::project`](crate::batch::Matches::project)), and output
//! writes a row as the witness tree it induces.

use crate::ops::project::ProjectItem;
use crate::pattern::{PatternNodeId, PatternTree};

/// The bound node of a selection whose pattern is a chain adorned only
/// at its last node — the naive plan's FOR selection (Fig. 4a) — or
/// `None` for any other pattern or list. Such a row *is* its witness
/// tree's first witness under the pattern: every other candidate of a
/// pattern node lies inside that deep last node, after it in document
/// order. So an operator keying the witness trees by the bound node's
/// content can read the key off the row.
pub(crate) fn chain_bound(pattern: &PatternTree, sl: &[PatternNodeId]) -> Option<PatternNodeId> {
    let chain = pattern.iter().all(|(_, node)| node.children.len() <= 1);
    let last = pattern.iter().find(|(_, node)| node.children.is_empty())?.0;
    (chain && sl == [last]).then_some(last)
}

/// Whether projecting such a selection's witness trees through its own
/// pattern, anchored, with `pl` gives each tree back unchanged: `pl`
/// keeps every node in order, deep only the bound one. (A one-node
/// witness tree is a stored row, and is projected as one.)
pub(crate) fn keeps_witness(
    pattern: &PatternTree,
    sl: &[PatternNodeId],
    pl: &[ProjectItem],
) -> bool {
    pattern.len() > 1
        && chain_bound(pattern, sl).is_some_and(|bound| {
            let witness = pattern.iter().map(|(label, _)| ProjectItem {
                label,
                deep: label == bound,
            });
            pl.iter().copied().eq(witness)
        })
}

#[cfg(test)]
mod tests {
    use crate::batch::{Batch, Matches};
    use crate::output::lines;
    use crate::pattern::{Axis, PatternNodeId, PatternTree, Pred};
    use xmlstore::{DocumentStore, StoreOptions};

    const SAMPLE: &str = "<bib>\
        <article><title>Transaction Mng</title><author>Silberschatz</author></article>\
        <article><title>Overview of Transaction Mng</title><author>Silberschatz</author><author>Garcia-Molina</author></article>\
        <article><title>Web</title><author>Thompson</author></article>\
    </bib>";

    fn store() -> DocumentStore {
        DocumentStore::from_xml(SAMPLE, &StoreOptions::in_memory()).unwrap()
    }

    fn fig1() -> PatternTree {
        let mut p = PatternTree::with_root(Pred::tag("article"));
        p.add_child(
            p.root(),
            Axis::Child,
            Pred::tag("title").and(Pred::content_contains("Transaction")),
        );
        p.add_child(p.root(), Axis::Child, Pred::tag("author"));
        p
    }

    /// The witness trees of selecting `p` with `sl`, written one a string.
    fn select(s: &DocumentStore, p: &PatternTree, sl: &[PatternNodeId]) -> Vec<String> {
        lines(s, &Batch::Matches(Matches::select(s, p, sl).unwrap()))
    }

    #[test]
    fn witness_trees_mirror_pattern_shape() {
        let s = store();
        let w = select(&s, &fig1(), &[]);
        let witness = |title: &str, author: &str| {
            format!("<article><title>{title}</title><author>{author}</author></article>")
        };
        let overview = "Overview of Transaction Mng";
        assert_eq!(
            w,
            [
                witness("Transaction Mng", "Silberschatz"),
                witness(overview, "Silberschatz"),
                witness(overview, "Garcia-Molina"),
            ]
        );
    }

    #[test]
    fn selection_is_one_many() {
        let s = store();
        let w = select(&s, &fig1(), &[]);
        // The two-author article yields two witness trees.
        let overview = w.iter().filter(|t| t.contains("Overview"));
        assert_eq!(overview.count(), 2);
        assert_eq!(w.iter().filter(|t| t.contains("Silberschatz")).count(), 2);
    }

    #[test]
    fn adornment_returns_full_subtrees() {
        let s = store();
        let mut p = PatternTree::with_root(Pred::tag("doc_root"));
        let art = p.add_child(p.root(), Axis::Descendant, Pred::tag("article"));
        // SL = [article]: the whole article subtree comes back.
        let w = select(&s, &p, &[art]);
        assert_eq!(w.len(), 3);
        assert_eq!(
            w[1],
            "<doc_root><article><title>Overview of Transaction Mng</title>\
             <author>Silberschatz</author><author>Garcia-Molina</author></article></doc_root>"
        );
    }

    #[test]
    fn unadorned_nodes_are_shallow() {
        let s = store();
        let mut p = PatternTree::with_root(Pred::tag("doc_root"));
        let _art = p.add_child(p.root(), Axis::Descendant, Pred::tag("article"));
        // Shallow article: no title/author children.
        assert_eq!(select(&s, &p, &[])[0], "<doc_root><article/></doc_root>");
    }

    #[test]
    fn selection_preserves_document_order() {
        let s = store();
        let p = PatternTree::with_root(Pred::tag("title"));
        assert_eq!(
            select(&s, &p, &[p.root()]),
            [
                "<title>Transaction Mng</title>",
                "<title>Overview of Transaction Mng</title>",
                "<title>Web</title>"
            ]
        );
    }

    #[test]
    fn no_data_io_for_identifier_only_selection() {
        let s = store();
        s.reset_io_stats();
        let mut p = PatternTree::with_root(Pred::tag("article"));
        p.add_child(p.root(), Axis::Child, Pred::tag("author"));
        let w = Matches::select(&s, &p, &[]).unwrap();
        assert_eq!(Batch::Matches(w).len(), 4);
        assert_eq!(
            s.io_stats().page_requests(),
            0,
            "witness trees must be identifier-only"
        );
    }
}
