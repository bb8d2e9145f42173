//! Selection (Sec. 2): pattern + adornment list → witness trees.
//!
//! Each data tree in the output is the witness tree induced by one
//! embedding of the pattern — one row of the
//! [`Bindings`](crate::matching::Bindings) table the
//! matcher returns; the adornment list `SL` names pattern nodes whose
//! *entire data subtrees* (not just the nodes) are kept. Selection is
//! one-many: a pattern can match many times in one document.
//!
//! A witness tree is built only where something downstream walks it:
//! the executor's scan hands on the rows of its table
//! ([`Matches`]), and the fused select→project
//! keeps them, or the root column, where its projection list allows
//! ([`Matches::project`](crate::batch::Matches::project)).

use crate::batch::Matches;
use crate::error::Result;
use crate::matching::Row;
use crate::ops::project::ProjectItem;
use crate::pattern::{PatternNodeId, PatternTree};
use crate::tree::{Collection, Tree};
use xmlstore::{DocumentStore, NodeEntry};

/// Selection over the stored database.
pub fn select_db(
    store: &DocumentStore,
    pattern: &PatternTree,
    sl: &[PatternNodeId],
) -> Result<Collection> {
    Ok(Matches::select(store, pattern, sl)?.trees())
}

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

/// The witness tree of one row of a database match: it mirrors the
/// pattern's shape, each node a reference to the bound stored node, deep
/// iff its pattern node is adorned. Node identifiers only — no data
/// pages are touched here (Sec. 5.3).
pub(crate) fn witness_tree(
    pattern: &PatternTree,
    row: Row<'_, NodeEntry>,
    sl: &[PatternNodeId],
) -> Tree {
    let order = pattern.preorder();
    let mut tree = Tree::new_ref(row[order[0]], sl.contains(&order[0]));
    let mut map = vec![tree.root(); pattern.len()];
    for &pid in &order[1..] {
        let parent = map[pattern.node(pid).parent.expect("non-root")];
        map[pid] = tree.add_ref(parent, row[pid], sl.contains(&pid));
    }
    tree
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{Axis, Pred};
    use xmlstore::StoreOptions;

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

    #[test]
    fn witness_trees_mirror_pattern_shape() {
        let s = store();
        let w = select_db(&s, &fig1(), &[]).unwrap();
        assert_eq!(w.len(), 3); // (a1,s) (a2,s) (a2,gm)
        for t in &w {
            assert_eq!(t.len(), 3);
            let e = t.materialize(&s).unwrap();
            assert_eq!(e.name, "article");
            assert!(e.child("title").is_some());
            assert!(e.child("author").is_some());
        }
    }

    #[test]
    fn selection_is_one_many() {
        let s = store();
        let w = select_db(&s, &fig1(), &[]).unwrap();
        // The two-author article yields two witness trees.
        let authors: Vec<String> = w
            .iter()
            .map(|t| t.materialize(&s).unwrap().child("author").unwrap().text())
            .collect();
        assert!(authors.contains(&"Garcia-Molina".to_owned()));
        assert_eq!(authors.iter().filter(|a| *a == "Silberschatz").count(), 2);
    }

    #[test]
    fn adornment_returns_full_subtrees() {
        let s = store();
        let mut p = PatternTree::with_root(Pred::tag("doc_root"));
        let art = p.add_child(p.root(), Axis::Descendant, Pred::tag("article"));
        // SL = [article]: the whole article subtree comes back.
        let w = select_db(&s, &p, &[art]).unwrap();
        assert_eq!(w.len(), 3);
        let e = w[1].materialize(&s).unwrap();
        assert_eq!(e.name, "doc_root");
        let article = e.child("article").unwrap();
        assert_eq!(article.children_named("author").count(), 2);
        assert!(article.child("title").is_some());
    }

    #[test]
    fn unadorned_nodes_are_shallow() {
        let s = store();
        let mut p = PatternTree::with_root(Pred::tag("doc_root"));
        let _art = p.add_child(p.root(), Axis::Descendant, Pred::tag("article"));
        let w = select_db(&s, &p, &[]).unwrap();
        let e = w[0].materialize(&s).unwrap();
        // Shallow article: no title/author children.
        let article = e.child("article").unwrap();
        assert!(article.child("title").is_none());
    }

    #[test]
    fn selection_preserves_document_order() {
        let s = store();
        let p = PatternTree::with_root(Pred::tag("title"));
        let w = select_db(&s, &p, &[p.root()]).unwrap();
        let titles: Vec<String> = w
            .iter()
            .map(|t| t.materialize(&s).unwrap().text())
            .collect();
        assert_eq!(
            titles,
            ["Transaction Mng", "Overview of Transaction Mng", "Web"]
        );
    }

    #[test]
    fn no_data_io_for_identifier_only_selection() {
        let s = store();
        s.reset_io_stats();
        let mut p = PatternTree::with_root(Pred::tag("article"));
        p.add_child(p.root(), Axis::Child, Pred::tag("author"));
        let w = select_db(&s, &p, &[]).unwrap();
        assert_eq!(w.len(), 4);
        assert_eq!(
            s.io_stats().page_requests(),
            0,
            "witness trees must be identifier-only"
        );
    }
}
