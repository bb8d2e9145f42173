//! Selection (Sec. 2): pattern + adornment list → witness trees.
//!
//! Each data tree in the output is the witness tree induced by one
//! embedding of the pattern — one row of the [`Bindings`] table the
//! matcher returns; the adornment list `SL` names pattern nodes whose
//! *entire data subtrees* (not just the nodes) are kept. Selection is
//! one-many: a pattern can match many times in one input tree.
//!
//! A witness tree is built only where something downstream walks it.
//! The fused select→project leaf ([`select_project`]) whose projection
//! list is exactly `[$root*]` outputs one deep stored node per row —
//! the pattern root's column of the table, as it stands — and emits
//! that column as a [`Batch::Stored`], no tree built and nothing
//! re-matched.

use crate::batch::Batch;
use crate::error::Result;
use crate::matching::vnode::VNode;
use crate::matching::{match_db, match_tree, Bindings, Row};
use crate::ops::project::{project_one, ProjectItem};
use crate::pattern::{PatternNodeId, PatternTree};
use crate::tree::{Collection, Tree};
use std::ops::Range;
use xmlstore::DocumentStore;

/// Selection over the stored database.
pub fn select_db(
    store: &DocumentStore,
    pattern: &PatternTree,
    sl: &[PatternNodeId],
) -> Result<Collection> {
    let bindings = match_db(store, pattern)?;
    Ok(select_rows(pattern, &bindings, 0..bindings.len(), sl))
}

/// The witness trees of rows `rows` of a database match — the scan leaf
/// pulls bounded row ranges of one match through this.
pub fn select_rows(
    pattern: &PatternTree,
    bindings: &Bindings,
    rows: Range<usize>,
    sl: &[PatternNodeId],
) -> Collection {
    rows.map(|i| witness_tree(None, pattern, bindings.row(i), sl))
        .collect()
}

/// Fused selection + projection over rows `rows` of a database match
/// (the optimizer's select→project fusion), byte-identical to
/// `project(select_db(pattern, sl), pattern, pl, anchor_root = true)`
/// restricted to those rows: projection treats input trees independently
/// and appends outputs in order.
///
/// When `pl` is exactly `[$root*]`, each row's witness tree projects to
/// the one deep reference to its root binding whatever `sl` says, so the
/// output is the root column itself, as stored rows. Any other list
/// builds each row's witness tree and projects it.
pub fn select_project(
    store: &DocumentStore,
    pattern: &PatternTree,
    bindings: &Bindings,
    rows: Range<usize>,
    sl: &[PatternNodeId],
    pl: &[ProjectItem],
) -> Result<Batch> {
    if pl == [ProjectItem::deep(pattern.root())] {
        return Ok(Batch::Stored(
            bindings.column(pattern.root())[rows].to_vec(),
        ));
    }
    let mut out = Vec::new();
    for i in rows {
        let witness = witness_tree(None, pattern, bindings.row(i), sl);
        project_one(store, &witness, pattern, pl, true, &mut out)?;
    }
    Ok(Batch::Trees(out))
}

/// Selection over an in-memory collection. Witness trees are produced per
/// embedding, as over the database.
pub fn select(
    store: &DocumentStore,
    input: &Collection,
    pattern: &PatternTree,
    sl: &[PatternNodeId],
) -> Result<Collection> {
    let mut out = Vec::new();
    for tree in input {
        let table = match_tree(store, tree, pattern, false)?;
        out.extend(
            table
                .rows()
                .map(|b| witness_tree(Some(tree), pattern, b, sl)),
        );
    }
    Ok(out)
}

/// Build the witness tree for one binding: it mirrors the pattern's
/// shape; each node is the bound data node, deep iff its pattern node is
/// adorned (see [`Tree::from_vnode`] for what each kind of bound node
/// becomes). `source` is the input tree the binding was matched in, or
/// `None` for a database match. Node identifiers only — no data pages
/// are touched here (Sec. 5.3).
pub fn witness_tree<C: Copy + Into<VNode>>(
    source: Option<&Tree>,
    pattern: &PatternTree,
    binding: Row<'_, C>,
    sl: &[PatternNodeId],
) -> Tree {
    let order = pattern.preorder();
    let root = order[0];
    let mut tree = Tree::from_vnode(source, binding[root].into(), sl.contains(&root));
    let mut map: Vec<usize> = vec![usize::MAX; pattern.len()];
    map[root] = tree.root();
    for &pid in order.iter().skip(1) {
        let parent = pattern.node(pid).parent.expect("non-root");
        let deep = sl.contains(&pid);
        map[pid] = tree.append_vnode(map[parent], source, binding[pid].into(), deep);
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
    fn select_over_collection() {
        let s = store();
        // First select articles deeply, then select authors within them.
        let p1 = PatternTree::with_root(Pred::tag("article"));
        let c1 = select_db(&s, &p1, &[p1.root()]).unwrap();
        assert_eq!(c1.len(), 3);
        let p2 = PatternTree::with_root(Pred::tag("author"));
        let c2 = select(&s, &c1, &p2, &[p2.root()]).unwrap();
        assert_eq!(c2.len(), 4); // 1 + 2 + 1 authors
        let names: Vec<String> = c2
            .iter()
            .map(|t| t.materialize(&s).unwrap().text())
            .collect();
        assert!(names.contains(&"Thompson".to_owned()));
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
