//! Selection (Sec. 2): pattern + adornment list → witness trees.
//!
//! Each data tree in the output is the witness tree induced by one
//! embedding of the pattern; the adornment list `SL` names pattern nodes
//! whose *entire data subtrees* (not just the nodes) are kept. Selection
//! is one-many: a pattern can match many times in one input tree.

use crate::error::Result;
use crate::exec::{par_map, ExecOptions};
use crate::matching::vnode::VNode;
use crate::matching::{match_db, match_tree, Binding};
use crate::pattern::{PatternNodeId, PatternTree};
use crate::tree::{Collection, Tree, TreeNodeKind};
use xmlstore::DocumentStore;

/// Selection over the stored database.
pub fn select_db(
    store: &DocumentStore,
    pattern: &PatternTree,
    sl: &[PatternNodeId],
) -> Result<Collection> {
    select_db_opts(store, pattern, sl, &ExecOptions::default())
}

/// [`select_db`] with explicit execution options: the pattern match runs
/// single-threaded over the indexes, then witness-tree construction fans
/// out per binding.
pub fn select_db_opts(
    store: &DocumentStore,
    pattern: &PatternTree,
    sl: &[PatternNodeId],
    opts: &ExecOptions,
) -> Result<Collection> {
    let bindings = match_db(store, pattern)?;
    par_map(opts, &bindings, |_, b| {
        witness_tree(store, None, pattern, b, sl)
    })
}

/// Fused selection + projection over a slice of database bindings (the
/// optimizer's select→project fusion): each binding's witness tree is
/// projected immediately instead of materializing the whole selected
/// collection — the scan leaf pulls bounded slices of one pattern match
/// through this. Because projection treats input trees independently
/// and appends outputs in order, this is byte-identical to
/// `project(select_db(pattern, sl), pattern, pl, anchor_root = true)`.
pub fn select_project_bindings(
    store: &DocumentStore,
    pattern: &PatternTree,
    bindings: &[Binding],
    sl: &[PatternNodeId],
    pl: &[crate::ops::project::ProjectItem],
    opts: &ExecOptions,
) -> Result<Collection> {
    let per_binding = par_map(opts, bindings, |_, b| {
        let witness = witness_tree(store, None, pattern, b, sl)?;
        let mut out = Vec::new();
        crate::ops::project::project_one(store, &witness, pattern, pl, true, &mut out)?;
        Ok(out)
    })?;
    Ok(per_binding.into_iter().flatten().collect())
}

/// Selection over an in-memory collection. Witness trees are produced per
/// embedding, as over the database.
pub fn select(
    store: &DocumentStore,
    input: &Collection,
    pattern: &PatternTree,
    sl: &[PatternNodeId],
) -> Result<Collection> {
    select_opts(store, input, pattern, sl, &ExecOptions::default())
}

/// [`select`] with explicit execution options: matching and witness
/// construction fan out per input tree.
pub fn select_opts(
    store: &DocumentStore,
    input: &Collection,
    pattern: &PatternTree,
    sl: &[PatternNodeId],
    opts: &ExecOptions,
) -> Result<Collection> {
    let per_tree = par_map(opts, input, |_, tree| {
        let mut witnesses = Vec::new();
        for b in match_tree(store, tree, pattern, false)? {
            witnesses.push(witness_tree(store, Some(tree), pattern, &b, sl)?);
        }
        Ok(witnesses)
    })?;
    Ok(per_tree.into_iter().flatten().collect())
}

/// Build the witness tree for one binding: it mirrors the pattern's
/// shape; each node is the bound data node, deep iff its pattern node is
/// adorned. Node identifiers only — no data pages are touched here
/// (Sec. 5.3).
pub fn witness_tree(
    store: &DocumentStore,
    source: Option<&Tree>,
    pattern: &PatternTree,
    binding: &Binding,
    sl: &[PatternNodeId],
) -> Result<Tree> {
    let order = pattern.preorder();
    let root_kind = bound_kind(store, source, binding[order[0]], sl.contains(&order[0]))?;
    let mut tree = match root_kind {
        BoundKind::Node(kind) => new_tree_with(kind),
        BoundKind::Copy(sub) => sub,
    };
    let mut map: Vec<usize> = vec![usize::MAX; pattern.len()];
    map[order[0]] = tree.root();
    for &pid in order.iter().skip(1) {
        let parent = pattern.node(pid).parent.expect("non-root");
        let parent_arena = map[parent];
        match bound_kind(store, source, binding[pid], sl.contains(&pid))? {
            BoundKind::Node(kind) => {
                map[pid] = tree.add_node(parent_arena, kind);
            }
            BoundKind::Copy(sub) => {
                map[pid] = tree.append_subtree(parent_arena, &sub, sub.root());
            }
        }
    }
    Ok(tree)
}

enum BoundKind {
    Node(TreeNodeKind),
    Copy(Tree),
}

fn new_tree_with(kind: TreeNodeKind) -> Tree {
    match kind {
        TreeNodeKind::Elem { tag, content } => {
            let mut t = Tree::new_elem_sym(tag);
            if let Some(c) = content {
                if let TreeNodeKind::Elem { content, .. } = &mut t.node_mut(0).kind {
                    *content = Some(c);
                }
            }
            t
        }
        TreeNodeKind::Ref { node, deep } => Tree::new_ref(node, deep),
    }
}

fn bound_kind(
    _store: &DocumentStore,
    source: Option<&Tree>,
    v: VNode,
    deep: bool,
) -> Result<BoundKind> {
    Ok(match v {
        VNode::Stored(e) => BoundKind::Node(TreeNodeKind::Ref { node: e, deep }),
        VNode::Arena(i) => {
            let src = source.expect("arena binding implies a source tree");
            if deep {
                BoundKind::Copy(extract(src, i))
            } else {
                BoundKind::Node(src.node(i).kind.clone())
            }
        }
    })
}

/// Copy the subtree of `t` rooted at `n` into a standalone tree.
fn extract(t: &Tree, n: usize) -> Tree {
    let mut out = new_tree_with(t.node(n).kind.clone());
    for &c in &t.node(n).children {
        let root = out.root();
        out.append_subtree(root, t, c);
    }
    out
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
