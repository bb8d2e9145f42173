//! Projection (Sec. 2): pattern + projection list → node elimination.
//!
//! All nodes named in the projection list `PL` are kept (a `*`-adorned
//! label keeps the whole data subtree); partial hierarchical
//! relationships between surviving nodes are preserved; relative order is
//! preserved. One input tree contributes zero output trees (no witness),
//! one, or several (when the retained nodes have no ancestor-descendant
//! relationship among them).

use crate::error::Result;
use crate::matching::match_tree;
use crate::matching::vnode::VNode;
use crate::pattern::{PatternNodeId, PatternTree};
use crate::tree::{Collection, Tree, TreeNodeKind};
use std::collections::HashMap;
use xmlstore::DocumentStore;

/// Composite rank used to order and nest mixed arena/stored nodes.
type VKey = (u32, u32);

/// One entry of a projection list: a pattern node, optionally `*`-adorned
/// (keep the whole subtree).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProjectItem {
    /// The pattern node label.
    pub label: PatternNodeId,
    /// `true` for `$i*`.
    pub deep: bool,
}

impl ProjectItem {
    /// `$i` — keep just the node.
    pub fn shallow(label: PatternNodeId) -> Self {
        ProjectItem { label, deep: false }
    }

    /// `$i*` — keep the node and all its descendants.
    pub fn deep(label: PatternNodeId) -> Self {
        ProjectItem { label, deep: true }
    }
}

/// Project each tree of `input` through `pattern`/`pl`.
///
/// With `anchor_root == true` the pattern root binds only to each tree's
/// root, which (together with putting the pattern root in `PL`) gives the
/// at-most-one-output-per-input behaviour the paper describes.
pub fn project(
    store: &DocumentStore,
    input: &Collection,
    pattern: &PatternTree,
    pl: &[ProjectItem],
    anchor_root: bool,
) -> Result<Collection> {
    let mut out = Vec::new();
    for tree in input {
        project_one(store, tree, pattern, pl, anchor_root, &mut out)?;
    }
    Ok(out)
}

/// Project a single tree, appending its output trees (possibly none) to
/// `out`. Trees are independent under projection, so [`project`] is just
/// this in a loop — exposed for the fused select→project kernel and the
/// streaming executor, which batch over trees.
pub fn project_one(
    store: &DocumentStore,
    tree: &Tree,
    pattern: &PatternTree,
    pl: &[ProjectItem],
    anchor_root: bool,
    out: &mut Vec<Tree>,
) -> Result<()> {
    let bindings = match_tree(store, tree, pattern, anchor_root)?;
    if bindings.is_empty() {
        return Ok(());
    }
    // Union of selected nodes over all embeddings; deep wins.
    let mut selected: HashMap<VNode, bool> = HashMap::new();
    for b in &bindings {
        for item in pl {
            let v = b[item.label];
            let e = selected.entry(v).or_insert(false);
            *e = *e || item.deep;
        }
    }

    // Compute enter/exit ranks for the selected nodes so mixed
    // arena/stored containment can be decided uniformly — entirely from
    // labels, touching no data pages (identifier processing, Sec. 5.3):
    // arena nodes get DFS counters; a stored node inside a deep reference
    // inherits the reference's rank as its first key component and its
    // own (start, end) label as the second.

    // Normalize: a selected stored node that *is* some reference's target
    // aliases that arena node.
    let mut ref_of: HashMap<u32, usize> = HashMap::new();
    for i in tree.preorder() {
        if let TreeNodeKind::Ref { node, .. } = &tree.node(i).kind {
            ref_of.insert(node.id.0, i);
        }
    }
    let mut norm: HashMap<VNode, bool> = HashMap::new();
    for (v, deep) in selected {
        let v = match v {
            VNode::Stored(e) => match ref_of.get(&e.id.0) {
                Some(&i) => VNode::Arena(i),
                None => VNode::Stored(e),
            },
            other => other,
        };
        let slot = norm.entry(v).or_insert(false);
        *slot = *slot || deep;
    }
    let selected = norm;

    let selected_stored: Vec<xmlstore::NodeEntry> = {
        let mut v: Vec<xmlstore::NodeEntry> =
            selected.keys().filter_map(|n| n.as_stored()).collect();
        v.sort_by_key(|e| e.start);
        v
    };

    let mut intervals: HashMap<VNode, (VKey, VKey)> = HashMap::new();
    // Innermost-owner width for stored nodes claimed by several refs.
    let mut owner_width: HashMap<VNode, u32> = HashMap::new();
    let mut counter = 0u32;
    arena_intervals(
        tree,
        tree.root(),
        &selected_stored,
        &mut intervals,
        &mut owner_width,
        &mut counter,
    );

    // Selected nodes in document order.
    let mut nodes: Vec<(VNode, bool)> = selected
        .into_iter()
        .filter(|(v, _)| intervals.contains_key(v))
        .collect();
    nodes.sort_by_key(|(v, _)| intervals[v].0);

    // Build the forest with a containment stack. Each maximal node roots
    // its own output tree; a selected node nested under a *deep* selected
    // node is already part of that subtree and is skipped.
    let mut stack: Vec<(VNode, usize, usize, bool)> = Vec::new(); // (vnode, tree idx in out, arena id, deep)
    let mut roots: Vec<usize> = Vec::new(); // indices into out
    let base = out.len();
    for (v, deep) in nodes {
        let (enter, _) = intervals[&v];
        while let Some(&(top, _, _, _)) = stack.last() {
            if intervals[&top].1 < enter {
                stack.pop();
            } else {
                break;
            }
        }
        match stack.last() {
            None => {
                out.push(Tree::from_vnode(Some(tree), v, deep));
                let idx = out.len() - 1;
                roots.push(idx);
                stack.push((v, idx, 0, deep));
            }
            Some(&(_, tidx, parent_arena, parent_deep)) => {
                if parent_deep {
                    // Already inside a kept subtree.
                    continue;
                }
                let kind = Tree::vnode_kind(Some(tree), v, deep);
                let arena = out[tidx].add_node(parent_arena, kind);
                stack.push((v, tidx, arena, deep));
            }
        }
    }
    let _ = base;
    let _ = roots;
    Ok(())
}

/// Arena DFS assigning composite ranks: arena node `i` gets
/// `((enter, 0), (exit, 0))`; every selected stored node inside a deep
/// reference gets `((ref_enter, start), (ref_enter, end))`, which nests
/// correctly between the reference's enter and exit. When two references
/// could both claim a stored node (nested targets), the narrower —
/// innermost — reference wins.
fn arena_intervals(
    tree: &Tree,
    i: usize,
    selected_stored: &[xmlstore::NodeEntry],
    intervals: &mut HashMap<VNode, (VKey, VKey)>,
    owner_width: &mut HashMap<VNode, u32>,
    counter: &mut u32,
) {
    let enter = *counter;
    *counter += 1;
    for &c in &tree.node(i).children {
        arena_intervals(tree, c, selected_stored, intervals, owner_width, counter);
    }
    if let TreeNodeKind::Ref {
        node: entry,
        deep: true,
    } = &tree.node(i).kind
    {
        if !selected_stored.is_empty() {
            let width = entry.end - entry.start;
            let lo = selected_stored.partition_point(|s| s.start <= entry.start);
            for s in &selected_stored[lo..] {
                if s.start >= entry.end {
                    break;
                }
                let key = VNode::Stored(*s);
                let better = owner_width.get(&key).map(|&w| width < w).unwrap_or(true);
                if better {
                    owner_width.insert(key, width);
                    intervals.insert(key, ((enter, s.start), (enter, s.end)));
                }
            }
        }
    }
    let exit = *counter;
    *counter += 1;
    intervals.insert(VNode::Arena(i), ((enter, 0), (exit, 0)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::select::select_db;
    use crate::pattern::{Axis, Pred};
    use xmlstore::StoreOptions;

    const SAMPLE: &str = "<bib>\
        <article><title>T1</title><author>Jack</author><author>John</author><year>1999</year></article>\
        <article><title>T2</title><author>Jill</author><year>2002</year></article>\
    </bib>";

    fn store() -> DocumentStore {
        DocumentStore::from_xml(SAMPLE, &StoreOptions::in_memory()).unwrap()
    }

    /// doc_root-ad->article selection with deep article, i.e. a
    /// collection of whole article trees.
    fn articles(s: &DocumentStore) -> Collection {
        let mut p = PatternTree::with_root(Pred::tag("doc_root"));
        let art = p.add_child(p.root(), Axis::Descendant, Pred::tag("article"));
        let sel = select_db(s, &p, &[art]).unwrap();
        // Keep only the article part as the tree root via projection.
        let pl = [ProjectItem::deep(art)];
        project(s, &sel, &p, &pl, true).unwrap()
    }

    #[test]
    fn project_extracts_article_roots() {
        let s = store();
        let arts = articles(&s);
        assert_eq!(arts.len(), 2);
        let e = arts[0].materialize(&s).unwrap();
        assert_eq!(e.name, "article");
        assert_eq!(e.children_named("author").count(), 2);
    }

    #[test]
    fn projection_keeps_hierarchy() {
        let s = store();
        let arts = articles(&s);
        // From article trees, keep article (shallow) and its authors.
        let mut p = PatternTree::with_root(Pred::tag("article"));
        let auth = p.add_child(p.root(), Axis::Child, Pred::tag("author"));
        let pl = [ProjectItem::shallow(p.root()), ProjectItem::deep(auth)];
        let projected = project(&s, &arts, &p, &pl, false).unwrap();
        assert_eq!(projected.len(), 2);
        let e = projected[0].materialize(&s).unwrap();
        assert_eq!(e.name, "article");
        assert_eq!(e.children_named("author").count(), 2);
        assert!(e.child("title").is_none());
        assert!(e.child("year").is_none());
    }

    #[test]
    fn zero_witness_trees_contribute_nothing() {
        let s = store();
        let arts = articles(&s);
        let mut p = PatternTree::with_root(Pred::tag("article"));
        let pub_ = p.add_child(p.root(), Axis::Child, Pred::tag("publisher"));
        let pl = [ProjectItem::shallow(p.root()), ProjectItem::shallow(pub_)];
        let projected = project(&s, &arts, &p, &pl, false).unwrap();
        assert!(projected.is_empty());
    }

    #[test]
    fn unrelated_nodes_make_multiple_output_trees() {
        let s = store();
        let arts = articles(&s);
        // Keep only authors (no common selected ancestor): each author of
        // an article becomes its own output tree.
        let mut p = PatternTree::with_root(Pred::tag("article"));
        let auth = p.add_child(p.root(), Axis::Child, Pred::tag("author"));
        let pl = [ProjectItem::shallow(auth)];
        let projected = project(&s, &arts, &p, &pl, false).unwrap();
        assert_eq!(projected.len(), 3); // Jack, John from tree 1; Jill from tree 2
        let names: Vec<String> = projected
            .iter()
            .map(|t| t.materialize(&s).unwrap().text())
            .collect();
        assert_eq!(names, ["Jack", "John", "Jill"]);
    }

    #[test]
    fn deep_projection_subsumes_nested_selection() {
        let s = store();
        let arts = articles(&s);
        // article* plus author: author nodes are inside the kept article
        // subtree, so only one output tree per article results.
        let mut p = PatternTree::with_root(Pred::tag("article"));
        let auth = p.add_child(p.root(), Axis::Child, Pred::tag("author"));
        let pl = [ProjectItem::deep(p.root()), ProjectItem::shallow(auth)];
        let projected = project(&s, &arts, &p, &pl, false).unwrap();
        assert_eq!(projected.len(), 2);
        let e = projected[0].materialize(&s).unwrap();
        assert_eq!(e.children_named("author").count(), 2);
        assert!(e.child("title").is_some()); // deep keeps everything
    }

    #[test]
    fn relative_order_preserved() {
        let s = store();
        let arts = articles(&s);
        let mut p = PatternTree::with_root(Pred::tag("article"));
        let title = p.add_child(p.root(), Axis::Child, Pred::tag("title"));
        let year = p.add_child(p.root(), Axis::Child, Pred::tag("year"));
        let pl = [
            ProjectItem::shallow(p.root()),
            ProjectItem::deep(year),
            ProjectItem::deep(title),
        ];
        let projected = project(&s, &arts, &p, &pl, false).unwrap();
        let e = projected[0].materialize(&s).unwrap();
        let kid_names: Vec<&str> = e.child_elements().map(|c| c.name.as_str()).collect();
        assert_eq!(kid_names, ["title", "year"]); // document order, not PL order
    }

    #[test]
    fn projection_over_synthetic_trees() {
        let s = store();
        let mut t = Tree::new_elem(s.dict(), "wrapper");
        let a = t.add_elem_with_content(s.dict(), t.root(), "keep", "yes");
        let _ = t.add_elem_with_content(s.dict(), t.root(), "drop", "no");
        t.add_elem_with_content(s.dict(), a, "inner", "deep");
        let mut p = PatternTree::with_root(Pred::tag("wrapper"));
        let keep = p.add_child(p.root(), Axis::Child, Pred::tag("keep"));
        let pl = [ProjectItem::deep(keep)];
        let projected = project(&s, &vec![t], &p, &pl, true).unwrap();
        assert_eq!(projected.len(), 1);
        let e = projected[0].materialize(&s).unwrap();
        assert_eq!(e.name, "keep");
        assert_eq!(e.child("inner").unwrap().text(), "deep");
    }
}
