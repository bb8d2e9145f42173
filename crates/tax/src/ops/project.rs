//! Projection (Sec. 2): pattern + projection list → node elimination.
//!
//! All nodes named in the projection list `PL` are kept (a `*`-adorned
//! label keeps the whole data subtree); partial hierarchical
//! relationships between surviving nodes are preserved; relative order is
//! preserved. One input tree contributes zero output trees (no witness),
//! one, or several (when the retained nodes have no ancestor-descendant
//! relationship among them).
//!
//! The forest is built from node identifiers alone (Sec. 5.3), with
//! arrays and sorts in place of per-tree hash maps: an arena DFS ranks
//! the arena nodes, selected arena nodes are flagged by arena id,
//! selected stored nodes are sorted by `start`, merged, and placed by
//! binary search among the tree's deep references (see [`project_one`]),
//! and the distinct nodes in rank order feed one containment stack.
//!
//! The final projection of the grouping rewrite (Fig. 5d) over groups
//! held as columns builds no group tree to re-match: [`Projection`]
//! matches the member path once over the grouped rows and writes each
//! output row from the key cell and the members' extracts.

use crate::batch::{Batch, Rows};
use crate::error::Result;
use crate::matching::vnode::VNode;
use crate::matching::{for_each_match, match_tree};
use crate::ops::groupby::BasisItem;
use crate::pattern::{Axis, PatternNodeId, PatternTree, Pred};
use crate::tags;
use crate::tree::{Collection, Tree, TreeNodeKind};
#[cfg(test)]
use std::collections::HashMap;
use xmlstore::{DocumentStore, NodeEntry};

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
    // Union of selected nodes over all embeddings; deep wins. Arena nodes
    // are flagged in place, stored nodes collected to be sorted.
    let mut arena_sel = vec![0u8; tree.len()];
    let mut stored: Vec<(NodeEntry, bool)> = Vec::new();
    for b in bindings.rows() {
        for item in pl {
            match b[item.label] {
                VNode::Arena(i) => arena_sel[i] |= selected(item.deep),
                VNode::Stored(e) => stored.push((e, item.deep)),
            }
        }
    }

    // Give every selected node an (enter, exit) rank so mixed
    // arena/stored containment can be decided uniformly — entirely from
    // labels, touching no data pages (identifier processing, Sec. 5.3):
    // arena node `i` ranks `((enter, 0), (exit, 0))` by DFS counters; a
    // stored node inside a deep reference ranks `((ref_enter, start),
    // (ref_enter, end))`, which nests between the reference's enter and
    // exit.
    let ranks = arena_ranks(tree);
    let mut nodes: Vec<Selected> = Vec::new();
    if !stored.is_empty() {
        let refs = DeepRefs::new(tree, &ranks);
        stored.sort_unstable_by_key(|(e, _)| e.start);
        let mut k = 0;
        while k < stored.len() {
            let (e, mut deep) = stored[k];
            k += 1;
            while k < stored.len() && stored[k].0.start == e.start {
                deep |= stored[k].1;
                k += 1;
            }
            // A stored node is a place inside a deep reference, even
            // when some other reference of the tree targets the same
            // node: a group's basis key and the same author inside a
            // member are two output nodes.
            if let Some(owner) = refs.enclosing(&e) {
                nodes.push(Selected {
                    enter: (owner, e.start),
                    exit: (owner, e.end),
                    node: VNode::Stored(e),
                    deep,
                });
            }
        }
    }
    for (i, &sel) in arena_sel.iter().enumerate() {
        if sel != 0 {
            nodes.push(Selected {
                enter: (ranks[i].0, 0),
                exit: (ranks[i].1, 0),
                node: VNode::Arena(i),
                deep: sel & DEEP != 0,
            });
        }
    }
    // Selected nodes in document order.
    nodes.sort_unstable_by_key(|n| n.enter);

    // Build the forest with a containment stack. Each maximal node roots
    // its own output tree; a selected node nested under a *deep* selected
    // node is already part of that subtree and is skipped.
    let mut stack: Vec<(VKey, usize, usize, bool)> = Vec::new(); // (exit, tree idx in out, arena id, deep)
    for n in nodes {
        while stack.last().is_some_and(|top| top.0 < n.enter) {
            stack.pop();
        }
        match stack.last() {
            None => {
                out.push(Tree::from_vnode(Some(tree), n.node, n.deep));
                stack.push((n.exit, out.len() - 1, 0, n.deep));
            }
            Some(&(_, tidx, parent_arena, parent_deep)) => {
                if parent_deep {
                    // Already inside a kept subtree.
                    continue;
                }
                let kind = Tree::vnode_kind(Some(tree), n.node, n.deep);
                let arena = out[tidx].add_node(parent_arena, kind);
                stack.push((n.exit, tidx, arena, n.deep));
            }
        }
    }
    Ok(())
}

/// Selection flags of an arena node; OR-ing two selections keeps the
/// deeper one.
const DEEP: u8 = 2;

fn selected(deep: bool) -> u8 {
    1 | if deep { DEEP } else { 0 }
}

/// One distinct selected node with its composite rank.
struct Selected {
    enter: VKey,
    exit: VKey,
    node: VNode,
    deep: bool,
}

/// DFS `(enter, exit)` counters of every arena node, indexed by arena id.
fn arena_ranks(tree: &Tree) -> Vec<(u32, u32)> {
    let mut ranks = vec![(0u32, 0u32); tree.len()];
    let mut counter = 1u32;
    let mut path = vec![(tree.root(), 0usize)]; // (node, children entered)
    while let Some((i, k)) = path.last_mut() {
        match tree.node(*i).children.get(*k) {
            Some(&c) => {
                *k += 1;
                ranks[c].0 = counter;
                path.push((c, 0));
            }
            None => {
                ranks[*i].1 = counter;
                path.pop();
            }
        }
        counter += 1;
    }
    ranks
}

/// The tree's deep references, one per distinct target, ordered by the
/// `start` label of their targets, so that which reference a stored node
/// belongs to is a binary search.
struct DeepRefs(Vec<DeepRef>);

struct DeepRef {
    start: u32,
    end: u32,
    enter: u32,
    /// The nearest deep reference whose target contains this one's.
    parent: Option<usize>,
}

impl DeepRefs {
    fn new(tree: &Tree, ranks: &[(u32, u32)]) -> Self {
        let mut deep = Vec::new(); // (start, exit, end, enter)
        for (i, &(enter, exit)) in ranks.iter().enumerate() {
            if let TreeNodeKind::Ref { node, deep: true } = &tree.node(i).kind {
                deep.push((node.start, exit, node.end, enter));
            }
        }
        // Of several deep references to one target, the one the DFS
        // leaves first owns the nodes below it.
        deep.sort_unstable();
        deep.dedup_by_key(|d| d.0);
        // Stored regions nest or are disjoint, so one pass with a stack
        // of open regions links each reference to the one around it.
        let mut linked: Vec<DeepRef> = Vec::with_capacity(deep.len());
        let mut open: Vec<usize> = Vec::new();
        for (start, _, end, enter) in deep {
            while open.last().is_some_and(|&o| linked[o].end < start) {
                open.pop();
            }
            open.push(linked.len());
            linked.push(DeepRef {
                start,
                end,
                enter,
                parent: open.len().checked_sub(2).map(|p| open[p]),
            });
        }
        DeepRefs(linked)
    }

    /// The `enter` rank of the innermost deep reference whose target
    /// properly contains `e`: when two references could both claim a
    /// stored node (nested targets), the narrower — innermost — wins.
    fn enclosing(&self, e: &NodeEntry) -> Option<u32> {
        let before = self.0.partition_point(|d| d.start < e.start);
        let mut at = before.checked_sub(1);
        while let Some(d) = at.map(|i| &self.0[i]) {
            if e.start < d.end {
                return Some(d.enter);
            }
            at = d.parent;
        }
        None
    }
}

/// A projection as the executor runs it: [`project`] over trees, and —
/// when it is the rewrite's final projection (Fig. 5d) over a `GroupBy`
/// — a gather over [`Groups`](crate::batch::Groups), no group tree
/// re-matched: one anchored [`for_each_match`] of the member path over
/// the grouped rows gives every row its extract nodes, and an output
/// row is the group root over the key cell and the members' extracts in
/// member order, a group with none dropped. That is what [`project_one`]
/// makes of the group tree when the rows are start-sorted and disjoint
/// (a scan's output); other rows take that path.
#[derive(Debug)]
pub struct Projection<'p> {
    pattern: &'p PatternTree,
    pl: &'p [ProjectItem],
    anchor_root: bool,
    /// The member subtree and its extract node, for the Fig. 5d shape.
    gather: Option<(PatternTree, PatternNodeId)>,
}

impl<'p> Projection<'p> {
    /// `pattern` / `pl` over an input that is a `GroupBy` with the
    /// pattern and basis `grouped`, or some other input (`None`).
    pub fn new(
        pattern: &'p PatternTree,
        pl: &'p [ProjectItem],
        anchor_root: bool,
        grouped: Option<(&PatternTree, &[BasisItem])>,
    ) -> Self {
        let gather = grouped.and_then(|(gb, basis)| fig5d(pattern, pl, anchor_root, gb, basis));
        Projection {
            pattern,
            pl,
            anchor_root,
            gather,
        }
    }

    /// Project one batch: the gather's output as rows, any other as
    /// trees.
    pub fn project(&self, store: &DocumentStore, batch: Batch) -> Result<Batch> {
        let disjoint = |rows: &[NodeEntry]| rows.windows(2).all(|w| w[0].end < w[1].start);
        let (groups, (member, extract)) = match (batch, &self.gather) {
            (Batch::Groups(groups), Some(gather)) if disjoint(&groups.rows) => (groups, gather),
            (batch, _) => {
                let trees = batch.into_trees();
                let out = project(store, &trees, self.pattern, self.pl, self.anchor_root)?;
                return Ok(Batch::Trees(out));
            }
        };
        // Each row's extracts in document order, each once; one inside
        // the last kept is part of that deep extract.
        let mut found: Vec<(u32, NodeEntry)> = Vec::new();
        for_each_match(store, member, &groups.rows, true, |row, m| {
            found.push((row, m[*extract]))
        })?;
        found.sort_unstable_by_key(|&(row, e)| (row, e.start));
        found.dedup_by(|(row, e), (kept_row, kept)| row == kept_row && e.start < kept.end);
        let starts: Vec<usize> = (0..=groups.rows.len() as u32)
            .map(|r| found.partition_point(|&(row, _)| row < r))
            .collect();
        let run = |m: u32| &found[starts[m as usize]..starts[m as usize + 1]];
        let mut out = Rows::new(groups.tags[0]);
        for (g, members) in groups.members.iter().enumerate() {
            if members.iter().all(|&m| run(m).is_empty()) {
                continue;
            }
            let key = groups.key(g).iter().filter_map(|kind| match kind {
                TreeNodeKind::Ref { node, .. } => Some(*node), // a content basis cell
                TreeNodeKind::Elem { .. } => None,
            });
            let nodes = key.chain(members.iter().flat_map(|&m| run(m)).map(|&(_, e)| e));
            out.push(nodes.map(|node| TreeNodeKind::Ref { node, deep: true }));
        }
        Ok(Batch::Rows(out))
    }
}

/// The member subtree of `pattern` and its extract node when `pattern` /
/// `pl` over a `GroupBy` with pattern `gb_pattern` and basis `basis` is
/// exactly what the rewrite emits: anchored, join-free, `PL = [$1, $3*,
/// extract*]` over nodes `0 {1 {2}, 3 {4 … extract …}}` —
/// `TAX_group_root`, `TAX_grouping_basis`, a `pc` tag test of the tag
/// every cell of the one content basis item has (so it binds the one
/// basis child), `TAX_group_subroot`, the member.
fn fig5d(
    pattern: &PatternTree,
    pl: &[ProjectItem],
    anchor_root: bool,
    gb_pattern: &PatternTree,
    basis: &[BasisItem],
) -> Option<(PatternTree, PatternNodeId)> {
    let ([item], [root, key, out]) = (basis, pl) else {
        return None;
    };
    let key_tag = gb_pattern.node(item.label).pred.required_tag()?;
    let is = |id: usize, tag: &str| matches!(&pattern.node(id).pred, Pred::Tag(t) if t == tag);
    let pc = |id: usize| pattern.node(id).axis == Axis::Child;
    let kids = |id: usize| &pattern.node(id).children[..];
    let fits = anchor_root
        && pattern.len() > 5
        && pattern.join_pairs().is_empty()
        && (kids(0), kids(1), kids(2), kids(3)) == (&[1, 3][..], &[2][..], &[][..], &[4][..])
        && is(0, tags::GROUP_ROOT)
        && is(1, tags::GROUPING_BASIS)
        && is(2, key_tag)
        && is(3, tags::GROUP_SUBROOT)
        && (1..=4).all(pc)
        && [*root, *key] == [ProjectItem::shallow(0), ProjectItem::deep(2)]
        && out.deep;
    let (member, mapping) = fits.then(|| pattern.subtree_pattern(4))?;
    let extract = (*mapping.get(out.label)?).filter(|&x| x != member.root())?;
    Some((member, extract))
}

/// Projection by hash maps: the reference implementation the property
/// tests hold [`project_one`] against.
#[cfg(test)]
fn project_one_reference(
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
    for b in bindings.rows() {
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
                stack.push((v, out.len() - 1, 0, deep));
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
    Ok(())
}

/// Arena DFS assigning composite ranks (reference implementation): arena node `i` gets
/// `((enter, 0), (exit, 0))`; every selected stored node inside a deep
/// reference gets `((ref_enter, start), (ref_enter, end))`, which nests
/// correctly between the reference's enter and exit. When two references
/// could both claim a stored node (nested targets), the narrower —
/// innermost — reference wins.
#[cfg(test)]
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

    /// A library three levels deep, so references can nest inside one
    /// another's stored ranges.
    const LIBRARY: &str = "<lib>\
        <shelf><book><title>A</title><author>X</author><author>Y</author></book>\
        <book><title>B</title><author>X</author></book></shelf>\
        <shelf><book><title>C</title><note>n <b>bold</b> m</note></book><loose>L</loose></shelf>\
    </lib>";

    /// Both implementations on one input; the new one must reproduce the
    /// reference's forest exactly.
    fn assert_same_projection(
        s: &DocumentStore,
        tree: &Tree,
        pattern: &PatternTree,
        pl: &[ProjectItem],
        anchor_root: bool,
    ) -> Vec<Tree> {
        let (mut got, mut want) = (Vec::new(), Vec::new());
        project_one(s, tree, pattern, pl, anchor_root, &mut got).unwrap();
        project_one_reference(s, tree, pattern, pl, anchor_root, &mut want).unwrap();
        assert_eq!(got, want, "PL {pl:?} anchor={anchor_root} over {tree:?}");
        got
    }

    fn stored_elements(s: &DocumentStore) -> Vec<NodeEntry> {
        let cols = s.columns();
        (1..cols.len() as u32)
            .filter(|&i| cols.kind[i as usize] == xmlstore::NodeKind::Element)
            .map(|i| cols.entry(xmlstore::NodeId(i)))
            .collect()
    }

    #[test]
    fn nested_aliased_and_doubly_selected_nodes_match_the_reference() {
        let s = DocumentStore::from_xml(LIBRARY, &StoreOptions::in_memory()).unwrap();
        let rows = stored_elements(&s);
        let by_tag =
            |t: &str| -> Vec<NodeEntry> { s.nodes_with_tag(s.tag_id(t).unwrap()).to_vec() };
        let (shelf, book, title) = (by_tag("shelf")[0], by_tag("book")[0], by_tag("title")[0]);
        assert!(shelf.is_ancestor_of(&book) && book.is_ancestor_of(&title));
        // wrap{ shelf*, book* (inside shelf's range), title (a target
        // inside both), book* again, elem{ title* } }
        let mut t = Tree::new_elem(s.dict(), "wrap");
        t.add_ref(0, shelf, true);
        t.add_ref(0, book, true);
        t.add_ref(0, title, false);
        t.add_ref(0, book, true);
        let e = t.add_elem(s.dict(), 0, "e");
        t.add_ref(e, title, true);
        assert!(rows.len() > 10);

        // Every ancestor/descendant pair, each end shallow and deep —
        // the two `ad` children select the same nodes at both depths.
        let mut p = PatternTree::with_root(Pred::True);
        let a = p.add_child(p.root(), Axis::Descendant, Pred::True);
        let b = p.add_child(p.root(), Axis::Descendant, Pred::True);
        for pl in [
            vec![ProjectItem::shallow(a)],
            vec![ProjectItem::deep(a)],
            vec![ProjectItem::shallow(a), ProjectItem::deep(b)],
            vec![ProjectItem::shallow(p.root()), ProjectItem::shallow(a)],
            vec![ProjectItem::deep(p.root()), ProjectItem::shallow(b)],
        ] {
            for anchor in [false, true] {
                let out = assert_same_projection(&s, &t, &p, &pl, anchor);
                assert!(!out.is_empty());
            }
        }
        // The narrower reference owns a node both could claim: the
        // authors of `book` hang under the `book*` reference, not under
        // `shelf*`, and so does its `title` — a place of its own beside
        // the shallow reference that targets the same node.
        let mut p = PatternTree::with_root(Pred::tag("wrap"));
        let au = p.add_child(p.root(), Axis::Descendant, Pred::tag("author"));
        let ti = p.add_child(p.root(), Axis::Descendant, Pred::tag("title"));
        let bk = p.add_child(p.root(), Axis::Child, Pred::tag("book"));
        let pl = [
            ProjectItem::shallow(p.root()),
            ProjectItem::shallow(bk),
            ProjectItem::shallow(au),
            ProjectItem::shallow(ti),
        ];
        let out = assert_same_projection(&s, &t, &p, &pl, true);
        assert_eq!(out.len(), 1);
        let titles = out[0].preorder().into_iter();
        let titles = titles.filter(|&i| out[0].tag_of(&s, i).unwrap() == "title");
        // `title` twice (its reference, inside `book*`), `e`'s `title*`,
        // and the other book's title inside `shelf*`.
        assert_eq!(titles.count(), 4);
    }

    #[test]
    fn random_arena_trees_match_the_reference() {
        use smallrand::prop::{check, Gen};
        let s = DocumentStore::from_xml(LIBRARY, &StoreOptions::in_memory()).unwrap();
        let rows = stored_elements(&s);

        fn grow(
            g: &mut Gen,
            s: &DocumentStore,
            rows: &[NodeEntry],
            t: &mut Tree,
            at: usize,
            depth: usize,
        ) {
            if depth == 0 {
                return;
            }
            for _ in 0..g.usize_in(0, 3) {
                let id = match g.usize_in(0, 3) {
                    0 => t.add_elem(s.dict(), at, *g.pick(&["e", "f"])),
                    1 => t.add_elem_with_content(s.dict(), at, "e", "v"),
                    _ => {
                        // Often a node inside an earlier deep reference's
                        // range, or that reference's own target again.
                        let earlier: Vec<NodeEntry> = t
                            .preorder()
                            .iter()
                            .filter_map(|&i| match &t.node(i).kind {
                                TreeNodeKind::Ref { node, deep: true } => Some(*node),
                                _ => None,
                            })
                            .collect();
                        let inside: Vec<NodeEntry> = rows
                            .iter()
                            .filter(|r| earlier.iter().any(|e| e.contains(r)))
                            .copied()
                            .collect();
                        let node = if !inside.is_empty() && g.bool() {
                            *g.pick(&inside)
                        } else {
                            *g.pick(rows)
                        };
                        t.add_ref(at, node, g.bool())
                    }
                };
                grow(g, s, rows, t, id, depth - 1);
            }
        }

        check("random_arena_trees_match_the_reference", 300, |g| {
            let mut t = Tree::new_elem(s.dict(), "top");
            grow(g, &s, &rows, &mut t, 0, 3);
            let mut p = PatternTree::with_root(Pred::True);
            let a = p.add_child(p.root(), Axis::Descendant, Pred::True);
            let b = match g.usize_in(0, 2) {
                0 => p.add_child(p.root(), Axis::Descendant, Pred::True),
                1 => p.add_child(a, Axis::Child, Pred::True),
                _ => p.add_child(a, Axis::Descendant, Pred::tag("author")),
            };
            let mut pl = Vec::new();
            for label in [p.root(), a, b] {
                if g.bool() {
                    pl.push(ProjectItem {
                        label,
                        deep: g.bool(),
                    });
                }
            }
            if g.bool() {
                // One node at both depths.
                pl.push(ProjectItem::shallow(a));
                pl.push(ProjectItem::deep(a));
            }
            assert_same_projection(&s, &t, &p, &pl, g.bool());
        });
    }

    #[test]
    fn a_group_of_five_thousand_members_projects_in_one_pass() {
        // A Zipf-head group: every lookup per member must be a binary
        // search — a scan over the members per member is 25 million
        // steps here and shows up as test time.
        const MEMBERS: usize = 5_000;
        let mut xml = String::from("<bib>");
        for i in 0..MEMBERS {
            xml.push_str(&format!(
                "<article><title>T{i}</title><author>Head</author></article>"
            ));
        }
        xml.push_str("</bib>");
        let s = DocumentStore::from_xml(&xml, &StoreOptions::in_memory()).unwrap();
        let mut group = Tree::new_elem(s.dict(), "TAX_group_root");
        let sub = group.add_elem(s.dict(), 0, "TAX_group_subroot");
        for a in s.nodes_with_tag(s.tag_id("article").unwrap()) {
            group.add_ref(sub, a, true);
        }
        let mut p = PatternTree::with_root(Pred::tag("TAX_group_root"));
        let sr = p.add_child(p.root(), Axis::Child, Pred::tag("TAX_group_subroot"));
        let art = p.add_child(sr, Axis::Child, Pred::tag("article"));
        let title = p.add_child(art, Axis::Child, Pred::tag("title"));
        let pl = [ProjectItem::shallow(p.root()), ProjectItem::deep(title)];
        let out = assert_same_projection(&s, &group, &p, &pl, true);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].len(), MEMBERS + 1);
        // And with the members themselves selected shallow, the titles
        // nest one under each.
        let pl = [ProjectItem::shallow(art), ProjectItem::deep(title)];
        let out = assert_same_projection(&s, &group, &p, &pl, true);
        assert_eq!(out.len(), MEMBERS);
        assert!(out.iter().all(|t| t.len() == 2));
    }

    /// The Fig. 5d projection over groups of `author` keys, its member
    /// path `article -axis-> title`.
    fn fig5d_pattern(axis: Axis) -> (PatternTree, Vec<ProjectItem>) {
        let mut p = PatternTree::with_root(Pred::tag(tags::GROUP_ROOT));
        let basis = p.add_child(p.root(), Axis::Child, Pred::tag(tags::GROUPING_BASIS));
        let key = p.add_child(basis, Axis::Child, Pred::tag("author"));
        let sub = p.add_child(p.root(), Axis::Child, Pred::tag(tags::GROUP_SUBROOT));
        let member = p.add_child(sub, Axis::Child, Pred::tag("article"));
        let title = p.add_child(member, axis, Pred::tag("title"));
        let pl = vec![
            ProjectItem::shallow(p.root()),
            ProjectItem::deep(key),
            ProjectItem::deep(title),
        ];
        (p, pl)
    }

    #[test]
    fn only_the_fig5d_shape_is_gathered() {
        let mut gb = PatternTree::with_root(Pred::tag("article"));
        let author = gb.add_child(gb.root(), Axis::Child, Pred::tag("author"));
        let basis = [BasisItem::content(author)];
        let (p, pl) = fig5d_pattern(Axis::Child);
        let fits = |p: &PatternTree, pl: &[ProjectItem], anchor: bool, basis: &[BasisItem]| {
            fig5d(p, pl, anchor, &gb, basis).is_some()
        };
        assert!(fits(&p, &pl, true, &basis));
        assert!(fits(&fig5d_pattern(Axis::Descendant).0, &pl, true, &basis));
        // Not anchored; a second basis item; a key that is not the basis
        // tag; a shallow key, a deep root, the member
        // itself or one more node kept.
        assert!(!fits(&p, &pl, false, &basis));
        assert!(!fits(&p, &pl, true, &[basis[0].clone(), basis[0].clone()]));
        assert!(!fits(&p, &pl, true, &[BasisItem::content(gb.root())]));
        for (i, item) in [
            ProjectItem::shallow(2),
            ProjectItem::deep(0),
            ProjectItem::deep(4),
        ]
        .into_iter()
        .enumerate()
        {
            let mut other = pl.clone();
            other[i] = item;
            assert!(!fits(&p, &other, true, &basis), "{other:?}");
        }
        let mut more = pl.clone();
        more.push(ProjectItem::shallow(4));
        assert!(!fits(&p, &more, true, &basis));
        // A second child under the basis or a join predicate.
        let mut wider = p.clone();
        wider.add_child(1, Axis::Child, Pred::tag("author"));
        assert!(!fits(&wider, &pl, true, &basis));
        let mut joined = p.clone();
        joined.add_child(
            4,
            Axis::Child,
            Pred::tag("year").and(Pred::ContentEqNode(2)),
        );
        assert!(!fits(&joined, &pl, true, &basis));
    }

    #[test]
    fn the_gather_writes_what_the_group_trees_project_to() {
        use crate::batch::Batch;
        use crate::ops::groupby::{groupby, Direction, GroupOrder};
        // Multi-title, untitled and nested-title articles; `A` keys the
        // article whose authors the `author` extract returns.
        let s = DocumentStore::from_xml(
            "<bib>\
                <article><author>A</author><title>T1</title><title>T2<title>N</title></title><author>B</author></article>\
                <article><author>C</author></article>\
                <article><author>A</author><author>C</author><title>T3</title><sec><title>S</title></sec></article>\
            </bib>",
            &StoreOptions::in_memory(),
        )
        .unwrap();
        let rows = s.nodes_with_tag(s.tag_id("article").unwrap()).to_vec();
        let mut gb = PatternTree::with_root(Pred::tag("article"));
        let author = gb.add_child(gb.root(), Axis::Child, Pred::tag("author"));
        let title = gb.add_child(gb.root(), Axis::Descendant, Pred::tag("title"));
        let basis = [BasisItem::content(author)];
        for ordering in [
            vec![],
            vec![GroupOrder {
                label: title,
                direction: Direction::Descending,
            }],
        ] {
            let input = Batch::Stored(rows.clone());
            let (groups, _) = groupby(&s, &input, &gb, &basis, &ordering).unwrap();
            assert!(matches!(groups, Batch::Groups(_)), "{groups:?}");
            for axis in [Axis::Child, Axis::Descendant] {
                let (p, pl) = fig5d_pattern(axis);
                let gather = Projection::new(&p, &pl, true, Some((&gb, &basis[..])));
                let want = project(&s, &groups.clone().into_trees(), &p, &pl, true).unwrap();
                let got = gather.project(&s, groups.clone()).unwrap();
                assert!(matches!(got, Batch::Rows(_)), "{got:?}");
                assert_eq!(got.into_trees(), want, "{axis:?}");
            }
        }
    }
}
