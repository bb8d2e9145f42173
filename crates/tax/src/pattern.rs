//! Pattern trees (Sec. 2): the selection predicates of TAX.
//!
//! A pattern tree is a tree of predicate-labelled nodes connected by `pc`
//! (parent-child) or `ad` (ancestor-descendant) edges. Matching a pattern
//! against data yields *witness trees*: homogeneous tuples of node
//! bindings, one per pattern node. Unlike an XPath expression, which binds
//! a single variable, one pattern tree binds as many variables as it has
//! nodes, so an entire sequence of XQuery FOR clauses folds into one
//! pattern.
//!
//! This module also implements the **tree-subset test** of the rewrite
//! rules (Sec. 4.1, Phase 1): `V1,E1 ⊆ V2,E2*` where `E2*` is the
//! transitive closure of `E2` with the paper's edge-mark rule — an edge
//! composed of two or more base edges is marked `ad`, and `pc ⊆ ad` but
//! not `ad ⊆ pc`. Concretely, an `ad` edge of the candidate subset is
//! satisfied by *any* path in the superset, while a `pc` edge requires a
//! direct `pc` edge.

use crate::value::{compare_values, CmpOp};

/// Index of a node within a [`PatternTree`]; the paper writes these as
/// `$1`, `$2`, … in pattern-tree figures.
pub type PatternNodeId = usize;

/// Edge kind between a pattern node and its parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// `pc`: immediate containment.
    Child,
    /// `ad`: containment at any depth.
    Descendant,
}

/// A predicate on one pattern node.
#[derive(Debug, Clone, PartialEq)]
pub enum Pred {
    /// Always true.
    True,
    /// `$i.tag = name`.
    Tag(String),
    /// `$i.content op value` (numeric-aware comparison).
    Content(CmpOp, String),
    /// `$i.content` contains the substring (the paper's
    /// `"*Transaction*"`).
    ContentContains(String),
    /// Join predicate `$i.content = $j.content` (Fig. 4b); evaluated as a
    /// post-filter over complete bindings.
    ContentEqNode(PatternNodeId),
    /// Conjunction.
    And(Box<Pred>, Box<Pred>),
}

impl Pred {
    /// `$i.tag = name`.
    pub fn tag(name: impl Into<String>) -> Pred {
        Pred::Tag(name.into())
    }

    /// `$i.content = value`.
    pub fn content_eq(value: impl Into<String>) -> Pred {
        Pred::Content(CmpOp::Eq, value.into())
    }

    /// `$i.content` compared with `value`.
    pub fn content_cmp(op: CmpOp, value: impl Into<String>) -> Pred {
        Pred::Content(op, value.into())
    }

    /// Substring containment on content.
    pub fn content_contains(sub: impl Into<String>) -> Pred {
        Pred::ContentContains(sub.into())
    }

    /// Conjunction, builder style.
    pub fn and(self, other: Pred) -> Pred {
        Pred::And(Box::new(self), Box::new(other))
    }

    /// The tag this predicate requires, if it pins one down (i.e. a
    /// top-level conjunct `Tag(t)`). Used to pick the index list for
    /// candidate generation.
    pub fn required_tag(&self) -> Option<&str> {
        match self {
            Pred::Tag(t) => Some(t),
            Pred::And(a, b) => a.required_tag().or_else(|| b.required_tag()),
            _ => None,
        }
    }

    /// Flatten the top-level conjunction into a list of conjuncts.
    pub fn conjuncts(&self) -> Vec<&Pred> {
        match self {
            Pred::And(a, b) => {
                let mut v = a.conjuncts();
                v.extend(b.conjuncts());
                v
            }
            Pred::True => Vec::new(),
            other => vec![other],
        }
    }

    /// Evaluate the *local* (non-join) part against a node's tag and
    /// content. Join conjuncts evaluate to `true` here and are checked
    /// later over complete bindings.
    pub fn eval_local(&self, tag: &str, content: Option<&str>) -> bool {
        match self {
            Pred::True => true,
            Pred::Tag(t) => t == tag,
            Pred::Content(op, v) => match content {
                Some(c) => op.matches(compare_values(c, v)),
                None => false,
            },
            Pred::ContentContains(sub) => {
                content.map(|c| c.contains(sub.as_str())).unwrap_or(false)
            }
            Pred::ContentEqNode(_) => true,
            Pred::And(a, b) => a.eval_local(tag, content) && b.eval_local(tag, content),
        }
    }

    /// Whether evaluating the local part needs the node's content (i.e.
    /// a data-value look-up).
    pub fn needs_data(&self) -> bool {
        match self {
            Pred::True | Pred::Tag(_) | Pred::ContentEqNode(_) => false,
            Pred::Content(..) | Pred::ContentContains(_) => true,
            Pred::And(a, b) => a.needs_data() || b.needs_data(),
        }
    }

    /// The literal of the first top-level `content = "v"` conjunct whose
    /// `v` does not parse as a number. [`compare_values`] then compares
    /// strings, so the conjunct holds exactly where the content *is* `v`.
    /// A numeric literal is left to the number-aware comparison, under
    /// which `7`, `7.0` and `07` are equal.
    pub fn string_eq_content(&self) -> Option<&str> {
        self.conjuncts().into_iter().find_map(|c| match c {
            Pred::Content(CmpOp::Eq, v) if v.trim().parse::<f64>().is_err() => Some(v.as_str()),
            _ => None,
        })
    }

    /// Collect join conditions `(this_node_content == other_node_content)`.
    pub fn join_targets(&self) -> Vec<PatternNodeId> {
        match self {
            Pred::ContentEqNode(j) => vec![*j],
            Pred::And(a, b) => {
                let mut v = a.join_targets();
                v.extend(b.join_targets());
                v
            }
            _ => Vec::new(),
        }
    }
}

/// One pattern node.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternNode {
    /// Predicate on the bound data node.
    pub pred: Pred,
    /// Parent pattern node (`None` for the pattern root).
    pub parent: Option<PatternNodeId>,
    /// Edge to the parent (meaningless for the root).
    pub axis: Axis,
    /// Children, in insertion order.
    pub children: Vec<PatternNodeId>,
}

/// A pattern tree.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternTree {
    nodes: Vec<PatternNode>,
}

impl PatternTree {
    /// A pattern with a single root node carrying `pred`.
    pub fn with_root(pred: Pred) -> Self {
        PatternTree {
            nodes: vec![PatternNode {
                pred,
                parent: None,
                axis: Axis::Child,
                children: Vec::new(),
            }],
        }
    }

    /// The root id (always 0).
    pub fn root(&self) -> PatternNodeId {
        0
    }

    /// Add a node under `parent` via `axis`, returning its id.
    pub fn add_child(&mut self, parent: PatternNodeId, axis: Axis, pred: Pred) -> PatternNodeId {
        assert!(parent < self.nodes.len(), "parent must already exist");
        let id = self.nodes.len();
        self.nodes.push(PatternNode {
            pred,
            parent: Some(parent),
            axis,
            children: Vec::new(),
        });
        self.nodes[parent].children.push(id);
        id
    }

    /// Number of pattern nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the pattern is empty (never: there is always a root).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Access one node.
    pub fn node(&self, id: PatternNodeId) -> &PatternNode {
        &self.nodes[id]
    }

    /// All nodes with ids.
    pub fn iter(&self) -> impl Iterator<Item = (PatternNodeId, &PatternNode)> {
        self.nodes.iter().enumerate()
    }

    /// The `$n` display label of a node (1-based like the paper).
    pub fn label(&self, id: PatternNodeId) -> String {
        format!("${}", id + 1)
    }

    /// Pre-order node ids (parents before children).
    pub fn preorder(&self) -> Vec<PatternNodeId> {
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![self.root()];
        while let Some(n) = stack.pop() {
            out.push(n);
            for &c in self.nodes[n].children.iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// Every cross-node join condition of the pattern, as `(node, other)`
    /// pairs whose contents must be equal.
    pub fn join_pairs(&self) -> Vec<(PatternNodeId, PatternNodeId)> {
        self.iter()
            .flat_map(|(pid, n)| n.pred.join_targets().into_iter().map(move |t| (pid, t)))
            .collect()
    }

    /// Is `a` a (proper) ancestor of `d` within the pattern?
    pub fn is_ancestor(&self, a: PatternNodeId, d: PatternNodeId) -> bool {
        let mut cur = self.nodes[d].parent;
        while let Some(p) = cur {
            if p == a {
                return true;
            }
            cur = self.nodes[p].parent;
        }
        false
    }

    /// Extract the subtree rooted at `new_root` as a fresh pattern.
    /// Returns the pattern and the mapping `old id → new id`.
    pub fn subtree_pattern(
        &self,
        new_root: PatternNodeId,
    ) -> (PatternTree, Vec<Option<PatternNodeId>>) {
        let mut mapping = vec![None; self.nodes.len()];
        let mut out = PatternTree::with_root(self.nodes[new_root].pred.clone());
        mapping[new_root] = Some(out.root());
        // Walk pre-order below new_root.
        let mut stack: Vec<PatternNodeId> = self.nodes[new_root]
            .children
            .iter()
            .rev()
            .copied()
            .collect();
        while let Some(n) = stack.pop() {
            let parent_old = self.nodes[n].parent.expect("non-root");
            let parent_new = mapping[parent_old].expect("parent visited first");
            let new_id = out.add_child(parent_new, self.nodes[n].axis, self.nodes[n].pred.clone());
            mapping[n] = Some(new_id);
            for &c in self.nodes[n].children.iter().rev() {
                stack.push(c);
            }
        }
        (out, mapping)
    }

    /// The pattern rooted at `root` that keeps only the paths from `root`
    /// down to each of `targets`, shared prefixes once, with each
    /// target's id in it; `None` when a target does not lie at or under
    /// `root`. Nodes are added path by path, in `targets` order.
    pub fn paths(
        &self,
        root: PatternNodeId,
        targets: &[PatternNodeId],
    ) -> Option<(PatternTree, Vec<PatternNodeId>)> {
        let mut out = PatternTree::with_root(self.nodes[root].pred.clone());
        let mut map = vec![None; self.nodes.len()];
        map[root] = Some(out.root());
        let placed = targets.iter().map(|&t| self.place(&mut out, &mut map, t));
        let ids = placed.collect::<Option<_>>()?;
        Some((out, ids))
    }

    /// Node `n`'s id in `out`, placing it and its missing ancestors first
    /// (`map` holds the ids of the nodes added so far).
    fn place(&self, out: &mut PatternTree, map: &mut [Option<usize>], n: usize) -> Option<usize> {
        if map[n].is_none() {
            let (node, parent) = (&self.nodes[n], self.place(out, map, self.nodes[n].parent?)?);
            map[n] = Some(out.add_child(parent, node.axis, node.pred.clone()));
        }
        map[n]
    }

    /// The subset test of the rewrite rules (Phase 1, step 2): find an
    /// embedding of `self` into `other` such that
    ///
    /// * every node of `self` maps to a node of `other` whose predicate
    ///   implies it (conjunct containment over non-join conjuncts), and
    /// * every `pc` edge maps to a direct `pc` edge of `other`, while an
    ///   `ad` edge maps to any non-empty path (the closure-mark rule:
    ///   `pc ⊆ ad` but not `ad ⊆ pc`).
    ///
    /// Returns the node mapping `self id → other id` if one exists.
    pub fn subset_embedding(&self, other: &PatternTree) -> Option<Vec<PatternNodeId>> {
        let mut mapping: Vec<Option<PatternNodeId>> = vec![None; self.nodes.len()];
        let order = self.preorder();
        if self.embed_from(&order, 0, other, &mut mapping) {
            Some(mapping.into_iter().map(|m| m.expect("complete")).collect())
        } else {
            None
        }
    }

    fn embed_from(
        &self,
        order: &[PatternNodeId],
        idx: usize,
        other: &PatternTree,
        mapping: &mut Vec<Option<PatternNodeId>>,
    ) -> bool {
        if idx == order.len() {
            return true;
        }
        let n = order[idx];
        for cand in 0..other.len() {
            if mapping.contains(&Some(cand)) {
                continue; // injective
            }
            if !node_implies(&other.nodes[cand].pred, &self.nodes[n].pred) {
                continue;
            }
            // Edge condition w.r.t. the (already mapped) parent.
            if let Some(parent) = self.nodes[n].parent {
                let pimg = mapping[parent].expect("parent mapped first");
                match self.nodes[n].axis {
                    Axis::Child => {
                        if other.nodes[cand].parent != Some(pimg)
                            || other.nodes[cand].axis != Axis::Child
                        {
                            continue;
                        }
                    }
                    Axis::Descendant => {
                        if !other.is_ancestor(pimg, cand) {
                            continue;
                        }
                    }
                }
            }
            mapping[n] = Some(cand);
            if self.embed_from(order, idx + 1, other, mapping) {
                return true;
            }
            mapping[n] = None;
        }
        false
    }
}

/// Does predicate `strong` imply predicate `weak`? Best-effort syntactic
/// test: every non-join conjunct of `weak` appears among the conjuncts of
/// `strong` (join conjuncts in either are ignored — the join value is what
/// the rewrite turns into the grouping basis).
fn node_implies(strong: &Pred, weak: &Pred) -> bool {
    let strong_set = strong.conjuncts();
    weak.conjuncts()
        .iter()
        .filter(|c| !matches!(c, Pred::ContentEqNode(_)))
        .all(|c| strong_set.iter().any(|s| s == c))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Figure 1 pattern: article with title containing "Transaction"
    /// and an author.
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
    fn build_and_label() {
        let p = fig1();
        assert_eq!(p.len(), 3);
        assert_eq!(p.label(0), "$1");
        assert_eq!(p.label(2), "$3");
        assert_eq!(p.node(1).axis, Axis::Child);
        assert_eq!(p.node(1).parent, Some(0));
        assert_eq!(p.node(0).children, vec![1, 2]);
    }

    #[test]
    fn required_tag_extraction() {
        let p = fig1();
        assert_eq!(p.node(0).pred.required_tag(), Some("article"));
        assert_eq!(p.node(1).pred.required_tag(), Some("title"));
        assert_eq!(Pred::True.required_tag(), None);
    }

    #[test]
    fn eval_local_predicates() {
        assert!(Pred::tag("a").eval_local("a", None));
        assert!(!Pred::tag("a").eval_local("b", None));
        assert!(Pred::content_eq("x").eval_local("a", Some("x")));
        assert!(!Pred::content_eq("x").eval_local("a", None));
        assert!(Pred::content_contains("rans").eval_local("t", Some("Transaction Mng")));
        assert!(Pred::content_cmp(CmpOp::Lt, "2000").eval_local("y", Some("1999")));
        assert!(Pred::tag("a")
            .and(Pred::content_eq("x"))
            .eval_local("a", Some("x")));
    }

    #[test]
    fn join_predicates_are_locally_true() {
        let p = Pred::tag("author").and(Pred::ContentEqNode(2));
        assert!(p.eval_local("author", None));
        assert_eq!(p.join_targets(), vec![2]);
        assert!(Pred::tag("a").join_targets().is_empty());
    }

    #[test]
    fn needs_data_detection() {
        assert!(!Pred::tag("a").needs_data());
        assert!(Pred::content_eq("x").needs_data());
        assert!(Pred::tag("a").and(Pred::content_contains("y")).needs_data());
        assert!(!Pred::tag("a").and(Pred::ContentEqNode(1)).needs_data());
    }

    #[test]
    fn preorder_parents_first() {
        let p = fig1();
        let order = p.preorder();
        assert_eq!(order[0], 0);
        assert_eq!(order.len(), 3);
    }

    #[test]
    fn subtree_extraction() {
        // doc_root -ad-> article -pc-> author
        let mut p = PatternTree::with_root(Pred::tag("doc_root"));
        let art = p.add_child(p.root(), Axis::Descendant, Pred::tag("article"));
        let auth = p.add_child(art, Axis::Child, Pred::tag("author"));
        let (sub, mapping) = p.subtree_pattern(art);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.node(0).pred.required_tag(), Some("article"));
        assert_eq!(mapping[art], Some(0));
        assert_eq!(mapping[auth], Some(1));
        assert_eq!(mapping[0], None);
    }

    // ---- the Phase-1 subset test --------------------------------------

    /// Outer pattern of Query 1 (Fig. 4a): doc_root -ad-> author.
    fn outer_q1() -> PatternTree {
        let mut p = PatternTree::with_root(Pred::tag("doc_root"));
        p.add_child(p.root(), Axis::Descendant, Pred::tag("author"));
        p
    }

    /// Inner part of the join-plan pattern (Fig. 4b right):
    /// doc_root -ad-> article -pc-> author (with a join pred).
    fn inner_q1() -> PatternTree {
        let mut p = PatternTree::with_root(Pred::tag("doc_root"));
        let art = p.add_child(p.root(), Axis::Descendant, Pred::tag("article"));
        p.add_child(
            art,
            Axis::Child,
            Pred::tag("author").and(Pred::ContentEqNode(99)),
        );
        p
    }

    #[test]
    fn query1_outer_is_subset_of_inner() {
        let outer = outer_q1();
        let inner = inner_q1();
        let mapping = outer.subset_embedding(&inner).expect("subset must hold");
        assert_eq!(mapping[0], 0); // doc_root → doc_root
        assert_eq!(mapping[1], 2); // author → author (via closure ad edge)
    }

    #[test]
    fn pc_edge_not_satisfied_by_composed_path() {
        // outer: doc_root -pc-> author; inner only offers a 2-edge path,
        // whose closure edge is marked ad — pc ⊄ composed edge.
        let mut outer = PatternTree::with_root(Pred::tag("doc_root"));
        outer.add_child(outer.root(), Axis::Child, Pred::tag("author"));
        let inner = inner_q1();
        assert!(outer.subset_embedding(&inner).is_none());
    }

    #[test]
    fn pc_edge_satisfied_by_direct_pc_edge() {
        let mut outer = PatternTree::with_root(Pred::tag("article"));
        outer.add_child(outer.root(), Axis::Child, Pred::tag("author"));
        let mut inner = PatternTree::with_root(Pred::tag("article"));
        inner.add_child(inner.root(), Axis::Child, Pred::tag("author"));
        inner.add_child(inner.root(), Axis::Child, Pred::tag("title"));
        assert!(outer.subset_embedding(&inner).is_some());
    }

    #[test]
    fn ad_edge_satisfied_by_pc_edge() {
        // pc ⊆ ad: an ad requirement is satisfied by a direct pc edge.
        let mut outer = PatternTree::with_root(Pred::tag("article"));
        outer.add_child(outer.root(), Axis::Descendant, Pred::tag("author"));
        let mut inner = PatternTree::with_root(Pred::tag("article"));
        inner.add_child(inner.root(), Axis::Child, Pred::tag("author"));
        assert!(outer.subset_embedding(&inner).is_some());
    }

    #[test]
    fn missing_node_fails_subset() {
        let mut outer = PatternTree::with_root(Pred::tag("doc_root"));
        outer.add_child(outer.root(), Axis::Descendant, Pred::tag("publisher"));
        assert!(outer.subset_embedding(&inner_q1()).is_none());
    }

    #[test]
    fn stronger_predicate_satisfies_weaker() {
        // weak: tag(author); strong: tag(author) ∧ content="Jack".
        let outer = PatternTree::with_root(Pred::tag("author"));
        let _ = outer;
        let weak = PatternTree::with_root(Pred::tag("author"));
        let strong = PatternTree::with_root(Pred::tag("author").and(Pred::content_eq("Jack")));
        assert!(weak.subset_embedding(&strong).is_some());
        assert!(strong.subset_embedding(&weak).is_none());
    }

    #[test]
    fn embedding_is_injective() {
        // outer needs two distinct author nodes; inner has only one.
        let mut outer = PatternTree::with_root(Pred::tag("article"));
        outer.add_child(outer.root(), Axis::Child, Pred::tag("author"));
        outer.add_child(outer.root(), Axis::Child, Pred::tag("author"));
        let mut inner = PatternTree::with_root(Pred::tag("article"));
        inner.add_child(inner.root(), Axis::Child, Pred::tag("author"));
        assert!(outer.subset_embedding(&inner).is_none());
    }
}
