//! Pattern-tree matching (Sec. 5.2).
//!
//! Two paths exist:
//!
//! * [`match_db`] — match against the **stored database** using the tag
//!   index for candidates and sorted containment (structural) joins to
//!   combine them. Bindings are found on index data alone; data pages are
//!   touched only for content/attribute predicates and cross-node join
//!   predicates.
//! * [`match_tree`] — match against an **in-memory data tree** (a witness
//!   tree, a group tree, …) by recursive embedding; references descend
//!   into the store.
//!
//! A full-scan matcher ([`naive::match_db_scan`]) is kept as the
//! ablation baseline the paper argues against ("the simplest way to find
//! matches for a pattern tree is to scan the entire database").

pub mod naive;
pub mod structural;
pub mod vnode;

use crate::error::Result;
use crate::pattern::{Axis, PatternTree};
use crate::tree::Tree;
use std::collections::HashMap;
use vnode::{VNode, VTree};
use xmlstore::{kernels, DocumentStore, NodeEntry, NodeId};

/// A complete match of a pattern: one bound node per pattern node,
/// indexed by [`crate::pattern::PatternNodeId`].
pub type Binding = Vec<VNode>;

/// Match `pattern` against the whole stored database, returning all
/// bindings in document order of the pattern root.
pub fn match_db(store: &DocumentStore, pattern: &PatternTree) -> Result<Vec<Binding>> {
    match_db_scoped(store, pattern, None)
}

/// Match `pattern` against the subtree of the database rooted at `scope`
/// (used by per-tree operators whose input trees are stored subtrees).
/// With `scope == None` the whole document is searched.
pub fn match_db_scoped(
    store: &DocumentStore,
    pattern: &PatternTree,
    scope: Option<NodeEntry>,
) -> Result<Vec<Binding>> {
    // 1. Candidate lists per pattern node, from the tag index. The scope
    //    restriction is a binary-searched sub-slice of the index list, so
    //    scoped matching (one call per input tree in per-tree operators)
    //    costs proportional to the *scoped* candidates, not the index.
    let order = pattern.preorder();
    let mut candidates: Vec<Vec<NodeEntry>> = vec![Vec::new(); pattern.len()];
    let mut content_cache: HashMap<NodeId, Option<String>> = HashMap::new();
    for &pid in &order {
        let pnode = pattern.node(pid);
        let mut kept: Vec<NodeEntry> = Vec::new();
        match pnode.pred.required_tag() {
            Some(t) => {
                let tag_id = store.tag_id(t);
                // Content value index (optional, `StoreOptions::value_index`):
                // a `tag ∧ content = "v"` predicate is answered directly,
                // with no per-candidate data look-ups.
                let (full, eq_satisfied): (xmlstore::Entries, bool) =
                    match (tag_id, pnode.pred.eq_content_value()) {
                        (Some(id), Some(v)) => match store.nodes_with_tag_and_content(id, v) {
                            Some(list) => (list, true),
                            None => (store.nodes_with_tag(id), false),
                        },
                        (Some(id), None) => (store.nodes_with_tag(id), false),
                        (None, _) => (store.no_entries(), false),
                    };
                let scoped = match scope {
                    Some(s) => structural::contained_in_or_self(&full, &s),
                    None => &full[..],
                };
                let skip_data_eval =
                    !pnode.pred.needs_data() || (eq_satisfied && pnode.pred.is_tag_eq_only());
                kept.reserve(scoped.len());
                for e in scoped {
                    if !skip_data_eval
                        && !eval_stored_local(store, &pnode.pred, *e, &mut content_cache)?
                    {
                        continue;
                    }
                    kept.push(*e);
                }
            }
            None => {
                // No tag pinned: every node in scope. Node ids are
                // preorder ordinals, so the scoped set is one dense id
                // range of the columnar label region — walked directly,
                // already in document order, with no per-tag merge or
                // sort.
                let cols = store.columns();
                for i in structural::scoped_ids(&cols, scope.as_ref()) {
                    let e = cols.entry(NodeId(i));
                    if pnode.pred.needs_data()
                        && !eval_stored_local(store, &pnode.pred, e, &mut content_cache)?
                    {
                        continue;
                    }
                    kept.push(e);
                }
            }
        }
        candidates[pid] = kept;
    }

    // 2. Combine by containment joins in pre-order: each node's candidates
    //    are range-searched inside its parent's bound region (the lists
    //    are sorted by `start`, so this is a sorted containment join).
    let mut partial: Vec<Vec<NodeEntry>> = candidates[order[0]]
        .iter()
        .map(|&e| {
            let mut b = vec![
                NodeEntry {
                    id: NodeId(u32::MAX),
                    start: 0,
                    end: 0,
                    level: 0
                };
                pattern.len()
            ];
            b[order[0]] = e;
            b
        })
        .collect();
    for &pid in order.iter().skip(1) {
        let parent = pattern.node(pid).parent.expect("non-root");
        let axis = pattern.node(pid).axis;
        let cands = &candidates[pid];
        let mut next: Vec<Vec<NodeEntry>> = Vec::new();
        // The parent column is normally monotone in `start` (bindings
        // are generated in document order), which is exactly what the
        // batch containment join requires. Deep patterns can break the
        // order after several joins; those fall back to the per-binding
        // range search.
        let monotone = partial
            .windows(2)
            .all(|w| w[0][parent].start <= w[1][parent].start);
        if monotone {
            // Batch combine: one galloping containment partition over
            // the distinct parents, then each binding expands its
            // parent's descendant run.
            let mut unique: Vec<NodeEntry> = Vec::new();
            let mut which: Vec<u32> = Vec::with_capacity(partial.len());
            for b in &partial {
                let p = b[parent];
                if unique.last().map(|u| u.id) != Some(p.id) {
                    unique.push(p);
                }
                which.push(unique.len() as u32 - 1);
            }
            let runs = kernels::containment_runs(&unique, cands);
            for (b, &u) in partial.iter().zip(&which) {
                let (lo, hi) = runs[u as usize];
                let p = b[parent];
                for d in &cands[lo as usize..hi as usize] {
                    if axis == Axis::Child && d.level != p.level + 1 {
                        continue;
                    }
                    let mut nb = b.clone();
                    nb[pid] = *d;
                    next.push(nb);
                }
            }
        } else {
            kernels::note_fallback_rows(partial.len());
            for binding in &partial {
                let p = binding[parent];
                for d in structural::contained_in(cands, &p) {
                    if axis == Axis::Child && d.level != p.level + 1 {
                        continue;
                    }
                    let mut b = binding.clone();
                    b[pid] = *d;
                    next.push(b);
                }
            }
        }
        partial = next;
        if partial.is_empty() {
            break;
        }
    }

    // 3. Post-filter cross-node join predicates (value look-ups).
    let mut out: Vec<Binding> = Vec::with_capacity(partial.len());
    'outer: for binding in partial {
        for (pid, pnode) in pattern.iter() {
            for target in pnode.pred.join_targets() {
                let a = cached_content(store, binding[pid].id, &mut content_cache)?;
                let b = cached_content(store, binding[target].id, &mut content_cache)?;
                if a.is_none() || a != b {
                    continue 'outer;
                }
            }
        }
        out.push(binding.into_iter().map(VNode::Stored).collect());
    }
    Ok(out)
}

/// Match `pattern` against an in-memory data tree. With
/// `anchor_root == true` the pattern root may bind only to the tree root
/// (the constraint the paper suggests for one-output-per-input
/// projection).
///
/// Fast path: a tree that is one deep stored reference (the common case
/// after `SL`/`PL`-adorned selection — e.g. the article collection fed to
/// GROUPBY) is matched through the tag index with a scope restriction,
/// touching **no data pages** for structure (Sec. 5.2/5.3); only
/// content/attribute predicates cost value look-ups. Other trees use the
/// recursive matcher.
pub fn match_tree(
    store: &DocumentStore,
    tree: &Tree,
    pattern: &PatternTree,
    anchor_root: bool,
) -> Result<Vec<Binding>> {
    if tree.len() == 1 {
        if let crate::tree::TreeNodeKind::Ref {
            node: scope,
            deep: true,
        } = tree.node(tree.root()).kind
        {
            let mut bindings = match_db_scoped(store, pattern, Some(scope))?;
            if anchor_root {
                bindings.retain(|b| match b[pattern.root()] {
                    VNode::Stored(e) => e.id == scope.id,
                    VNode::Arena(_) => false,
                });
            }
            // Canonicalize: a binding of the scope node itself is the
            // tree's (arena) root, matching the recursive matcher's view.
            for b in &mut bindings {
                for v in b.iter_mut() {
                    if let VNode::Stored(e) = v {
                        if e.id == scope.id {
                            *v = VNode::Arena(tree.root());
                        }
                    }
                }
            }
            return Ok(bindings);
        }
    }
    let vt = VTree::new(store, tree);
    naive::match_vtree(&vt, pattern, anchor_root)
}

/// Evaluate the local predicate of a stored node, fetching content and
/// attributes through the buffer pool as needed.
fn eval_stored_local(
    store: &DocumentStore,
    pred: &crate::pattern::Pred,
    e: NodeEntry,
    cache: &mut HashMap<NodeId, Option<String>>,
) -> Result<bool> {
    let content = cached_content(store, e.id, cache)?;
    // Tag comes from the columnar label region: no page access, and the
    // interned `Arc<str>` is borrowed as-is (this runs per candidate
    // row, so no per-row String allocation).
    let tag = store.tag_name(xmlstore::TagId(store.columns().tag[e.id.0 as usize]));
    let attr_lookup = |name: &str| -> Option<String> {
        let attr_tag = store.attr_tag_id(name)?;
        // Attributes of e are index entries of @name contained in e with
        // level e.level + 1.
        let entries = store.nodes_with_tag(attr_tag);
        let child = structural::contained_in(&entries, &e)
            .iter()
            .find(|c| c.level == e.level + 1)
            .copied()?;
        store.content(child.id).ok().flatten()
    };
    Ok(pred.eval_local(&tag, content.as_deref(), &attr_lookup))
}

fn cached_content(
    store: &DocumentStore,
    id: NodeId,
    cache: &mut HashMap<NodeId, Option<String>>,
) -> Result<Option<String>> {
    if let Some(v) = cache.get(&id) {
        return Ok(v.clone());
    }
    let v = store.content(id)?;
    cache.insert(id, v.clone());
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Pred;
    use xmlstore::StoreOptions;

    const SAMPLE: &str = "<bib>\
        <article><title>Transaction Mng</title><author>Silberschatz</author></article>\
        <article><title>Overview of Transaction Mng</title><author>Silberschatz</author><author>Garcia-Molina</author></article>\
        <article><title>Transaction Mng for the Web</title><author>Thompson</author></article>\
        <article><title>Other Topic</title><author>Unrelated</author></article>\
        <book><title>Transaction Books</title><author>NotAnArticle</author></book>\
    </bib>";

    fn store() -> DocumentStore {
        DocumentStore::from_xml(SAMPLE, &StoreOptions::in_memory()).unwrap()
    }

    /// The Figure 1 pattern.
    fn fig1_pattern() -> PatternTree {
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
    fn fig1_yields_fig2_witness_count() {
        // Figure 2: four witness trees — one per (article, author) pair
        // among Transaction-titled articles.
        let s = store();
        let bindings = match_db(&s, &fig1_pattern()).unwrap();
        assert_eq!(bindings.len(), 4);
    }

    #[test]
    fn bindings_are_in_document_order() {
        let s = store();
        let bindings = match_db(&s, &fig1_pattern()).unwrap();
        let roots: Vec<u32> = bindings
            .iter()
            .map(|b| match b[0] {
                VNode::Stored(e) => e.start,
                _ => unreachable!(),
            })
            .collect();
        assert!(roots.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn ad_axis_reaches_depths() {
        let s = store();
        let mut p = PatternTree::with_root(Pred::tag("doc_root"));
        p.add_child(p.root(), Axis::Descendant, Pred::tag("author"));
        let bindings = match_db(&s, &p).unwrap();
        assert_eq!(bindings.len(), 6); // 5 article authors + 1 book author
    }

    #[test]
    fn pc_axis_enforces_level() {
        let s = store();
        // doc_root -pc-> author never holds (authors are two levels down).
        let mut p = PatternTree::with_root(Pred::tag("doc_root"));
        p.add_child(p.root(), Axis::Child, Pred::tag("author"));
        assert!(match_db(&s, &p).unwrap().is_empty());
    }

    #[test]
    fn scoped_match_restricts_to_subtree() {
        let s = store();
        let article_tag = s.tag_id("article").unwrap();
        let second_article = s.nodes_with_tag(article_tag)[1];
        let mut p = PatternTree::with_root(Pred::tag("article"));
        p.add_child(p.root(), Axis::Child, Pred::tag("author"));
        let bindings = match_db_scoped(&s, &p, Some(second_article)).unwrap();
        assert_eq!(bindings.len(), 2); // only the two authors of article 2
    }

    #[test]
    fn join_predicate_filters_bindings() {
        let s = store();
        // article with two author children having equal content — none in
        // this sample (all co-author pairs differ).
        let mut p = PatternTree::with_root(Pred::tag("article"));
        let a1 = p.add_child(p.root(), Axis::Child, Pred::tag("author"));
        p.add_child(
            p.root(),
            Axis::Child,
            Pred::tag("author").and(Pred::ContentEqNode(a1)),
        );
        let bindings = match_db(&s, &p).unwrap();
        // Self-pairs do exist ((a,a) for each author): the pattern does
        // not force distinct bindings. 4 article-authors → but only
        // article 2 has 2 authors, giving (a1,a1),(a1,a2),(a2,a1),(a2,a2)
        // → equal-content pairs are the 4 self-pairs of single-author
        // articles... let's count: every (author,author) pair within an
        // article with equal content. Articles 1,3,4: 1 author → 1 pair
        // each. Article 2: authors differ → only self pairs (2).
        assert_eq!(bindings.len(), 5);
    }

    #[test]
    fn content_predicate_costs_data_io() {
        let s = store();
        s.reset_io_stats();
        let p = PatternTree::with_root(Pred::tag("author"));
        let _ = match_db(&s, &p).unwrap();
        let tag_only = s.io_stats().page_requests();
        assert_eq!(tag_only, 0, "tag-only matching must not touch pages");

        let p2 = PatternTree::with_root(Pred::tag("author").and(Pred::content_eq("Thompson")));
        let b = match_db(&s, &p2).unwrap();
        assert_eq!(b.len(), 1);
        assert!(s.io_stats().page_requests() > 0);
    }

    #[test]
    fn content_comparison_predicates() {
        use crate::value::CmpOp;
        let s = store();
        for (op, expected) in [
            (CmpOp::Ge, 3), // "Transaction Mng", "... for the Web", "... Books"
            (CmpOp::Lt, 2), // "Overview of ...", "Other Topic"
            (CmpOp::Eq, 0),
            (CmpOp::Ne, 5),
        ] {
            let p = PatternTree::with_root(
                Pred::tag("title").and(Pred::content_cmp(op, "Transaction")),
            );
            assert_eq!(match_db(&s, &p).unwrap().len(), expected, "{op:?}");
        }
    }

    #[test]
    fn attribute_predicate() {
        let xml = r#"<bib><article year="1999"><title>A</title></article><article year="2002"><title>B</title></article></bib>"#;
        let s = DocumentStore::from_xml(xml, &StoreOptions::in_memory()).unwrap();
        let p = PatternTree::with_root(Pred::tag("article").and(Pred::Attr(
            "year".into(),
            CmpOp::Gt,
            "2000".into(),
        )));
        use crate::value::CmpOp;
        let bindings = match_db(&s, &p).unwrap();
        assert_eq!(bindings.len(), 1);
    }

    #[test]
    fn match_tree_over_witness_tree() {
        let s = store();
        // Build a witness-like tree: article(shallow) -> author(shallow)
        let article = s.tag_id("article").unwrap();
        let author = s.tag_id("author").unwrap();
        let art = s.nodes_with_tag(article)[0];
        let auth = s.nodes_with_tag(author)[0];
        let mut t = Tree::new_ref(art, false);
        t.add_ref(t.root(), auth, false);

        let mut p = PatternTree::with_root(Pred::tag("article"));
        p.add_child(p.root(), Axis::Descendant, Pred::tag("author"));
        let bindings = match_tree(&s, &t, &p, false).unwrap();
        assert_eq!(bindings.len(), 1);
    }

    #[test]
    fn match_tree_descends_into_deep_refs() {
        let s = store();
        let article = s.tag_id("article").unwrap();
        let art = s.nodes_with_tag(article)[1]; // two authors
        let t = Tree::new_ref(art, true);
        let mut p = PatternTree::with_root(Pred::tag("article"));
        p.add_child(p.root(), Axis::Child, Pred::tag("author"));
        let bindings = match_tree(&s, &t, &p, false).unwrap();
        assert_eq!(bindings.len(), 2);
    }

    #[test]
    fn anchor_root_restricts_embeddings() {
        let s = store();
        let mut t = Tree::new_elem(s.dict(), "wrapper");
        let inner = t.add_elem(s.dict(), t.root(), "wrapper");
        t.add_elem_with_content(s.dict(), inner, "x", "1");
        let p = PatternTree::with_root(Pred::tag("wrapper"));
        assert_eq!(match_tree(&s, &t, &p, false).unwrap().len(), 2);
        assert_eq!(match_tree(&s, &t, &p, true).unwrap().len(), 1);
    }

    #[test]
    fn value_index_answers_content_eq_without_io() {
        let s =
            DocumentStore::from_xml(SAMPLE, &StoreOptions::in_memory().with_value_index()).unwrap();
        // Footnote 8's example: find articles of one author. The value
        // index returns the *author* nodes with zero I/O; the structural
        // step up to the article still runs on index labels.
        let mut p = PatternTree::with_root(Pred::tag("article"));
        p.add_child(
            p.root(),
            Axis::Child,
            Pred::tag("author").and(Pred::content_eq("Silberschatz")),
        );
        s.reset_io_stats();
        let bindings = match_db(&s, &p).unwrap();
        assert_eq!(bindings.len(), 2);
        assert_eq!(
            s.io_stats().page_requests(),
            0,
            "content-eq via the value index must not touch data pages"
        );
        // Without the index, the same pattern needs value look-ups.
        let plain = DocumentStore::from_xml(SAMPLE, &StoreOptions::in_memory()).unwrap();
        plain.reset_io_stats();
        let bindings2 = match_db(&plain, &p).unwrap();
        assert_eq!(bindings2.len(), 2);
        assert!(plain.io_stats().page_requests() > 0);
    }

    #[test]
    fn no_required_tag_scans_all_nodes() {
        let s = store();
        let p = PatternTree::with_root(Pred::content_contains("Transaction"));
        let bindings = match_db(&s, &p).unwrap();
        assert_eq!(bindings.len(), 4); // 3 article titles + 1 book title
    }

    #[test]
    fn missing_tag_means_no_bindings() {
        let s = store();
        let p = PatternTree::with_root(Pred::tag("nonexistent"));
        assert!(match_db(&s, &p).unwrap().is_empty());
    }
}
