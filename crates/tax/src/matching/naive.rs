//! The recursive (navigational) matcher for in-memory data trees, and the
//! full-scan database baseline.
//!
//! The matcher is *index-assisted*, as TIMBER's is (Sec. 5.2): structural
//! work — does this stored node have tag `t`? which `t`-tagged nodes lie
//! inside this stored subtree? — is answered from the tag index without
//! touching data pages. Node ids are pre-order ordinals, so each index
//! list is sorted by id as well as by `start`, and membership is a binary
//! search; subtree enumeration is a range scan. Data pages are read only
//! for content predicates, for patterns whose root predicate
//! pins no tag, and for join-predicate post-filtering.
//!
//! [`match_db_scan`] deliberately avoids the index: it navigates the
//! stored document from the root, paying a record read per visited node —
//! the "simplest way … is to scan the entire database" baseline that the
//! paper argues against (ablation X3).

use super::vnode::{Payload, VNode, VTree};
use super::Bindings;
use crate::error::Result;
use crate::matching::structural::contained_in;
use crate::pattern::{Axis, PatternTree, Pred};
use crate::tree::{Tree, TreeNodeKind};
use xmlstore::{DocumentStore, Entries, NodeEntry, Sym};

/// What a pattern node's predicate demands of a node's tag, resolved
/// against the dictionary once per match instead of once per node
/// tested.
enum TagReq<'p> {
    /// No top-level tag conjunct: the tag takes part in the full local
    /// evaluation.
    Any,
    /// The required tag: its text, the symbol every node carrying it
    /// has, and the stored nodes carrying it (the pinned index list).
    Is(&'p str, Sym, Entries),
    /// The required tag is not in the dictionary, so no node has it.
    Unknown,
}

/// One pattern node as the matcher sees it.
struct Probe<'p> {
    pred: &'p Pred,
    tag: TagReq<'p>,
}

fn probes<'p>(store: &DocumentStore, pattern: &'p PatternTree) -> Vec<Probe<'p>> {
    pattern
        .iter()
        .map(|(_, n)| Probe {
            pred: &n.pred,
            tag: match n.pred.required_tag() {
                None => TagReq::Any,
                Some(t) => store.tag_id(t).map_or(TagReq::Unknown, |sym| {
                    TagReq::Is(t, sym, store.nodes_with_tag(sym))
                }),
            },
        })
        .collect()
}

/// Match a pattern against a virtual tree by recursive embedding.
pub fn match_vtree(
    vt: &VTree<'_>,
    pattern: &PatternTree,
    anchor_root: bool,
) -> Result<Bindings<VNode>> {
    let order = pattern.preorder();
    let probes = probes(vt.store(), pattern);
    let root = &probes[order[0]];
    let mut roots: Vec<VNode> = Vec::new();
    if check_node(vt, vt.root(), root)? {
        roots.push(vt.root());
    }
    if !anchor_root {
        descendant_candidates(vt, vt.root(), root, &mut roots)?;
    }

    let mut out = Bindings::new(pattern.len());
    let mut binding: Vec<Option<VNode>> = vec![None; pattern.len()];
    for r in roots {
        binding[order[0]] = Some(r);
        assign(vt, pattern, &probes, &order, 1, &mut binding, &mut out)?;
        binding[order[0]] = None;
    }
    retain_joined(vt, pattern, &mut out);
    Ok(out)
}

/// Cross-node join predicates as a post-filter: the two nodes' content
/// symbols are equal, and a node without content joins nothing. Stored
/// and constructed contents share one dictionary, so equal symbol ⇔
/// equal string.
fn retain_joined(vt: &VTree<'_>, pattern: &PatternTree, table: &mut Bindings<VNode>) {
    let joins = pattern.join_pairs();
    if joins.is_empty() {
        return;
    }
    let keep: Vec<u32> = table
        .rows()
        .enumerate()
        .filter(|(_, row)| {
            joins.iter().all(|&(a, b)| {
                let sym = vt.content_sym(row[a]);
                sym.is_some() && sym == vt.content_sym(row[b])
            })
        })
        .map(|(i, _)| i as u32)
        .collect();
    table.gather(&keep);
}

fn assign(
    vt: &VTree<'_>,
    pattern: &PatternTree,
    probes: &[Probe<'_>],
    order: &[usize],
    idx: usize,
    binding: &mut Vec<Option<VNode>>,
    out: &mut Bindings<VNode>,
) -> Result<()> {
    if idx == order.len() {
        out.push_row(binding.iter().map(|b| b.expect("complete")));
        return Ok(());
    }
    let pid = order[idx];
    let parent = pattern.node(pid).parent.expect("non-root in preorder tail");
    let pv = binding[parent].expect("parent bound first");
    let mut candidates = Vec::new();
    match pattern.node(pid).axis {
        Axis::Child => child_candidates(vt, pv, &probes[pid], &mut candidates)?,
        Axis::Descendant => descendant_candidates(vt, pv, &probes[pid], &mut candidates)?,
    }
    for c in candidates {
        binding[pid] = Some(c);
        assign(vt, pattern, probes, order, idx + 1, binding, out)?;
        binding[pid] = None;
    }
    Ok(())
}

/// Evaluate a pattern node's predicate on a virtual node. The tag part
/// is a symbol comparison — against the pinned label columns for stored
/// nodes — with no page access and no string built.
fn check_node(vt: &VTree<'_>, v: VNode, probe: &Probe<'_>) -> Result<bool> {
    let pred = probe.pred;
    let stored = matches!(vt.payload(v), Payload::Stored(_));
    let resolved;
    let tag = match &probe.tag {
        TagReq::Unknown => return Ok(false),
        TagReq::Is(_, sym, _) if vt.tag_sym(v) != *sym => return Ok(false),
        // Tag matched; on a stored node the remaining local conjuncts
        // can only be join predicates, which hold locally.
        TagReq::Is(..) if stored && !pred.needs_data() => return Ok(true),
        TagReq::Is(t, ..) => t,
        // Predicates that pin no tag: a full local evaluation.
        TagReq::Any => {
            resolved = vt.store().dict().resolve(vt.tag_sym(v));
            &*resolved
        }
    };
    let content = if pred.needs_data() {
        vt.content(v)?
    } else {
        None
    };
    Ok(pred.eval_local(tag, content.as_deref()))
}

/// How a virtual node continues downward.
enum Below<'t> {
    /// Children are arena nodes.
    Arena(&'t [usize]),
    /// The node's subtree lives in the store.
    Stored(NodeEntry),
}

fn below<'t>(vt: &VTree<'t>, v: VNode) -> Below<'t> {
    match v {
        VNode::Stored(e) => Below::Stored(e),
        VNode::Arena(i) => match &vt.tree().node(i).kind {
            TreeNodeKind::Ref { node, deep: true } => Below::Stored(*node),
            _ => Below::Arena(&vt.tree().node(i).children),
        },
    }
}

/// Append all descendants of `v` (excluding `v`) that satisfy `probe`, in
/// document order.
fn descendant_candidates(
    vt: &VTree<'_>,
    v: VNode,
    probe: &Probe<'_>,
    out: &mut Vec<VNode>,
) -> Result<()> {
    match below(vt, v) {
        Below::Arena(children) => {
            for &c in children {
                let cv = VNode::Arena(c);
                if check_node(vt, cv, probe)? {
                    out.push(cv);
                }
                descendant_candidates(vt, cv, probe, out)?;
            }
        }
        Below::Stored(e) => stored_range_candidates(vt, e, probe, None, out)?,
    }
    Ok(())
}

/// Append the children of `v` that satisfy `probe`, in document order.
fn child_candidates(
    vt: &VTree<'_>,
    v: VNode,
    probe: &Probe<'_>,
    out: &mut Vec<VNode>,
) -> Result<()> {
    match below(vt, v) {
        Below::Arena(children) => {
            for &c in children {
                let cv = VNode::Arena(c);
                if check_node(vt, cv, probe)? {
                    out.push(cv);
                }
            }
        }
        Below::Stored(e) => stored_range_candidates(vt, e, probe, Some(e.level + 1), out)?,
    }
    Ok(())
}

/// Candidates inside a stored subtree: index range scan when the
/// predicate pins a tag (no page I/O for structure), record-by-record
/// navigation otherwise.
fn stored_range_candidates(
    vt: &VTree<'_>,
    scope: NodeEntry,
    probe: &Probe<'_>,
    level: Option<u16>,
    out: &mut Vec<VNode>,
) -> Result<()> {
    let index = match &probe.tag {
        TagReq::Unknown => return Ok(()),
        TagReq::Is(_, _, index) => Some(index),
        TagReq::Any => None,
    };
    if let Some(index) = index {
        for entry in contained_in(index, &scope) {
            if let Some(l) = level {
                if entry.level != l {
                    continue;
                }
            }
            let cand = VNode::Stored(*entry);
            if !probe.pred.needs_data() || check_node(vt, cand, probe)? {
                out.push(cand);
            }
        }
        return Ok(());
    }
    // No tag pinned: navigate (record reads), matching TIMBER's fallback.
    let mut stack = vec![(VNode::Stored(scope), true)];
    while let Some((v, is_scope)) = stack.pop() {
        if !is_scope {
            let ok = match level {
                Some(l) => v.as_stored().map(|e| e.level == l).unwrap_or(false),
                None => true,
            };
            if ok && check_node(vt, v, probe)? {
                out.push(v);
            }
        }
        let descend = match (level, v.as_stored()) {
            (Some(l), Some(e)) => e.level < l, // children mode: stop below target level
            _ => true,
        };
        if descend {
            let kids = vt.children(v)?;
            for c in kids.into_iter().rev() {
                stack.push((c, false));
            }
        }
    }
    Ok(())
}

/// Full-database-scan matching: navigate the stored document from the
/// root without using the tag index. Every visited node costs a record
/// read, which is exactly why the paper prefers index-driven matching.
pub fn match_db_scan(store: &DocumentStore, pattern: &PatternTree) -> Result<Bindings<VNode>> {
    let root_tree = Tree::new_ref(store.root(), true);
    let vt = VTree::new(store, &root_tree);
    let order = pattern.preorder();

    // Enumerate every node by navigation and test the root predicate
    // with record reads (no index).
    let mut roots = Vec::new();
    scan_collect(&vt, vt.root(), &pattern.node(order[0]).pred, &mut roots)?;

    let mut out = Bindings::new(pattern.len());
    let mut binding: Vec<Option<VNode>> = vec![None; pattern.len()];
    for r in roots {
        binding[order[0]] = Some(r);
        assign_scan(&vt, pattern, &order, 1, &mut binding, &mut out)?;
        binding[order[0]] = None;
    }
    retain_joined(&vt, pattern, &mut out);
    Ok(out)
}

fn scan_collect(vt: &VTree<'_>, v: VNode, pred: &Pred, out: &mut Vec<VNode>) -> Result<()> {
    if eval_by_navigation(vt, v, pred)? {
        out.push(v);
    }
    for c in vt.children(v)? {
        scan_collect(vt, c, pred, out)?;
    }
    Ok(())
}

fn assign_scan(
    vt: &VTree<'_>,
    pattern: &PatternTree,
    order: &[usize],
    idx: usize,
    binding: &mut Vec<Option<VNode>>,
    out: &mut Bindings<VNode>,
) -> Result<()> {
    if idx == order.len() {
        out.push_row(binding.iter().map(|b| b.expect("complete")));
        return Ok(());
    }
    let pid = order[idx];
    let parent = pattern.node(pid).parent.expect("non-root");
    let pv = binding[parent].expect("parent bound first");
    let candidates: Vec<VNode> = match pattern.node(pid).axis {
        Axis::Child => vt.children(pv)?,
        Axis::Descendant => vt.descendants(pv)?,
    };
    for c in candidates {
        if !eval_by_navigation(vt, c, &pattern.node(pid).pred)? {
            continue;
        }
        binding[pid] = Some(c);
        assign_scan(vt, pattern, order, idx + 1, binding, out)?;
        binding[pid] = None;
    }
    Ok(())
}

/// Predicate evaluation that always reads the record (the scan baseline).
fn eval_by_navigation(vt: &VTree<'_>, v: VNode, pred: &Pred) -> Result<bool> {
    // Pay the record read the scan baseline models, even though the tag
    // is now answered from the columnar label region — this is exactly
    // the per-node cost the index-driven matcher avoids (Sec. 5.3).
    if let VNode::Stored(e) = v {
        vt.store().record(e.id)?;
    }
    let tag = vt.tag(v)?;
    let content = if pred.needs_data() {
        vt.content(v)?
    } else {
        None
    };
    Ok(pred.eval_local(&tag, content.as_deref()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::match_db;
    use xmlstore::StoreOptions;

    const SAMPLE: &str = "<bib>\
        <article><title>Transaction Mng</title><author>Silberschatz</author></article>\
        <article><title>Overview of Transaction Mng</title><author>Silberschatz</author><author>Garcia-Molina</author></article>\
        <article><title>Web Stuff</title><author>Thompson</author></article>\
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
    fn scan_agrees_with_index_matcher() {
        let s = store();
        let p = fig1();
        let scan = match_db_scan(&s, &p).unwrap();
        let indexed = match_db(&s, &p).unwrap();
        // Same rows in the same order; the scan reaches the document
        // through its virtual tree, the index matcher directly.
        assert_eq!(scan, indexed.map_cells(VNode::Stored));
    }

    #[test]
    fn scan_touches_data_pages_even_for_tag_only_patterns() {
        let s = store();
        let p = PatternTree::with_root(Pred::tag("author"));
        s.reset_io_stats();
        let _ = match_db(&s, &p).unwrap();
        assert_eq!(s.io_stats().page_requests(), 0);
        let r = match_db_scan(&s, &p).unwrap();
        assert_eq!(r.len(), 4);
        assert!(s.io_stats().page_requests() > 0);
    }

    #[test]
    fn descendant_axis_in_tree_matcher() {
        let s = store();
        let mut p = PatternTree::with_root(Pred::tag("doc_root"));
        p.add_child(p.root(), Axis::Descendant, Pred::tag("author"));
        let b = match_db_scan(&s, &p).unwrap();
        assert_eq!(b.len(), 4);
    }

    #[test]
    fn multiple_embeddings_per_tree() {
        let s = store();
        let article = s.tag_id("article").unwrap();
        let art2 = s.nodes_with_tag(article)[1];
        let t = Tree::new_ref(art2, true);
        let vt = VTree::new(&s, &t);
        let mut p = PatternTree::with_root(Pred::tag("article"));
        p.add_child(p.root(), Axis::Child, Pred::tag("author"));
        let b = match_vtree(&vt, &p, false).unwrap();
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn join_predicate_post_filter() {
        let s = store();
        // Equal-content author pairs within an article: one self-pair per
        // author occurrence.
        let mut p = PatternTree::with_root(Pred::tag("article"));
        let a1 = p.add_child(p.root(), Axis::Child, Pred::tag("author"));
        p.add_child(
            p.root(),
            Axis::Child,
            Pred::tag("author").and(Pred::ContentEqNode(a1)),
        );
        let b = match_db_scan(&s, &p).unwrap();
        assert_eq!(b.len(), 4);
    }

    #[test]
    fn index_assisted_matcher_avoids_structure_io() {
        let s = store();
        // A tag-only pattern over a group-like synthetic tree whose
        // members are deep references: candidate work must be index-only.
        let article = s.tag_id("article").unwrap();
        let mut t = Tree::new_elem(s.dict(), "TAX_group_root");
        let sub = t.add_elem(s.dict(), t.root(), "TAX_group_subroot");
        for e in s.nodes_with_tag(article) {
            t.add_ref(sub, e, true);
        }
        let mut p = PatternTree::with_root(Pred::tag("TAX_group_root"));
        let subroot = p.add_child(p.root(), Axis::Child, Pred::tag("TAX_group_subroot"));
        p.add_child(subroot, Axis::Child, Pred::tag("article"));

        s.reset_io_stats();
        let vt = VTree::new(&s, &t);
        let b = match_vtree(&vt, &p, true).unwrap();
        assert_eq!(b.len(), 3);
        assert_eq!(
            s.io_stats().page_requests(),
            0,
            "structural matching over references must be index-only"
        );
    }

    #[test]
    fn mixed_arena_stored_descendant_search() {
        let s = store();
        let article = s.tag_id("article").unwrap();
        let mut t = Tree::new_elem(s.dict(), "wrap");
        t.add_ref(t.root(), s.nodes_with_tag(article)[1], true);
        let mut p = PatternTree::with_root(Pred::tag("wrap"));
        p.add_child(p.root(), Axis::Descendant, Pred::tag("author"));
        let vt = VTree::new(&s, &t);
        let b = match_vtree(&vt, &p, true).unwrap();
        assert_eq!(b.len(), 2, "authors found inside the deep reference");
    }

    #[test]
    fn no_required_tag_falls_back_to_navigation() {
        let s = store();
        let article = s.tag_id("article").unwrap();
        let t = Tree::new_ref(s.nodes_with_tag(article)[0], true);
        let mut p = PatternTree::with_root(Pred::tag("article"));
        p.add_child(
            p.root(),
            Axis::Descendant,
            Pred::content_contains("Transaction"),
        );
        let vt = VTree::new(&s, &t);
        let b = match_vtree(&vt, &p, true).unwrap();
        assert_eq!(b.len(), 1); // the title
    }
}
