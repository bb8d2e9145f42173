//! The full-scan database baseline.
//!
//! [`match_db_scan`] deliberately avoids the index: it navigates the
//! stored document from the root, paying a record read per visited node —
//! the "simplest way … is to scan the entire database" baseline that the
//! paper argues against (ablation X3), and the oracle the columnar
//! matcher is checked against.

use super::vnode::VTree;
use super::Bindings;
use crate::error::Result;
use crate::pattern::{Axis, PatternTree, Pred};
use xmlstore::{DocumentStore, NodeEntry};

/// Full-database-scan matching: navigate the stored document from the
/// root without using the tag index. Every visited node costs a record
/// read, which is exactly why the paper prefers index-driven matching.
pub fn match_db_scan(store: &DocumentStore, pattern: &PatternTree) -> Result<Bindings> {
    let vt = VTree::new(store);
    let order = pattern.preorder();

    // Enumerate every node by navigation and test the root predicate
    // with record reads (no index).
    let mut roots = Vec::new();
    scan_collect(&vt, vt.root(), &pattern.node(order[0]).pred, &mut roots)?;

    let mut out = Bindings::new(pattern.len());
    let mut binding: Vec<Option<NodeEntry>> = vec![None; pattern.len()];
    for r in roots {
        binding[order[0]] = Some(r);
        assign_scan(&vt, pattern, &order, 1, &mut binding, &mut out)?;
        binding[order[0]] = None;
    }
    retain_joined(&vt, pattern, &mut out);
    Ok(out)
}

fn scan_collect(vt: &VTree<'_>, e: NodeEntry, pred: &Pred, out: &mut Vec<NodeEntry>) -> Result<()> {
    if eval_by_navigation(vt, e, pred)? {
        out.push(e);
    }
    for c in vt.children(e) {
        scan_collect(vt, c, pred, out)?;
    }
    Ok(())
}

fn assign_scan(
    vt: &VTree<'_>,
    pattern: &PatternTree,
    order: &[usize],
    idx: usize,
    binding: &mut Vec<Option<NodeEntry>>,
    out: &mut Bindings,
) -> Result<()> {
    if idx == order.len() {
        out.push_row(binding.iter().map(|b| b.expect("complete")));
        return Ok(());
    }
    let pid = order[idx];
    let parent = pattern.node(pid).parent.expect("non-root");
    let pv = binding[parent].expect("parent bound first");
    let candidates = match pattern.node(pid).axis {
        Axis::Child => vt.children(pv),
        Axis::Descendant => vt.descendants(pv),
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
fn eval_by_navigation(vt: &VTree<'_>, e: NodeEntry, pred: &Pred) -> Result<bool> {
    // Pay the record read the scan baseline models, even though the tag
    // is now answered from the columnar label region — this is exactly
    // the per-node cost the index-driven matcher avoids (Sec. 5.3).
    vt.store().record(e.id)?;
    let tag = vt.tag(e);
    let content = if pred.needs_data() {
        vt.content(e)?
    } else {
        None
    };
    Ok(pred.eval_local(&tag, content.as_deref()))
}

/// Cross-node join predicates as a post-filter: the two nodes' content
/// symbols are equal, and a node without content joins nothing.
fn retain_joined(vt: &VTree<'_>, pattern: &PatternTree, table: &mut Bindings) {
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
        // Same rows in the same order.
        assert_eq!(match_db_scan(&s, &p).unwrap(), match_db(&s, &p).unwrap());
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
        let mut p = PatternTree::with_root(Pred::tag("article"));
        p.add_child(p.root(), Axis::Child, Pred::tag("author"));
        let b = match_db_scan(&s, &p).unwrap();
        let of_art2 = b.column(p.root()).iter().filter(|&&a| a == art2).count();
        assert_eq!(of_art2, 2);
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
    fn no_required_tag_falls_back_to_navigation() {
        let s = store();
        let mut p = PatternTree::with_root(Pred::tag("article"));
        p.add_child(
            p.root(),
            Axis::Descendant,
            Pred::content_contains("Transaction"),
        );
        let b = match_db_scan(&s, &p).unwrap();
        assert_eq!(b.len(), 2); // the two titles
        assert_eq!(b, match_db(&s, &p).unwrap());
    }
}
