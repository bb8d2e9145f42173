//! Value-based joins (Sec. 4.1).
//!
//! The naive parse of a nested FLWR generates a **left outer join**
//! between the outer bindings and the database (the "join-plan" pattern
//! tree of Fig. 4b), producing `TAX_prod_root` trees that pair each outer
//! tree with one matching witness from the database (Fig. 8); unmatched
//! outer trees survive alone. The RETURN arguments are then **stitched**
//! back together on the shared key: a full outer join fused with the
//! final construction and rename ([`stitch`]).
//!
//! Both key on content symbols from the shared witness extraction — the
//! outer key of a tree, the key of every database binding — so a value
//! comparison reads no data page: equal symbol ⇔ equal string, and a node
//! without content ([`NO_SYM`]) joins nothing.

use crate::batch::Source;
use crate::error::Result;
use crate::matching::vnode::VNode;
use crate::matching::{match_db, Bindings};
use crate::ops::aggregate::{compute, format_value, numeric, AggFunc};
use crate::ops::groupby::{sort_members, BasisItem, Direction, GroupOrder};
use crate::ops::select::witness_tree;
use crate::ops::witness::{first_keys, witnesses};
use crate::pattern::{PatternNodeId, PatternTree};
use crate::tree::{Collection, Tree, TreeNodeKind};
use std::collections::{HashMap, HashSet};
use xmlstore::{DocumentStore, NO_SYM};

/// Left outer join of `left` against the stored database — the
/// blocking sink's kernel.
///
/// For each left tree, its join value is the content symbol of the node
/// bound by `left_label` under `left_pattern` (its first witness's, one
/// extraction over all left trees). The right side is matched once
/// against the database with `right_pattern` and bucketed by the content
/// symbol of its `right_label` node; a right binding joins when that
/// symbol equals the left value. Each matching pair yields one
/// `TAX_prod_root` tree holding the left tree followed by the right
/// witness tree (adorned by `right_sl`); a left tree with no match yields
/// a `TAX_prod_root` with the left part only. Output follows the left
/// input order.
#[allow(clippy::too_many_arguments)]
pub fn left_outer_join_db(
    store: &DocumentStore,
    left: &[Tree],
    left_pattern: &PatternTree,
    left_label: PatternNodeId,
    right_pattern: &PatternTree,
    right_label: PatternNodeId,
    right_sl: &[PatternNodeId],
) -> Result<Collection> {
    if right_label >= right_pattern.len() {
        return Err(crate::error::Error::UnknownLabel(format!(
            "${}",
            right_label + 1
        )));
    }
    let keys = first_keys(store, left, left_pattern, left_label)?;

    // Match the right side once; bucket bindings by key symbol.
    let right_bindings = match_db(store, right_pattern)?;
    let cols = store.columns();
    let mut buckets: HashMap<u32, Vec<usize>> = HashMap::new();
    for (i, e) in right_bindings.column(right_label).iter().enumerate() {
        let key = cols.content[e.id.0 as usize];
        if key != NO_SYM {
            buckets.entry(key).or_default().push(i);
        }
    }

    let mut out = Vec::new();
    for (ltree, key) in left.iter().zip(keys) {
        let key = key.map_or(NO_SYM, |(key, _)| key);
        let matches = buckets.get(&key).map_or(&[][..], Vec::as_slice);
        out.extend(join_one(
            store,
            ltree,
            matches,
            &right_bindings,
            right_pattern,
            right_sl,
        ));
    }
    Ok(out)
}

/// The per-left-tree join kernel: one `TAX_prod_root` tree per matching
/// right binding (the unmatched tree survives alone).
fn join_one(
    store: &DocumentStore,
    ltree: &Tree,
    matches: &[usize],
    right_bindings: &Bindings,
    right_pattern: &PatternTree,
    right_sl: &[PatternNodeId],
) -> Vec<Tree> {
    let prod = || {
        let mut prod = Tree::new_elem(store.dict(), crate::tags::PROD_ROOT);
        prod.append_subtree(prod.root(), ltree, ltree.root());
        prod
    };
    if matches.is_empty() {
        return vec![prod()];
    }
    matches
        .iter()
        .map(|&ri| {
            let mut prod = prod();
            let w = witness_tree(None, right_pattern, right_bindings.row(ri), right_sl);
            prod.append_subtree(prod.root(), &w, w.root());
            prod
        })
        .collect()
}

/// One stitched part: an extracted node of an inner row, with what its
/// output needs — its content (for an aggregate) and the witness it
/// orders by.
#[derive(Clone, Copy)]
struct Part {
    row: u32,
    node: VNode,
    deep: bool,
    value: u32,
    first: u32,
}

/// The RETURN stitching of the naive plan (Sec. 4.1): a full outer join
/// of `outer` and `inner` on the key (one hash pass over the inner rows),
/// fused with the final per-binding construction and rename — the kernel
/// behind the executor's `StitchConstruct` sink. Each matching outer tree becomes one `tag`
/// element: its bound node, then the extracted parts of its key's inner
/// rows (`inner_extract`, deep or not), or their aggregate `agg`.
///
/// One anchored witness extraction over the inner rows yields every
/// part's key, node, value and ordering symbol. The bucket merge walks
/// them in input order and applies the naive plan's "duplicate
/// elimination based on articles": an inner row joining a key through
/// several paths contributes each extracted node once. Within a key the
/// parts order as group members do (`ORDER BY` on the first witness of
/// their row under that key, arrival breaking ties), so a row's parts
/// stay together. Each outer tree then constructs its element against
/// the buckets, in outer input order.
#[allow(clippy::too_many_arguments)]
pub fn stitch(
    store: &DocumentStore,
    outer: &[Tree],
    outer_pattern: &PatternTree,
    outer_label: PatternNodeId,
    inner: &[Tree],
    inner_pattern: &PatternTree,
    inner_label: PatternNodeId,
    inner_extract: &[(PatternNodeId, bool)],
    agg: Option<(AggFunc, &str)>,
    order: Option<(PatternNodeId, Direction)>,
    tag: &str,
) -> Result<Collection> {
    // Basis: the key, then one item per extracted node.
    let basis: Vec<BasisItem> = std::iter::once(inner_label)
        .chain(inner_extract.iter().map(|&(label, _)| label))
        .map(BasisItem::content)
        .collect();
    let ordering: Vec<GroupOrder> = order
        .map(|(label, direction)| GroupOrder { label, direction })
        .into_iter()
        .collect();
    let w = witnesses(
        store,
        &Source::Trees(inner),
        inner_pattern,
        &basis,
        &ordering,
        true,
    )?;

    let mut parts: HashMap<u32, Vec<Part>> = HashMap::new();
    let mut seen: HashSet<(u32, u64)> = HashSet::new();
    // The keys met in the current row, with their first witness.
    let mut firsts: Vec<(u32, u32)> = Vec::new();
    for i in 0..w.len() as u32 {
        let row = w.tree_idx[i as usize];
        if i > 0 && w.tree_idx[i as usize - 1] != row {
            firsts.clear();
        }
        let key = w.key(i)[0];
        if key == NO_SYM {
            continue;
        }
        let first = match firsts.iter().find(|&&(k, _)| k == key) {
            Some(&(_, first)) => first,
            None => {
                firsts.push((key, i));
                i
            }
        };
        let tree = &inner[row as usize];
        let extracted = w.cells(i)[1..].iter().zip(&w.key(i)[1..]);
        for ((&node, &value), &(_, deep)) in extracted.zip(inner_extract) {
            if seen.insert((key, identity(tree, row, node))) {
                let part = Part {
                    row,
                    node,
                    deep,
                    value,
                    first,
                };
                parts.entry(key).or_default().push(part);
            }
        }
    }
    for bucket in parts.values_mut() {
        sort_members(store.dict(), &w, bucket, &ordering, |p| p.first);
    }

    let keys = first_keys(store, outer, outer_pattern, outer_label)?;
    let dict = store.dict();
    let tag = dict.intern(tag);
    Ok(outer
        .iter()
        .zip(keys)
        .filter_map(|(otree, key)| {
            // A tree the outer pattern does not match emits nothing.
            let (key, bound) = key?;
            let mut out = Tree::new_elem_sym(tag);
            out.append_vnode(out.root(), Some(otree), bound, true);
            let matched = parts.get(&key).map_or(&[][..], Vec::as_slice);
            match agg {
                Some((func, agg_tag)) => {
                    let values: Vec<f64> = match func {
                        AggFunc::Count => Vec::new(),
                        _ => matched
                            .iter()
                            .filter_map(|p| numeric(dict, p.value))
                            .collect(),
                    };
                    if let Some(v) = compute(func, matched.len(), &values) {
                        out.add_elem_with_content(dict, out.root(), agg_tag, format_value(v));
                    }
                }
                None => {
                    for p in matched {
                        let src = Some(&inner[p.row as usize]);
                        out.append_vnode(out.root(), src, p.node, p.deep);
                    }
                }
            }
            Some(out)
        })
        .collect())
}

/// A part's identity for the stitch's duplicate elimination: the stored
/// node it is, or — a constructed node has no global identity — its
/// position.
fn identity(tree: &Tree, row: u32, node: VNode) -> u64 {
    match node {
        VNode::Stored(e) => u64::from(e.id.0),
        VNode::Arena(i) => match &tree.node(i).kind {
            TreeNodeKind::Ref { node, .. } => u64::from(node.id.0),
            TreeNodeKind::Elem { .. } => 1 << 63 | u64::from(row) << 32 | i as u64,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::dupelim::dup_elim;
    use crate::ops::select::select_db;
    use crate::pattern::{Axis, Pred};
    use crate::tags;
    use xmlstore::StoreOptions;

    /// The Figure 6 sample database.
    const FIG6: &str = "<doc_root_inner>\
        <article><author>Jack</author><author>John</author><title>Querying XML</title></article>\
        <article><author>Jill</author><author>Jack</author><title>XML and the Web</title></article>\
        <article><author>John</author><title>Hack HTML</title></article>\
    </doc_root_inner>";

    fn store() -> DocumentStore {
        DocumentStore::from_xml(FIG6, &StoreOptions::in_memory()).unwrap()
    }

    fn outer_pattern() -> PatternTree {
        let mut p = PatternTree::with_root(Pred::tag("doc_root"));
        p.add_child(p.root(), Axis::Descendant, Pred::tag("author"));
        p
    }

    fn join_right_pattern() -> (PatternTree, PatternNodeId, PatternNodeId) {
        let mut p = PatternTree::with_root(Pred::tag("doc_root"));
        let art = p.add_child(p.root(), Axis::Descendant, Pred::tag("article"));
        let auth = p.add_child(art, Axis::Child, Pred::tag("author"));
        (p, art, auth)
    }

    /// Distinct-author trees (Fig. 7).
    fn distinct_authors(s: &DocumentStore) -> Collection {
        let p = outer_pattern();
        let sel = select_db(s, &p, &[1]).unwrap();
        dup_elim(s, sel, &p, 1).unwrap()
    }

    #[test]
    fn figure8_left_outer_join() {
        let s = store();
        let authors = distinct_authors(&s);
        assert_eq!(authors.len(), 3); // Jack, John, Jill
        let (right, art, auth) = join_right_pattern();
        let joined =
            left_outer_join_db(&s, &authors, &outer_pattern(), 1, &right, auth, &[art]).unwrap();
        // Jack: 2 articles; John: 2; Jill: 1 → 5 prod trees (Fig. 8).
        assert_eq!(joined.len(), 5);
        let e = joined[0].materialize(&s).unwrap();
        assert_eq!(e.name, tags::PROD_ROOT);
        // Left part (doc_root/author) + right witness (doc_root/article/author).
        assert_eq!(e.child_elements().count(), 2);
    }

    #[test]
    fn left_outer_preserves_unmatched() {
        let xml = "<bib><author>Orphan</author>\
            <article><author>Jack</author><title>T</title></article></bib>";
        let s = DocumentStore::from_xml(xml, &StoreOptions::in_memory()).unwrap();
        let authors = distinct_authors(&s);
        assert_eq!(authors.len(), 2);
        let (right, art, auth) = join_right_pattern();
        let joined =
            left_outer_join_db(&s, &authors, &outer_pattern(), 1, &right, auth, &[art]).unwrap();
        // Orphan joins nothing but survives; Jack joins one article.
        assert_eq!(joined.len(), 2);
        let solo: Vec<_> = joined
            .iter()
            .map(|t| t.materialize(&s).unwrap().child_elements().count())
            .collect();
        assert!(solo.contains(&1), "unmatched left tree must survive alone");
        assert!(solo.contains(&2));
    }

    #[test]
    fn right_adornment_controls_depth() {
        let s = store();
        let authors = distinct_authors(&s);
        let (right, art, auth) = join_right_pattern();
        // With SL = [article], titles are reachable in the prod trees.
        let joined =
            left_outer_join_db(&s, &authors, &outer_pattern(), 1, &right, auth, &[art]).unwrap();
        let any_title = joined.iter().any(|t| {
            t.materialize(&s)
                .unwrap()
                .descendants()
                .any(|e| e.name == "title")
        });
        assert!(any_title);
        // Without adornment, articles are shallow: no titles anywhere.
        let joined2 =
            left_outer_join_db(&s, &authors, &outer_pattern(), 1, &right, auth, &[]).unwrap();
        let any_title2 = joined2.iter().any(|t| {
            t.materialize(&s)
                .unwrap()
                .descendants()
                .any(|e| e.name == "title")
        });
        assert!(!any_title2);
    }

    #[test]
    fn unknown_labels_rejected() {
        let s = store();
        let (right, _, _) = join_right_pattern();
        assert!(left_outer_join_db(&s, &Vec::new(), &outer_pattern(), 9, &right, 2, &[]).is_err());
        assert!(left_outer_join_db(&s, &Vec::new(), &outer_pattern(), 1, &right, 9, &[]).is_err());
    }

    #[test]
    fn absent_contents_never_join() {
        // Structured authors have no content: the two dedup to one left
        // tree, whose key joins no database binding — not even the
        // article's equally structured author.
        let xml = "<bib><author><n>A</n></author>\
            <article><author><n>A</n></author><title>T</title></article></bib>";
        let s = DocumentStore::from_xml(xml, &StoreOptions::in_memory()).unwrap();
        let authors = distinct_authors(&s);
        assert_eq!(authors.len(), 1);
        let (right, art, auth) = join_right_pattern();
        let joined =
            left_outer_join_db(&s, &authors, &outer_pattern(), 1, &right, auth, &[art]).unwrap();
        assert_eq!(joined.len(), 1);
        let prod = joined[0].materialize(&s).unwrap();
        assert_eq!(prod.child_elements().count(), 1, "the left tree alone");
    }

    #[test]
    fn a_constructed_key_joins_the_stored_nodes_with_its_text() {
        let s = store();
        let mut left = Tree::new_elem(s.dict(), "doc_root");
        left.add_elem_with_content(s.dict(), left.root(), "author", "Jill");
        let (right, art, auth) = join_right_pattern();
        let joined =
            left_outer_join_db(&s, &[left], &outer_pattern(), 1, &right, auth, &[art]).unwrap();
        // Jill wrote one article: one pair, whose right part is it.
        assert_eq!(joined.len(), 1);
        let prod = joined[0].materialize(&s).unwrap();
        let article = prod.descendants().find(|e| e.name == "article").unwrap();
        assert_eq!(article.child("title").unwrap().text(), "XML and the Web");
    }
}
