//! Value-based joins (Sec. 4.1).
//!
//! The naive parse of a nested FLWR generates a **left outer join**
//! between the outer bindings and the database (the "join-plan" pattern
//! tree of Fig. 4b), producing `TAX_prod_root` trees that pair each outer
//! tree with one matching witness from the database (Fig. 8); unmatched
//! outer trees survive alone. A **full outer join** stitches RETURN
//! arguments back together on a shared key.

use crate::error::Result;
use crate::exec::{par_map, shard_map, ExecOptions, ShardStats};
use crate::matching::vnode::VTree;
use crate::matching::{match_db, match_tree, Bindings};
use crate::ops::keyenc;
use crate::ops::select::witness_tree;
use crate::pattern::{PatternNodeId, PatternTree};
use crate::tree::{Collection, Tree};
use std::collections::HashMap;
use xmlstore::DocumentStore;

/// Left outer join of `left` against the stored database.
///
/// For each left tree, its join value is the content of the node bound by
/// `left_label` under `left_pattern`. The right side is matched once
/// against the database with `right_pattern`; a right binding joins when
/// the content of its `right_label` node equals the left value. Each
/// matching pair yields one `TAX_prod_root` tree holding the left tree
/// followed by the right witness tree (adorned by `right_sl`); a left
/// tree with no match yields a `TAX_prod_root` with the left part only.
#[allow(clippy::too_many_arguments)]
pub fn left_outer_join_db(
    store: &DocumentStore,
    left: &Collection,
    left_pattern: &PatternTree,
    left_label: PatternNodeId,
    right_pattern: &PatternTree,
    right_label: PatternNodeId,
    right_sl: &[PatternNodeId],
) -> Result<Collection> {
    Ok(left_outer_join_db_sharded(
        store,
        left,
        left_pattern,
        left_label,
        right_pattern,
        right_label,
        right_sl,
        &ExecOptions::sequential(),
    )?
    .0)
}

/// The join key of one left tree: the content of the node its first
/// `left_pattern` binding assigns to `left_label` (`None` when the tree
/// does not match or the node has no content). This is the value the
/// sharded sink partitions on.
pub fn left_join_key(
    store: &DocumentStore,
    tree: &Tree,
    left_pattern: &PatternTree,
    left_label: PatternNodeId,
) -> Result<Option<String>> {
    let bindings = match_tree(store, tree, left_pattern, false)?;
    match bindings.first() {
        Some(b) => VTree::new(store, tree).content(b[left_label]),
        None => Ok(None),
    }
}

/// [`left_outer_join_db`] over `opts.threads` workers: the blocking
/// sink's entry point.
///
/// The right side is matched against the database **once** and bucketed
/// by join value, shared read-only across workers. Each left tree's join
/// key is extracted in parallel (a per-tree pattern match, fanned out
/// over `opts.threads`); left trees then go through [`shard_map`] routed
/// by an FNV-1a hash of that key, every shard probes the shared buckets
/// and builds its `TAX_prod_root` trees independently, and the merge
/// re-emits the per-tree outputs ordered by **left input position** —
/// byte-identical to a serial walk of the left collection.
///
/// Returns the joined collection plus partition statistics (left trees
/// per shard) for the metrics tree.
#[allow(clippy::too_many_arguments)]
pub fn left_outer_join_db_sharded(
    store: &DocumentStore,
    left: &Collection,
    left_pattern: &PatternTree,
    left_label: PatternNodeId,
    right_pattern: &PatternTree,
    right_label: PatternNodeId,
    right_sl: &[PatternNodeId],
    opts: &ExecOptions,
) -> Result<(Collection, ShardStats)> {
    if left_label >= left_pattern.len() {
        return Err(crate::error::Error::UnknownLabel(format!(
            "${}",
            left_label + 1
        )));
    }
    if right_label >= right_pattern.len() {
        return Err(crate::error::Error::UnknownLabel(format!(
            "${}",
            right_label + 1
        )));
    }

    // Match the right side once; bucket bindings by join value
    // (a data look-up per binding — part of the direct plan's cost).
    let right_bindings = match_db(store, right_pattern)?;
    let mut buckets: HashMap<String, Vec<usize>> = HashMap::new();
    for (i, e) in right_bindings.column(right_label).iter().enumerate() {
        if let Some(v) = store.content(e.id)? {
            buckets.entry(v).or_default().push(i);
        }
    }

    // Parallel key extraction, in left order.
    let keys: Vec<Option<String>> = par_map(opts, left, |_, ltree| {
        left_join_key(store, ltree, left_pattern, left_label)
    })?;

    let (per_left, stats) = shard_map(
        opts,
        (0..left.len()).collect(),
        |&li| keyenc::hash_opt_str(keys[li].as_deref()),
        |shard| {
            shard
                .into_iter()
                .map(|li| {
                    let joined = join_one(
                        store,
                        &left[li],
                        keys[li].as_deref(),
                        &buckets,
                        &right_bindings,
                        right_pattern,
                        right_sl,
                    )?;
                    Ok((li, joined))
                })
                .collect()
        },
    )?;
    Ok((per_left.into_iter().flatten().collect(), stats))
}

/// The per-left-tree join kernel: probe the right buckets with the
/// tree's join key and emit its `TAX_prod_root` trees (the unmatched
/// tree survives alone).
fn join_one(
    store: &DocumentStore,
    ltree: &Tree,
    key: Option<&str>,
    buckets: &HashMap<String, Vec<usize>>,
    right_bindings: &Bindings,
    right_pattern: &PatternTree,
    right_sl: &[PatternNodeId],
) -> Result<Vec<Tree>> {
    let matches: &[usize] = key
        .and_then(|v| buckets.get(v))
        .map(Vec::as_slice)
        .unwrap_or(&[]);
    if matches.is_empty() {
        let mut prod = Tree::new_elem(store.dict(), crate::tags::PROD_ROOT);
        prod.append_subtree(prod.root(), ltree, ltree.root());
        return Ok(vec![prod]);
    }
    let mut out = Vec::with_capacity(matches.len());
    for &ri in matches {
        let mut prod = Tree::new_elem(store.dict(), crate::tags::PROD_ROOT);
        prod.append_subtree(prod.root(), ltree, ltree.root());
        let w = witness_tree(None, right_pattern, right_bindings.row(ri), right_sl);
        prod.append_subtree(prod.root(), &w, w.root());
        out.push(prod);
    }
    Ok(out)
}

/// Full outer join of two in-memory collections on the contents of
/// pattern-bound nodes — the "stitching" of RETURN arguments.
///
/// Trees pair when their key contents are equal; unmatched trees from
/// either side survive alone under their own `TAX_prod_root`.
pub fn full_outer_join(
    store: &DocumentStore,
    left: &Collection,
    left_pattern: &PatternTree,
    left_label: PatternNodeId,
    right: &Collection,
    right_pattern: &PatternTree,
    right_label: PatternNodeId,
) -> Result<Collection> {
    let key_of =
        |tree: &Tree, pattern: &PatternTree, label: PatternNodeId| -> Result<Option<String>> {
            let bindings = match_tree(store, tree, pattern, false)?;
            match bindings.first() {
                Some(b) => VTree::new(store, tree).content(b[label]),
                None => Ok(None),
            }
        };

    let mut right_keys: Vec<Option<String>> = Vec::with_capacity(right.len());
    for r in right {
        right_keys.push(key_of(r, right_pattern, right_label)?);
    }
    let mut right_used = vec![false; right.len()];

    let mut out = Vec::new();
    for l in left {
        let lk = key_of(l, left_pattern, left_label)?;
        let mut matched = false;
        if lk.is_some() {
            for (i, rk) in right_keys.iter().enumerate() {
                if *rk == lk {
                    right_used[i] = true;
                    matched = true;
                    let mut prod = Tree::new_elem(store.dict(), crate::tags::PROD_ROOT);
                    prod.append_subtree(prod.root(), l, l.root());
                    prod.append_subtree(prod.root(), &right[i], right[i].root());
                    out.push(prod);
                }
            }
        }
        if !matched {
            let mut prod = Tree::new_elem(store.dict(), crate::tags::PROD_ROOT);
            prod.append_subtree(prod.root(), l, l.root());
            out.push(prod);
        }
    }
    for (i, used) in right_used.iter().enumerate() {
        if !used {
            let mut prod = Tree::new_elem(store.dict(), crate::tags::PROD_ROOT);
            prod.append_subtree(prod.root(), &right[i], right[i].root());
            out.push(prod);
        }
    }
    Ok(out)
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
    fn full_outer_join_pairs_and_leftovers() {
        let s = store();
        // Left: author name trees; right: one tree sharing a key plus one
        // unmatched.
        let mk = |tag: &str, content: &str| -> Tree {
            let mut t = Tree::new_elem(s.dict(), "wrap");
            t.add_elem_with_content(s.dict(), t.root(), tag, content);
            t
        };
        let left = vec![mk("author", "Jack"), mk("author", "Ghost")];
        let right = vec![mk("author", "Jack"), mk("author", "Jill")];
        let mut lp = PatternTree::with_root(Pred::tag("wrap"));
        let ll = lp.add_child(lp.root(), Axis::Child, Pred::tag("author"));
        let joined = full_outer_join(&s, &left, &lp, ll, &right, &lp, ll).unwrap();
        // Jack×Jack pair + Ghost alone + Jill alone = 3.
        assert_eq!(joined.len(), 3);
        let sizes: Vec<usize> = joined
            .iter()
            .map(|t| t.materialize(&s).unwrap().child_elements().count())
            .collect();
        assert_eq!(sizes.iter().filter(|&&n| n == 2).count(), 1);
        assert_eq!(sizes.iter().filter(|&&n| n == 1).count(), 2);
    }

    #[test]
    fn unknown_labels_rejected() {
        let s = store();
        let (right, _, _) = join_right_pattern();
        assert!(left_outer_join_db(&s, &Vec::new(), &outer_pattern(), 9, &right, 2, &[]).is_err());
        assert!(left_outer_join_db(&s, &Vec::new(), &outer_pattern(), 1, &right, 9, &[]).is_err());
    }
}
