//! The RETURN stitching of the naive plan (Sec. 4.1): a full outer join
//! on the key (realized as one hash pass over the inner collection),
//! fused with the final per-binding construction and rename — the kernel
//! behind the physical executor's `StitchConstruct` sink.

use std::collections::{HashMap, HashSet};
use tax::error::Result;
use tax::exec::{par_map, shard_map, ExecOptions, ShardStats};
use tax::matching::match_tree;
use tax::matching::vnode::{VNode, VTree};
use tax::ops::aggregate::AggFunc;
use tax::ops::groupby::Direction;
use tax::ops::keyenc;
use tax::pattern::{PatternNodeId, PatternTree};
use tax::tree::{Tree, TreeNodeKind};
use tax::Collection;
use xmlstore::DocumentStore;

/// One extracted part: the tree, its content (for aggregates), and its
/// ordering key.
struct Part {
    tree: Tree,
    content: Option<String>,
    order_key: Option<String>,
    rank: usize,
}

/// A part as it comes off one inner tree, before global dedup assigns
/// bucket ranks: the stitch key, the part's identity for duplicate
/// elimination, and the payload.
struct RawPart {
    key: String,
    part_id: u64,
    tree: Tree,
    content: Option<String>,
    order_key: Option<String>,
}

/// Extract the raw parts of one inner tree (every `inner_extract` node of
/// every binding, keyed by the `inner_label` content). Pure per-tree work,
/// fanned out by [`stitch_sharded`]; the cross-tree dedup happens in the
/// sequential merge that follows.
#[allow(clippy::too_many_arguments)]
fn extract_parts(
    store: &DocumentStore,
    tree_idx: usize,
    tree: &Tree,
    inner_pattern: &PatternTree,
    inner_label: PatternNodeId,
    inner_extract: &[(PatternNodeId, bool)],
    want_content: bool,
    order_label: Option<PatternNodeId>,
) -> Result<Vec<RawPart>> {
    let vt = VTree::new(store, tree);
    let mut out = Vec::new();
    for binding in match_tree(store, tree, inner_pattern, true)?.rows() {
        let Some(key) = vt.content(binding[inner_label])? else {
            continue;
        };
        for (label, deep) in inner_extract {
            let part_id = match binding[*label] {
                VNode::Stored(e) => e.id.0 as u64,
                VNode::Arena(i) => match &tree.node(i).kind {
                    TreeNodeKind::Ref { node, .. } => node.id.0 as u64,
                    // Constructed nodes have no global identity;
                    // distinguish by position.
                    TreeNodeKind::Elem { .. } => (1 << 40) | ((tree_idx as u64) << 20) | i as u64,
                },
            };
            let content = if want_content {
                vt.content(binding[*label])?
            } else {
                None
            };
            let order_key = match order_label {
                Some(olabel) => vt.content(binding[olabel])?,
                None => None,
            };
            out.push(RawPart {
                key: key.clone(),
                part_id,
                tree: Tree::from_vnode(Some(tree), binding[*label], *deep),
                content,
                order_key,
            });
        }
    }
    Ok(out)
}

/// Build the constructed element for one outer tree: the outer bound
/// node followed by its matched parts (or their aggregate). Pure — safe
/// to run per-shard once the parts table is frozen.
fn construct_one(
    dict: &xmlstore::Dictionary,
    tree: &Tree,
    bound: VNode,
    key: Option<&str>,
    parts: &HashMap<String, Vec<Part>>,
    agg: Option<(AggFunc, &str)>,
    tag: &str,
) -> Tree {
    let mut result = Tree::new_elem(dict, tag);
    // `{$a}` — the outer bound node, with its subtree.
    let root = result.root();
    result.append_vnode(root, Some(tree), bound, true);

    let matched: &[Part] = key
        .and_then(|k| parts.get(k))
        .map(Vec::as_slice)
        .unwrap_or(&[]);
    if let Some((func, agg_tag)) = agg {
        let values: Vec<f64> = matched
            .iter()
            .filter_map(|p| p.content.as_deref())
            .filter_map(|c| c.trim().parse::<f64>().ok())
            .collect();
        if let Some(v) = tax::ops::aggregate::compute(func, matched.len(), &values) {
            result.add_elem_with_content(dict, root, agg_tag, tax::ops::aggregate::format_value(v));
        }
    } else {
        for part in matched {
            result.append_subtree(root, &part.tree, part.tree.root());
        }
    }
    result
}

/// The stitch over `opts.threads` workers.
///
/// Part extraction fans out over the inner trees with `par_map` (in-order
/// results), then a **sequential** merge applies the naive plan's
/// cross-tree duplicate elimination — so bucket contents and ranks are
/// identical at every thread count. Outer trees then go through
/// [`shard_map`] routed by an FNV-1a hash of their stitch key; each shard
/// constructs its result elements against the frozen parts table, and the
/// merge re-emits them ordered by **outer input position**. Returns the
/// collection plus partition statistics (outer trees per shard).
#[allow(clippy::too_many_arguments)]
pub(crate) fn stitch_sharded(
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
    opts: &ExecOptions,
) -> Result<(Collection, ShardStats)> {
    // Bucket the extracted parts by key value, with the naive plan's
    // "duplicate elimination based on articles" (Sec. 4.1): an article
    // joining the same key through several paths (two same-valued
    // authors, two same-institution authors) contributes its extracted
    // nodes once. Identity is the extracted stored node. Extraction is
    // per-tree-parallel; the dedup merge walks the in-order results
    // sequentially so ranks match a serial pass.
    let raw: Vec<Vec<RawPart>> = par_map(opts, inner, |tree_idx, tree| {
        extract_parts(
            store,
            tree_idx,
            tree,
            inner_pattern,
            inner_label,
            inner_extract,
            agg.is_some(),
            order.map(|(olabel, _)| olabel),
        )
    })?;
    let mut parts: HashMap<String, Vec<Part>> = HashMap::new();
    let mut seen: HashSet<(String, u64)> = HashSet::new();
    for rp in raw.into_iter().flatten() {
        if !seen.insert((rp.key.clone(), rp.part_id)) {
            continue;
        }
        let bucket = parts.entry(rp.key).or_default();
        let rank = bucket.len();
        bucket.push(Part {
            tree: rp.tree,
            content: rp.content,
            order_key: rp.order_key,
            rank,
        });
    }

    // Apply the user's ORDER BY within each key.
    if let Some((_, dir)) = order {
        for bucket in parts.values_mut() {
            bucket.sort_by(|a, b| {
                let ord =
                    tax::value::compare_opt_values(a.order_key.as_deref(), b.order_key.as_deref());
                let ord = match dir {
                    Direction::Ascending => ord,
                    Direction::Descending => ord.reverse(),
                };
                ord.then(a.rank.cmp(&b.rank))
            });
        }
    }

    // Each outer tree's bound node and stitch key, in outer order
    // (`None` for trees whose pattern does not match — they emit
    // nothing).
    let keys: Vec<Option<(VNode, Option<String>)>> = par_map(opts, outer, |_, tree| {
        let vt = VTree::new(store, tree);
        let bindings = match_tree(store, tree, outer_pattern, false)?;
        match bindings.first() {
            Some(binding) => {
                let bound = binding[outer_label];
                Ok(Some((bound, vt.content(bound)?)))
            }
            None => Ok(None),
        }
    })?;

    let stitch_key = |oi: usize| keys[oi].as_ref().and_then(|(_, key)| key.as_deref());
    shard_map(
        opts,
        (0..outer.len()).collect(),
        |&oi| keyenc::hash_opt_str(stitch_key(oi)),
        |shard| {
            Ok(shard
                .into_iter()
                .filter_map(|oi| {
                    let (bound, _) = keys[oi].as_ref()?;
                    let tree = construct_one(
                        store.dict(),
                        &outer[oi],
                        *bound,
                        stitch_key(oi),
                        &parts,
                        agg,
                        tag,
                    );
                    Some((oi, tree))
                })
                .collect())
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::{execute, DEFAULT_BATCH_SIZE};
    use crate::{PlanMode, TimberDb};
    use xmlstore::StoreOptions;
    use xquery::Plan;

    const SAMPLE: &str = "<bib>\
        <article><title>Querying XML</title><author>Jack</author><author>John</author></article>\
        <article><title>XML and the Web</title><author>Jill</author><author>Jack</author></article>\
        <article><title>Hack HTML</title><author>John</author></article>\
    </bib>";

    fn db() -> TimberDb {
        TimberDb::load_xml(SAMPLE, &StoreOptions::in_memory()).unwrap()
    }

    fn run(db: &TimberDb, plan: &Plan) -> Collection {
        let opts = ExecOptions::sequential();
        execute(db.store(), plan, &opts, DEFAULT_BATCH_SIZE)
            .unwrap()
            .0
    }

    const QUERY2: &str = r#"
        FOR $a IN distinct-values(document("bib.xml")//author)
        LET $t := document("bib.xml")//article[author = $a]/title
        RETURN <authorpubs> {$a} {$t} </authorpubs>
    "#;

    #[test]
    fn fig7_outer_collection() {
        // The outer selection/projection/dup-elim produces one
        // doc_root/author tree per distinct author (Fig. 7).
        let db = db();
        let (plan, _) = db.compile(QUERY2, PlanMode::Direct).unwrap();
        let Plan::StitchConstruct { outer, .. } = &plan else {
            panic!()
        };
        let c = run(&db, outer);
        assert_eq!(c.len(), 3);
        let names: Vec<String> = c
            .iter()
            .map(|t| {
                t.materialize(db.store())
                    .unwrap()
                    .child("author")
                    .unwrap()
                    .text()
            })
            .collect();
        assert_eq!(names, ["Jack", "John", "Jill"]);
    }

    #[test]
    fn fig8_join_collection() {
        // The LOJ produces one TAX_prod_root tree per (author, article)
        // join pair (Fig. 8): Jack×2, John×2, Jill×1 = 5.
        let db = db();
        let (plan, _) = db.compile(QUERY2, PlanMode::Direct).unwrap();
        let Plan::StitchConstruct {
            inner: Some(inner), ..
        } = &plan
        else {
            panic!()
        };
        let c = run(&db, inner);
        assert_eq!(c.len(), 5);
    }

    #[test]
    fn query2_direct_equals_rewritten() {
        let db = db();
        let direct = db.query(QUERY2, PlanMode::Direct).unwrap();
        let grouped = db.query(QUERY2, PlanMode::GroupByRewrite).unwrap();
        assert!(grouped.rewritten);
        assert_eq!(
            direct.to_xml_on(db.store()).unwrap(),
            grouped.to_xml_on(db.store()).unwrap()
        );
    }

    #[test]
    fn count_query_values() {
        let db = db();
        let q = r#"
            FOR $a IN distinct-values(document("bib.xml")//author)
            LET $t := document("bib.xml")//article[author = $a]/title
            RETURN <authorpubs> {$a} {count($t)} </authorpubs>
        "#;
        for mode in [PlanMode::Direct, PlanMode::GroupByRewrite] {
            let r = db.query(q, mode).unwrap();
            let xml = r.to_xml_on(db.store()).unwrap();
            assert!(
                xml.contains("<authorpubs><author>Jack</author><count>2</count></authorpubs>"),
                "{mode:?}: {xml}"
            );
            assert!(
                xml.contains("<authorpubs><author>Jill</author><count>1</count></authorpubs>"),
                "{mode:?}: {xml}"
            );
        }
    }

    #[test]
    fn projection_only_query_evaluates() {
        let db = db();
        let q = r#"
            FOR $a IN distinct-values(document("bib.xml")//author)
            RETURN <row> {$a} </row>
        "#;
        let r = db.query(q, PlanMode::Direct).unwrap();
        let xml = r.to_xml_on(db.store()).unwrap();
        assert_eq!(
            xml,
            "<row><author>Jack</author></row>\n<row><author>John</author></row>\n<row><author>Jill</author></row>\n"
        );
    }

    #[test]
    fn empty_database_yields_empty_result() {
        let db = TimberDb::load_xml("<bib/>", &StoreOptions::in_memory()).unwrap();
        let r = db.query(QUERY2, PlanMode::Direct).unwrap();
        assert!(r.is_empty());
        let r = db.query(QUERY2, PlanMode::GroupByRewrite).unwrap();
        assert!(r.is_empty());
    }
}
