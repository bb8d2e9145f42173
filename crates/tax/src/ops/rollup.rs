//! The fused grouped-aggregate rollup (the streaming counterpart of
//! `GROUPBY` + aggregation).
//!
//! When grouped trees exist only to be counted/summed and immediately
//! discarded — the paper's E2 workload, and the XOLAP rollup formulation
//! of Hachicha & Darmont — materializing a `TAX_group_root` tree with a
//! full member list per group is pure overhead. `rollup` instead
//! accumulates per-basis-key aggregate state directly from the input
//! scan, each key's group found through a `keyenc::GroupIndex`:
//!
//! * witnesses come from the same extraction as
//!   [`super::groupby::groupby`]'s (`super::witness`: same keys,
//!   same multi-valued-basis semantics — a two-author article
//!   contributes to both authors' accumulators, and the same row enters
//!   a given group only once);
//! * each input row's aggregate contribution (its member-pattern
//!   binding count and numeric values) is computed once — for stored
//!   rows by one anchored [`for_each_match`], counted as each embedding
//!   arrives — and folded into the group's **running** accumulators in
//!   member arrival order — Count/Sum/Min/Max as scalars, Avg as sum +
//!   count — so the folds replay the materialized kernel's
//!   `values.iter()` order bit for bit;
//! * each group emits one small output tree
//!   `TAX_group_root { TAX_grouping_basis {…}, <tag>value</tag> }` in
//!   first-witness order, with basis children built by the same routine
//!   as the group trees' — no member subtrees, ever.
//!
//! The member subroot is omitted, so the rollup output is
//! `GroupBy → Aggregate` minus what only a consumer binding
//! `TAX_group_subroot` could see. The grouping rewrite (in `xquery`)
//! emits the rollup for Sec. 4.3's count variant in place of `Project ∘
//! Aggregate ∘ GroupBy`; the kernel tests below hold it to that pipeline.
//!
//! With [`RollupShape::Flat`] — the shape the rewrite asks for — the
//! kernel also applies that final projection: it emits
//! `TAX_group_root { <key subtree>, <tag>value</tag> }` — no basis
//! wrapper, and over stored rows as one-level [`Rows`], no tree — and
//! **drops** groups whose aggregate is undefined, exactly as the
//! projection (whose pattern requires the value child) would.
//!
//! The accumulation is `fold_levels`, a fold over a range of
//! basis-prefix levels: a rollup asks for the single finest level, the
//! grouping lattice ([`super::cube`](mod@super::cube)) for all of them.

use crate::batch::{Batch, Rows, Source};
use crate::error::{Error, Result};
use crate::exec::Stages;
use crate::matching::vnode::VTree;
use crate::matching::{for_each_match, match_tree};
use crate::ops::aggregate::{format_value, numeric, AggFunc};
use crate::ops::groupby::{add_basis_children, stored_basis, BasisItem};
use crate::ops::keyenc::{component, GroupIndex};
use crate::ops::witness::{witnesses, Witnesses};
use crate::pattern::{PatternNodeId, PatternTree};
use crate::tree::{Tree, TreeNodeKind};
use std::collections::HashMap;
use std::ops::RangeInclusive;
use std::time::Instant;
use xmlstore::{Dictionary, DocumentStore, Sym};

/// The output tree shape of a rollup run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RollupShape {
    /// `TAX_group_root { TAX_grouping_basis {…}, <tag>v</tag> }` — the
    /// materialized group-tree shape minus the member subroot; groups
    /// with an undefined aggregate are emitted without the value child.
    Grouped,
    /// `TAX_group_root { <key subtree>, <tag>v</tag> }` — the downstream
    /// projection pre-applied; groups with an undefined aggregate are
    /// dropped (the projection's pattern requires the value child).
    Flat,
}

/// One input row's aggregate contribution: what the materialized
/// `Aggregate` would see for this row as a group member.
#[derive(Clone, Default)]
struct Contribution {
    /// Member-pattern bindings (what COUNT counts).
    bindings: usize,
    /// Numeric values at the aggregated label, in binding order (empty
    /// for COUNT, which never fetches values).
    values: Vec<f64>,
}

/// Running accumulator state of one group.
struct GroupAcc {
    /// The witness that created the group: its key prefix and basis
    /// cells are the group's, its ordinal the group's arrival position.
    first: u32,
    /// Last input row folded in (member dedup: same-key witnesses of
    /// one row are consecutive, exactly as in group formation).
    last_member: Option<u32>,
    bindings: usize,
    values: usize,
    sum: f64,
    min: Option<f64>,
    max: Option<f64>,
}

impl GroupAcc {
    fn fold(&mut self, c: &Contribution) {
        self.bindings += c.bindings;
        for &v in &c.values {
            self.values += 1;
            self.sum += v;
            self.min = Some(self.min.map_or(v, |m| m.min(v)));
            self.max = Some(self.max.map_or(v, |m| m.max(v)));
        }
    }

    /// The finished aggregate value; `None` when undefined (Min/Max/Avg
    /// over no numeric values), mirroring `aggregate::compute` — every
    /// arm replays the same left fold the batch kernel runs over the
    /// gathered value slice.
    fn finish(&self, func: AggFunc) -> Option<f64> {
        match func {
            AggFunc::Count => Some(self.bindings as f64),
            AggFunc::Sum => Some(self.sum),
            AggFunc::Min => self.min,
            AggFunc::Max => self.max,
            AggFunc::Avg => {
                if self.values == 0 {
                    None
                } else {
                    Some(self.sum / self.values as f64)
                }
            }
        }
    }
}

/// Streaming grouped aggregation: the blocking sink's kernel. A rollup
/// is the finest level of the grouping lattice — the prefix-level fold
/// (`fold_levels`) run over the single level `basis.len()`. Returns the
/// groups — rows in the flat shape over stored rows, trees otherwise —
/// and the sink's stage times.
#[allow(clippy::too_many_arguments)]
pub fn rollup<'a>(
    store: &DocumentStore,
    input: impl Into<Source<'a>>,
    pattern: &PatternTree,
    basis: &[BasisItem],
    member_pattern: &PatternTree,
    of: PatternNodeId,
    func: AggFunc,
    new_tag: &str,
    shape: RollupShape,
) -> Result<(Batch, Stages)> {
    fold_levels(
        store,
        &input.into(),
        pattern,
        basis,
        member_pattern,
        of,
        func,
        new_tag,
        basis.len()..=basis.len(),
        shape,
    )
}

/// The prefix-level fold behind both [`rollup`] and
/// [`cube`](super::cube::cube): one extraction, then one pass that
/// accumulates every level in `levels` (level `k` groups on the first
/// `k` basis items). Levels emit coarsest first, groups in
/// first-witness order within a level. Returns the output plus the
/// stage times for the metrics tree.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fold_levels(
    store: &DocumentStore,
    input: &Source,
    pattern: &PatternTree,
    basis: &[BasisItem],
    member_pattern: &PatternTree,
    of: PatternNodeId,
    func: AggFunc,
    new_tag: &str,
    levels: RangeInclusive<usize>,
    shape: RollupShape,
) -> Result<(Batch, Stages)> {
    if of >= member_pattern.len() {
        return Err(Error::UnknownLabel(format!("${}", of + 1)));
    }
    let clock = Instant::now();
    let w = witnesses(store, input, pattern, basis, &[], false)?;
    let witness = clock.elapsed();
    let contributions = contributions(store, input, member_pattern, of, func)?;
    let contributed = clock.elapsed() - witness;
    let groups = fold_groups(&w, &contributions, levels.clone());
    let fold = clock.elapsed() - witness - contributed;
    let out = build(
        store.dict(),
        input,
        &w,
        func,
        new_tag,
        levels,
        shape,
        groups,
    );
    let build = clock.elapsed() - witness - contributed - fold;
    Ok((out, [witness, contributed, fold, build]))
}

/// Each input row's aggregate contribution. Member bindings anchor at
/// the row's root: inside a group tree the member label binds exactly
/// the subroot's member children, i.e. this row.
fn contributions(
    store: &DocumentStore,
    input: &Source,
    member_pattern: &PatternTree,
    of: PatternNodeId,
    func: AggFunc,
) -> Result<Vec<Contribution>> {
    let dict = store.dict();
    match input {
        Source::Stored(rows) => {
            let mut out = vec![Contribution::default(); rows.len()];
            let cols = store.columns();
            for_each_match(store, member_pattern, rows, true, |row, m| {
                let c = &mut out[row as usize];
                c.bindings += 1;
                if func != AggFunc::Count {
                    c.values
                        .extend(numeric(dict, cols.content[m[of].id.0 as usize]));
                }
            })?;
            Ok(out)
        }
        Source::Trees(trees) => trees
            .iter()
            .map(|tree| {
                let table = match_tree(store, tree, member_pattern, true)?;
                let mut c = Contribution {
                    bindings: table.len(),
                    values: Vec::new(),
                };
                if func != AggFunc::Count {
                    let vt = VTree::new(store, tree);
                    for v in table.column(of) {
                        c.values
                            .extend(numeric(dict, component(vt.content_sym(*v))));
                    }
                }
                Ok(c)
            })
            .collect(),
    }
}

/// Accumulation over the witnesses in arrival order — the rollup
/// counterpart of the groupby's `form_groups`. One pass folds **every**
/// level in `levels`: the level-`k` accumulator of a witness is addressed
/// by the key prefix `key[..k]`, so a coarser level grows from the same
/// contributions as the finest without rescanning. Returns each level's
/// groups in first-witness order.
fn fold_groups(
    w: &Witnesses,
    contributions: &[Contribution],
    levels: RangeInclusive<usize>,
) -> Vec<Vec<GroupAcc>> {
    let ids = 0..w.len() as u32;
    let mut index: Vec<GroupIndex> = levels
        .clone()
        .map(|level| GroupIndex::new(ids.clone().map(|i| &w.key(i)[..level])))
        .collect();
    let mut groups: Vec<Vec<GroupAcc>> = levels.clone().map(|_| Vec::new()).collect();
    for i in ids {
        let row = w.tree_idx[i as usize];
        for (slot, level) in levels.clone().enumerate() {
            let level_groups = &mut groups[slot];
            let gid = index[slot].group(&w.key(i)[..level], level_groups.len());
            if gid == level_groups.len() {
                level_groups.push(GroupAcc {
                    first: i,
                    last_member: None,
                    bindings: 0,
                    values: 0,
                    sum: 0.0,
                    min: None,
                    max: None,
                });
            }
            // Member dedup is per level: a row reaching one journal
            // group through two authors still folds once at the journal
            // level (the stream is collection-major, so a group's
            // same-row witnesses arrive before any later row's).
            let acc = &mut level_groups[gid];
            if acc.last_member != Some(row) {
                acc.last_member = Some(row);
                acc.fold(&contributions[row as usize]);
            }
        }
    }
    groups
}

/// One output row per folded group, level-major: a one-level row in the
/// flat shape over stored rows, a tree otherwise.
#[allow(clippy::too_many_arguments)]
fn build(
    dict: &Dictionary,
    input: &Source,
    w: &Witnesses,
    func: AggFunc,
    new_tag: &str,
    levels: RangeInclusive<usize>,
    shape: RollupShape,
    groups: Vec<Vec<GroupAcc>>,
) -> Batch {
    // The tags are the same for every group and the values repeat (most
    // counts are small), so each is interned once, not once per tree.
    let root_tag = dict.intern(crate::tags::GROUP_ROOT);
    let value_tag = dict.intern(new_tag);
    let mut value_syms: HashMap<u64, Sym> = HashMap::new();
    let mut rows = match (shape, input) {
        (RollupShape::Flat, Source::Stored(stored)) => Some((Rows::new(root_tag), stored)),
        _ => None,
    };
    let mut out = Vec::new();
    for (level, level_groups) in levels.zip(groups) {
        for acc in level_groups {
            // The materialized Aggregate leaves a group tree unchanged
            // when no binding exists or the aggregate is undefined; the
            // grouped shape emits the tree without the value child to
            // match (the downstream projection drops such groups), and
            // the flat shape — the projection pre-applied — drops the
            // group outright.
            let value = if acc.bindings > 0 {
                acc.finish(func)
            } else {
                None
            };
            if value.is_none() && shape == RollupShape::Flat {
                continue;
            }
            let value = value.map(|v| TreeNodeKind::Elem {
                tag: value_tag,
                content: Some(
                    *value_syms
                        .entry(v.to_bits())
                        .or_insert_with(|| dict.intern(&format_value(v))),
                ),
            });
            if let Some((rows, stored)) = &mut rows {
                let keys = stored_basis(stored, w, acc.first, level, true);
                rows.push(keys.chain(value));
                continue;
            }
            let mut tree = Tree::new_elem_sym(root_tag);
            let root = tree.root();
            let basis_root = match shape {
                RollupShape::Grouped => tree.add_elem(dict, root, crate::tags::GROUPING_BASIS),
                RollupShape::Flat => root,
            };
            // The flat shape pre-applies the consumer's deep key
            // projection, so structured key nodes must materialize their
            // whole subtree.
            add_basis_children(
                &mut tree,
                basis_root,
                input,
                w,
                acc.first,
                level,
                shape == RollupShape::Flat,
            );
            if let Some(value) = value {
                tree.add_node(root, value);
            }
            out.push(tree);
        }
    }
    rows.map_or(Batch::Trees(out), |(rows, _)| Batch::Rows(rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::aggregate::{aggregate, UpdateSpec};
    use crate::ops::groupby::groupby;
    use crate::ops::project::{project, ProjectItem};
    use crate::pattern::{Axis, Pred};
    use crate::tags;
    use crate::tree::Collection;
    use xmlstore::StoreOptions;

    const SAMPLE: &str = "<bib>\
        <article><title>Querying XML</title><author>Jack</author><author>John</author><year>1999</year></article>\
        <article><title>XML and the Web</title><author>Jill</author><author>Jack</author><year>2001</year></article>\
        <article><title>Hack HTML</title><author>John</author><year>2002</year></article>\
    </bib>";

    fn store() -> DocumentStore {
        DocumentStore::from_xml(SAMPLE, &StoreOptions::in_memory()).unwrap()
    }

    fn articles(s: &DocumentStore) -> Collection {
        let article = s.tag_id("article").unwrap();
        s.nodes_with_tag(article)
            .iter()
            .map(|e| Tree::new_ref(*e, true))
            .collect()
    }

    /// article -pc-> author, grouped on the author content.
    fn grouping() -> (PatternTree, Vec<BasisItem>) {
        let mut p = PatternTree::with_root(Pred::tag("article"));
        let author = p.add_child(p.root(), Axis::Child, Pred::tag("author"));
        (p, vec![BasisItem::content(author)])
    }

    /// article -pc-> <leaf>, the member-side aggregate pattern.
    fn member(leaf: &str) -> (PatternTree, PatternNodeId) {
        let mut p = PatternTree::with_root(Pred::tag("article"));
        let l = p.add_child(p.root(), Axis::Child, Pred::tag(leaf));
        (p, l)
    }

    /// The materialized reference: GroupBy, then Aggregate over the
    /// group trees with the canonical root→subroot→member pattern.
    fn materialized(
        s: &DocumentStore,
        input: &Collection,
        leaf: &str,
        func: AggFunc,
        new_tag: &str,
    ) -> Collection {
        let (mp, of) = member(leaf);
        materialized_star(s, input, &mp, of, func, new_tag)
    }

    /// [`materialized`] for any star member pattern (a root with leaf
    /// children): the star is re-rooted under root→subroot.
    fn materialized_star(
        s: &DocumentStore,
        input: &Collection,
        member: &PatternTree,
        of: PatternNodeId,
        func: AggFunc,
        new_tag: &str,
    ) -> Collection {
        let (gp, basis) = grouping();
        let groups = groupby(s, input, &gp, &basis, &[]).unwrap().0.into_trees();
        let mut ap = PatternTree::with_root(Pred::tag(tags::GROUP_ROOT));
        let subroot = ap.add_child(ap.root(), Axis::Child, Pred::tag(tags::GROUP_SUBROOT));
        let m = ap.add_child(
            subroot,
            Axis::Child,
            member.node(member.root()).pred.clone(),
        );
        let mut of_in_ap = m;
        for (pid, node) in member.iter().filter(|(pid, _)| *pid != member.root()) {
            assert_eq!(node.parent, Some(member.root()), "a star has leaf children");
            let leaf = ap.add_child(m, node.axis, node.pred.clone());
            if pid == of {
                of_in_ap = leaf;
            }
        }
        aggregate(
            s,
            groups,
            &ap,
            func,
            of_in_ap,
            new_tag,
            UpdateSpec::AfterLastChild(0),
        )
        .unwrap()
    }

    /// Project both sides down to root/basis/value — the only consumer
    /// shape the fusion admits — and serialize.
    fn projected_xml(s: &DocumentStore, c: &Collection, new_tag: &str) -> Vec<String> {
        let mut fp = PatternTree::with_root(Pred::tag(tags::GROUP_ROOT));
        let b = fp.add_child(fp.root(), Axis::Child, Pred::tag(tags::GROUPING_BASIS));
        let key = fp.add_child(b, Axis::Child, Pred::tag("author"));
        let agg = fp.add_child(fp.root(), Axis::Child, Pred::tag(new_tag));
        let pl = vec![
            ProjectItem::shallow(fp.root()),
            ProjectItem::deep(key),
            ProjectItem::deep(agg),
        ];
        project(s, c, &fp, &pl, true)
            .unwrap()
            .iter()
            .map(|t| xmlparse::serialize::element_to_string(&t.materialize(s).unwrap()))
            .collect()
    }

    #[test]
    fn rollup_matches_materialized_pipeline_for_every_func() {
        let s = store();
        let arts = articles(&s);
        let (gp, basis) = grouping();
        for (leaf, func, tag) in [
            ("title", AggFunc::Count, "count"),
            ("year", AggFunc::Sum, "sum"),
            ("year", AggFunc::Min, "min"),
            ("year", AggFunc::Max, "max"),
            ("year", AggFunc::Avg, "avg"),
        ] {
            let (mp, of) = member(leaf);
            let fused = rollup(
                &s,
                &arts,
                &gp,
                &basis,
                &mp,
                of,
                func,
                tag,
                RollupShape::Grouped,
            )
            .unwrap()
            .0
            .into_trees();
            let reference = materialized(&s, &arts, leaf, func, tag);
            assert_eq!(fused.len(), reference.len(), "{func:?}");
            assert_eq!(
                projected_xml(&s, &fused, tag),
                projected_xml(&s, &reference, tag),
                "{func:?}"
            );
        }
    }

    #[test]
    fn multi_valued_basis_contributes_to_every_group() {
        // The two-author articles must count for both authors.
        let s = store();
        let arts = articles(&s);
        let (gp, basis) = grouping();
        let (mp, of) = member("title");
        let out = rollup(
            &s,
            &arts,
            &gp,
            &basis,
            &mp,
            of,
            AggFunc::Count,
            "count",
            RollupShape::Grouped,
        )
        .unwrap()
        .0
        .into_trees();
        // First-witness order: Jack, John, Jill.
        let counts: Vec<(String, String)> = out
            .iter()
            .map(|t| {
                let e = t.materialize(&s).unwrap();
                (
                    e.child(tags::GROUPING_BASIS)
                        .unwrap()
                        .child("author")
                        .unwrap()
                        .text(),
                    e.child("count").unwrap().text(),
                )
            })
            .collect();
        assert_eq!(
            counts,
            [
                ("Jack".into(), "2".into()),
                ("John".into(), "2".into()),
                ("Jill".into(), "1".into()),
            ]
        );
        // No member subroot is ever built.
        for t in &out {
            assert!(t
                .materialize(&s)
                .unwrap()
                .child(tags::GROUP_SUBROOT)
                .is_none());
        }
    }

    #[test]
    fn undefined_aggregate_omits_the_value_child() {
        // Min over a label with no numeric content: the materialized
        // path passes the group tree through unchanged; the rollup tree
        // must omit the value child.
        let s = store();
        let arts = articles(&s);
        let (gp, basis) = grouping();
        let (mp, of) = member("title");
        let out = rollup(
            &s,
            &arts,
            &gp,
            &basis,
            &mp,
            of,
            AggFunc::Min,
            "min",
            RollupShape::Grouped,
        )
        .unwrap()
        .0
        .into_trees();
        assert_eq!(out.len(), 3);
        for t in &out {
            assert!(t.materialize(&s).unwrap().child("min").is_none());
        }
    }

    #[test]
    fn flat_shape_equals_the_projected_grouped_output() {
        // Flat absorbs the downstream projection: its trees must be
        // byte-identical to Project over the grouped rollup output.
        let s = store();
        let arts = articles(&s);
        let (gp, basis) = grouping();
        for (leaf, func, tag) in [
            ("title", AggFunc::Count, "count"),
            ("year", AggFunc::Sum, "sum"),
            ("year", AggFunc::Avg, "avg"),
        ] {
            let (mp, of) = member(leaf);
            let grouped = rollup(
                &s,
                &arts,
                &gp,
                &basis,
                &mp,
                of,
                func,
                tag,
                RollupShape::Grouped,
            )
            .unwrap()
            .0
            .into_trees();
            let flat = rollup(
                &s,
                &arts,
                &gp,
                &basis,
                &mp,
                of,
                func,
                tag,
                RollupShape::Flat,
            )
            .unwrap()
            .0
            .into_trees();
            let flat_xml: Vec<String> = flat
                .iter()
                .map(|t| xmlparse::serialize::element_to_string(&t.materialize(&s).unwrap()))
                .collect();
            assert_eq!(flat_xml, projected_xml(&s, &grouped, tag), "{func:?}");
            // No basis wrapper survives in the flat shape.
            for x in &flat_xml {
                assert!(!x.contains(tags::GROUPING_BASIS), "{x}");
            }
        }
    }

    #[test]
    fn flat_shape_deep_copies_structured_basis_keys() {
        // Ragged hierarchy: one author's name is nested below <author>.
        // The flat shape pre-applies the consumer's deep key projection,
        // so the key child must carry the whole subtree — a shallow copy
        // would emit a childless <author/> and silently diverge from the
        // materialized pipeline (the parity bug this pins).
        let s = DocumentStore::from_xml(
            "<bib>\
                <article><title>A</title><author><name>Jack</name></author><year>1999</year></article>\
                <article><title>B</title><author>Jill</author><year>2001</year></article>\
            </bib>",
            &StoreOptions::in_memory(),
        )
        .unwrap();
        let arts = articles(&s);
        let (gp, basis) = grouping();
        let (mp, of) = member("year");
        let grouped = rollup(
            &s,
            &arts,
            &gp,
            &basis,
            &mp,
            of,
            AggFunc::Sum,
            "sum",
            RollupShape::Grouped,
        )
        .unwrap()
        .0
        .into_trees();
        let flat = rollup(
            &s,
            &arts,
            &gp,
            &basis,
            &mp,
            of,
            AggFunc::Sum,
            "sum",
            RollupShape::Flat,
        )
        .unwrap()
        .0
        .into_trees();
        let flat_xml: Vec<String> = flat
            .iter()
            .map(|t| xmlparse::serialize::element_to_string(&t.materialize(&s).unwrap()))
            .collect();
        assert_eq!(flat_xml, projected_xml(&s, &grouped, "sum"));
        assert!(
            flat_xml
                .iter()
                .any(|x| x.contains("<author><name>Jack</name></author>")),
            "structured key must keep its subtree: {flat_xml:?}"
        );
        assert!(
            flat_xml.iter().all(|x| !x.contains("<author/>")),
            "no key child may collapse to an empty element: {flat_xml:?}"
        );
    }

    #[test]
    fn flat_shape_drops_groups_with_an_undefined_aggregate() {
        // Min over non-numeric content is undefined for every group; the
        // projection the flat shape absorbs would drop each such tree
        // (no bound aggregate child), so the flat rollup emits nothing.
        let s = store();
        let arts = articles(&s);
        let (gp, basis) = grouping();
        let (mp, of) = member("title");
        let out = rollup(
            &s,
            &arts,
            &gp,
            &basis,
            &mp,
            of,
            AggFunc::Min,
            "min",
            RollupShape::Flat,
        )
        .unwrap()
        .0
        .into_trees();
        assert!(out.is_empty(), "{} trees", out.len());
    }

    #[test]
    fn arena_trees_take_the_tree_source_with_identical_results() {
        // In-memory (arena) article trees are not stored rows, so the
        // witnesses come from the per-tree matcher; the results must be
        // what the stored source produces for the same logical content.
        let s = store();
        let stored = articles(&s);
        let mut arena: Collection = Vec::new();
        for (authors, title) in [
            (vec!["Jack", "John"], "Querying XML"),
            (vec!["Jill", "Jack"], "XML and the Web"),
            (vec!["John"], "Hack HTML"),
        ] {
            let mut t = Tree::new_elem(s.dict(), "article");
            t.add_elem_with_content(s.dict(), t.root(), "title", title);
            for a in authors {
                t.add_elem_with_content(s.dict(), t.root(), "author", a);
            }
            arena.push(t);
        }
        assert!(matches!(Source::from(&arena), Source::Trees(_)));
        assert!(matches!(Source::from(&stored), Source::Stored(_)));
        let (gp, basis) = grouping();
        let (mp, of) = member("title");
        let from_arena = rollup(
            &s,
            &arena,
            &gp,
            &basis,
            &mp,
            of,
            AggFunc::Count,
            "count",
            RollupShape::Grouped,
        )
        .unwrap()
        .0
        .into_trees();
        let from_stored = rollup(
            &s,
            &stored,
            &gp,
            &basis,
            &mp,
            of,
            AggFunc::Count,
            "count",
            RollupShape::Grouped,
        )
        .unwrap()
        .0
        .into_trees();
        let counts = |c: &Collection| -> Vec<(String, String)> {
            c.iter()
                .map(|t| {
                    let e = t.materialize(&s).unwrap();
                    (
                        e.child(tags::GROUPING_BASIS)
                            .unwrap()
                            .child("author")
                            .unwrap()
                            .text(),
                        e.child("count").unwrap().text(),
                    )
                })
                .collect()
        };
        assert_eq!(counts(&from_arena), counts(&from_stored));
    }

    #[test]
    fn count_star_fast_path_matches_groupby_then_aggregate() {
        // Member-pattern shapes that stress the star decomposition:
        // multiple children, duplicate child tags (the product counts
        // ordered binding tuples), descendant axis, an absent tag, and a
        // root tag no scope carries.
        let s = store();
        let arts = articles(&s);
        let (gp, basis) = grouping();
        let shapes: Vec<(PatternTree, PatternNodeId)> = vec![
            member("title"),
            member("author"),
            {
                // article -pc-> author, article -pc-> author: n² pairs.
                let mut p = PatternTree::with_root(Pred::tag("article"));
                p.add_child(p.root(), Axis::Child, Pred::tag("author"));
                let l = p.add_child(p.root(), Axis::Child, Pred::tag("author"));
                (p, l)
            },
            {
                // Descendant axis + two distinct children.
                let mut p = PatternTree::with_root(Pred::tag("article"));
                p.add_child(p.root(), Axis::Descendant, Pred::tag("author"));
                let l = p.add_child(p.root(), Axis::Child, Pred::tag("year"));
                (p, l)
            },
            {
                // Absent member tag: every contribution is zero.
                let mut p = PatternTree::with_root(Pred::tag("article"));
                let l = p.add_child(p.root(), Axis::Child, Pred::tag("missing"));
                (p, l)
            },
            {
                // Root tag that binds nowhere in the scopes.
                let mut p = PatternTree::with_root(Pred::tag("book"));
                let l = p.add_child(p.root(), Axis::Child, Pred::tag("author"));
                (p, l)
            },
        ];
        for (i, (mp, of)) in shapes.iter().enumerate() {
            let fast = rollup(
                &s,
                &arts,
                &gp,
                &basis,
                mp,
                *of,
                AggFunc::Count,
                "count",
                RollupShape::Grouped,
            )
            .unwrap()
            .0
            .into_trees();
            // The expectation enumerates bindings through the matcher
            // over materialized group trees; it shares no code with the
            // stored-row walk.
            let slow = materialized_star(&s, &arts, mp, *of, AggFunc::Count, "count");
            assert_eq!(
                projected_xml(&s, &fast, "count"),
                projected_xml(&s, &slow, "count"),
                "shape {i}"
            );
        }
    }

    #[test]
    fn count_star_over_scopes_at_two_depths() {
        // `//article` rows at levels 2 and 3: the child-axis test is
        // relative to each row's own level. Titles also sit a level
        // deeper (under <sec>), where only the descendant axis reaches
        // them.
        let s = DocumentStore::from_xml(
            "<bib>\
                <article><title>A</title><author>Jack</author><author>Jill</author></article>\
                <vol><article><title>B</title><title>B2</title><author>Jack</author></article>\
                     <article><sec><title>C</title></sec><author>Jill</author></article></vol>\
                <article><sec><title>D</title></sec><title>D2</title><author>John</author></article>\
                <vol><article><author>Jack</author></article></vol>\
            </bib>",
            &StoreOptions::in_memory(),
        )
        .unwrap();
        let arts = articles(&s);
        let levels: Vec<u16> = arts
            .iter()
            .map(|t| match t.node(t.root()).kind {
                crate::tree::TreeNodeKind::Ref { node, .. } => node.level,
                _ => unreachable!(),
            })
            .collect();
        assert!(levels.contains(&2) && levels.contains(&3), "{levels:?}");
        let (gp, basis) = grouping();
        let star = |children: &[(Axis, &str)]| {
            let mut p = PatternTree::with_root(Pred::tag("article"));
            let mut last = p.root();
            for &(axis, tag) in children {
                last = p.add_child(p.root(), axis, Pred::tag(tag));
            }
            (p, last)
        };
        let shapes = [
            star(&[(Axis::Child, "title")]),
            star(&[(Axis::Descendant, "title")]),
            star(&[(Axis::Child, "title"), (Axis::Descendant, "title")]),
            star(&[(Axis::Child, "author"), (Axis::Child, "title")]),
            star(&[(Axis::Child, "title"), (Axis::Child, "missing")]),
            star(&[(Axis::Descendant, "missing")]),
        ];
        for (i, (mp, of)) in shapes.iter().enumerate() {
            let fast = rollup(
                &s,
                &arts,
                &gp,
                &basis,
                mp,
                *of,
                AggFunc::Count,
                "count",
                RollupShape::Grouped,
            )
            .unwrap()
            .0
            .into_trees();
            let slow = materialized_star(&s, &arts, mp, *of, AggFunc::Count, "count");
            assert_eq!(
                projected_xml(&s, &fast, "count"),
                projected_xml(&s, &slow, "count"),
                "shape {i}"
            );
        }
        // Spot-check the child/descendant split: Jack's articles hold 1,
        // 2 and 0 child titles; Jill's 1 child title and 1 deeper one.
        let (mp, of) = &shapes[1];
        let out = rollup(
            &s,
            &arts,
            &gp,
            &basis,
            mp,
            *of,
            AggFunc::Count,
            "count",
            RollupShape::Grouped,
        )
        .unwrap()
        .0
        .into_trees();
        let xml = projected_xml(&s, &out, "count");
        assert_eq!(
            xml[0],
            "<TAX_group_root><author>Jack</author><count>3</count></TAX_group_root>"
        );
        assert_eq!(
            xml[1],
            "<TAX_group_root><author>Jill</author><count>2</count></TAX_group_root>"
        );
    }

    #[test]
    fn duplicated_stored_inputs_count_twice() {
        // The same article appearing twice in the input is not a
        // disjoint scope list, so the rows are matched one scope at a
        // time; its contribution folds once per occurrence, exactly like
        // the materialized pipeline, which lists the member twice.
        let s = store();
        let mut arts = articles(&s);
        arts.push(arts[0].clone());
        assert!(matches!(Source::from(&arts), Source::Stored(_)));
        let (gp, basis) = grouping();
        let (mp, of) = member("title");
        let fused = rollup(
            &s,
            &arts,
            &gp,
            &basis,
            &mp,
            of,
            AggFunc::Count,
            "count",
            RollupShape::Grouped,
        )
        .unwrap()
        .0
        .into_trees();
        let reference = materialized(&s, &arts, "title", AggFunc::Count, "count");
        assert_eq!(
            projected_xml(&s, &fused, "count"),
            projected_xml(&s, &reference, "count")
        );
    }

    #[test]
    fn empty_input_and_bad_labels() {
        let s = store();
        let (gp, basis) = grouping();
        let (mp, of) = member("title");
        let (out, _) = rollup(
            &s,
            &Vec::new(),
            &gp,
            &basis,
            &mp,
            of,
            AggFunc::Count,
            "count",
            RollupShape::Grouped,
        )
        .unwrap();
        assert!(out.is_empty());
        // Aggregated label outside the member pattern.
        assert!(rollup(
            &s,
            &Vec::new(),
            &gp,
            &basis,
            &mp,
            9,
            AggFunc::Count,
            "count",
            RollupShape::Grouped,
        )
        .is_err());
    }
}
