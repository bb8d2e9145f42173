//! The fused grouped-aggregate rollup (the streaming counterpart of
//! `GROUPBY` + aggregation + the final projection).
//!
//! When groups exist only to be counted/summed and immediately
//! discarded — the paper's E2 workload, and the XOLAP rollup formulation
//! of Hachicha & Darmont — keeping a member list per group is pure
//! overhead. `rollup` instead accumulates per-basis-key aggregate state
//! directly from the input scan, each key's group found through a
//! `keyenc::GroupIndex`:
//!
//! * witnesses come from the same extraction as
//!   [`super::groupby::groupby`]'s (`super::witness`: same keys,
//!   same multi-valued-basis semantics — a two-author article
//!   contributes to both authors' accumulators, and the same row enters
//!   a given group only once);
//! * each input row's aggregate contribution (its member-pattern
//!   binding count and numeric values) is computed once, by one anchored
//!   [`for_each_match`] counted as each embedding arrives, and folded
//!   into the group's **running** accumulator (`Acc`) in member arrival
//!   order — Count/Sum/Min/Max as scalars, Avg as sum + count. `aggregate`
//!   folds a group's members with the same contributions and accumulator;
//! * each group emits one one-level row `TAX_group_root { <key subtree>,
//!   <tag>value</tag> }` in first-witness order — the rows `GroupBy →
//!   Aggregate → Project` gives, which the kernel tests below hold it to —
//!   and a group whose aggregate is undefined is dropped, as that
//!   projection (whose pattern requires the value child) drops it.
//!
//! The rewrite (in `xquery`) emits the rollup for Sec. 4.3's count
//! variant in place of `Project ∘ Aggregate ∘ GroupBy`, always in the
//! [`RollupShape::Flat`] shape.
//!
//! The accumulation is `fold_levels`, a fold over a range of
//! basis-prefix levels: a rollup asks for the single finest level, the
//! grouping lattice ([`super::cube`](mod@super::cube)) for all of them.

use crate::batch::{Batch, Cell, Rows};
use crate::error::{Error, Result};
use crate::exec::Stages;
use crate::matching::for_each_match;
use crate::ops::aggregate::{format_value, numeric, AggFunc};
use crate::ops::groupby::{stored_basis, BasisItem};
use crate::ops::keyenc::GroupIndex;
use crate::ops::witness::{witnesses, Witnesses};
use crate::pattern::{PatternNodeId, PatternTree};
use std::collections::HashMap;
use std::ops::RangeInclusive;
use std::time::Instant;
use xmlstore::{Dictionary, DocumentStore, NodeEntry, Sym};

/// The output shape of a rollup run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RollupShape {
    /// `TAX_group_root { TAX_grouping_basis {…}, <tag>v</tag> }`: refused
    /// with [`Error::Unsupported`]; no plan asks for it.
    Grouped,
    /// `TAX_group_root { <key subtree>, <tag>v</tag> }` — the downstream
    /// projection pre-applied; groups with an undefined aggregate are
    /// dropped (the projection's pattern requires the value child).
    Flat,
}

/// One input row's aggregate contribution: what a group that holds the
/// row as a member folds in for it.
#[derive(Clone, Default)]
pub(crate) struct Contribution {
    /// Member-pattern bindings (what COUNT counts).
    bindings: usize,
    /// Numeric values at the aggregated label, in binding order (empty
    /// for COUNT, which never fetches values).
    values: Vec<f64>,
}

/// A running aggregate: the contributions folded so far.
#[derive(Default)]
pub(crate) struct Acc {
    bindings: usize,
    values: usize,
    sum: f64,
    min: Option<f64>,
    max: Option<f64>,
}

impl Acc {
    pub(crate) fn fold(&mut self, c: &Contribution) {
        self.bindings += c.bindings;
        for &v in &c.values {
            self.values += 1;
            self.sum += v;
            self.min = Some(self.min.map_or(v, |m| m.min(v)));
            self.max = Some(self.max.map_or(v, |m| m.max(v)));
        }
    }

    /// The finished aggregate value; `None` when no binding was folded
    /// or the aggregate is undefined (Min/Max/Avg over no numeric
    /// values) — a left fold over the values in member order.
    pub(crate) fn finish(&self, func: AggFunc) -> Option<f64> {
        if self.bindings == 0 {
            return None;
        }
        match func {
            AggFunc::Count => Some(self.bindings as f64),
            AggFunc::Sum => Some(self.sum),
            AggFunc::Min => self.min,
            AggFunc::Max => self.max,
            AggFunc::Avg => (self.values > 0).then(|| self.sum / self.values as f64),
        }
    }
}

/// Finished aggregate values as cells `<tag>value</tag>`: the tag and
/// each distinct value are interned once (most counts are small and
/// repeat), not once per group.
pub(crate) struct ValueCells<'d> {
    dict: &'d Dictionary,
    tag: Sym,
    syms: HashMap<u64, Sym>,
}

impl<'d> ValueCells<'d> {
    pub(crate) fn new(dict: &'d Dictionary, tag: &str) -> Self {
        let (tag, syms) = (dict.intern(tag), HashMap::new());
        ValueCells { dict, tag, syms }
    }

    pub(crate) fn cell(&mut self, v: f64) -> Cell {
        let dict = self.dict;
        let sym = self.syms.entry(v.to_bits());
        let content = *sym.or_insert_with(|| dict.intern(&format_value(v)));
        Cell::Elem {
            tag: self.tag,
            content: Some(content),
        }
    }
}

/// One group under formation: the witness that created it (its key
/// prefix and basis cells are the group's, its ordinal the group's
/// arrival position), the last input row folded in (member dedup:
/// same-key witnesses of one row are consecutive, exactly as in group
/// formation), and its running aggregate.
struct GroupAcc {
    first: u32,
    last_member: Option<u32>,
    acc: Acc,
}

/// Streaming grouped aggregation: the blocking sink's kernel. A rollup
/// is the finest level of the grouping lattice — the prefix-level fold
/// (`fold_levels`) run over the single level `basis.len()`. The input is
/// stored rows, or none, and `shape` is [`RollupShape::Flat`];
/// anything else is refused. Returns the groups as one-level rows and
/// the sink's stage times.
#[allow(clippy::too_many_arguments)]
pub fn rollup(
    store: &DocumentStore,
    input: &Batch,
    pattern: &PatternTree,
    basis: &[BasisItem],
    member_pattern: &PatternTree,
    of: PatternNodeId,
    func: AggFunc,
    new_tag: &str,
    shape: RollupShape,
) -> Result<(Batch, Stages)> {
    if shape == RollupShape::Grouped {
        return Err(Error::Unsupported("a rollup emits the flat shape".into()));
    }
    fold_levels(
        store,
        input.stored()?,
        pattern,
        basis,
        member_pattern,
        of,
        func,
        new_tag,
        basis.len()..=basis.len(),
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
    rows: &[NodeEntry],
    pattern: &PatternTree,
    basis: &[BasisItem],
    member_pattern: &PatternTree,
    of: PatternNodeId,
    func: AggFunc,
    new_tag: &str,
    levels: RangeInclusive<usize>,
) -> Result<(Batch, Stages)> {
    let clock = Instant::now();
    let w = witnesses(store, rows, pattern, basis, &[], false)?;
    let witness = clock.elapsed();
    let contributions = contributions(store, rows, member_pattern, of, func)?;
    let contributed = clock.elapsed() - witness;
    let groups = fold_groups(&w, &contributions, levels.clone());
    let fold = clock.elapsed() - witness - contributed;
    let out = build(store.dict(), rows, &w, func, new_tag, levels, groups);
    let build = clock.elapsed() - witness - contributed - fold;
    Ok((Batch::Rows(out), [witness, contributed, fold, build]))
}

/// Each stored row's aggregate contribution. Member bindings anchor at
/// the row's root: inside a group tree the member label binds exactly
/// the subroot's member children, i.e. this row.
pub(crate) fn contributions(
    store: &DocumentStore,
    rows: &[NodeEntry],
    member_pattern: &PatternTree,
    of: PatternNodeId,
    func: AggFunc,
) -> Result<Vec<Contribution>> {
    if of >= member_pattern.len() {
        return Err(Error::UnknownLabel(format!("${}", of + 1)));
    }
    let dict = store.dict();
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
                    acc: Acc::default(),
                });
            }
            // Member dedup is per level: a row reaching one journal
            // group through two authors still folds once at the journal
            // level (the stream is collection-major, so a group's
            // same-row witnesses arrive before any later row's).
            let group = &mut level_groups[gid];
            if group.last_member != Some(row) {
                group.last_member = Some(row);
                group.acc.fold(&contributions[row as usize]);
            }
        }
    }
    groups
}

/// One one-level row per folded group with a defined aggregate,
/// level-major: the key cells, whole, then the value.
fn build(
    dict: &Dictionary,
    rows: &[NodeEntry],
    w: &Witnesses,
    func: AggFunc,
    new_tag: &str,
    levels: RangeInclusive<usize>,
    groups: Vec<Vec<GroupAcc>>,
) -> Rows {
    let mut values = ValueCells::new(dict, new_tag);
    let mut out = Rows::new(dict.intern(crate::tags::GROUP_ROOT));
    for (level, level_groups) in levels.zip(groups) {
        for group in level_groups {
            if let Some(v) = group.acc.finish(func) {
                let keys = stored_basis(rows, w, group.first, level, true);
                out.push(keys.chain([values.cell(v)]));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::aggregate::{aggregate, UpdateSpec};
    use crate::ops::groupby::groupby;
    use crate::ops::project::{ProjectItem, Projection};
    use crate::output::lines;
    use crate::pattern::{Axis, Pred};
    use crate::tags;
    use xmlstore::StoreOptions;

    const SAMPLE: &str = "<bib>\
        <article><title>Querying XML</title><author>Jack</author><author>John</author><year>1999</year></article>\
        <article><title>XML and the Web</title><author>Jill</author><author>Jack</author><year>2001</year></article>\
        <article><title>Hack HTML</title><author>John</author><year>2002</year></article>\
    </bib>";

    fn store() -> DocumentStore {
        DocumentStore::from_xml(SAMPLE, &StoreOptions::in_memory()).unwrap()
    }

    fn articles(s: &DocumentStore) -> Vec<NodeEntry> {
        s.nodes_with_tag(s.tag_id("article").unwrap()).to_vec()
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

    fn written(s: &DocumentStore, out: Batch) -> Vec<String> {
        assert!(matches!(out, Batch::Rows(_)), "{out:?}");
        lines(s, &out)
    }

    /// The flat rollup over stored `rows`, written one row a string.
    fn flat(
        s: &DocumentStore,
        rows: &[NodeEntry],
        member: &PatternTree,
        of: PatternNodeId,
        func: AggFunc,
        new_tag: &str,
    ) -> Vec<String> {
        let (gp, basis) = grouping();
        let shape = RollupShape::Flat;
        let input = &Batch::Stored(rows.to_vec());
        let out = rollup(s, input, &gp, &basis, member, of, func, new_tag, shape);
        written(s, out.unwrap().0)
    }

    /// What the flat rollup fuses, run operator by operator over rows:
    /// `GroupBy`, then `Aggregate` with any star member pattern (a root
    /// with leaf children) re-rooted under root→subroot, then the
    /// projection to root / key / value.
    fn pipeline(
        s: &DocumentStore,
        rows: &[NodeEntry],
        member: &PatternTree,
        of: PatternNodeId,
        func: AggFunc,
        new_tag: &str,
    ) -> Vec<String> {
        let (gp, basis) = grouping();
        let input = &Batch::Stored(rows.to_vec());
        let Batch::Groups(groups) = groupby(s, input, &gp, &basis, &[]).unwrap().0 else {
            panic!("groupby emits groups")
        };
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
        let spec = UpdateSpec::AfterLastChild(0);
        let aggregated = aggregate(s, groups, &ap, func, of_in_ap, new_tag, spec).unwrap();
        let mut fp = PatternTree::with_root(Pred::tag(tags::GROUP_ROOT));
        let b = fp.add_child(fp.root(), Axis::Child, Pred::tag(tags::GROUPING_BASIS));
        let key = fp.add_child(b, Axis::Child, Pred::tag("author"));
        let agg = fp.add_child(fp.root(), Axis::Child, Pred::tag(new_tag));
        let pl = vec![
            ProjectItem::shallow(fp.root()),
            ProjectItem::deep(key),
            ProjectItem::deep(agg),
        ];
        let projection = Projection::new(&fp, &pl, true, Some((&gp, &basis)), Some(new_tag));
        written(s, projection.project(s, Batch::Groups(aggregated)).unwrap())
    }

    #[test]
    fn rollup_matches_materialized_pipeline_for_every_func() {
        let s = store();
        let arts = articles(&s);
        for (leaf, func, tag) in [
            ("title", AggFunc::Count, "count"),
            ("year", AggFunc::Sum, "sum"),
            ("year", AggFunc::Min, "min"),
            ("year", AggFunc::Max, "max"),
            ("year", AggFunc::Avg, "avg"),
        ] {
            let (mp, of) = member(leaf);
            let fused = flat(&s, &arts, &mp, of, func, tag);
            assert_eq!(fused.len(), 3, "{func:?}");
            assert_eq!(fused, pipeline(&s, &arts, &mp, of, func, tag), "{func:?}");
        }
    }

    #[test]
    fn multi_valued_basis_contributes_to_every_group() {
        // The two-author articles must count for both authors, in
        // first-witness order: Jack, John, Jill.
        let s = store();
        let (mp, of) = member("title");
        let out = flat(&s, &articles(&s), &mp, of, AggFunc::Count, "count");
        let row = |a: &str, n: u32| {
            format!("<TAX_group_root><author>{a}</author><count>{n}</count></TAX_group_root>")
        };
        assert_eq!(out, [row("Jack", 2), row("John", 2), row("Jill", 1)]);
    }

    #[test]
    fn undefined_aggregate_omits_the_value_child() {
        // Min over a label with no numeric content: `Aggregate` leaves
        // each group as it was, without the value child.
        let s = store();
        let (gp, basis) = grouping();
        let arts = Batch::Stored(articles(&s));
        let Batch::Groups(groups) = groupby(&s, &arts, &gp, &basis, &[]).unwrap().0 else {
            panic!("groupby emits groups")
        };
        let mut ap = PatternTree::with_root(Pred::tag(tags::GROUP_ROOT));
        let sub = ap.add_child(0, Axis::Child, Pred::tag(tags::GROUP_SUBROOT));
        let art = ap.add_child(sub, Axis::Child, Pred::tag("article"));
        let title = ap.add_child(art, Axis::Child, Pred::tag("title"));
        let spec = UpdateSpec::AfterLastChild(0);
        let out = aggregate(&s, groups.clone(), &ap, AggFunc::Min, title, "min", spec).unwrap();
        assert_eq!(
            lines(&s, &Batch::Groups(out)),
            lines(&s, &Batch::Groups(groups))
        );
    }

    #[test]
    fn flat_shape_equals_the_projected_grouped_output() {
        // Flat absorbs the downstream projection: its rows must be
        // byte-identical to `Project` over the aggregated groups.
        let s = store();
        let arts = articles(&s);
        for (leaf, func, tag) in [
            ("title", AggFunc::Count, "count"),
            ("year", AggFunc::Sum, "sum"),
            ("year", AggFunc::Min, "min"),
            ("year", AggFunc::Max, "max"),
            ("year", AggFunc::Avg, "avg"),
        ] {
            let (mp, of) = member(leaf);
            let flat_xml = flat(&s, &arts, &mp, of, func, tag);
            assert_eq!(
                flat_xml,
                pipeline(&s, &arts, &mp, of, func, tag),
                "{func:?}"
            );
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
        // operator-by-operator pipeline (the parity bug this pins).
        let s = DocumentStore::from_xml(
            "<bib>\
                <article><title>A</title><author><name>Jack</name></author><year>1999</year></article>\
                <article><title>B</title><author>Jill</author><year>2001</year></article>\
            </bib>",
            &StoreOptions::in_memory(),
        )
        .unwrap();
        let arts = articles(&s);
        let (mp, of) = member("year");
        let flat_xml = flat(&s, &arts, &mp, of, AggFunc::Sum, "sum");
        assert_eq!(flat_xml, pipeline(&s, &arts, &mp, of, AggFunc::Sum, "sum"));
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
        // projection the flat shape absorbs would drop each such group
        // (no bound aggregate child), so the flat rollup emits nothing.
        let s = store();
        let (mp, of) = member("title");
        let out = flat(&s, &articles(&s), &mp, of, AggFunc::Min, "min");
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn count_star_fast_path_matches_groupby_then_aggregate() {
        // Member-pattern shapes that stress the star decomposition:
        // multiple children, duplicate child tags (the product counts
        // ordered binding tuples), descendant axis, an absent tag, and a
        // root tag no scope carries — for every aggregate.
        let s = store();
        let arts = articles(&s);
        let shapes: Vec<(PatternTree, PatternNodeId)> = vec![
            member("title"),
            member("author"),
            member("year"),
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
            for func in [
                AggFunc::Count,
                AggFunc::Sum,
                AggFunc::Min,
                AggFunc::Max,
                AggFunc::Avg,
            ] {
                assert_eq!(
                    flat(&s, &arts, mp, *of, func, "v"),
                    pipeline(&s, &arts, mp, *of, func, "v"),
                    "shape {i}, {func:?}"
                );
            }
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
        let levels: Vec<u16> = arts.iter().map(|e| e.level).collect();
        assert!(levels.contains(&2) && levels.contains(&3), "{levels:?}");
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
            assert_eq!(
                flat(&s, &arts, mp, *of, AggFunc::Count, "count"),
                pipeline(&s, &arts, mp, *of, AggFunc::Count, "count"),
                "shape {i}"
            );
        }
        // Spot-check the child/descendant split: Jack's articles hold 1,
        // 2 and 0 child titles; Jill's 1 child title and 1 deeper one.
        let (mp, of) = &shapes[1];
        let xml = flat(&s, &arts, mp, *of, AggFunc::Count, "count");
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
        // the pipeline, which lists the member twice.
        let s = store();
        let mut arts = articles(&s);
        arts.push(arts[0]);
        let (mp, of) = member("title");
        let fused = flat(&s, &arts, &mp, of, AggFunc::Count, "count");
        assert!(fused[0].contains("<count>3</count>"), "{fused:?}");
        assert_eq!(fused, pipeline(&s, &arts, &mp, of, AggFunc::Count, "count"));
    }

    #[test]
    fn empty_input_and_bad_labels() {
        let s = store();
        let (gp, basis) = grouping();
        let (mp, of) = member("title");
        let count = AggFunc::Count;
        let run = |of, shape| {
            rollup(
                &s,
                &Batch::default(),
                &gp,
                &basis,
                &mp,
                of,
                count,
                "n",
                shape,
            )
        };
        assert!(run(of, RollupShape::Flat).unwrap().0.is_empty());
        // Aggregated label outside the member pattern.
        assert!(matches!(
            run(9, RollupShape::Flat),
            Err(Error::UnknownLabel(_))
        ));
        // The grouped shape is refused.
        assert!(matches!(
            run(of, RollupShape::Grouped),
            Err(Error::Unsupported(_))
        ));
    }
}
