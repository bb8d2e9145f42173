//! The fused grouped-aggregate rollup (the streaming counterpart of
//! `GROUPBY` + aggregation + the final projection), and the one-pass
//! `Fold` every grouping sink runs.
//!
//! When groups exist only to be counted/summed and immediately
//! discarded — the paper's E2 workload, and the XOLAP rollup formulation
//! of Hachicha & Darmont — keeping a member list per group is pure
//! overhead. The fold walks each input row once and folds it into its
//! keys' groups as it goes, each key's group found through a
//! `keyenc::GroupIndex`:
//!
//! * one pass over a stored row's subtree buckets the children of the
//!   grouping star and of the member star together (`matching::walk`);
//!   the row's keys come off the odometer over its keyed children, in
//!   the order of the full odometer's witnesses, so a two-author article
//!   reaches both authors' groups; its member bindings come from the
//!   same buckets;
//! * the row joins each of its keys' groups at once, once a group, in
//!   row order; a key's group is created at its first witness, even when
//!   that row binds no member, so groups keep first-witness order. What
//!   a group keeps is the sink's (`Kept`): here a **running**
//!   accumulator (`Acc`) — Count/Sum/Min/Max as scalars, Avg as sum +
//!   count, the accumulator `aggregate` folds a group's members with —
//!   and in `GroupBy` and its Fig. 5d gather the members themselves
//!   (`super::groupby::Members`);
//! * a grouping or member pattern that is not a star is matched as one
//!   binding table per pattern (`match_in_scopes`), fed row by row into
//!   the same fold;
//! * each rollup group emits one one-level row `TAX_group_root { <key
//!   subtree>, <tag>value</tag> }` in first-witness order — the rows
//!   `GroupBy → Aggregate → Project` gives, which the kernel tests below
//!   hold it to — and a group whose aggregate is undefined is dropped,
//!   as that projection (whose pattern requires the value child) drops
//!   it.
//!
//! The rewrite (in `xquery`) emits the rollup for Sec. 4.3's count
//! variant in place of `Project ∘ Aggregate ∘ GroupBy`, always in the
//! [`RollupShape::Flat`] shape, over a range of basis-prefix levels
//! (`fold_levels`): a rollup asks for the single finest level, the
//! grouping lattice ([`super::cube`](mod@super::cube)) for all of them.

use crate::batch::{Batch, Cell, Rows};
use crate::error::{Error, Result};
use crate::exec::Stages;
use crate::matching::match_in_scopes;
use crate::matching::walk::{bucket, Filter, Odometer, Star};
use crate::ops::aggregate::{format_value, numeric, AggFunc};
use crate::ops::groupby::{validate, BasisItem};
use crate::ops::keyenc::GroupIndex;
use crate::pattern::{PatternNodeId, PatternTree};
use std::collections::HashMap;
use std::ops::RangeInclusive;
use std::sync::Arc;
use std::time::Instant;
use xmlstore::{kernels, Dictionary, DocumentStore, NodeColumns, NodeEntry, NodeId, Sym, NO_SYM};

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

/// The numeric side of a running aggregate: how many numeric values
/// were folded, their sum, minimum and maximum. The bindings (what
/// COUNT counts) are kept beside it.
#[derive(Default)]
pub(crate) struct Acc {
    values: usize,
    sum: f64,
    min: f64,
    max: f64,
}

impl Acc {
    /// Fold in one member's numeric `values`, in binding order.
    pub(crate) fn fold(&mut self, values: &[f64]) {
        for &v in values {
            let first = self.values == 0;
            self.values += 1;
            self.sum += v;
            self.min = if first { v } else { self.min.min(v) };
            self.max = if first { v } else { self.max.max(v) };
        }
    }

    /// The finished aggregate of `bindings` member bindings with these
    /// values; `None` when no binding was folded or the aggregate is
    /// undefined (Min/Max/Avg over no numeric values) — a left fold over
    /// the values in member order.
    pub(crate) fn finish(&self, func: AggFunc, bindings: usize) -> Option<f64> {
        if bindings == 0 {
            return None;
        }
        let numeric = self.values > 0;
        match func {
            AggFunc::Count => Some(bindings as f64),
            AggFunc::Sum => Some(self.sum),
            AggFunc::Min => numeric.then_some(self.min),
            AggFunc::Max => numeric.then_some(self.max),
            AggFunc::Avg => numeric.then(|| self.sum / self.values as f64),
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
/// [`cube`](super::cube::cube): one pass over the rows that folds each
/// into every level in `levels` (level `k` groups on the first `k` basis
/// items) as it is walked. Levels emit coarsest first, groups in
/// first-witness order within a level. Returns the output plus the
/// stage times — the pass, the build — for the metrics tree.
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
    validate(pattern, basis, &[])?;
    if of >= member_pattern.len() {
        return Err(Error::UnknownLabel(format!("${}", of + 1)));
    }
    let clock = Instant::now();
    let agg = Agg {
        dict: store.dict(),
        func,
        bindings: 0,
        values: Vec::new(),
        accs: Vec::new(),
    };
    let labels: Vec<PatternNodeId> = basis.iter().map(|b| b.label).collect();
    let member = Some((member_pattern, of));
    let fold = Fold::run(store, rows, pattern, &labels, levels, member, agg)?;
    let pass = clock.elapsed();
    let out = fold.kept.build(&fold.levels, new_tag);
    Ok((
        Batch::Rows(out),
        vec![('p', pass), ('b', clock.elapsed() - pass)],
    ))
}

/// What a grouping sink keeps as rows fold into its groups: a row's
/// member bindings, and what the row leaves in each group it joins — a
/// running aggregate here, the members and their extracts in grouping
/// (`super::groupby::Members`).
pub(crate) trait Kept {
    /// What one group keeps.
    type Group: Default;

    /// Start input row `row`: it binds no member yet.
    fn row(&mut self, row: u32);

    /// One member binding of the current row, whose `of` node is `id`
    /// of `cols`.
    fn member(&mut self, cols: &NodeColumns, id: u32);

    /// The current row joins group `gid`, which keeps `group`, at its
    /// first witness there, which binds the nodes `ids` of `cols` to the
    /// labels.
    fn join(&mut self, cols: &NodeColumns, gid: usize, group: &mut Self::Group, ids: &[u32]);

    /// On the star route, count the current row's member bindings — one
    /// id from each of `found`'s `lists` — without visiting them, if the
    /// sink needs no more; `false`: they are handed to [`Kept::member`].
    fn counted(&mut self, _found: &[Vec<u32>], _lists: &[usize]) -> bool {
        false
    }
}

/// One level's groups under formation, in first-witness order.
pub(crate) struct Level<G> {
    /// Key words: the first `width` labels.
    pub width: usize,
    index: GroupIndex,
    /// Each group's key cells, `width` a group: the nodes its first
    /// witness binds to the basis labels.
    pub keys: Vec<NodeEntry>,
    /// Each group's last member row (a row joins a group once;
    /// `u32::MAX`: none yet) and what it keeps: the state every witness
    /// touches, kept small.
    pub groups: Vec<(u32, G)>,
}

/// The fold of stored rows into every level's groups, row by row: a
/// row's member bindings first, then its witnesses.
pub(crate) struct Fold<K: Kept> {
    cols: Arc<NodeColumns>,
    pub levels: Vec<Level<K::Group>>,
    /// The current witness's key words, one per basis label.
    words: Vec<u32>,
    pub kept: K,
}

/// A member path and the node of it whose bindings a row hands on.
type MemberPath<'p> = Option<(&'p PatternTree, PatternNodeId)>;

impl<K: Kept> Fold<K> {
    /// Fold the stored `rows` into groups on each of the `widths` first
    /// labels: a witness is an embedding of `pattern` (the root not
    /// anchored) binding `labels`, the basis first; a member binding is
    /// one of the `member` path anchored at the row. Stars take the
    /// walk, anything else the tables.
    pub fn run(
        store: &DocumentStore,
        rows: &[NodeEntry],
        pattern: &PatternTree,
        labels: &[PatternNodeId],
        widths: RangeInclusive<usize>,
        member: MemberPath,
        kept: K,
    ) -> Result<Self> {
        let level = |width| Level {
            width,
            index: GroupIndex::new(width, rows.len()),
            keys: Vec::new(),
            groups: Vec::new(),
        };
        let mut fold = Fold {
            cols: store.columns(),
            words: vec![0; *widths.end()],
            levels: widths.map(level).collect(),
            kept,
        };
        let star = member.map(|(path, of)| Star::of(store, path).map(|star| (star, of)));
        match (Star::of(store, pattern), star) {
            (Some(grouping), None) => fold.walk(rows, &grouping, labels, None),
            (Some(grouping), Some(Some((star, of)))) => {
                fold.walk(rows, &grouping, labels, Some((&star, of)))
            }
            _ => fold.tables(store, rows, pattern, labels, member)?,
        }
        Ok(fold)
    }

    /// One witness of input row `row`, binding the nodes `ids` to the
    /// labels: at every level, its key's group — created here at the
    /// key's first witness — has the row join it, unless it already has.
    #[inline]
    fn witness(&mut self, row: u32, ids: &[u32]) {
        let cols = &*self.cols;
        for (word, &id) in self.words.iter_mut().zip(ids) {
            *word = cols.content[id as usize];
        }
        for level in &mut self.levels {
            let next = level.groups.len();
            let gid = level.index.group(&self.words[..level.width], next);
            if gid == next {
                level.groups.push((u32::MAX, K::Group::default()));
                let cells = ids[..level.width].iter().map(|&id| cols.entry(NodeId(id)));
                level.keys.extend(cells);
            }
            let (last, group) = &mut level.groups[gid];
            if *last != row {
                *last = row;
                self.kept.join(cols, gid, group, ids);
            }
        }
    }

    /// The star route: one pass over each row's subtree buckets both
    /// stars' children (each filter once); the member odometer gives the
    /// row's bindings, the key odometer its witnesses. A grouping-root
    /// node nested in a row roots witnesses of its own, after the row's,
    /// from a pass over its own subtree.
    fn walk(
        &mut self,
        rows: &[NodeEntry],
        grouping: &Star,
        labels: &[PatternNodeId],
        member: Option<(&Star, PatternNodeId)>,
    ) {
        // Either star binding nothing leaves no group a member.
        if grouping.binds_nothing() || member.is_some_and(|(star, _)| star.binds_nothing()) {
            return;
        }
        let mut filters: Vec<Filter> = Vec::new();
        let mut list = |(_, filter): &(PatternNodeId, Filter)| {
            filters.iter().position(|f| f == filter).unwrap_or_else(|| {
                filters.push(*filter);
                filters.len() - 1
            })
        };
        let grouped: Vec<usize> = grouping.kids.iter().map(&mut list).collect();
        let member_kids = member.map_or(&[][..], |(star, _)| &star.kids);
        let members: Vec<usize> = member_kids.iter().map(&mut list).collect();
        // The grouping-root nodes nested in a row, each the root of
        // witnesses of its own, after the row's.
        let nested = list(&(grouping.root.0, (grouping.root.1, false)));
        // The key odometer runs over the children a label names, each
        // once, in join order: the first witness of each key comes in the
        // order of the full odometer's, binding the same nodes.
        let keyed: Vec<usize> = (grouping.kids.iter().enumerate())
            .filter_map(|(k, &(pid, _))| labels.contains(&pid).then_some(k))
            .collect();
        let keyed_lists: Vec<usize> = keyed.iter().map(|&k| grouped[k]).collect();
        // Where each label's node is on the key odometer; `None`: the
        // root.
        let at = |pid| keyed.iter().position(|&k| grouping.kids[k].0 == pid);
        let at: Vec<Option<usize>> = labels.iter().map(|&pid| at(pid)).collect();
        // The member root's tag (none: no row has it) and where its `of`
        // node is on the member odometer (`None`: the row).
        let member_tag = member.map_or(NO_SYM, |(star, _)| star.root.1);
        let of_at = member.and_then(|(star, of)| star.kids.iter().position(|&(pid, _)| pid == of));
        let cols = Arc::clone(&self.cols);
        let cols = &*cols;
        let mut found = vec![Vec::new(); filters.len()];
        let mut inner = found.clone();
        let (mut odometer, mut scanned) = (Odometer::default(), 0);
        let mut ids = vec![0; labels.len()];
        let mut embed = |fold: &mut Self, row, root: u32, found: &[Vec<u32>]| {
            if grouped.iter().any(|&l| found[l].is_empty()) {
                return;
            }
            odometer.run(found, &keyed_lists, |picked| {
                for (id, at) in ids.iter_mut().zip(&at) {
                    *id = at.map_or(root, |k| picked[k]);
                }
                fold.witness(row, &ids);
            });
        };
        let mut counted = Odometer::default();
        for (row, scope) in (0..).zip(rows) {
            self.kept.row(row);
            let tag = cols.tag[scope.id.0 as usize];
            scanned += bucket(cols, scope, &filters, &mut found);
            if tag == member_tag && !self.kept.counted(&found, &members) {
                counted.run(&found, &members, |picked| {
                    let id = of_at.map_or(scope.id.0, |k| picked[k]);
                    self.kept.member(cols, id)
                });
            }
            if tag == grouping.root.1 {
                embed(self, row, scope.id.0, &found);
            }
            for &id in &found[nested] {
                scanned += bucket(cols, &cols.entry(NodeId(id)), &filters, &mut inner);
                embed(self, row, id, &inner);
            }
        }
        kernels::note_vec_rows(scanned);
    }

    /// The table route: each pattern's bindings in all rows, one table
    /// each — the member path's anchored at the rows — walked row by row
    /// in step.
    fn tables(
        &mut self,
        store: &DocumentStore,
        rows: &[NodeEntry],
        pattern: &PatternTree,
        labels: &[PatternNodeId],
        member: MemberPath,
    ) -> Result<()> {
        let (embeddings, embedding_rows) = match_in_scopes(store, pattern, rows, false)?;
        let members =
            member.map(|(path, of)| match_in_scopes(store, path, rows, true).map(|m| (m, of)));
        let members = members.transpose()?;
        let (mut w, mut m) = (0, 0);
        let mut ids = Vec::with_capacity(labels.len());
        for row in 0..rows.len() as u32 {
            self.kept.row(row);
            if let Some(((members, member_rows), of)) = &members {
                for _ in member_rows[m..].iter().take_while(|&&r| r == row) {
                    self.kept.member(&self.cols, members.column(*of)[m].id.0);
                    m += 1;
                }
            }
            for _ in embedding_rows[w..].iter().take_while(|&&r| r == row) {
                ids.clear();
                ids.extend(labels.iter().map(|&l| embeddings.column(l)[w].id.0));
                self.witness(row, &ids);
                w += 1;
            }
        }
        Ok(())
    }
}

/// What the rollup keeps: the current row's member bindings and their
/// numeric values (none for Count, which never fetches one), and each
/// group's bindings and running value. A group's state is its bindings
/// for Count, and 1 + its place in `accs` for the others.
struct Agg<'c> {
    dict: &'c Dictionary,
    func: AggFunc,
    bindings: usize,
    values: Vec<f64>,
    accs: Vec<(usize, Acc)>,
}

// The fold calls these once a row or once a witness: `#[inline]` keeps
// them in its loop, where a call per witness costs the count query a few
// per cent.
impl Kept for Agg<'_> {
    type Group = usize;

    /// Count reads no value: the bindings are the product of the lists'
    /// lengths.
    #[inline]
    fn counted(&mut self, found: &[Vec<u32>], lists: &[usize]) -> bool {
        let count = self.func == AggFunc::Count;
        if count {
            self.bindings = lists.iter().map(|&l| found[l].len()).product();
        }
        count
    }

    #[inline]
    fn row(&mut self, _: u32) {
        self.bindings = 0;
        self.values.clear();
    }

    #[inline]
    fn member(&mut self, cols: &NodeColumns, id: u32) {
        self.bindings += 1;
        if self.func != AggFunc::Count {
            let sym = cols.content[id as usize];
            self.values.extend(numeric(self.dict, sym));
        }
    }

    #[inline]
    fn join(&mut self, _: &NodeColumns, _: usize, group: &mut usize, _: &[u32]) {
        if self.func == AggFunc::Count {
            *group += self.bindings;
            return;
        }
        if *group == 0 {
            self.accs.push((0, Acc::default()));
            *group = self.accs.len();
        }
        let (bindings, acc) = &mut self.accs[*group - 1];
        *bindings += self.bindings;
        acc.fold(&self.values);
    }
}

impl Agg<'_> {
    /// One one-level row per folded group with a defined aggregate,
    /// level-major: the key cells, whole, then the value.
    fn build(&self, levels: &[Level<usize>], new_tag: &str) -> Rows {
        let mut values = ValueCells::new(self.dict, new_tag);
        let mut out = Rows::new(self.dict.intern(crate::tags::GROUP_ROOT));
        let none = Acc::default();
        for level in levels {
            for (g, &(_, group)) in level.groups.iter().enumerate() {
                let (bindings, acc) = match (self.func, group.checked_sub(1)) {
                    (AggFunc::Count, _) | (_, None) => (group, &none),
                    (_, Some(a)) => (self.accs[a].0, &self.accs[a].1),
                };
                if let Some(v) = acc.finish(self.func, bindings) {
                    let keys = &level.keys[g * level.width..][..level.width];
                    let keys = keys.iter().map(|&node| Cell::Ref { node, deep: true });
                    out.push(keys.chain([values.cell(v)]));
                }
            }
        }
        out
    }
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
        let grouped = grouping();
        pipeline_by(s, rows, grouped, "author", member, of, func, new_tag)
    }

    /// [`pipeline`] grouped by `grouping`, whose one basis label carries
    /// the tag `key`.
    #[allow(clippy::too_many_arguments)]
    fn pipeline_by(
        s: &DocumentStore,
        rows: &[NodeEntry],
        (gp, basis): (PatternTree, Vec<BasisItem>),
        key: &str,
        member: &PatternTree,
        of: PatternNodeId,
        func: AggFunc,
        new_tag: &str,
    ) -> Vec<String> {
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
        let key = fp.add_child(b, Axis::Child, Pred::tag(key));
        let agg = fp.add_child(fp.root(), Axis::Child, Pred::tag(new_tag));
        let pl = vec![
            ProjectItem::shallow(fp.root()),
            ProjectItem::deep(key),
            ProjectItem::deep(agg),
        ];
        let projection = Projection::new(&fp, &pl, true, Some((&gp, &basis)), Some(new_tag));
        written(s, projection.project(Batch::Groups(aggregated)).unwrap())
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

    /// The fused fold against the pipeline, for COUNT over `<title>` and
    /// SUM over `<year>`, on `xml`'s articles: the fused rows.
    fn fused_equals_pipeline(xml: &str) -> [Vec<String>; 2] {
        let s = DocumentStore::from_xml(xml, &StoreOptions::in_memory()).unwrap();
        let arts = articles(&s);
        [
            ("title", AggFunc::Count, "count"),
            ("year", AggFunc::Sum, "sum"),
        ]
        .map(|(leaf, func, tag)| {
            let (mp, of) = member(leaf);
            let fused = flat(&s, &arts, &mp, of, func, tag);
            assert_eq!(fused, pipeline(&s, &arts, &mp, of, func, tag), "{func:?}");
            fused
        })
    }

    fn row(author: &str, tag: &str, v: u32) -> String {
        format!("<TAX_group_root>{author}<{tag}>{v}</{tag}></TAX_group_root>")
    }

    #[test]
    fn a_group_first_witnessed_without_a_member_keeps_its_position() {
        // Jack's first article binds no member; his group is still
        // created there, ahead of Jill's.
        let [count, sum] = fused_equals_pipeline(
            "<bib>\
                <article><author>Jack</author></article>\
                <article><author>Jill</author><title>A</title><year>1999</year></article>\
                <article><author>Jack</author><title>B</title><year>2001</year></article>\
            </bib>",
        );
        let (jack, jill) = ("<author>Jack</author>", "<author>Jill</author>");
        assert_eq!(count, [row(jack, "count", 1), row(jill, "count", 1)]);
        assert_eq!(sum, [row(jack, "sum", 2001), row(jill, "sum", 1999)]);
    }

    #[test]
    fn a_row_naming_a_key_twice_folds_once() {
        let [count, sum] = fused_equals_pipeline(
            "<bib>\
                <article><author>Jack</author><author>Jack</author><title>A</title><year>2</year></article>\
                <article><author>Jill</author><author>Jack</author><title>B</title><year>3</year></article>\
            </bib>",
        );
        let (jack, jill) = ("<author>Jack</author>", "<author>Jill</author>");
        assert_eq!(count, [row(jack, "count", 2), row(jill, "count", 1)]);
        assert_eq!(sum, [row(jack, "sum", 5), row(jill, "sum", 3)]);
    }

    #[test]
    fn content_less_keys_group_under_the_absent_key() {
        // An empty author and one with element content have no content:
        // one group, keyed by the first.
        let [count, sum] = fused_equals_pipeline(
            "<bib>\
                <article><author/><title>A</title><year>5</year></article>\
                <article><author>Jill</author><title>B</title><year>7</year></article>\
                <article><author><name>Jo</name></author><title>C</title><year>9</year></article>\
            </bib>",
        );
        let (absent, jill) = ("<author/>", "<author>Jill</author>");
        assert_eq!(count, [row(absent, "count", 2), row(jill, "count", 1)]);
        assert_eq!(sum, [row(absent, "sum", 14), row(jill, "sum", 7)]);
    }

    #[test]
    fn a_two_key_row_folds_once_into_its_coarser_group() {
        // The lattice over journal → author: the two-author article
        // reaches two (journal, author) groups but its journal's once.
        // One journal, so level 2 is the author pipeline's rows under it.
        let s = DocumentStore::from_xml(
            "<bib>\
                <article><journal>J</journal><author>Jack</author><author>Jill</author><pages>3</pages></article>\
                <article><journal>J</journal><author>Jill</author><pages>4</pages></article>\
            </bib>",
            &StoreOptions::in_memory(),
        )
        .unwrap();
        let arts = articles(&s);
        let mut gp = PatternTree::with_root(Pred::tag("article"));
        let journal = gp.add_child(gp.root(), Axis::Child, Pred::tag("journal"));
        let author = gp.add_child(gp.root(), Axis::Child, Pred::tag("author"));
        let basis = [BasisItem::content(journal), BasisItem::content(author)];
        let mut by_journal = PatternTree::with_root(Pred::tag("article"));
        let j = by_journal.add_child(0, Axis::Child, Pred::tag("journal"));
        let (mp, of) = member("pages");
        for (func, tag, total) in [(AggFunc::Count, "count", 2), (AggFunc::Sum, "sum", 7)] {
            let (out, _) = fold_levels(&s, &arts, &gp, &basis, &mp, of, func, tag, 1..=2).unwrap();
            let grouped = (by_journal.clone(), vec![BasisItem::content(j)]);
            let mut want = pipeline_by(&s, &arts, grouped, "journal", &mp, of, func, tag);
            let root = "<TAX_group_root>";
            let under = |r: String| r.replace(root, &format!("{root}<journal>J</journal>"));
            want.extend(
                pipeline(&s, &arts, &mp, of, func, tag)
                    .into_iter()
                    .map(under),
            );
            assert_eq!(written(&s, out), want, "{func:?}");
            assert_eq!(want[0], row("<journal>J</journal>", tag, total));
        }
    }
}
