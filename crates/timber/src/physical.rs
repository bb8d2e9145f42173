//! The physical executor: logical [`Plan`] trees → pull-based operator
//! pipelines.
//!
//! Each logical operator is built into a [`PhysOp`] — a batched iterator
//! over rows — by pairing one of three generic drivers with the
//! operator's `tax::ops` kernel as a closure:
//!
//! * the **scan** leaf matches its pattern against the database once
//!   (one binding table) and turns the rows into output one bounded run
//!   of rows at a time (selection, fused select→project);
//! * the **map** driver *streams*: it pulls a batch from its input, runs
//!   the kernel on just that batch, and hands the result upward
//!   (projection, duplicate elimination, aggregation, rename), so
//!   pipelines of these operators never materialize the whole
//!   intermediate collection;
//! * the **sink** driver *blocks*: it drains its inputs, runs the kernel
//!   exactly once, and then emits the result in batches (grouping,
//!   rollup, cube, the left outer join, the RETURN stitching).
//!
//! What moves between operators is a [`Batch`]: stored rows (node
//! labels, each standing for its whole subtree), a selection's match
//! rows, groups, or trees. A `Project` over a `SelectDb` of its own
//! pattern runs as the fused select→project (recognized here, once), so
//! a scan whose list keeps one deep node per row — the GROUPBY plans',
//! and the `CUBE BY` scan in either mode — hands the grouping sinks
//! (`GroupBy`, `Rollup`, `Cube`) stored rows, which they read as they
//! are, and the direct plan's projections pass their match rows on up to
//! the stitch. `GroupBy` emits groups, which a `Project` of the
//! rewrite's Fig. 5d shape (recognized here, once) gathers from, and the
//! left outer join emits its pairs as groups. Other operators take their
//! input through [`Batch::into_trees`], as does [`execute`].
//!
//! Every operator meters its own work — rows in/out (and what kind of
//! rows it emitted), batches, wall time, and the store's I/O delta —
//! into a [`PlanMetrics`] tree; the time spent pulling from an input is
//! charged to the input, not the consumer. Output order is deterministic:
//! the same bytes at every batch size, the one-batch run included — which
//! is what the differential suites compare against.
//!
//! A query runs on the calling thread, one serial kernel per operator;
//! concurrency is between queries. The drain in [`execute`] is the one
//! panic boundary: a kernel that panics fails its query with
//! `tax::Error::Panic`, and the store keeps answering.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::error::Result;
use crate::metrics::{OutKind, PlanMetrics};
use std::collections::HashSet;
use std::time::{Duration, Instant};
pub use tax::batch::Batch;
use tax::batch::Matches;
use tax::exec::{ExecOptions, ShardStats, Stages};
use tax::ops;
use tax::pattern::{PatternNodeId, PatternTree};
use tax::tree::{Collection, Tree};
use xmlstore::{DocumentStore, IoStats};
use xquery::Plan;

/// Default number of rows per batch.
pub const DEFAULT_BATCH_SIZE: usize = 256;

/// A physical operator: a batched pull iterator over rows.
pub trait PhysOp {
    /// Produce the next batch of output rows, or `None` when exhausted.
    /// Batches are never empty.
    fn next_batch(&mut self) -> Result<Option<Batch>>;

    /// The metrics recorded so far, including the input operators'.
    fn metrics(&self) -> PlanMetrics;
}

/// Build the physical operator tree for a logical plan and drain it.
/// Returns the output collection and the per-operator metrics.
/// [`ExecOptions`] sets nothing; it is taken for callers that pass it.
pub fn execute(
    store: &DocumentStore,
    plan: &Plan,
    _: &ExecOptions,
    batch: usize,
) -> Result<(Collection, PlanMetrics)> {
    let mut root = build(store, plan, batch)?;
    let out = drain(&mut *root)?;
    Ok((out, root.metrics()))
}

/// Every row `root` emits, as trees. A kernel panicking anywhere below
/// `root` is contained here and returned as `tax::Error::Panic`.
fn drain(root: &mut dyn PhysOp) -> Result<Collection> {
    tax::exec::contain(|| -> Result<Collection> {
        let mut out = Vec::new();
        while let Some(b) = root.next_batch()? {
            out.extend(b.into_trees());
        }
        Ok(out)
    })?
}

/// A scan's kernel: a run of the match's rows → its output rows.
type ScanKernel<'a> = Box<dyn Fn(Matches) -> tax::Result<Batch> + 'a>;
/// A streaming operator's kernel: one input batch → its output rows.
type MapKernel<'a> = Box<dyn FnMut(Batch) -> tax::Result<Batch> + 'a>;
/// A blocking sink's kernel: the drained inputs (one batch per input
/// plan) → the whole output plus, for a grouping sink, its stage times.
type SinkKernel<'a> = Box<dyn FnOnce(Vec<Batch>) -> tax::Result<(Batch, Option<Stages>)> + 'a>;

/// Build the physical operator for one logical plan node (recursively
/// building its inputs): the driver its execution shape calls for, with
/// the operator's kernel as a closure over the plan node's parameters.
/// `batch` of zero acts as one.
pub fn build<'a>(
    store: &'a DocumentStore,
    plan: &'a Plan,
    batch: usize,
) -> Result<Box<dyn PhysOp + 'a>> {
    let batch = batch.max(1);
    let meter = Meter::new(op_label(plan));
    let scan =
        |pattern: &'a PatternTree, sl: &'a [PatternNodeId], meter, kernel: ScanKernel<'a>| {
            Box::new(ScanOp {
                store,
                pattern,
                sl,
                kernel,
                batch,
                rows: None,
                meter,
            }) as Box<dyn PhysOp + 'a>
        };
    let map = |input: &'a Plan, meter, kernel: MapKernel<'a>| -> Result<Box<dyn PhysOp + 'a>> {
        Ok(Box::new(MapOp {
            store,
            input: build(store, input, batch)?,
            kernel,
            meter,
        }))
    };
    let sink =
        |inputs: Vec<&'a Plan>, meter, kernel: SinkKernel<'a>| -> Result<Box<dyn PhysOp + 'a>> {
            Ok(Box::new(SinkOp {
                store,
                inputs: inputs
                    .into_iter()
                    .map(|p| build(store, p, batch))
                    .collect::<Result<_>>()?,
                kernel: Some(kernel),
                output: Vec::new().into_iter(),
                batch,
                meter,
            }))
        };
    Ok(match plan {
        Plan::SelectDb { pattern, sl } => {
            scan(pattern, sl, meter, Box::new(|m| Ok(Batch::Matches(m))))
        }
        // One pattern match serves both halves of the fused
        // select→project; each run of rows is projected as it is
        // produced.
        Plan::SelectProject { pattern, sl, pl } => {
            scan(pattern, sl, meter, Box::new(move |m| m.project(store, pl)))
        }
        // Trees (and groups) are independent under projection, so
        // batching cannot change output. A projection of a selection
        // through the selection's own pattern is the fused one over its
        // rows, and the rewrite's final projection over `GroupBy`'s
        // groups gathers its output from the columns.
        Plan::Project {
            input,
            pattern,
            pl,
            anchor_root,
        } => {
            let (fused, grouped) = match &**input {
                Plan::SelectDb { pattern: p, .. } => (*anchor_root && p == pattern, None),
                Plan::GroupBy { pattern, basis, .. } => (false, Some((pattern, &basis[..]))),
                _ => (false, None),
            };
            let projection = ops::project::Projection::new(pattern, pl, *anchor_root, grouped);
            map(
                input,
                meter,
                Box::new(move |b| match b {
                    Batch::Matches(rows) if fused => rows.project(store, pl),
                    b => projection.project(store, b).map(Batch::Trees),
                }),
            )?
        }
        // Keys are taken per batch; the seen-set persists across batches
        // so the stream-wide output matches the collection-at-once
        // kernel exactly.
        Plan::DupElim { input, pattern, by } => {
            let mut seen = HashSet::new();
            map(
                input,
                meter,
                Box::new(move |batch| {
                    ops::dupelim::dup_elim(store, batch, pattern, *by, &mut seen)
                }),
            )?
        }
        Plan::Aggregate {
            input,
            pattern,
            func,
            of,
            new_tag,
            spec,
        } => map(
            input,
            meter,
            on_trees(move |batch| {
                ops::aggregate::aggregate(store, batch, pattern, *func, *of, new_tag, *spec)
            }),
        )?,
        Plan::Rename { input, tag } => map(
            input,
            meter,
            on_trees(move |batch| ops::rename::rename_root(store.dict(), batch, tag)),
        )?,
        Plan::GroupBy {
            input,
            pattern,
            basis,
            ordering,
        } => sink(
            vec![input],
            meter,
            Box::new(move |ins| {
                let (groups, stages) =
                    ops::groupby::groupby(store, &ins[0], pattern, basis, ordering)?;
                Ok((groups, Some(stages)))
            }),
        )?,
        // The fused grouped aggregate folds each tree's contribution
        // into running per-group accumulators instead of materializing
        // group trees, so rows in greatly exceed groups out.
        Plan::Rollup {
            input,
            pattern,
            basis,
            member_pattern,
            of,
            func,
            new_tag,
            flat,
        } => sink(
            vec![input],
            meter,
            Box::new(move |ins| {
                let shape = if *flat {
                    ops::rollup::RollupShape::Flat
                } else {
                    ops::rollup::RollupShape::Grouped
                };
                ops::rollup::rollup(
                    store,
                    &ins[0],
                    pattern,
                    basis,
                    member_pattern,
                    *of,
                    *func,
                    new_tag,
                    shape,
                )
                .map(staged)
            }),
        )?,
        // The one-scan grouping lattice: the rollup's fold for every
        // prefix level of the basis at once, levels emitted coarsest
        // first.
        Plan::Cube {
            input,
            pattern,
            basis,
            member_pattern,
            of,
            func,
            new_tag,
        } => sink(
            vec![input],
            meter,
            Box::new(move |ins| {
                ops::cube::cube(
                    store,
                    &ins[0],
                    pattern,
                    basis,
                    member_pattern,
                    *of,
                    *func,
                    new_tag,
                )
                .map(staged)
            }),
        )?,
        // The join sinks time no stages.
        Plan::LeftOuterJoinDb {
            left,
            left_pattern,
            left_label,
            right_pattern,
            right_label,
            right_sl,
            ..
        } => sink(
            vec![left],
            meter,
            Box::new(move |ins| {
                ops::join::left_outer_join_db(
                    store,
                    &ins[0],
                    left_pattern,
                    *left_label,
                    right_pattern,
                    *right_label,
                    right_sl,
                )
                .map(|pairs| (Batch::Groups(pairs), None))
            }),
        )?,
        // The RETURN stitching pairs every outer row with the parts of
        // the subjects its key joined, so both inputs drain fully first.
        Plan::StitchConstruct {
            outer,
            outer_pattern,
            outer_label,
            inner,
            agg,
            tag,
        } => {
            let members = inner.as_deref().map(|join| match join {
                Plan::LeftOuterJoinDb {
                    right_pattern,
                    right_sl,
                    right_extract,
                    order,
                    ..
                } => ops::join::Members::new(right_pattern, right_sl, *right_extract, *order),
                _ => Err(tax::Error::Unsupported(
                    "the stitch's inner input is a left outer join".into(),
                )),
            });
            let members = members.transpose()?;
            sink(
                std::iter::once(&**outer).chain(inner.as_deref()).collect(),
                meter,
                Box::new(move |ins| {
                    let mut ins = ins.into_iter();
                    let outer = ins.next().unwrap_or_default();
                    let pairs = match ins.next() {
                        Some(Batch::Groups(pairs)) => Some(pairs),
                        _ => None,
                    };
                    ops::join::stitch(
                        store,
                        &outer,
                        outer_pattern,
                        *outer_label,
                        pairs.as_ref().zip(members.as_ref()),
                        agg.as_ref().map(|(f, t)| (*f, t.as_str())),
                        tag,
                    )
                    .map(|out| (Batch::Trees(out), None))
                }),
            )?
        }
    })
}

/// A streaming kernel over trees as one over batches.
fn on_trees<'a>(mut kernel: impl FnMut(Vec<Tree>) -> tax::Result<Vec<Tree>> + 'a) -> MapKernel<'a> {
    Box::new(move |batch| kernel(batch.into_trees()).map(Batch::Trees))
}

/// A tree-building grouping sink's output as a sink's.
fn staged((out, stages): (Collection, Stages)) -> (Batch, Option<Stages>) {
    (Batch::Trees(out), Some(stages))
}

/// The first line of the plan node's rendering — the operator label used
/// in metrics output.
fn op_label(plan: &Plan) -> String {
    plan.explain()
        .lines()
        .next()
        .unwrap_or("(plan)")
        .to_string()
}

/// Per-operator counters plus start/stop windows over the store-wide
/// I/O statistics and this thread's clone and kernel-row counters.
struct Meter {
    op: String,
    trees_in: usize,
    trees_out: usize,
    out_kind: Option<OutKind>,
    batches: usize,
    elapsed: Duration,
    io: IoStats,
    tree_clones: u64,
    vec_rows: u64,
    vec_fallback: u64,
    shards: Option<ShardStats>,
}

/// One open measurement window: start instant plus snapshots of the
/// counters the stop diff subtracts (the store's I/O, this thread's
/// clones and kernel rows).
type MeterWindow = (Instant, IoStats, u64, u64, u64);

impl Meter {
    fn new(op: String) -> Meter {
        Meter {
            op,
            trees_in: 0,
            trees_out: 0,
            out_kind: None,
            batches: 0,
            elapsed: Duration::ZERO,
            io: IoStats::default(),
            tree_clones: 0,
            vec_rows: 0,
            vec_fallback: 0,
            shards: None,
        }
    }

    /// Open a measurement window. Pair with [`Meter::stop`].
    fn start(&self, store: &DocumentStore) -> MeterWindow {
        (
            Instant::now(),
            store.io_stats(),
            tax::tree::tree_clones(),
            xmlstore::kernels::vec_rows(),
            xmlstore::kernels::fallback_rows(),
        )
    }

    /// Close a measurement window, accumulating elapsed time, the
    /// store's I/O delta, the deep-tree-clone delta, and the vectorized
    /// kernel row / scalar fallback row deltas.
    fn stop(&mut self, store: &DocumentStore, window: MeterWindow) {
        self.elapsed += window.0.elapsed();
        self.io = crate::add_io(self.io, crate::diff_io(window.1, store.io_stats()));
        self.tree_clones += tax::tree::tree_clones().saturating_sub(window.2);
        self.vec_rows += xmlstore::kernels::vec_rows().saturating_sub(window.3);
        self.vec_fallback += xmlstore::kernels::fallback_rows().saturating_sub(window.4);
    }

    /// Record one emitted batch.
    fn emitted(&mut self, batch: &Batch) {
        self.batches += 1;
        self.trees_out += batch.len();
        self.out_kind = Some(match batch {
            Batch::Stored(_) => OutKind::Stored,
            Batch::Matches(_) => OutKind::Matches,
            Batch::Trees(_) => OutKind::Trees,
            Batch::Groups(_) => OutKind::Groups,
        });
    }

    fn metrics(&self, children: Vec<PlanMetrics>) -> PlanMetrics {
        PlanMetrics {
            op: self.op.clone(),
            trees_in: self.trees_in,
            trees_out: self.trees_out,
            out_kind: self.out_kind,
            batches: self.batches,
            elapsed: self.elapsed,
            io: self.io,
            tree_clones: self.tree_clones,
            vec_rows: self.vec_rows,
            vec_fallback: self.vec_fallback,
            shards: self.shards.clone(),
            children,
        }
    }
}

/// Leaf driver: match the database once, then run the kernel over one
/// bounded run of the table's rows per batch.
struct ScanOp<'a> {
    store: &'a DocumentStore,
    pattern: &'a PatternTree,
    sl: &'a [PatternNodeId],
    kernel: ScanKernel<'a>,
    batch: usize,
    rows: Option<std::vec::IntoIter<Matches>>,
    meter: Meter,
}

impl ScanOp<'_> {
    fn pull(&mut self) -> Result<Option<Batch>> {
        let rows = match &mut self.rows {
            Some(rows) => rows,
            unmatched => {
                let all = Matches::select(self.store, self.pattern, self.sl)?;
                unmatched.insert(all.chunks(self.batch).into_iter())
            }
        };
        // A run of rows can project to nothing; keep pulling until some
        // rows surface or the table runs out.
        for run in rows {
            let out = (self.kernel)(run)?;
            if !out.is_empty() {
                return Ok(Some(out));
            }
        }
        Ok(None)
    }
}

impl PhysOp for ScanOp<'_> {
    fn next_batch(&mut self) -> Result<Option<Batch>> {
        let window = self.meter.start(self.store);
        let out = self.pull();
        self.meter.stop(self.store, window);
        if let Ok(Some(batch)) = &out {
            self.meter.emitted(batch);
        }
        out
    }

    fn metrics(&self) -> PlanMetrics {
        self.meter.metrics(Vec::new())
    }
}

/// Streaming driver: the kernel runs on each input batch independently;
/// whatever it must remember across batches lives in the closure.
struct MapOp<'a> {
    store: &'a DocumentStore,
    input: Box<dyn PhysOp + 'a>,
    kernel: MapKernel<'a>,
    meter: Meter,
}

impl PhysOp for MapOp<'_> {
    fn next_batch(&mut self) -> Result<Option<Batch>> {
        loop {
            let Some(batch) = self.input.next_batch()? else {
                return Ok(None);
            };
            self.meter.trees_in += batch.len();
            let window = self.meter.start(self.store);
            let out = (self.kernel)(batch);
            self.meter.stop(self.store, window);
            let out = out?;
            if !out.is_empty() {
                self.meter.emitted(&out);
                return Ok(Some(out));
            }
        }
    }

    fn metrics(&self) -> PlanMetrics {
        self.meter.metrics(vec![self.input.metrics()])
    }
}

/// Blocking driver: the kernel needs its whole input, so the first pull
/// drains every input plan, runs the kernel once, and every pull emits
/// the next batch of its output. The kernel is consumed by that one run:
/// after a failure (in an input or in the kernel) the sink is exhausted,
/// never re-run.
struct SinkOp<'a> {
    store: &'a DocumentStore,
    inputs: Vec<Box<dyn PhysOp + 'a>>,
    kernel: Option<SinkKernel<'a>>,
    output: std::vec::IntoIter<Batch>,
    batch: usize,
    meter: Meter,
}

impl PhysOp for SinkOp<'_> {
    fn next_batch(&mut self) -> Result<Option<Batch>> {
        if let Some(kernel) = self.kernel.take() {
            let mut drained = Vec::with_capacity(self.inputs.len());
            for input in &mut self.inputs {
                let mut all = Batch::default();
                while let Some(b) = input.next_batch()? {
                    self.meter.trees_in += b.len();
                    all.append(b);
                }
                drained.push(all);
            }
            let window = self.meter.start(self.store);
            let result = kernel(drained);
            self.meter.stop(self.store, window);
            let (out, stages) = result?;
            self.meter.shards = stages.map(ShardStats::new);
            self.output = out.into_chunks(self.batch).into_iter();
        }
        let out = self.output.next();
        if let Some(batch) = &out {
            self.meter.emitted(batch);
        }
        Ok(out)
    }

    fn metrics(&self) -> PlanMetrics {
        self.meter
            .metrics(self.inputs.iter().map(|i| i.metrics()).collect())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::{PlanMode, TimberDb};
    use std::cell::Cell;
    use xmlstore::StoreOptions;

    const SAMPLE: &str = "<bib>\
        <article><title>Querying XML</title><author>Jack</author><author>John</author></article>\
        <article><title>XML and the Web</title><author>Jill</author><author>Jack</author></article>\
        <article><title>Hack HTML</title><author>John</author></article>\
    </bib>";

    const QUERY1: &str = r#"
        FOR $a IN distinct-values(document("bib.xml")//author)
        RETURN <authorpubs>
          {$a}
          { FOR $b IN document("bib.xml")//article
            WHERE $a = $b/author
            RETURN $b/title }
        </authorpubs>
    "#;

    const QUERY_COUNT: &str = r#"
        FOR $a IN distinct-values(document("bib.xml")//author)
        LET $t := document("bib.xml")//article[author = $a]/title
        RETURN <authorpubs> {$a} {count($t)} </authorpubs>
    "#;

    const QUERY_CUBE: &str = r#"
        FOR $b IN document("bib.xml")//article
        CUBE BY $b/author, $b/title
        RETURN <pubs> {count($b/title)} </pubs>
    "#;

    fn db() -> TimberDb {
        TimberDb::load_xml(SAMPLE, &StoreOptions::in_memory()).unwrap()
    }

    /// The scan leaf of a grouped plan (the plans here are chains).
    fn leaf_of(plan: &Plan) -> &Plan {
        match plan {
            Plan::Rename { input, .. }
            | Plan::Project { input, .. }
            | Plan::GroupBy { input, .. }
            | Plan::Rollup { input, .. }
            | Plan::Cube { input, .. } => leaf_of(input),
            leaf => leaf,
        }
    }

    /// `plan` with its scan leaf replaced.
    fn with_leaf(plan: &Plan, leaf: Plan) -> Plan {
        let mut plan = plan.clone();
        let mut at = &mut plan;
        loop {
            match at {
                Plan::Rename { input, .. }
                | Plan::Project { input, .. }
                | Plan::GroupBy { input, .. }
                | Plan::Rollup { input, .. }
                | Plan::Cube { input, .. } => at = &mut **input,
                scan => {
                    *scan = leaf;
                    return plan;
                }
            }
        }
    }

    /// Metrics nodes from the root down the first-input chain.
    fn chain(m: &PlanMetrics) -> Vec<&PlanMetrics> {
        let mut nodes = vec![m];
        while let Some(next) = nodes[nodes.len() - 1].children.first() {
            nodes.push(next);
        }
        nodes
    }

    /// Pattern `root_tag -pc-> child_tag`.
    fn parent_child(root_tag: &str, child_tag: &str) -> PatternTree {
        let mut p = PatternTree::with_root(tax::Pred::tag(root_tag));
        p.add_child(p.root(), tax::Axis::Child, tax::Pred::tag(child_tag));
        p
    }

    #[test]
    fn paper_plan_leaves_emit_stored_rows_and_the_sinks_read_them() {
        let db = db();
        for query in [QUERY_COUNT, QUERY1, QUERY_CUBE] {
            let (plan, _) = db.compile(query, PlanMode::GroupByRewrite).unwrap();
            let (trees, metrics) = execute(db.store(), &plan, &ExecOptions, 2).unwrap();
            assert!(!trees.is_empty());
            // The leaf emits stored rows — no tree, nothing re-matched —
            // a `GroupBy` over them emits groups as columns, and every
            // other operator above it emits trees; the rendering says
            // which.
            let nodes = chain(&metrics);
            let (leaf, above) = nodes.split_last().unwrap();
            assert!(leaf.op.starts_with("SelectProject"), "{}", leaf.op);
            assert_eq!(leaf.out_kind, Some(OutKind::Stored));
            let kind = |m: &PlanMetrics| match m.op.starts_with("GroupBy") {
                true => (OutKind::Groups, " groups batches="),
                false => (OutKind::Trees, " trees batches="),
            };
            assert!(above.iter().all(|m| m.out_kind == Some(kind(m).0)));
            let text = metrics.render();
            let lines: Vec<&str> = text.lines().collect();
            assert!(lines[lines.len() - 1].contains(" out=3 stored batches=2 "));
            for (line, m) in lines.iter().zip(above) {
                assert!(line.contains(kind(m).1), "{line}");
            }
            // The grouping sink is the leaf's consumer and took all of
            // its rows.
            let sink = above[above.len() - 1];
            assert!(sink.shards.is_some(), "{}", sink.op);
            assert_eq!(sink.trees_in, leaf.trees_out);

            // Batch by batch: stored rows only, never more than `batch`.
            let mut scan = build(db.store(), leaf_of(&plan), 2).unwrap();
            while let Some(b) = scan.next_batch().unwrap() {
                assert!(
                    matches!(&b, Batch::Stored(rows) if rows.len() <= 2),
                    "{b:?}"
                );
            }
            // What a sink's kernel is handed is the drained stored rows,
            // not trees made of them.
            let mut sink = SinkOp {
                store: db.store(),
                inputs: vec![build(db.store(), leaf_of(&plan), 2).unwrap()],
                kernel: Some(Box::new(|ins| {
                    assert!(matches!(&ins[0], Batch::Stored(rows) if rows.len() == 3));
                    Ok((Batch::default(), None))
                })),
                output: Vec::new().into_iter(),
                batch: 2,
                meter: Meter::new("Sink".into()),
            };
            assert!(sink.next_batch().unwrap().is_none());
        }
    }

    #[test]
    fn tree_building_leaves_feed_the_sinks_the_same_bytes() {
        // The same article collection four ways: the stored rows of the
        // `[$1*]` leaf; the match rows of a `SelectDb`, read as their
        // one-node witness trees; the output of a `Project` through a
        // pattern other than its selection's; a fused leaf whose list
        // keeps more than the deep root. The sinks read the last three as
        // trees, and every grouping sink must produce from them what it
        // produces from the rows.
        let db = db();
        let article = PatternTree::with_root(tax::Pred::tag("article"));
        let root = article.root();
        let select_db = Plan::SelectDb {
            pattern: article,
            sl: vec![root],
        };
        let titled = parent_child("article", "title");
        let tree_leaves = [
            select_db.clone(),
            Plan::Project {
                input: Box::new(select_db),
                pattern: titled.clone(),
                pl: vec![ops::project::ProjectItem::deep(root)],
                anchor_root: true,
            },
            Plan::SelectProject {
                pl: vec![
                    ops::project::ProjectItem::deep(titled.root()),
                    ops::project::ProjectItem::shallow(1),
                ],
                pattern: titled,
                sl: vec![root],
            },
        ];
        for query in [QUERY_COUNT, QUERY1, QUERY_CUBE] {
            let (plan, _) = db.compile(query, PlanMode::GroupByRewrite).unwrap();
            let (reference, _) = execute(db.store(), &plan, &ExecOptions, 2).unwrap();
            for leaf in &tree_leaves {
                let twin = with_leaf(&plan, leaf.clone());
                let (out, metrics) = execute(db.store(), &twin, &ExecOptions, 2).unwrap();
                assert_eq!(to_xml(&db, &reference), to_xml(&db, &out), "{twin:?}");
                for m in chain(&metrics) {
                    let kind = match m.op.starts_with("SelectDb") {
                        true => OutKind::Matches,
                        false => OutKind::Trees,
                    };
                    assert_eq!(m.out_kind, Some(kind), "{}", m.op);
                }
            }
        }
    }

    #[test]
    fn repeated_and_overlapping_stored_rows_reach_the_sinks() {
        // A two-year article selected by `article[year]` with `PL=[$1*]`
        // is two equal stored rows, adjacent: not a disjoint scope list.
        // They must group as the same rows given as trees do — here
        // projected through the bare `article` pattern, which builds one
        // deep reference per row. Fused or not, a projection of a
        // selection through its own pattern emits the stored rows.
        let db = TimberDb::load_xml(
            "<bib>\
                <article><title>A</title><author>Jack</author><year>1999</year><year>2000</year></article>\
                <article><title>B</title><author>Jill</author><author>Jack</author><year>2001</year></article>\
                <article><title>C</title><author>John</author></article>\
            </bib>",
            &StoreOptions::in_memory(),
        )
        .unwrap();
        let dated = parent_child("article", "year");
        let root = dated.root();
        let pl = vec![ops::project::ProjectItem::deep(root)];
        let select_db = Box::new(Plan::SelectDb {
            pattern: dated.clone(),
            sl: vec![root],
        });
        let project = |pattern: PatternTree| Plan::Project {
            input: select_db.clone(),
            pattern,
            pl: pl.clone(),
            anchor_root: true,
        };
        let stored = [
            Plan::SelectProject {
                pattern: dated.clone(),
                sl: vec![root],
                pl: pl.clone(),
            },
            project(dated.clone()),
        ];
        let trees = project(PatternTree::with_root(tax::Pred::tag("article")));
        for query in [QUERY_COUNT, QUERY1, QUERY_CUBE] {
            let (plan, _) = db.compile(query, PlanMode::GroupByRewrite).unwrap();
            let run = |leaf: &Plan| {
                let twin = with_leaf(&plan, leaf.clone());
                execute(db.store(), &twin, &ExecOptions, 2).unwrap()
            };
            let (want, _) = run(&trees);
            for leaf in &stored {
                let (got, metrics) = run(leaf);
                assert_eq!(to_xml(&db, &want), to_xml(&db, &got), "{query}");
                let nodes = chain(&metrics);
                let feed = nodes.iter().find(|m| m.shards.is_some()).unwrap().children[0].clone();
                assert_eq!((feed.trees_out, feed.out_kind), (3, Some(OutKind::Stored)));
            }
        }
        // Jack's two-year article counts once per row it arrives in.
        let (plan, _) = db.compile(QUERY_COUNT, PlanMode::GroupByRewrite).unwrap();
        let twin = with_leaf(&plan, stored[0].clone());
        let (out, _) = execute(db.store(), &twin, &ExecOptions, 2).unwrap();
        let xml = to_xml(&db, &out);
        assert_eq!(
            xml.lines().next().unwrap(),
            "<authorpubs><author>Jack</author><count>3</count></authorpubs>",
        );
    }

    fn to_xml(db: &TimberDb, c: &Collection) -> String {
        c.iter()
            .map(|t| xmlparse::serialize::element_to_string(&t.materialize(db.store()).unwrap()))
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn every_batch_size_matches_the_one_batch_serial_run() {
        let db = db();
        for mode in [PlanMode::Direct, PlanMode::GroupByRewrite] {
            let (plan, _) = db.compile(QUERY1, mode).unwrap();
            let (reference, _) = execute(db.store(), &plan, &ExecOptions, usize::MAX).unwrap();
            for batch in [1, 2, 3, DEFAULT_BATCH_SIZE] {
                let (out, _) = execute(db.store(), &plan, &ExecOptions, batch).unwrap();
                assert_eq!(
                    to_xml(&db, &reference),
                    to_xml(&db, &out),
                    "{mode:?} batch={batch}"
                );
            }
        }
    }

    /// A sink over `input` whose kernel passes its drained input through
    /// and counts its runs.
    fn counting_sink<'a>(
        db: &'a TimberDb,
        input: &'a Plan,
        runs: &'a Cell<usize>,
        fail: bool,
    ) -> SinkOp<'a> {
        SinkOp {
            store: db.store(),
            inputs: vec![build(db.store(), input, 2).unwrap()],
            kernel: Some(Box::new(move |mut ins| {
                runs.set(runs.get() + 1);
                if fail {
                    return Err(tax::Error::Unsupported("kernel failed".into()));
                }
                Ok((ins.remove(0), None))
            })),
            output: Vec::new().into_iter(),
            batch: 2,
            meter: Meter::new("Sink".into()),
        }
    }

    #[test]
    fn sink_kernel_runs_exactly_once() {
        let db = db();
        let (plan, _) = db.compile(QUERY1, PlanMode::Direct).unwrap();
        let Plan::StitchConstruct { outer, .. } = &plan else {
            panic!()
        };
        let runs = Cell::new(0);
        let mut sink = counting_sink(&db, outer, &runs, false);
        let mut trees = 0;
        while let Some(b) = sink.next_batch().unwrap() {
            assert!(b.len() <= 2);
            trees += b.len();
        }
        assert_eq!(trees, 3); // Jack, John, Jill
                              // Pulling an exhausted sink neither re-drains nor re-runs.
        for _ in 0..3 {
            assert!(sink.next_batch().unwrap().is_none());
        }
        assert_eq!(runs.get(), 1);
        let m = sink.metrics();
        assert_eq!((m.trees_in, m.trees_out, m.batches), (3, 3, 2));
    }

    #[test]
    fn sink_kernel_error_is_typed_and_terminal() {
        let db = db();
        let (plan, _) = db.compile(QUERY1, PlanMode::Direct).unwrap();
        let Plan::StitchConstruct { outer, .. } = &plan else {
            panic!()
        };
        let runs = Cell::new(0);
        let mut sink = counting_sink(&db, outer, &runs, true);
        let err = sink.next_batch().unwrap_err();
        assert!(
            matches!(
                err,
                crate::TimberError::Algebra(tax::Error::Unsupported(ref m)) if m == "kernel failed"
            ),
            "{err:?}"
        );
        // A further pull reports exhaustion; the kernel is not retried.
        assert!(sink.next_batch().unwrap().is_none());
        assert_eq!(runs.get(), 1);
    }

    #[test]
    fn map_kernel_error_on_a_later_batch_is_typed() {
        let db = db();
        let (plan, _) = db.compile(QUERY1, PlanMode::Direct).unwrap();
        let Plan::StitchConstruct { outer, .. } = &plan else {
            panic!()
        };
        // 3 distinct-author trees arrive one per batch; the kernel
        // fails on the second.
        let mut calls = 0;
        let mut op = MapOp {
            store: db.store(),
            input: build(db.store(), outer, 1).unwrap(),
            kernel: Box::new(move |batch| {
                calls += 1;
                if calls == 2 {
                    return Err(tax::Error::Unsupported("batch 2 failed".into()));
                }
                Ok(batch)
            }),
            meter: Meter::new("Map".into()),
        };
        assert_eq!(op.next_batch().unwrap().map(|b| b.len()), Some(1));
        let err = op.next_batch().unwrap_err();
        assert!(
            matches!(
                err,
                crate::TimberError::Algebra(tax::Error::Unsupported(ref m)) if m == "batch 2 failed"
            ),
            "{err:?}"
        );
        // The stream carries on with the next input batch, then ends.
        assert_eq!(op.next_batch().unwrap().map(|b| b.len()), Some(1));
        assert!(op.next_batch().unwrap().is_none());
        assert!(op.next_batch().unwrap().is_none());
    }

    #[test]
    fn empty_input_reports_one_serial_partition() {
        // An empty store still runs every sink once; the grouping sink
        // reports its one partition and its stage times, the join sinks
        // of the direct plan time no stages.
        fn sinks(m: &PlanMetrics) -> Vec<&ShardStats> {
            m.shards
                .iter()
                .chain(m.children.iter().flat_map(sinks))
                .collect()
        }
        let db = TimberDb::load_xml("<bib/>", &StoreOptions::in_memory()).unwrap();
        for (mode, grouping_sinks) in [(PlanMode::Direct, 0), (PlanMode::GroupByRewrite, 1)] {
            let (plan, _) = db.compile(QUERY1, mode).unwrap();
            let (trees, metrics) = execute(db.store(), &plan, &ExecOptions, 2).unwrap();
            assert!(trees.is_empty());
            let stats = sinks(&metrics);
            assert_eq!(stats.len(), grouping_sinks, "{mode:?}");
            assert!(stats.iter().all(|s| s.partitions == 1));
            let text = metrics.render();
            assert_eq!(text.matches(" stages=").count(), grouping_sinks, "{text}");
        }
    }

    #[test]
    fn kernel_panic_is_contained_and_store_survives() {
        // A kernel that panics fails its query with a typed error at the
        // drain, and the store it was reading keeps answering.
        let db = db();
        let want = db.query(QUERY1, PlanMode::Direct).unwrap();
        let (plan, _) = db.compile(QUERY1, PlanMode::Direct).unwrap();
        let Plan::StitchConstruct { outer, .. } = &plan else {
            panic!()
        };
        let mut sink = SinkOp {
            store: db.store(),
            inputs: vec![build(db.store(), outer, 2).unwrap()],
            kernel: Some(Box::new(|_| panic!("poisoned kernel"))),
            output: Vec::new().into_iter(),
            batch: 2,
            meter: Meter::new("Sink".into()),
        };
        let err = drain(&mut sink).unwrap_err();
        assert!(
            matches!(
                err,
                crate::TimberError::Algebra(tax::Error::Panic(ref m)) if m == "poisoned kernel"
            ),
            "{err:?}"
        );
        let again = db.query(QUERY1, PlanMode::Direct).unwrap();
        assert_eq!(to_xml(&db, &again.trees), to_xml(&db, &want.trees));
    }

    #[test]
    fn streaming_select_batches_bounded() {
        let db = db();
        let (plan, _) = db.compile(QUERY1, PlanMode::Direct).unwrap();
        let Plan::StitchConstruct { outer, .. } = &plan else {
            panic!()
        };
        // The outer pipeline ends in dup-elim over 5 author bindings.
        let (_, metrics) = execute(db.store(), outer, &ExecOptions, 2).unwrap();
        assert_eq!(metrics.trees_out, 3); // Jack, John, Jill
                                          // The select leaf produced its 5 witnesses in ceil(5/2) batches.
        let mut leaf = &metrics;
        while !leaf.children.is_empty() {
            leaf = &leaf.children[0];
        }
        assert!(leaf.op.starts_with("SelectDb"), "{}", leaf.op);
        assert_eq!(leaf.trees_out, 5);
        assert_eq!(leaf.batches, 3);
    }

    #[test]
    fn dupelim_seen_set_spans_batches() {
        let db = db();
        let (plan, _) = db.compile(QUERY1, PlanMode::Direct).unwrap();
        let Plan::StitchConstruct { outer, .. } = &plan else {
            panic!()
        };
        // Batch size 1: each author binding arrives alone; duplicates
        // (Jack, John appear twice) must still be dropped globally.
        let (trees, _) = execute(db.store(), outer, &ExecOptions, 1).unwrap();
        assert_eq!(trees.len(), 3);
    }

    #[test]
    fn dupelim_keeps_trees_its_pattern_does_not_match() {
        // As `ops::dupelim::dup_elim` documents: no match, no key, kept.
        let db = db();
        let scan = PatternTree::with_root(tax::Pred::tag("article"));
        let root = scan.root();
        let plan = Plan::DupElim {
            input: Box::new(Plan::SelectDb {
                pattern: scan,
                sl: vec![root],
            }),
            pattern: PatternTree::with_root(tax::Pred::tag("no_such_tag")),
            by: 0,
        };
        let (trees, _) = execute(db.store(), &plan, &ExecOptions, 2).unwrap();
        assert_eq!(trees.len(), 3);
    }

    #[test]
    fn metrics_cover_every_operator() {
        let db = db();
        let (plan, _) = db.compile(QUERY1, PlanMode::GroupByRewrite).unwrap();
        let (trees, metrics) = execute(db.store(), &plan, &ExecOptions, 8).unwrap();
        assert_eq!(metrics.trees_out, trees.len());
        // Every plan node has a metrics node with a recorded batch count.
        fn check(m: &PlanMetrics) -> usize {
            assert!(!m.op.is_empty());
            assert!(m.trees_out == 0 || m.batches > 0, "{}", m.op);
            1 + m.children.iter().map(check).sum::<usize>()
        }
        let nodes = check(&metrics);
        assert_eq!(nodes, metrics.node_count());
        assert!(nodes >= 4, "expected a multi-operator plan, got {nodes}");
        // The grouped plan runs entirely over the columnar label region:
        // tag tests, grouping keys, and counts never touch a data page.
        assert_eq!(metrics.total_page_requests(), 0);
    }

    #[test]
    fn blocking_sinks_emit_in_batches() {
        let db = db();
        let (plan, _) = db.compile(QUERY1, PlanMode::Direct).unwrap();
        let mut root = build(db.store(), &plan, 2).unwrap();
        let mut sizes = Vec::new();
        while let Some(b) = root.next_batch().unwrap() {
            assert!(!b.is_empty());
            sizes.push(b.len());
        }
        // 3 authorpubs trees in batches of ≤ 2.
        assert_eq!(sizes.iter().sum::<usize>(), 3);
        assert!(sizes.iter().all(|&s| s <= 2));
        assert!(sizes.len() >= 2);
    }
}
