//! The physical executor: a logical [`Plan`] tree, run operator by
//! operator.
//!
//! The paper evaluates a query as a short chain of TAX operators, each
//! over a whole collection (Sec. 4–5), and so does `run`: it runs a
//! plan node's inputs, then calls the node's `tax::ops` kernel once on
//! their whole output — the selection matches its pattern against the
//! database once (one binding table), and every other operator reads
//! its inputs' rows as they were emitted. Every compiled plan ends in a
//! blocking operator (`GroupBy`, `Rollup` or the stitch) that needs all
//! the rows below it anyway. Each plan node is one operator run and one
//! metrics line, labelled as EXPLAIN prints the node.
//!
//! What moves between operators is a [`Batch`]: stored rows (node
//! labels, each standing for its whole subtree), a selection's match
//! rows, groups, or one-level rows — never a tree. A `Project` over a
//! `SelectDb` of its own pattern projects the selection's match rows
//! (the one fused select→project), so a subject scan — the GROUPBY
//! plans', and the `CUBE BY` scan in either mode, whose list keeps one
//! deep node per row — hands the grouping sinks stored rows, and the
//! direct plan's projections pass their match rows on up to the stitch.
//! A `GroupBy` carrying Fig. 5d's member path gathers each group's row
//! in its one pass over the stored rows (`GroupBy → Project`); without
//! one it emits groups, which an `Aggregate` appends its value to, and
//! which a `Project` of the literal count plan's shape over the
//! `Aggregate` writes out; the left outer join emits its pairs as
//! groups. The gather, `Rollup` at one level or every prefix level, the
//! count plan's projection and the stitch emit one-level rows, and
//! `Rename` over them sets their tag, so a plan's output is rows. Each
//! kernel refuses any other input with a typed `tax::Error::Unsupported`,
//! and [`TimberDb::run_plan`](crate::TimberDb::run_plan) refuses a plan
//! whose root emits no rows.
//!
//! Every operator meters its own kernel call — rows in/out (and what
//! kind of rows it emitted), wall time, and this thread's kernel-row
//! counts — into a [`PlanMetrics`] tree; its inputs' work is
//! charged to them. No kernel reads a page: keys are interned symbols on
//! the label columns, and values are fetched only when the output is
//! written.
//!
//! A query runs on the calling thread, one serial kernel per operator;
//! concurrency is between queries. The [`tax::exec::contain`] call
//! around the root `run` is the one panic boundary: a kernel that
//! panics fails its query with `tax::Error::Panic`, and the store keeps
//! answering.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::error::Result;
use crate::metrics::{OutKind, PlanMetrics};
use std::time::Instant;
pub use tax::batch::Batch;
use tax::batch::Matches;
use tax::exec::{ExecOptions, ShardStats, Stages};
use tax::ops;
use tax::Error;
use xmlstore::DocumentStore;
use xquery::plan::Levels;
use xquery::Plan;

/// A batch size for callers that pass one to [`execute`], which ignores
/// it: every operator runs once over its whole input.
pub const DEFAULT_BATCH_SIZE: usize = 256;

/// Run a logical plan: its output rows and per-operator metrics, as
/// `evaluate` gives them. [`ExecOptions`] sets nothing and `batch` is
/// ignored; both are taken for callers that pass them.
pub fn execute(
    store: &DocumentStore,
    plan: &Plan,
    _: &ExecOptions,
    _batch: usize,
) -> Result<(Batch, PlanMetrics)> {
    evaluate(store, plan)
}

/// Run a logical plan: its output rows and per-operator metrics.
pub(crate) fn evaluate(store: &DocumentStore, plan: &Plan) -> Result<(Batch, PlanMetrics)> {
    contained(|| run(store, plan))
}

/// The output of `root`. A kernel panicking anywhere in it is contained
/// here and returned as `tax::Error::Panic`.
fn contained(root: impl FnOnce() -> Result<(Batch, PlanMetrics)>) -> Result<(Batch, PlanMetrics)> {
    tax::exec::contain(root)?
}

/// Run `plan`'s inputs, then its kernel once on their whole output, in
/// one metered window: the operator's output and the metrics of it and
/// everything below it. The first error, in an input or in the kernel,
/// ends the run.
pub(crate) fn run(store: &DocumentStore, plan: &Plan) -> Result<(Batch, PlanMetrics)> {
    let (mut ins, mut children) = (Vec::new(), Vec::new());
    for input in inputs(plan) {
        let (rows, metrics) = run(store, input)?;
        ins.push(rows);
        children.push(metrics);
    }
    let trees_in = ins.iter().map(Batch::len).sum();
    let meter = Meter::start();
    let out = kernel(store, plan, ins);
    let mut metrics = meter.stop(op_label(plan), children);
    let (out, stages) = out?;
    metrics.trees_in = trees_in;
    metrics.trees_out = out.len();
    metrics.out_kind = (!out.is_empty()).then_some(match &out {
        Batch::Stored(_) => OutKind::Stored,
        Batch::Matches(_) => OutKind::Matches,
        Batch::Groups(_) => OutKind::Groups,
        Batch::Rows(_) => OutKind::Rows,
    });
    metrics.shards = stages.map(ShardStats::new);
    Ok((out, metrics))
}

/// The input plans of `plan`, in plan order.
fn inputs(plan: &Plan) -> Vec<&Plan> {
    match plan {
        Plan::SelectDb { .. } => Vec::new(),
        Plan::Project { input, .. }
        | Plan::DupElim { input, .. }
        | Plan::Aggregate { input, .. }
        | Plan::Rename { input, .. }
        | Plan::GroupBy { input, .. }
        | Plan::Rollup { input, .. } => vec![input],
        Plan::LeftOuterJoinDb { left, .. } => vec![left],
        Plan::StitchConstruct { outer, inner, .. } => {
            std::iter::once(&**outer).chain(inner.as_deref()).collect()
        }
    }
}

/// `plan`'s own kernel on its inputs' output (one batch per input, in
/// plan order): its output rows plus, for a grouping sink, its stage
/// times.
fn kernel(
    store: &DocumentStore,
    plan: &Plan,
    ins: Vec<Batch>,
) -> tax::Result<(Batch, Option<Stages>)> {
    let mut ins = ins.into_iter();
    let input = ins.next().unwrap_or_default();
    let staged = |(out, stages): (Batch, Stages)| (out, Some(stages));
    Ok(match plan {
        Plan::SelectDb { pattern, sl } => {
            (Batch::Matches(Matches::select(store, pattern, sl)?), None)
        }
        // A projection of a selection through the selection's own
        // pattern is the fused one over its rows, and a final projection
        // over the groups an `Aggregate` appended to writes its output
        // from the columns.
        Plan::Project {
            input: from,
            pattern,
            pl,
            anchor_root,
        } => match (&**from, input) {
            (Plan::SelectDb { pattern: p, .. }, Batch::Matches(rows))
                if *anchor_root && p == pattern =>
            {
                (rows.project(pl)?, None)
            }
            (from, input) => {
                let (grouping, appended) = match from {
                    Plan::Aggregate { input, new_tag, .. } => (&**input, Some(&new_tag[..])),
                    from => (from, None),
                };
                let grouped = match grouping {
                    Plan::GroupBy { pattern, basis, .. } => Some((pattern, &basis[..])),
                    _ => None,
                };
                let projection =
                    ops::project::Projection::new(pattern, pl, *anchor_root, grouped, appended);
                (projection.project(input)?, None)
            }
        },
        Plan::DupElim { pattern, by, .. } => {
            (ops::dupelim::dup_elim(store, input, pattern, *by)?, None)
        }
        Plan::Aggregate {
            pattern,
            func,
            of,
            new_tag,
            spec,
            ..
        } => {
            let Batch::Groups(groups) = input else {
                return Err(Error::Unsupported("aggregation folds groups".into()));
            };
            let out = ops::aggregate::aggregate(store, groups, pattern, *func, *of, new_tag, *spec);
            (Batch::Groups(out?), None)
        }
        Plan::Rename { tag, .. } => (ops::rename::rename_root(store.dict(), input, tag)?, None),
        // Given Fig. 5d's member path, the grouping's one pass gathers
        // each group's output row; without it, the groups as columns.
        Plan::GroupBy {
            pattern,
            basis,
            ordering,
            gather,
            ..
        } => staged(match gather {
            None => ops::groupby::groupby(store, &input, pattern, basis, ordering)?,
            Some((member, extract)) => {
                let member = (member, *extract);
                ops::groupby::gather(store, &input, pattern, basis, ordering, member)?
            }
        }),
        // The fused grouped aggregate folds each row's contribution into
        // running per-group accumulators instead of materializing group
        // trees, so rows in greatly exceed groups out: at the finest
        // level, or at every prefix level in the one scan (the lattice,
        // levels emitted coarsest first).
        Plan::Rollup {
            pattern,
            basis,
            member_pattern,
            of,
            func,
            new_tag,
            flat,
            levels,
            ..
        } => {
            let (mp, of, func) = (member_pattern, *of, *func);
            staged(match levels {
                Levels::Finest => {
                    let shape = match flat {
                        true => ops::rollup::RollupShape::Flat,
                        false => ops::rollup::RollupShape::Grouped,
                    };
                    ops::rollup::rollup(
                        store, &input, pattern, basis, mp, of, func, new_tag, shape,
                    )?
                }
                Levels::EveryPrefix if *flat => {
                    ops::cube::cube(store, &input, pattern, basis, mp, of, func, new_tag)?
                }
                Levels::EveryPrefix => {
                    return Err(Error::Unsupported("a cube emits the flat shape".into()))
                }
            })
        }
        // The join sinks time no stages.
        Plan::LeftOuterJoinDb {
            left_pattern,
            left_label,
            right_pattern,
            right_label,
            right_sl,
            ..
        } => {
            let pairs = ops::join::left_outer_join_db(
                store,
                &input,
                left_pattern,
                *left_label,
                right_pattern,
                *right_label,
                right_sl,
            )?;
            (Batch::Groups(pairs), None)
        }
        // The RETURN stitching pairs every outer row with the parts of
        // the subjects its key joined.
        Plan::StitchConstruct {
            outer_pattern,
            outer_label,
            inner,
            agg,
            tag,
            ..
        } => {
            let members = match inner.as_deref() {
                None => None,
                Some(Plan::LeftOuterJoinDb {
                    right_pattern,
                    right_sl,
                    right_extract,
                    order,
                    ..
                }) => Some(ops::join::Members::new(
                    right_pattern,
                    right_sl,
                    *right_extract,
                    *order,
                )?),
                Some(_) => {
                    return Err(Error::Unsupported(
                        "the stitch's inner input is a left outer join".into(),
                    ))
                }
            };
            let pairs = match ins.next() {
                Some(Batch::Groups(pairs)) => Some(pairs),
                _ => None,
            };
            let rows = ops::join::stitch(
                store,
                &input,
                outer_pattern,
                *outer_label,
                pairs.as_ref().zip(members.as_ref()),
                agg.as_ref().map(|(f, t)| (*f, t.as_str())),
                tag,
            )?;
            (Batch::Rows(rows), None)
        }
    })
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

/// One operator's open measurement window: its start instant and the
/// counters its stop subtracts — this thread's kernel rows.
struct Meter {
    start: Instant,
    vec_rows: u64,
    vec_fallback: u64,
}

impl Meter {
    fn start() -> Meter {
        Meter {
            start: Instant::now(),
            vec_rows: xmlstore::kernels::vec_rows(),
            vec_fallback: xmlstore::kernels::fallback_rows(),
        }
    }

    /// Close the window: the operator's metrics over it, rows not yet
    /// counted.
    fn stop(self, op: String, children: Vec<PlanMetrics>) -> PlanMetrics {
        PlanMetrics {
            op,
            elapsed: self.start.elapsed(),
            vec_rows: xmlstore::kernels::vec_rows().saturating_sub(self.vec_rows),
            vec_fallback: xmlstore::kernels::fallback_rows().saturating_sub(self.vec_fallback),
            children,
            ..PlanMetrics::default()
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::{PlanMode, TimberDb};
    use tax::pattern::PatternTree;
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

    fn exec(db: &TimberDb, plan: &Plan) -> (Batch, PlanMetrics) {
        evaluate(db.store(), plan).unwrap()
    }

    /// A grouped plan's grouping sink (the plans here are chains).
    fn sink_of(plan: &Plan) -> &Plan {
        match plan {
            Plan::GroupBy { .. } | Plan::Rollup { .. } => plan,
            Plan::Rename { input, .. } => sink_of(input),
            other => panic!("no grouping sink above {other:?}"),
        }
    }

    /// A compiled grouped plan's grouping sink, under its `Rename`.
    fn sink_of_mut(plan: &mut Plan) -> &mut Plan {
        match plan {
            Plan::Rename { input, .. } => input,
            other => panic!("no rename above {other:?}"),
        }
    }

    /// `plan` with its grouping sink's input replaced.
    fn with_leaf(plan: &Plan, leaf: Plan) -> Plan {
        let mut plan = plan.clone();
        match sink_of_mut(&mut plan) {
            Plan::GroupBy { input, .. } | Plan::Rollup { input, .. } => **input = leaf,
            other => panic!("no grouping sink: {other:?}"),
        }
        plan
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
            let (rows, metrics) = exec(&db, &plan);
            assert!(!rows.is_empty());
            // The selection hands on its match rows, the projection over
            // it emits stored rows — no tree, nothing re-matched — a
            // `GroupBy` over them emits groups as columns, and every other
            // operator above it emits one-level rows; the rendering says
            // which.
            let nodes = chain(&metrics);
            let [above @ .., leaf, select] = &nodes[..] else {
                panic!("{}", metrics.render())
            };
            assert!(select.op.starts_with("SelectDb"), "{}", select.op);
            assert_eq!(select.out_kind, Some(OutKind::Matches));
            assert!(leaf.op.starts_with("Project"), "{}", leaf.op);
            assert_eq!(leaf.out_kind, Some(OutKind::Stored));
            // `GroupBy` alone emits groups; with Fig. 5d's member path
            // (`GroupBy → Project`), rows.
            let groups = |op: &str| op.starts_with("GroupBy") && !op.contains("→ Project");
            let kind = |m: &PlanMetrics| match groups(&m.op) {
                true => (OutKind::Groups, " groups time="),
                false => (OutKind::Rows, " rows time="),
            };
            assert!(above.iter().all(|m| m.out_kind == Some(kind(m).0)));
            let text = metrics.render();
            let lines: Vec<&str> = text.lines().collect();
            let n = lines.len();
            assert!(lines[n - 1].contains(" out=3 matches time="));
            assert!(lines[n - 2].contains(" out=3 stored time="));
            for (line, m) in lines.iter().zip(above) {
                assert!(line.contains(kind(m).1), "{line}");
            }
            // The grouping sink is the scan's consumer and took all of
            // its rows.
            let sink = above[above.len() - 1];
            assert!(sink.shards.is_some(), "{}", sink.op);
            assert_eq!(sink.trees_in, leaf.trees_out);

            // What the sink's kernel is handed is the scan's output: the
            // stored rows, not trees made of them, and it groups them as
            // the whole plan does.
            let grouping = sink_of(&plan);
            let (rows, _) = run(db.store(), inputs(grouping)[0]).unwrap();
            assert!(
                matches!(&rows, Batch::Stored(r) if r.len() == 3),
                "{rows:?}"
            );
            let (direct, _) = kernel(db.store(), grouping, vec![rows]).unwrap();
            let (whole, _) = run(db.store(), grouping).unwrap();
            assert_eq!(direct, whole, "{}", sink.op);
        }
    }

    #[test]
    fn the_paper_queries_leave_the_executor_as_rows() {
        // Every compiled plan's root emits one-level rows, which the
        // result holds as they are.
        let db = db();
        for query in [QUERY1, QUERY_COUNT, QUERY_CUBE] {
            for mode in [PlanMode::Direct, PlanMode::GroupByRewrite] {
                let r = db.query(query, mode).unwrap();
                let root = r.metrics.as_ref().map(|m| m.out_kind);
                assert_eq!(root, Some(Some(OutKind::Rows)), "{mode:?}: {query}");
                let rows = r.output.len();
                assert!(rows > 0 && rows == r.len(), "{mode:?}: {query}");
            }
        }
    }

    #[test]
    fn each_route_outside_the_rows_the_plans_feed_is_a_typed_refusal() {
        // Hand-built plans that would need a tree as an operator's input:
        // each fails with `Unsupported`, and the store answers the next
        // query. The kernels' own refusals are `tax::batch`'s to check.
        let db = db();
        let want = db.query(QUERY1, PlanMode::GroupByRewrite).unwrap();
        let want = want.to_xml_on(db.store()).unwrap();
        let article = PatternTree::with_root(tax::Pred::tag("article"));
        let selection = Plan::SelectDb {
            sl: vec![article.root()],
            pattern: article.clone(),
        };
        let compiled = |query| db.compile(query, PlanMode::GroupByRewrite).unwrap().0;
        let (grouped, counted) = (compiled(QUERY1), compiled(QUERY_COUNT));
        let mut plans: Vec<Plan> = [QUERY1, QUERY_COUNT, QUERY_CUBE]
            .map(|query| with_leaf(&compiled(query), selection.clone()))
            .into();
        plans.push(selection);
        // A `GroupBy` without its member path emits groups, not rows.
        let mut groups = sink_of(&grouped).clone();
        let Plan::GroupBy { gather, .. } = &mut groups else {
            panic!("{grouped:?}")
        };
        *gather = None;
        plans.push(Plan::Rename {
            input: Box::new(groups),
            tag: "x".into(),
        });
        let mut grouped_shape = counted.clone();
        let Plan::Rollup { flat, .. } = sink_of_mut(&mut grouped_shape) else {
            panic!("{counted:?}")
        };
        *flat = false;
        plans.push(grouped_shape);
        let mut grouped_lattice = compiled(QUERY_CUBE);
        let Plan::Rollup { flat, .. } = sink_of_mut(&mut grouped_lattice) else {
            unreachable!()
        };
        *flat = false;
        plans.push(grouped_lattice);
        for plan in &plans {
            let err = db.run_plan(plan, true).unwrap_err();
            assert!(
                matches!(err, crate::TimberError::Algebra(tax::Error::Unsupported(_))),
                "{plan:?}: {err:?}"
            );
            let again = db.query(QUERY1, PlanMode::GroupByRewrite).unwrap();
            assert_eq!(again.to_xml_on(db.store()).unwrap(), want);
        }
    }

    #[test]
    fn dupelim_keyed_off_its_selections_binding_is_refused() {
        // `DupElim` keys the rows of a selection of its own pattern bound
        // at `by`. Keyed by a pattern the selection did not match, or fed
        // stored rows, it has no key column to read: a typed refusal, not
        // a pass-through of unkeyed rows.
        let db = db();
        let article = PatternTree::with_root(tax::Pred::tag("article"));
        let root = article.root();
        let selection = Plan::SelectDb {
            pattern: article.clone(),
            sl: vec![root],
        };
        let scan = Plan::Project {
            input: Box::new(selection.clone()),
            pattern: article.clone(),
            pl: vec![ops::project::ProjectItem::deep(root)],
            anchor_root: true,
        };
        let dedup = |input: &Plan, pattern: &PatternTree| Plan::DupElim {
            input: Box::new(input.clone()),
            pattern: pattern.clone(),
            by: root,
        };
        // Keyed by its selection's binding it keeps one row: no article
        // has content, and nodes without content share one key.
        let (kept, _) = evaluate(db.store(), &dedup(&selection, &article)).unwrap();
        assert!(
            matches!(kept, Batch::Matches(_)) && kept.len() == 1,
            "{kept:?}"
        );
        let unmatched = PatternTree::with_root(tax::Pred::tag("no_such_tag"));
        for plan in [dedup(&selection, &unmatched), dedup(&scan, &article)] {
            let err = evaluate(db.store(), &plan).unwrap_err();
            assert!(
                matches!(
                    err,
                    crate::TimberError::Algebra(tax::Error::Unsupported(ref m))
                        if m == "keys by a scan's bound node"
                ),
                "{plan:?}: {err:?}"
            );
        }
    }

    #[test]
    fn repeated_and_overlapping_stored_rows_reach_the_sinks() {
        // A two-year article selected by `article[year]` with `PL=[$1*]`
        // is two equal stored rows, adjacent: not a disjoint scope list.
        // A projection of a selection through its own pattern emits the
        // stored rows, and every sink groups them: the rollup counts per
        // row, the gather writes the article's title once.
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
        let stored = Plan::Project {
            input: Box::new(Plan::SelectDb {
                pattern: dated.clone(),
                sl: vec![root],
            }),
            pattern: dated,
            pl: vec![ops::project::ProjectItem::deep(root)],
            anchor_root: true,
        };
        for (query, want) in [
            (
                QUERY_COUNT,
                "<authorpubs><author>Jack</author><count>3</count></authorpubs>\n\
                 <authorpubs><author>Jill</author><count>1</count></authorpubs>",
            ),
            (
                QUERY1,
                "<authorpubs><author>Jack</author><title>A</title><title>B</title></authorpubs>\n\
                 <authorpubs><author>Jill</author><title>B</title></authorpubs>",
            ),
            (
                QUERY_CUBE,
                "<pubs><author>Jack</author><count>3</count></pubs>\n\
                 <pubs><author>Jill</author><count>1</count></pubs>\n\
                 <pubs><author>Jack</author><title>A</title><count>2</count></pubs>\n\
                 <pubs><author>Jill</author><title>B</title><count>1</count></pubs>\n\
                 <pubs><author>Jack</author><title>B</title><count>1</count></pubs>",
            ),
        ] {
            let (plan, _) = db.compile(query, PlanMode::GroupByRewrite).unwrap();
            let (got, metrics) = exec(&db, &with_leaf(&plan, stored.clone()));
            assert_eq!(to_xml(&db, &got), want, "{query}");
            let nodes = chain(&metrics);
            let feed = nodes.iter().find(|m| m.shards.is_some()).unwrap().children[0].clone();
            assert_eq!((feed.trees_out, feed.out_kind), (3, Some(OutKind::Stored)));
        }
    }

    fn to_xml(db: &TimberDb, rows: &Batch) -> String {
        let mut out = String::new();
        tax::output::write_xml_lines(db.store(), rows, &mut out).unwrap();
        out.lines().collect::<Vec<_>>().join("\n")
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
            let (rows, metrics) = exec(&db, &plan);
            assert!(rows.is_empty());
            let stats = sinks(&metrics);
            assert_eq!(stats.len(), grouping_sinks, "{mode:?}");
            assert!(stats.iter().all(|s| s.partitions == 1));
            let text = metrics.render();
            assert_eq!(text.matches(" stages=").count(), grouping_sinks, "{text}");
        }
    }

    #[test]
    fn sink_kernel_error_is_typed_and_terminal() {
        // A duplicate elimination keyed by a label its pattern lacks
        // fails; the run ends there with its typed error, so the stitch
        // above it — whose own inner input it would refuse — never runs.
        let db = db();
        let (plan, _) = db.compile(QUERY1, PlanMode::Direct).unwrap();
        let Plan::StitchConstruct { outer, .. } = &plan else {
            panic!()
        };
        let Plan::DupElim { input, pattern, .. } = &**outer else {
            panic!("{outer:?}")
        };
        let failing = Plan::DupElim {
            input: input.clone(),
            pattern: pattern.clone(),
            by: 7,
        };
        let stitch = |outer: Plan| match &plan {
            Plan::StitchConstruct {
                outer_pattern,
                outer_label,
                agg,
                tag,
                ..
            } => Plan::StitchConstruct {
                outer: Box::new(outer),
                outer_pattern: outer_pattern.clone(),
                outer_label: *outer_label,
                inner: Some(input.clone()),
                agg: agg.clone(),
                tag: tag.clone(),
            },
            _ => unreachable!(),
        };
        let refused = evaluate(db.store(), &stitch((**outer).clone())).unwrap_err();
        assert!(
            matches!(
                refused,
                crate::TimberError::Algebra(tax::Error::Unsupported(ref m))
                    if m == "the stitch's inner input is a left outer join"
            ),
            "{refused:?}"
        );
        let err = evaluate(db.store(), &stitch(failing.clone())).unwrap_err();
        let alone = evaluate(db.store(), &failing).unwrap_err();
        assert!(matches!(err, crate::TimberError::Algebra(_)), "{err:?}");
        assert_eq!(format!("{err:?}"), format!("{alone:?}"));
        // Nothing is left half run: the store answers the next query.
        assert_eq!(exec(&db, &plan).0.len(), 3);
    }

    #[test]
    fn kernel_panic_is_contained_and_store_survives() {
        // A kernel that panics fails its query with a typed error at the
        // one boundary around the root run, and the store it was reading
        // keeps answering.
        let db = db();
        let want = db.query(QUERY1, PlanMode::Direct).unwrap();
        let (plan, _) = db.compile(QUERY1, PlanMode::Direct).unwrap();
        let Plan::StitchConstruct { outer, .. } = &plan else {
            panic!()
        };
        let err = contained(|| {
            let (rows, metrics) = run(db.store(), outer)?;
            assert_eq!(rows.len(), 3);
            panic!("poisoned kernel after {}", metrics.op)
        })
        .unwrap_err();
        assert!(
            matches!(
                err,
                crate::TimberError::Algebra(tax::Error::Panic(ref m))
                    if m.starts_with("poisoned kernel after DupElim")
            ),
            "{err:?}"
        );
        let again = db.query(QUERY1, PlanMode::Direct).unwrap();
        assert_eq!(
            again.to_xml_on(db.store()).unwrap(),
            want.to_xml_on(db.store()).unwrap()
        );
    }

    #[test]
    fn metrics_cover_every_operator() {
        // In both modes on Fig. 6: one metrics node per plan node, each
        // labelled as EXPLAIN prints the node, and each operator's rows
        // in are its inputs' rows out.
        fn check(m: &PlanMetrics) -> usize {
            assert!(!m.op.is_empty());
            let fed: usize = m.children.iter().map(|c| c.trees_out).sum();
            assert_eq!(m.trees_in, fed, "{}", m.op);
            1 + m.children.iter().map(check).sum::<usize>()
        }
        let db = db();
        for (mode, operators) in [(PlanMode::Direct, 8), (PlanMode::GroupByRewrite, 4)] {
            let (plan, _) = db.compile(QUERY1, mode).unwrap();
            let (rows, metrics) = exec(&db, &plan);
            assert_eq!(metrics.trees_out, rows.len());
            let nodes = check(&metrics);
            assert_eq!((nodes, metrics.node_count()), (operators, operators));
            let (explained, ran) = (plan.explain(), metrics.render());
            let explained = explained.lines().map(str::trim_start);
            let ran = ran
                .lines()
                .map(|l| l.trim_start().split(" | ").next().unwrap());
            assert!(ran.eq(explained), "{}", metrics.render());
        }
    }
}
