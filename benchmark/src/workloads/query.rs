//! `titles` and `count`: the paper's two experiments as read workloads
//! over a fixed on-disk store. Each op is query text in, result bytes
//! out (`TimberDb::query` + `QueryResult::to_xml_on`).

use super::{closed_loop, query_xml, text, timed_setup, Ctx, Phase, Res};
use crate::inputs;
use crate::stats::{median, Report};
use crate::sys;
use crate::trace::{covered_ms, self_ms_by_name, Recorder};
use std::path::Path;
use std::time::Instant;
use timber::{PlanMetrics, PlanMode, TimberDb};
use xmlstore::{IoStats, StoreOptions, PAGE_SIZE};
use xquery::Plan;

/// The second op type of a query workload.
pub enum Alt {
    /// The same query on a second store whose pool holds `pool_pages`
    /// pages — less than the data — emptied before each op.
    Cold { pool_pages: usize },
    /// The same query on a handle with `min(nproc, 4)` worker threads.
    Par,
}

pub struct QuerySpec {
    pub name: &'static str,
    pub articles: usize,
    pub query: &'static str,
    pub alt: Alt,
    /// Fewest warm ops; 100 leaves p90 its ten samples beyond.
    pub min_ops: usize,
    pub min_alt_ops: usize,
    /// Share of the run the warm loop gets; the alt loop gets the rest.
    pub warm_share: f64,
}

/// Pool of the warm store: the paper's 32 MB, here more than the data.
const WARM_POOL_PAGES: usize = 4096;

pub const TITLES: QuerySpec = QuerySpec {
    name: "titles",
    articles: 12_000,
    query: timber_bench::QUERY_TITLES,
    // 1.25 MB against a ~4.5 MB store: the paper's 32 MB against 100 MB.
    alt: Alt::Cold { pool_pages: 160 },
    min_ops: 100,
    min_alt_ops: 12,
    warm_share: 0.75,
};

pub const COUNT: QuerySpec = QuerySpec {
    name: "count",
    articles: 50_000,
    query: timber_bench::QUERY_COUNT,
    alt: Alt::Par,
    min_ops: 100,
    min_alt_ops: 30,
    warm_share: 0.6,
};

struct Loaded {
    db: TimberDb,
    alt: TimberDb,
    xml_bytes: usize,
    /// Page-file bytes the load wrote.
    written_bytes: u64,
    file_bytes: u64,
}

fn par_threads() -> usize {
    sys::nproc().min(4)
}

/// Load `xml` into a fresh on-disk store and flush it.
fn load(xml: &str, page: &Path, pool_pages: usize) -> Res<(TimberDb, u64)> {
    sys::remove_store(page);
    let opts = StoreOptions::default()
        .with_path(page)
        .with_pool_pages(pool_pages);
    let db = TimberDb::create(&opts).map_err(text)?;
    db.insert_xml(xml).map_err(text)?;
    db.clear_buffer_pool().map_err(text)?;
    let written = db.io_stats().disk.writes * PAGE_SIZE as u64;
    Ok((db, written))
}

fn setup(spec: &QuerySpec, ctx: &Ctx) -> Res<Loaded> {
    let xml = inputs::bib_xml(ctx.seed, spec.articles);
    let page = ctx.dir.join("warm.pages");
    let (db, written_bytes) = load(&xml, &page, WARM_POOL_PAGES)?;
    let alt = match spec.alt {
        Alt::Cold { pool_pages } => load(&xml, &ctx.dir.join("cold.pages"), pool_pages)?.0,
        Alt::Par => {
            let mut par = db.snapshot();
            par.set_threads(par_threads());
            par
        }
    };
    // Warm-up: fill the pool and let lazy set-up finish.
    for _ in 0..3 {
        run_op(&db, spec.query)?;
    }
    run_op(&alt, spec.query)?;
    Ok(Loaded {
        db,
        alt,
        xml_bytes: xml.len(),
        written_bytes,
        file_bytes: sys::file_len(&page),
    })
}

/// One op: the result bytes and the milliseconds until they existed.
fn run_op(db: &TimberDb, query: &str) -> Res<(String, f64)> {
    query_xml(db, query, PlanMode::GroupByRewrite)
}

fn run_alt(spec: &QuerySpec, alt: &TimberDb) -> Res<(String, f64)> {
    if matches!(spec.alt, Alt::Cold { .. }) {
        alt.clear_buffer_pool().map_err(text)?;
    }
    run_op(alt, spec.query)
}

/// The first op's bytes become the reference every later op must equal;
/// the reference itself is judged against the direct plan afterwards.
fn check(reference: &mut Option<String>, report: &mut Report, what: &str, xml: String) {
    match reference {
        None => *reference = Some(xml),
        Some(want) => report.attempt(Report::same_bytes(what, &xml, want)),
    }
}

fn run_direct(db: &TimberDb, query: &str) -> Res<(String, f64)> {
    query_xml(db, query, PlanMode::Direct)
}

pub fn run(spec: &QuerySpec, ctx: &Ctx, report: &mut Report) -> Res<()> {
    let loaded = timed_setup(ctx, report, || setup(spec, ctx))?;
    let store = loaded.db.store();
    println!(
        "{}: {} articles, {} bytes of XML, {} nodes, {} pages, pool {} pages, alt {}, 1 client thread",
        spec.name,
        spec.articles,
        loaded.xml_bytes,
        store.node_count(),
        store.total_pages(),
        WARM_POOL_PAGES,
        match spec.alt {
            Alt::Cold { pool_pages } => format!("cold on a {pool_pages}-page pool"),
            Alt::Par => format!("par with {} worker threads", par_threads()),
        }
    );
    let mut reference = None;
    if ctx.traced {
        traced(spec, ctx, &loaded, &mut reference, report)?;
    } else {
        untraced(spec, ctx, &loaded, &mut reference, report)?;
    }
    Ok(())
}

fn untraced(
    spec: &QuerySpec,
    ctx: &Ctx,
    loaded: &Loaded,
    reference: &mut Option<String>,
    report: &mut Report,
) -> Res<()> {
    let mut phase = Phase::start();
    let warm_budget = ctx.seconds * spec.warm_share;
    let warm = closed_loop(&mut phase.cal, spec.min_ops, warm_budget, || {
        let (xml, ms) = run_op(&loaded.db, spec.query)?;
        check(reference, report, "query", xml);
        Ok(ms)
    })?;
    let alt_budget = ctx.seconds * (1.0 - spec.warm_share);
    let alt = closed_loop(&mut phase.cal, spec.min_alt_ops, alt_budget, || {
        let (xml, ms) = run_alt(spec, &loaded.alt)?;
        check(reference, report, "alt", xml);
        Ok(ms)
    })?;
    phase.finish(ctx, report);

    let (direct, _) = run_direct(&loaded.db, spec.query)?;
    let first = reference.as_deref().unwrap_or("");
    report.attempt(Report::same_bytes(
        "first op against the direct plan",
        first,
        &direct,
    ));

    let tail = report.set_latency("op_p50_ms", "op_tail_ms", 90.0, &warm.ms);
    println!("op_tail_ms is p{tail} of {} warm ops", warm.ms.len());
    report.set("alt_p50_ms", median(&alt.ms), alt.ms.len());
    report.set("ops_per_s", warm.per_s, warm.ms.len());
    let user = loaded.xml_bytes as f64;
    report.set("write_amp", loaded.written_bytes as f64 / user, 1);
    report.set("space_amp", loaded.file_bytes as f64 / user, 1);
    Ok(())
}

/// What one traced op yields besides its spans.
struct OpFacts {
    xml: String,
    ms: f64,
    rules_fired: usize,
    metrics: Option<PlanMetrics>,
    io: IoStats,
    trees: usize,
}

fn io_delta(before: IoStats, after: IoStats) -> IoStats {
    let mut d = after;
    d.buffer.hits -= before.buffer.hits;
    d.buffer.misses -= before.buffer.misses;
    d.buffer.evictions -= before.buffer.evictions;
    d.disk.reads -= before.disk.reads;
    d
}

/// The same op as [`run_op`], taken apart into the public calls it is
/// made of, each under its own span.
fn traced_op(rec: &mut Recorder, op: u64, db: &TimberDb, query: &str) -> Res<OpFacts> {
    let io0 = db.io_stats();
    let root = rec.enter("op", op);
    let ast = rec
        .time("xquery.parse", op, || xquery::parse_query(query))
        .map_err(text)?;
    let naive = rec
        .time("xquery.translate", op, || xquery::translate(&ast))
        .map_err(text)?;
    let (plan, trace) = rec.time("xquery.optimize", op, || xquery::opt::optimize(naive));
    let snap = rec.time("timber.pin", op, || db.snapshot());
    let rewritten = trace.fired("groupby-rewrite");
    let result = rec
        .time("timber.execute", op, || snap.run_plan(&plan, rewritten))
        .map_err(text)?;
    let elements = rec
        .time("timber.materialize", op, || {
            result.elements_on(snap.store())
        })
        .map_err(text)?;
    let xml = rec.time("xmlparse.serialize", op, || {
        let mut out = String::new();
        for e in &elements {
            out.push_str(&xmlparse::serialize::element_to_string(e));
            out.push('\n');
        }
        out
    });
    rec.exit(root);
    Ok(OpFacts {
        xml,
        ms: rec.spans()[root].duration_ns() as f64 / 1e6,
        rules_fired: trace.firings.len(),
        trees: result.len(),
        metrics: result.metrics,
        io: io_delta(io0, db.io_stats()),
    })
}

/// Own time of every operator whose plan line starts with `prefix`, ms.
fn operator_ms(m: &PlanMetrics, prefix: &str) -> f64 {
    let own = if m.op.starts_with(prefix) {
        m.elapsed.as_secs_f64() * 1e3
    } else {
        0.0
    };
    own + m
        .children
        .iter()
        .map(|c| operator_ms(c, prefix))
        .sum::<f64>()
}

/// Partition count and skew of the plan's blocking sink.
fn sink_shards(m: &PlanMetrics) -> Option<(usize, f64)> {
    m.shards
        .as_ref()
        .map(|s| (s.partitions, s.skew()))
        .or_else(|| m.children.iter().find_map(sink_shards))
}

/// The grouping operator a compiled plan pivots on.
fn grouping(plan: &Plan) -> Option<&Plan> {
    match plan {
        Plan::GroupBy { .. } | Plan::Rollup { .. } => Some(plan),
        Plan::Project { input, .. }
        | Plan::Rename { input, .. }
        | Plan::DupElim { input, .. }
        | Plan::Aggregate { input, .. } => grouping(input),
        _ => None,
    }
}

/// Median milliseconds of `reps` runs of `f`, and the last result.
fn probe<T>(reps: usize, mut f: impl FnMut() -> Res<T>) -> Res<(f64, T)> {
    let mut ms = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        last = Some(std::hint::black_box(f()?));
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    Ok((median(&ms), last.ok_or("probe needs a repetition")?))
}

const PROBE_REPS: usize = 5;

fn traced(
    spec: &QuerySpec,
    ctx: &Ctx,
    loaded: &Loaded,
    reference: &mut Option<String>,
    report: &mut Report,
) -> Res<()> {
    let db = &loaded.db;
    let mut rec = Recorder::new(Instant::now());
    let mut phase = Phase::start();

    // Plain and traced ops alternate, so both medians see the same host.
    let budget = ctx.seconds * 0.4;
    let mut plain_ms = Vec::new();
    let mut facts: Vec<OpFacts> = Vec::new();
    while facts.len() < 10 || (facts.len() < 30 && phase.elapsed() < budget) {
        phase.cal.refresh();
        let (xml, ms) = run_op(db, spec.query)?;
        check(reference, report, "query", xml);
        plain_ms.push(ms);
        let mut f = traced_op(&mut rec, facts.len() as u64, db, spec.query)?;
        check(
            reference,
            report,
            "traced query",
            std::mem::take(&mut f.xml),
        );
        facts.push(f);
    }
    let n = facts.len();
    let plain_p50 = median(&plain_ms);
    let traced_ms: Vec<f64> = facts.iter().map(|f| f.ms).collect();
    let of = |get: &dyn Fn(&OpFacts) -> f64| median(&facts.iter().map(get).collect::<Vec<_>>());

    let own = self_ms_by_name(rec.spans());
    let own_p50 = |name: &str| own.get(name).map_or(0.0, |v| median(v));
    report.set("xquery.parse_us", own_p50("xquery.parse") * 1e3, n);
    report.set("xquery.translate_us", own_p50("xquery.translate") * 1e3, n);
    report.set("xquery.optimize_us", own_p50("xquery.optimize") * 1e3, n);
    report.set("xquery.rules_fired", of(&|f| f.rules_fired as f64), n);
    report.set("timber.pin_us", own_p50("timber.pin") * 1e3, n);
    report.set("timber.execute_ms", own_p50("timber.execute"), n);
    report.set("timber.materialize_ms", own_p50("timber.materialize"), n);
    report.set("xmlparse.serialize_ms", own_p50("xmlparse.serialize"), n);
    let out_bytes = reference.as_ref().map_or(0, String::len);
    report.set("xmlparse.out_bytes", out_bytes as f64, 1);
    report.set("trace.op_ms", median(&traced_ms), n);
    report.set(
        "trace.self_sum_ms",
        median(&covered_ms(rec.spans(), "op")),
        n,
    );
    report.set("trace_overhead_ratio", median(&traced_ms) / plain_p50, n);

    // What the program itself reports about each op.
    let plan_ms = |prefix: &'static str| {
        of(&move |f| f.metrics.as_ref().map_or(0.0, |m| operator_ms(m, prefix)))
    };
    report.set("timber.op.select_ms", plan_ms("Select"), n);
    report.set("timber.op.groupby_ms", plan_ms("GroupBy"), n);
    report.set("timber.op.project_ms", plan_ms("Project"), n);
    report.set("timber.op.rollup_ms", plan_ms("Rollup"), n);
    let total = |get: fn(&PlanMetrics) -> u64| {
        of(&move |f| f.metrics.as_ref().map_or(0.0, |m| get(m) as f64))
    };
    report.set(
        "timber.tree_clones",
        total(PlanMetrics::total_tree_clones),
        n,
    );
    report.set("timber.vec_rows", total(PlanMetrics::total_vec_rows), n);
    report.set(
        "timber.vec_fallback_rows",
        total(PlanMetrics::total_vec_fallback),
        n,
    );
    report.set(
        "xmlstore.page_requests",
        of(&|f| f.io.page_requests() as f64),
        n,
    );

    // The alt op: pool traffic of the cold query, shards of the par one.
    let mut alt_ms = Vec::new();
    let mut alt_io = Vec::new();
    let alt_reps = spec.min_alt_ops.min(8);
    for i in 0..alt_reps {
        let io0 = loaded.alt.io_stats();
        let span = rec.enter("op.alt", (n + i) as u64);
        let (xml, ms) = run_alt(spec, &loaded.alt)?;
        rec.exit(span);
        check(reference, report, "alt", xml);
        alt_ms.push(ms);
        alt_io.push(io_delta(io0, loaded.alt.io_stats()));
    }
    let pool_io: Vec<IoStats> = match spec.alt {
        Alt::Cold { .. } => alt_io,
        Alt::Par => facts.iter().map(|f| f.io).collect(),
    };
    let pool = |get: &dyn Fn(&IoStats) -> f64| median(&pool_io.iter().map(get).collect::<Vec<_>>());
    report.set(
        "xmlstore.disk_reads",
        pool(&|io| io.disk.reads as f64),
        pool_io.len(),
    );
    report.set(
        "xmlstore.evictions",
        pool(&|io| io.buffer.evictions as f64),
        pool_io.len(),
    );
    if pool_io.iter().all(|io| io.page_requests() > 0) {
        report.set(
            "xmlstore.pool_hit_ratio",
            pool(&|io| io.buffer.hits as f64 / io.page_requests() as f64),
            pool_io.len(),
        );
    }
    if matches!(spec.alt, Alt::Par) {
        report.set(
            "timber.par_over_serial",
            median(&alt_ms) / plain_p50,
            alt_ms.len(),
        );
        let par = loaded
            .alt
            .query(spec.query, PlanMode::GroupByRewrite)
            .map_err(text)?;
        if let Some((parts, skew)) = par.metrics.as_ref().and_then(sink_shards) {
            report.set("timber.shard_parts", parts as f64, 1);
            report.set("timber.shard_skew", skew, 1);
        }
    }

    // The paper's comparison: the same query as written, no rewrite.
    let mut direct_ms = Vec::new();
    while direct_ms.len() < 2
        || (direct_ms.len() < PROBE_REPS && phase.elapsed() < ctx.seconds * 0.8)
    {
        let span = rec.enter("op.direct", (n + alt_reps + direct_ms.len()) as u64);
        let (xml, ms) = run_direct(db, spec.query)?;
        rec.exit(span);
        check(reference, report, "direct plan", xml);
        direct_ms.push(ms);
    }
    report.set("timber.direct_plan_ms", median(&direct_ms), direct_ms.len());
    report.set(
        "timber.direct_over_groupby",
        median(&direct_ms) / plain_p50,
        direct_ms.len(),
    );

    probes(spec, db, facts[0].trees, report)?;
    phase.finish(ctx, report);
    report.spans = rec.spans().to_vec();
    Ok(())
}

/// Single layers called on their own, on the workload's own data.
fn probes(spec: &QuerySpec, db: &TimberDb, result_trees: usize, report: &mut Report) -> Res<()> {
    use tax::ops::rollup::RollupShape;
    use timber::physical::{self, DEFAULT_BATCH_SIZE};
    use xmlstore::kernels;

    let store = db.store();
    report.set("xmlstore.nodes", store.node_count() as f64, 1);
    report.set("xmlstore.pages", store.total_pages() as f64, 1);
    report.set("xmlstore.dict_syms", store.dict().len() as f64, 1);

    let cols = store.columns();
    let tagged = |tag: &str| {
        store
            .tag_id(tag)
            .map_or_else(|| store.no_entries(), |t| store.nodes_with_tag(t))
    };
    let author = store.tag_id("author").map_or(u32::MAX, |t| t.0);
    let (articles, authors) = (tagged("article"), tagged("author"));
    // One kernel call is microseconds: time a batch of them.
    const BATCH: usize = 50;
    let (filter_ms, _) = probe(PROBE_REPS, || {
        Ok((0..BATCH)
            .map(|_| kernels::filter_eq_u32(&cols.tag, 0, std::hint::black_box(author)).count())
            .sum::<usize>())
    })?;
    report.set(
        "xmlstore.kernel_tag_filter_us",
        filter_ms * 1e3 / BATCH as f64,
        PROBE_REPS * BATCH,
    );
    let (contain_ms, _) = probe(PROBE_REPS, || {
        Ok((0..BATCH)
            .map(|_| kernels::containment_runs(&articles, std::hint::black_box(&authors)).len())
            .sum::<usize>())
    })?;
    report.set(
        "xmlstore.kernel_containment_us",
        contain_ms * 1e3 / BATCH as f64,
        PROBE_REPS * BATCH,
    );

    let (plan, _) = db
        .compile(spec.query, PlanMode::GroupByRewrite)
        .map_err(text)?;
    let Some(group) = grouping(&plan) else {
        return Err(format!("{}: the plan has no grouping operator", spec.name));
    };
    let (input, pattern) = match group {
        Plan::GroupBy { input, pattern, .. } | Plan::Rollup { input, pattern, .. } => {
            (input, pattern)
        }
        _ => unreachable!("grouping() returns only grouping operators"),
    };
    let (match_ms, bindings) = probe(PROBE_REPS, || {
        tax::matching::match_db(store, pattern).map_err(text)
    })?;
    report.set("tax.match_ms", match_ms, PROBE_REPS);
    report.set("tax.bindings", bindings.len() as f64, 1);
    report.set(
        "tax.rows_per_result",
        bindings.len() as f64 / result_trees.max(1) as f64,
        1,
    );
    let exec = tax::ExecOptions::sequential();
    let (trees, _) = physical::execute(store, input, &exec, DEFAULT_BATCH_SIZE).map_err(text)?;
    match group {
        Plan::GroupBy {
            basis, ordering, ..
        } => {
            let (ms, _) = probe(PROBE_REPS, || {
                tax::ops::groupby::groupby(store, &trees, pattern, basis, ordering).map_err(text)
            })?;
            report.set("tax.groupby_ms", ms, PROBE_REPS);
        }
        Plan::Rollup {
            basis,
            member_pattern,
            of,
            func,
            new_tag,
            flat,
            ..
        } => {
            let shape = if *flat {
                RollupShape::Flat
            } else {
                RollupShape::Grouped
            };
            let (ms, _) = probe(PROBE_REPS, || {
                tax::ops::rollup::rollup(
                    store,
                    &trees,
                    pattern,
                    basis,
                    member_pattern,
                    *of,
                    *func,
                    new_tag,
                    shape,
                )
                .map_err(text)
            })?;
            report.set("tax.rollup_ms", ms, PROBE_REPS);
        }
        _ => {}
    }
    Ok(())
}
