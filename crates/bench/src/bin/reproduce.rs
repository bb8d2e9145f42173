//! Reproduce the experiments of *Grouping in XML* (EDBT 2002), Sec. 6.
//!
//! ```text
//! reproduce [e1] [e2] [scale] [pool] [matching] [groupby-impl]
//!           [faults] [recovery] [wal-overhead] [all]
//!           [--articles N] [--mem] [--faults SPEC] [--analyze]
//! ```
//!
//! `--analyze` additionally prints an `EXPLAIN ANALYZE` report for the
//! E1/E2 queries: the executed plan, the optimizer's rule-firing trace,
//! and per-operator rows in/out, wall time and I/O from the physical
//! executor.
//!
//! An unknown experiment name or option, a missing value, or a value of
//! `--articles` that is not a number prints a usage line on stderr and
//! exits with status 2.
//!
//! With no experiment argument, `all` is assumed. `--articles` sets the
//! synthetic DBLP size for E1/E2 (default 20 000 ≈ 310 k stored nodes;
//! the paper's DBLP Journals had 4.6 M nodes — pass a larger value to
//! approach it). `--mem` keeps the page file in memory (for quick runs).
//!
//! The `faults` experiment replays a deterministic fault schedule against
//! the E1/E2 workload and reports per-run outcomes (absorbed via retry,
//! or a typed error — never a panic or a wrong answer). `--faults SPEC`
//! sets the schedule, e.g. `--faults seed=3,read_err=0.01,flip=0.005`;
//! the same spec syntax the `crash_recovery` suite uses, so any CI
//! failure is replayable from the command line. Passing `--faults`
//! without an experiment list implies `faults`.
//!
//! The `recovery` experiment (X16) drives the durable write path: a
//! scripted mutation workload against a WAL-backed store is killed by a
//! seeded `crash=N` schedule (`--faults seed=S,crash=N` to pick the
//! point), the store is reopened through crash recovery, and
//! the recovered store's grouped query output is byte-diffed against a
//! never-crashed oracle holding exactly the committed documents.
//!
//! The `wal-overhead` experiment (X15) prices durability: the same bulk
//! insert runs into a fresh on-disk page file plain and through the
//! write-ahead log, over a sweep of document sizes up to `--articles`.
//! Fresh-extent commits keep the log tiny (direct page writes, one page
//! file sync, one group log flush), so the overhead is two fdatasyncs
//! plus the page-file flush — fixed costs that dominate tiny loads and
//! amortize below the 10 % target at bulk scale.

#![forbid(unsafe_code)]

use timber::PlanMode;
use timber_bench::*;

/// The experiments `reproduce` knows by name.
const EXPERIMENTS: [&str; 10] = [
    "e1",
    "e2",
    "scale",
    "pool",
    "matching",
    "groupby-impl",
    "faults",
    "recovery",
    "wal-overhead",
    "all",
];

/// Report a malformed command line on stderr and exit with status 2.
fn usage(problem: &str) -> ! {
    eprintln!("reproduce: {problem}");
    eprintln!(
        "usage: reproduce [{}] [--articles N] [--mem] [--faults SPEC] [--analyze]",
        EXPERIMENTS.join("|")
    );
    std::process::exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut experiments: Vec<String> = Vec::new();
    let mut articles = 20_000usize;
    let mut on_disk = true;
    let mut fault_spec: Option<String> = None;
    let mut analyze = false;
    let mut args = args.iter();
    let value = |args: &mut std::slice::Iter<String>, flag: &str| -> String {
        args.next()
            .cloned()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
    };
    let number = |text: String, flag: &str| -> usize {
        text.parse()
            .unwrap_or_else(|_| usage(&format!("{flag} takes a number, not {text:?}")))
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--articles" => articles = number(value(&mut args, arg), arg),
            "--mem" => on_disk = false,
            "--faults" => fault_spec = Some(value(&mut args, arg)),
            "--analyze" => analyze = true,
            name if EXPERIMENTS.contains(&name) => experiments.push(name.to_owned()),
            other => usage(&format!("unknown experiment or option {other:?}")),
        }
    }
    if experiments.is_empty() {
        // A bare `--faults SPEC` means "replay this schedule".
        experiments.push(if fault_spec.is_some() {
            "faults".to_owned()
        } else {
            "all".to_owned()
        });
    }
    let run_all = experiments.iter().any(|e| e == "all");
    let wants = |name: &str| run_all || experiments.iter().any(|e| e == name);

    println!("== Grouping in XML (EDBT 2002) — experiment reproduction ==");
    println!(
        "synthetic DBLP: {articles} articles, 8 KB pages, 32 MB buffer pool, {} backend\n",
        if on_disk { "file" } else { "memory" }
    );

    if wants("e1") || wants("e2") {
        let db = build_db(articles, None, on_disk);
        println!(
            "database: {} stored nodes, {} pages ({:.1} MB)\n",
            db.store().node_count(),
            db.store().total_pages(),
            db.store().size_bytes() as f64 / (1024.0 * 1024.0)
        );
        if wants("e1") {
            run_e1(&db);
            if analyze {
                run_analyze(&db, "E1 titles", QUERY_TITLES);
            }
        }
        if wants("e2") {
            run_e2(&db);
            if analyze {
                run_analyze(&db, "E2 count", QUERY_COUNT);
            }
        }
    }
    if wants("scale") {
        run_scale(on_disk);
    }
    if wants("pool") {
        run_pool(articles, on_disk);
    }
    if wants("matching") {
        run_matching(articles);
    }
    if wants("groupby-impl") {
        run_groupby_impl();
    }
    if wants("faults") {
        run_faults(fault_spec.as_deref());
    }
    if wants("recovery") {
        run_recovery(fault_spec.as_deref());
    }
    if wants("wal-overhead") {
        run_wal_overhead(articles);
    }
}

/// X15: the price of durability on bulk load. The same synthetic DBLP
/// document is inserted into a fresh on-disk page file plain and through
/// the write-ahead log, best-of-three each, over a sweep of sizes — the
/// WAL's costs on a fresh-extent commit are fixed (two fdatasyncs plus
/// the page-file flush), so the percentage falls as the load grows. The
/// ≤10 % acceptance target applies at the full `--articles` scale.
fn run_wal_overhead(articles: usize) {
    println!("-- X15: WAL overhead on bulk load (fresh-extent commit path) --");
    println!(
        "{:>10}  {:>10}  {:>10}  {:>9}",
        "articles", "plain", "wal", "overhead"
    );
    let mut last_overhead = 0.0;
    for scale in [articles / 16, articles / 4, articles] {
        let scale = scale.max(100);
        let xml = datagen::DblpGenerator::new(datagen::DblpConfig::sized(scale)).generate_xml();
        let mut plain = f64::INFINITY;
        let mut wal = f64::INFINITY;
        for _ in 0..3 {
            plain = plain.min(timed_durable_load(&xml, false));
            wal = wal.min(timed_durable_load(&xml, true));
        }
        last_overhead = (wal / plain - 1.0) * 100.0;
        println!("{scale:>10}  {plain:>9.4}s  {wal:>9.4}s  {last_overhead:>+8.1}%");
    }
    println!("overhead at {articles} articles: {last_overhead:+.1}% (target <= +10%)\n");
}

/// One timed bulk insert into a fresh on-disk page file, with or
/// without the write-ahead log. Returns wall seconds.
fn timed_durable_load(xml: &str, durable: bool) -> f64 {
    use xmlstore::{wal_path_for, StoreOptions};
    let page = std::env::temp_dir().join(format!(
        "timber_bench_load_{}_{}.pages",
        std::process::id(),
        durable
    ));
    let wal_p = wal_path_for(&page);
    let _ = std::fs::remove_file(&page);
    let _ = std::fs::remove_file(&wal_p);
    let mut opts = StoreOptions {
        pool_pages: 4096,
        ..StoreOptions::in_memory()
    }
    .with_path(&page);
    if durable {
        opts = opts.with_durable();
    }
    let t0 = std::time::Instant::now();
    let db = timber::TimberDb::create(&opts).expect("create load store");
    db.insert_xml(xml).expect("bulk insert");
    let dt = t0.elapsed().as_secs_f64();
    drop(db);
    let _ = std::fs::remove_file(&page);
    let _ = std::fs::remove_file(&wal_p);
    dt
}

fn run_analyze(db: &timber::TimberDb, label: &str, query: &str) {
    for (name, mode) in [
        ("direct", PlanMode::Direct),
        ("groupby", PlanMode::GroupByRewrite),
    ] {
        println!("-- EXPLAIN ANALYZE: {label}, {name} plan --");
        match db.explain_analyze(query, mode) {
            Ok(a) => println!("{}", a.render()),
            Err(e) => println!("error: {e}"),
        }
    }
}

fn run_faults(spec: Option<&str>) {
    use xmlstore::FaultConfig;

    let schedule: FaultConfig = spec
        .unwrap_or("seed=1,read_err=0.005,flip=0.005")
        .parse()
        .expect("--faults SPEC (e.g. seed=3,read_err=0.01,flip=0.005,torn=0.01,after=100)");
    // A small database against a deliberately tiny pool: nearly every
    // page access is a physical read the schedule can hit.
    let articles = 2_000;
    println!("-- X10: deterministic fault-schedule replay ({articles} articles, 8-page pool) --");
    println!("schedule: {schedule}");
    let db = build_db(articles, Some(8), true);

    let runs = [
        ("E1 titles/direct", QUERY_TITLES, PlanMode::Direct),
        ("E1 titles/groupby", QUERY_TITLES, PlanMode::GroupByRewrite),
        ("E2 count/direct", QUERY_COUNT, PlanMode::Direct),
        ("E2 count/groupby", QUERY_COUNT, PlanMode::GroupByRewrite),
    ];
    let reference: Vec<RunStats> = runs.iter().map(|&(_, q, m)| measure(&db, q, m)).collect();

    db.set_faults(Some(schedule)).expect("arm fault schedule");
    for (i, &(label, q, m)) in runs.iter().enumerate() {
        match try_measure(&db, q, m) {
            Ok(s) => {
                assert_eq!(
                    (s.output_trees, s.output_bytes),
                    (reference[i].output_trees, reference[i].output_bytes),
                    "{label}: output diverged under faults"
                );
                println!(
                    "{label:<20} ok     {:>8.3}s, {:>6} retries absorbed, output matches fault-free run",
                    s.elapsed.as_secs_f64(),
                    s.io.buffer.retries,
                );
            }
            Err(e) => println!("{label:<20} error  {e}"),
        }
    }
    let stats = db.fault_stats().expect("schedule is armed");
    db.set_faults(None).expect("disarm fault schedule");
    println!(
        "injected over {} eligible ops: {} read errors, {} write errors, {} read flips, {} write flips, {} torn writes\n",
        stats.ops,
        stats.read_errors,
        stats.write_errors,
        stats.read_flips,
        stats.write_flips,
        stats.torn_writes,
    );
}

/// X16: the durable write path under a seeded kill. A scripted mutation
/// workload (inserts, a delete, a replace, a checkpoint) runs against a
/// WAL-backed store with a `crash=N` schedule armed; the page file is
/// then reopened through crash recovery and checked — document by
/// document and byte-by-byte on the grouped query output — against a
/// never-crashed oracle holding exactly the committed documents.
fn run_recovery(spec: Option<&str>) {
    use datagen::{DblpConfig, DblpGenerator};
    use timber::TimberDb;
    use xmlstore::{wal_path_for, FaultConfig, StoreOptions};

    let schedule: FaultConfig = spec
        .unwrap_or("seed=1,crash=12")
        .parse()
        .expect("--faults SPEC (e.g. seed=3,crash=25)");
    println!("-- X16: WAL + crash recovery replay --");
    println!("schedule: {schedule}");

    let page =
        std::env::temp_dir().join(format!("timber_recovery_x16_{}.pages", std::process::id()));
    let wal_p = wal_path_for(&page);
    let _ = std::fs::remove_file(&page);
    let _ = std::fs::remove_file(&wal_p);
    let opts = StoreOptions {
        pool_pages: 256,
        ..StoreOptions::in_memory()
    }
    .with_path(&page)
    .with_durable();

    let mut db = TimberDb::create(&opts).expect("create durable store");
    db.set_faults(Some(schedule)).expect("arm crash schedule");

    // The committed model: XML of every live document, insertion order.
    let mut alive: Vec<String> = Vec::new();
    let doc = |n: usize| DblpGenerator::new(DblpConfig::sized(n)).generate_xml();
    type ScriptStep = Box<dyn Fn(&mut TimberDb, &mut Vec<String>) -> timber::Result<()>>;
    let script: [(&str, ScriptStep); 6] = [
        (
            "insert 200",
            Box::new(move |db, alive| {
                let xml = doc(200);
                db.insert_xml(&xml).map(|_| alive.push(xml))
            }),
        ),
        (
            "insert 120",
            Box::new(move |db, alive| {
                let xml = doc(120);
                db.insert_xml(&xml).map(|_| alive.push(xml))
            }),
        ),
        ("checkpoint", Box::new(|db, _| db.checkpoint())),
        (
            "delete first",
            Box::new(|db, alive| {
                let id = db.documents()[0].0;
                db.delete_document(id).map(|()| {
                    alive.remove(0);
                })
            }),
        ),
        (
            "replace first",
            Box::new(move |db, alive| {
                let id = db.documents()[0].0;
                let xml = doc(80);
                db.replace_xml(id, &xml).map(|_| {
                    alive.remove(0);
                    alive.push(xml);
                })
            }),
        ),
        (
            "insert 150",
            Box::new(move |db, alive| {
                let xml = doc(150);
                db.insert_xml(&xml).map(|_| alive.push(xml))
            }),
        ),
    ];
    for (label, step) in &script {
        match step(&mut db, &mut alive) {
            Ok(()) => println!("{label:<15} committed"),
            Err(e) => {
                println!("{label:<15} CRASHED mid-write ({e})");
                break;
            }
        }
    }
    let write_ops = db.fault_stats().map(|s| s.write_ops).unwrap_or(0);
    drop(db);

    let t0 = std::time::Instant::now();
    let recovered = TimberDb::open(&opts).expect("reopen through recovery");
    let dt = t0.elapsed();
    let info = recovered.recovery_info().expect("recovery ran");
    println!(
        "reopened in {:.3}s after {write_ops} write ops: {} committed txns",
        dt.as_secs_f64(),
        info.committed
    );
    assert_eq!(
        recovered.documents().len(),
        alive.len(),
        "recovered store must hold exactly the committed documents"
    );

    let oracle = TimberDb::create(&StoreOptions::in_memory()).expect("oracle store");
    for xml in &alive {
        oracle.insert_xml(xml).expect("oracle insert");
    }
    for (label, query) in [("E1 titles", QUERY_TITLES), ("E2 count", QUERY_COUNT)] {
        let got = recovered
            .query(query, PlanMode::GroupByRewrite)
            .and_then(|r| r.to_xml_on(recovered.store()))
            .expect("recovered query");
        let want = oracle
            .query(query, PlanMode::GroupByRewrite)
            .and_then(|r| r.to_xml_on(oracle.store()))
            .expect("oracle query");
        assert_eq!(got, want, "{label}: recovered output diverges from oracle");
        println!(
            "{label:<15} grouped output matches the never-crashed oracle ({} bytes)",
            got.len()
        );
    }
    drop(recovered);
    let _ = std::fs::remove_file(&page);
    let _ = std::fs::remove_file(&wal_p);
    println!();
}

fn run_e1(db: &timber::TimberDb) {
    println!(
        "-- E1: Query 1, titles output (paper: direct 323.966 s vs GROUPBY 178.607 s, 1.81x) --"
    );
    let d = measure(db, QUERY_TITLES, PlanMode::Direct);
    let g = measure(db, QUERY_TITLES, PlanMode::GroupByRewrite);
    assert!(g.rewritten, "rewrite must fire");
    assert_plans_agree("E1 nested form", &d, &g);
    println!("{}", format_row("E1 nested form", &d, &g));
    let d2 = measure(db, QUERY_TITLES_LET, PlanMode::Direct);
    let g2 = measure(db, QUERY_TITLES_LET, PlanMode::GroupByRewrite);
    assert_plans_agree("E1 LET form", &d2, &g2);
    println!("{}", format_row("E1 LET form", &d2, &g2));
    println!(
        "paper ratio 1.81x; measured {:.2}x (nested), {:.2}x (LET); output: {} authorpubs, {:.1} MB\n",
        speedup(&d, &g),
        speedup(&d2, &g2),
        g.output_trees,
        g.output_bytes as f64 / (1024.0 * 1024.0)
    );
}

fn run_e2(db: &timber::TimberDb) {
    println!("-- E2: count variant (paper: direct 155.564 s vs GROUPBY 23.033 s, 6.75x) --");
    let d = measure(db, QUERY_COUNT, PlanMode::Direct);
    let g = measure(db, QUERY_COUNT, PlanMode::GroupByRewrite);
    assert_plans_agree("E2 count", &d, &g);
    println!("{}", format_row("E2 count", &d, &g));
    println!(
        "paper ratio 6.75x; measured {:.2}x; output: {} authorpubs, {:.2} MB\n",
        speedup(&d, &g),
        g.output_trees,
        g.output_bytes as f64 / (1024.0 * 1024.0)
    );
}

/// The paper's two plans answer one query: equal output trees and bytes.
fn assert_plans_agree(label: &str, direct: &RunStats, grouped: &RunStats) {
    assert_eq!(
        (direct.output_trees, direct.output_bytes),
        (grouped.output_trees, grouped.output_bytes),
        "{label}: the direct plan's output diverged from the GROUPBY plan's"
    );
}

fn run_scale(on_disk: bool) {
    println!("-- X1: scale sweep (direct/GROUPBY ratio vs database size) --");
    for articles in [2_000, 5_000, 10_000, 20_000, 50_000] {
        let db = build_db(articles, None, on_disk);
        let d = measure(&db, QUERY_TITLES, PlanMode::Direct);
        let g = measure(&db, QUERY_TITLES, PlanMode::GroupByRewrite);
        let dc = measure(&db, QUERY_COUNT, PlanMode::Direct);
        let gc = measure(&db, QUERY_COUNT, PlanMode::GroupByRewrite);
        println!(
            "{articles:>7} articles ({:>8} nodes): titles {:>5.2}x  count {:>5.2}x",
            db.store().node_count(),
            speedup(&d, &g),
            speedup(&dc, &gc)
        );
    }
    println!();
}

fn run_pool(articles: usize, on_disk: bool) {
    println!("-- X2: buffer-pool sweep (Query 1 titles, {articles} articles) --");
    for mb in [4, 8, 16, 32, 64, 128] {
        let db = build_db(articles, Some((mb << 20) / xmlstore::PAGE_SIZE), on_disk);
        let d = measure(&db, QUERY_TITLES, PlanMode::Direct);
        let g = measure(&db, QUERY_TITLES, PlanMode::GroupByRewrite);
        println!(
            "{mb:>4} MB pool: direct {:>8.3}s / {:>8} disk reads | groupby {:>8.3}s / {:>8} disk reads | {:>5.2}x",
            d.elapsed.as_secs_f64(),
            d.io.disk.reads,
            g.elapsed.as_secs_f64(),
            g.io.disk.reads,
            speedup(&d, &g)
        );
    }
    println!();
}

fn run_matching(articles: usize) {
    use tax::matching::{match_db, naive::match_db_scan};
    use tax::pattern::{Axis, PatternTree, Pred};

    let articles = articles.min(5_000); // the scan baseline is slow by design
    println!(
        "-- X3: pattern matching, index+structural join vs full scan ({articles} articles) --"
    );
    let db = build_db(articles, None, false);
    let mut p = PatternTree::with_root(Pred::tag("article"));
    p.add_child(p.root(), Axis::Child, Pred::tag("title"));
    p.add_child(p.root(), Axis::Child, Pred::tag("author"));

    db.reset_io_stats();
    let t0 = std::time::Instant::now();
    let indexed = match_db(db.store(), &p).unwrap();
    let t_index = t0.elapsed();
    let io_index = db.io_stats().page_requests();

    db.reset_io_stats();
    let t0 = std::time::Instant::now();
    let scanned = match_db_scan(db.store(), &p).unwrap();
    let t_scan = t0.elapsed();
    let io_scan = db.io_stats().page_requests();

    assert_eq!(indexed.len(), scanned.len());
    println!(
        "index+joins: {:>9.3}s, {:>9} page requests | full scan: {:>9.3}s, {:>9} page requests | {:.1}x fewer pages\n",
        t_index.as_secs_f64(),
        io_index,
        t_scan.as_secs_f64(),
        io_scan,
        io_scan as f64 / io_index.max(1) as f64
    );
}

fn run_groupby_impl() {
    use tax::batch::Matches;
    use tax::ops::groupby::{groupby, BasisItem};
    use tax::ops::project::ProjectItem;
    use tax::pattern::{Axis, PatternTree, Pred};
    use timber_bench::replicated::groupby_replicated;

    let articles = 5_000;
    println!("-- X4: grouping implementation, identifier processing vs eager replication ({articles} articles) --");
    let db = build_db(articles, None, false);
    let store = db.store();
    let mut sp = PatternTree::with_root(Pred::tag("doc_root"));
    let art = sp.add_child(sp.root(), Axis::Descendant, Pred::tag("article"));
    let sel = Matches::select(store, &sp, &[art]).unwrap();
    let input = sel.project(&[ProjectItem::deep(art)]).unwrap();

    let mut gp = PatternTree::with_root(Pred::tag("article"));
    let author = gp.add_child(gp.root(), Axis::Child, Pred::tag("author"));
    let basis = [BasisItem::content(author)];

    db.clear_buffer_pool().unwrap();
    db.reset_io_stats();
    let t0 = std::time::Instant::now();
    let (fast, _) = groupby(store, &input, &gp, &basis, &[]).unwrap();
    let t_fast = t0.elapsed();
    let io_fast = db.io_stats().page_requests();

    db.clear_buffer_pool().unwrap();
    db.reset_io_stats();
    let t0 = std::time::Instant::now();
    let tax::Batch::Stored(rows) = &input else {
        unreachable!("a deep root projects to stored rows")
    };
    let slow = groupby_replicated(store, rows, &gp, &basis, &[]).unwrap();
    let t_slow = t0.elapsed();
    let io_slow = db.io_stats().page_requests();

    assert_eq!(fast.len(), slow.len());
    println!(
        "{} groups | identifier: {:>8.3}s, {:>9} page requests | replicated: {:>8.3}s, {:>9} page requests | {:.1}x fewer pages\n",
        fast.len(),
        t_fast.as_secs_f64(),
        io_fast,
        t_slow.as_secs_f64(),
        io_slow,
        io_slow as f64 / io_fast.max(1) as f64
    );
}
