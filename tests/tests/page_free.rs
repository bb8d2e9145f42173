//! Execution reads no page. Tag tests, keys, joins and counts are
//! interned symbols on the label columns, so no kernel a plan runs asks
//! the buffer pool for a page: values are fetched only when the output
//! is written. The pool's counters are store-wide, so on a quiet store
//! a plan run must leave them exactly as it found them — in-process
//! through `run_plan`, and over the wire across an `EXPLAIN`. And no
//! query writes a page: the buffer pool only reads, so even a pool of
//! two frames over pages a commit just reused evicts without a write.
//! Nor does the pool reserve memory: its frames are allocated on first
//! fault, so E2 leaves exactly one frame per distinct page it asked for.

use datagen::{DblpConfig, DblpGenerator};
use std::sync::Arc;
use tax::pattern::{Axis, PatternTree, Pred};
use timber::{PlanMode, TimberDb};
use timber_client::{Client, Mode};
use timberd::Server;
use xmlstore::StoreOptions;
use xquery::Plan;

/// Every distinct query of the integration tests and of the bench
/// harness, once.
const QUERIES: [&str; 4] = [
    timber_integration_tests::QUERY1,
    timber_integration_tests::QUERY2,
    timber_integration_tests::QUERY_COUNT,
    timber_bench::QUERY_CUBE,
];

/// Figure 1's selection: an article, a title whose content contains
/// "Transaction", and an author, pc edges.
fn fig1_pattern() -> PatternTree {
    let mut p = PatternTree::with_root(Pred::tag("article"));
    let title = Pred::tag("title").and(Pred::content_contains("Transaction"));
    p.add_child(p.root(), Axis::Child, title);
    p.add_child(p.root(), Axis::Child, Pred::tag("author"));
    p
}

/// `pattern` with Figure 1's content test on its `title` node.
fn transaction_titles(pattern: &PatternTree) -> PatternTree {
    let restrict = |pred: &Pred| match pred.required_tag() {
        Some("title") => pred.clone().and(Pred::content_contains("Transaction")),
        _ => pred.clone(),
    };
    let mut p = PatternTree::with_root(restrict(&pattern.node(pattern.root()).pred));
    for (_, node) in pattern.iter().skip(1) {
        let parent = node.parent.expect("only the root has no parent");
        p.add_child(parent, node.axis, restrict(&node.pred));
    }
    p
}

/// Query 1's plan under `mode` with its article selection narrowed to
/// Figure 1's: the grouped plan scans Figure 1's pattern, and the
/// direct plan's join keeps only the titles it selects.
fn fig1_plan(db: &TimberDb, mode: PlanMode) -> (Plan, bool) {
    let (mut plan, rewritten) = db.compile(timber_integration_tests::QUERY1, mode).unwrap();
    let mut at = &mut plan;
    loop {
        match at {
            Plan::StitchConstruct {
                inner: Some(join), ..
            } => at = &mut **join,
            Plan::LeftOuterJoinDb { right_pattern, .. } => {
                *right_pattern = transaction_titles(right_pattern);
                return (plan, rewritten);
            }
            Plan::Project { input, pattern, .. } if matches!(**input, Plan::SelectDb { .. }) => {
                *pattern = fig1_pattern();
                if let Plan::SelectDb { pattern, .. } = &mut **input {
                    *pattern = fig1_pattern();
                }
                return (plan, rewritten);
            }
            Plan::Rename { input, .. }
            | Plan::Project { input, .. }
            | Plan::GroupBy { input, .. } => at = &mut **input,
            other => panic!("no article selection at {other:?}"),
        }
    }
}

#[test]
fn no_plan_moves_the_page_counters_before_its_output() {
    let xml = DblpGenerator::new(DblpConfig::sized(200)).generate_xml();
    assert!(
        xml.contains("Transaction"),
        "Figure 1's selection selects nothing"
    );
    let db = TimberDb::load_xml(&xml, &StoreOptions::in_memory()).unwrap();
    for mode in [PlanMode::Direct, PlanMode::GroupByRewrite] {
        let compiled = QUERIES.map(|query| (query, db.compile(query, mode).unwrap()));
        let fig1 = ("Figure 1's selection", fig1_plan(&db, mode));
        for (what, (plan, rewritten)) in compiled.into_iter().chain([fig1]) {
            let before = db.io_stats();
            let r = db.run_plan(&plan, rewritten).unwrap();
            assert_eq!(db.io_stats(), before, "{mode:?}: {what}");
            assert!(!r.is_empty(), "{mode:?}: {what}");
            // Writing the output is where values are fetched.
            r.to_xml_on(db.store()).unwrap();
            assert!(db.io_stats().page_requests() > before.page_requests());
        }
    }

    // Over the wire: an EXPLAIN on a pinned session runs the plan and
    // renders its metrics, and writes no output.
    let handle = Server::bind("127.0.0.1:0", Arc::new(db))
        .unwrap()
        .spawn()
        .unwrap();
    let mut c = Client::connect(handle.local_addr()).unwrap();
    c.snapshot().unwrap();
    let page_requests = |c: &mut Client| {
        let stats = c.stats().unwrap();
        let field = stats.split(" page_requests=").nth(1).expect(&stats);
        field.split(' ').next().unwrap().parse::<u64>().unwrap()
    };
    for mode in [Mode::Direct, Mode::Grouped] {
        let before = page_requests(&mut c);
        c.explain(timber_integration_tests::QUERY_COUNT, mode)
            .unwrap();
        assert_eq!(page_requests(&mut c), before, "{mode:?}");
    }
    c.release().unwrap();
    drop(c);
    handle.shutdown();
}

#[test]
fn no_query_writes_a_page() {
    // Document A is deleted and A' inserted over its run, so the commit
    // reuses pages; two frames force an eviction on nearly every page
    // the queries read afterwards.
    let gen = |articles, seed| {
        DblpGenerator::new(DblpConfig::sized(articles).with_seed(seed)).generate_xml()
    };
    let (a, b, a2) = (gen(300, 1), gen(40, 2), gen(300, 3));
    let db =
        TimberDb::create(&StoreOptions::in_memory().with_durable().with_pool_pages(2)).unwrap();
    let first = db.insert_xml(&a).unwrap();
    db.insert_xml(&b).unwrap();
    db.delete_document(first).unwrap();
    let (pages, writes) = (db.store().total_pages(), db.io_stats().disk.writes);
    db.insert_xml(&a2).unwrap();
    // Its new names land on A's node run, and the file grows by less
    // than A' wrote.
    let grown = db.store().total_pages() - pages;
    let written = db.io_stats().disk.writes - writes;
    assert!(
        u64::from(grown) < written,
        "A' reuses A's run: {grown} of {written}"
    );

    let writes = db.io_stats().disk.writes;
    let e1_e2 = [
        timber_integration_tests::QUERY1,
        timber_integration_tests::QUERY_COUNT,
    ];
    for query in e1_e2 {
        let want = timber_integration_tests::model::eval(&[&b, &a2], query).unwrap();
        for mode in [PlanMode::Direct, PlanMode::GroupByRewrite] {
            let got = timber_integration_tests::run(&db, query, mode);
            assert_eq!(got, want, "{mode:?}: {query}");
            assert_eq!(db.io_stats().disk.writes, writes, "{mode:?}: {query}");
        }
    }
}

#[test]
fn the_pool_reserves_nothing() {
    // The paper's 32 MB pool (4 096 frames) over an on-disk store that
    // holds a small fraction of that.
    let xml = DblpGenerator::new(DblpConfig::sized(2_000)).generate_xml();
    let db = TimberDb::load_xml(&xml, &StoreOptions::default()).unwrap();
    let store = db.store();
    assert_eq!(store.pool_capacity(), 4096);
    assert_eq!(store.pool_resident_pages(), 0, "the load left frames");

    let out = timber_integration_tests::run(
        &db,
        timber_integration_tests::QUERY_COUNT,
        PlanMode::GroupByRewrite,
    );
    assert!(!out.is_empty());
    // Nothing was evicted, so each distinct page E2 asked for missed
    // exactly once and took one frame.
    let io = db.io_stats();
    assert_eq!(io.buffer.evictions, 0);
    let distinct = io.buffer.misses as usize;
    assert!(distinct > 0 && distinct <= store.total_pages() as usize);
    assert_eq!(store.pool_resident_pages(), distinct);
    assert!(
        distinct * 16 < store.pool_capacity(),
        "{distinct} of {} frames",
        store.pool_capacity()
    );
}

#[test]
fn a_reopened_store_holds_no_pool_frame() {
    // `open` reads every node page back around the pool, so a reopened
    // store holds no frame until a query asks for a page, and its first
    // query still equals the model.
    let gen = |articles, seed| {
        DblpGenerator::new(DblpConfig::sized(articles).with_seed(seed)).generate_xml()
    };
    let docs = [gen(800, 1), gen(40, 2), gen(500, 3)];
    let page = std::env::temp_dir().join(format!("page_free_{}_reopen.pages", std::process::id()));
    let opts = StoreOptions::default().with_path(&page).with_durable();
    {
        let db = TimberDb::create(&opts).unwrap();
        for xml in &docs {
            db.insert_xml(xml).unwrap();
        }
    }
    let db = TimberDb::open(&opts).unwrap();
    let store = db.store();
    assert!(store.total_pages() - store.name_pages() > 2, "node pages");
    assert_eq!(store.pool_resident_pages(), 0, "the reopen left frames");
    let query = timber_integration_tests::QUERY_COUNT;
    let want = timber_integration_tests::model::eval(&[&docs[0], &docs[1], &docs[2]], query);
    let got = timber_integration_tests::run(&db, query, PlanMode::GroupByRewrite);
    assert_eq!(got, want.unwrap());
    assert_eq!(
        store.pool_resident_pages(),
        db.io_stats().buffer.misses as usize
    );
    drop(db);
    let _ = std::fs::remove_file(&page);
    let _ = std::fs::remove_file(xmlstore::wal_path_for(&page));
}
