//! Execution reads no page. Tag tests, keys, joins and counts are
//! interned symbols on the label columns, so no kernel a plan runs asks
//! the buffer pool for a page: values are fetched only when the output
//! is written. The pool's counters are store-wide, so on a quiet store
//! a plan run must leave them exactly as it found them — in-process
//! through `run_plan`, and over the wire across an `EXPLAIN`.

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
