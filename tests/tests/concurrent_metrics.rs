//! Per-query counters under concurrency: two threads run EXPLAIN ANALYZE
//! of different plans on one store at the same time, and every run's
//! clone and kernel-row counters equal its solo run's. A query runs on
//! one thread and the counters are per-thread, so neither query is
//! billed for the other's work. Page counters come from the shared
//! buffer pool and are store-wide, so they are not compared here.

use datagen::{DblpConfig, DblpGenerator};
use std::sync::Barrier;
use timber::{PlanMode, TimberDb};
use timber_integration_tests::{QUERY1, QUERY_COUNT};
use xmlstore::StoreOptions;

/// The counters a query's own work decides: tree clones, vectorized
/// rows and scalar-fallback rows.
fn counters(db: &TimberDb, query: &str, mode: PlanMode) -> (u64, u64, u64) {
    let m = db.explain_analyze(query, mode).unwrap().metrics;
    (
        m.total_tree_clones(),
        m.total_vec_rows(),
        m.total_vec_fallback(),
    )
}

#[test]
fn concurrent_explain_analyze_counts_only_its_own_work() {
    let xml = DblpGenerator::new(DblpConfig::sized(300)).generate_xml();
    let db = TimberDb::load_xml(&xml, &StoreOptions::in_memory()).unwrap();
    let runs = [
        (QUERY1, PlanMode::Direct),
        (QUERY_COUNT, PlanMode::GroupByRewrite),
    ];
    let solo = runs.map(|(query, mode)| counters(&db, query, mode));
    // Both plans run the kernels, so a window that caught the other
    // query's rows would differ from its solo run.
    assert!(
        solo.iter().all(|&(_, vec_rows, _)| vec_rows > 0),
        "{solo:?}"
    );
    let barrier = Barrier::new(runs.len());
    std::thread::scope(|s| {
        for ((query, mode), want) in runs.into_iter().zip(solo) {
            let (db, barrier) = (&db, &barrier);
            s.spawn(move || {
                barrier.wait();
                for run in 0..20 {
                    assert_eq!(counters(db, query, mode), want, "{mode:?} run {run}");
                }
            });
        }
    });
}
