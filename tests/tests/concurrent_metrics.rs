//! Per-query metrics under concurrency: two threads run EXPLAIN ANALYZE
//! of different plans on one store at the same time, while a third
//! writes query output on it, and every run's whole per-operator report
//! equals its solo run's. A query runs on one thread and its counters
//! are per-thread, so no query is billed for another's work — and the
//! output's page reads, the one store-wide traffic, reach no report.

use datagen::{DblpConfig, DblpGenerator};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use timber::{PlanMode, TimberDb};
use timber_integration_tests::{QUERY1, QUERY_COUNT};
use xmlstore::StoreOptions;

/// The rendered per-operator report with the values of `time=` and
/// `stages=` masked: op labels, rows in and out and their kind, the
/// clone and kernel-row counters, and which lines carry stage times.
fn report(db: &TimberDb, query: &str, mode: PlanMode) -> String {
    let m = db.explain_analyze(query, mode).unwrap().metrics;
    let mask = |w: &str| match w.split_once('=') {
        Some((name @ ("time" | "stages"), _)) => format!("{name}=#"),
        _ => w.to_owned(),
    };
    let lines: Vec<String> = m
        .render()
        .lines()
        .map(|l| l.split(' ').map(mask).collect::<Vec<_>>().join(" "))
        .collect();
    lines.join("\n")
}

#[test]
fn concurrent_explain_analyze_counts_only_its_own_work() {
    let xml = DblpGenerator::new(DblpConfig::sized(300)).generate_xml();
    let db = TimberDb::load_xml(&xml, &StoreOptions::in_memory()).unwrap();
    let runs = [
        (QUERY1, PlanMode::Direct),
        (QUERY_COUNT, PlanMode::GroupByRewrite),
    ];
    let solo = runs.map(|(query, mode)| report(&db, query, mode));
    // Both plans run the kernels, so a window that caught the other
    // query's rows would differ from its solo run.
    for (query, mode) in runs {
        let m = db.explain_analyze(query, mode).unwrap().metrics;
        assert!(m.total_vec_rows() > 0, "{mode:?}:\n{}", m.render());
    }
    let output = db.query(QUERY1, PlanMode::GroupByRewrite).unwrap();
    let output = output.to_xml_on(db.store()).unwrap();
    let barrier = Barrier::new(runs.len() + 1);
    let done = AtomicBool::new(false);
    std::thread::scope(|s| {
        let (db, barrier, done) = (&db, &barrier, &done);
        s.spawn(move || {
            // Output population reads pages through the shared pool.
            barrier.wait();
            while !done.load(Ordering::Relaxed) {
                let r = db.query(QUERY1, PlanMode::GroupByRewrite).unwrap();
                assert_eq!(r.to_xml_on(db.store()).unwrap(), output);
            }
        });
        let queries: Vec<_> = runs
            .into_iter()
            .zip(solo)
            .map(|((query, mode), want)| {
                s.spawn(move || {
                    barrier.wait();
                    for run in 0..20 {
                        assert_eq!(report(db, query, mode), want, "{mode:?} run {run}");
                    }
                })
            })
            .collect();
        let finished: Vec<_> = queries.into_iter().map(|q| q.join()).collect();
        done.store(true, Ordering::Relaxed);
        for result in finished {
            if let Err(panic) = result {
                std::panic::resume_unwind(panic);
            }
        }
    });
}
