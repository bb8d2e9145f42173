//! Property tests for the hash-partitioned blocking sinks: GroupBy,
//! the left outer join, and the RETURN stitch running over worker
//! threads must serialize to the reference model's bytes at every
//! thread count — including the paper's non-partitioning grouping
//! semantics (a two-author article belongs to both authors' groups even
//! when those groups hash to different shards) — and must stay
//! correct-or-typed under fault-injection schedules.

use datagen::{DblpConfig, DblpGenerator};
use smallrand::prop::check;
use timber::{PlanMode, TimberDb};
use timber_integration_tests::{
    assert_matches_model, batch_matrix, bibliography, expected, run, thread_matrix, Shape, QUERY1,
    QUERY2, QUERY_COUNT,
};
use xmlstore::{FaultConfig, StoreOptions};

const CORPUS: [&str; 3] = [QUERY1, QUERY2, QUERY_COUNT];

/// Serialized output at a given thread count and batch size.
fn run_physical(
    db: &mut TimberDb,
    query: &str,
    mode: PlanMode,
    threads: usize,
    batch: usize,
) -> String {
    db.set_threads(threads);
    run(db, query, mode, batch)
}

#[test]
fn sharded_sinks_equal_the_model_on_random_bibliographies() {
    check(
        "sharded_sinks_equal_the_model_on_random_bibliographies",
        24,
        |g| {
            let shape = [Shape::Plain, Shape::Ragged][g.usize_in(0, 1)];
            let xml = bibliography(g, shape);
            let mut db = TimberDb::load_xml(&xml, &StoreOptions::in_memory()).unwrap();
            let batch = *g.pick(&batch_matrix(&[1, 3, 16, 256]));
            for threads in thread_matrix(&[1, 2, 4, 8]) {
                db.set_threads(threads);
                for query in CORPUS {
                    assert_matches_model(&mut db, &xml, query, batch, "sharded sinks");
                }
            }
        },
    );
}

#[test]
fn multivalued_basis_duplicates_across_shards() {
    // Two authors of one article hash wherever they hash — the article
    // must land in BOTH author groups, exactly as serially (Fig. 3's
    // non-partitioning semantics). With many threads and few keys, the
    // authors of some article provably straddle shards.
    let xml = "<bib>\
        <article><author>Jack</author><author>John</author><title>T1</title></article>\
        <article><author>Jill</author><author>Jack</author><title>T2</title></article>\
        <article><author>John</author><author>Jill</author><title>T3</title></article>\
    </bib>";
    let mut db = TimberDb::load_xml(xml, &StoreOptions::in_memory()).unwrap();
    let want = expected(xml, QUERY1);
    // Each title appears under both of its authors.
    for t in [
        "<title>T1</title>",
        "<title>T2</title>",
        "<title>T3</title>",
    ] {
        assert_eq!(want.matches(t).count(), 2, "{t} in {want}");
    }
    for threads in [1, 2, 3, 8] {
        let sharded = run_physical(&mut db, QUERY1, PlanMode::GroupByRewrite, threads, 256);
        assert_eq!(want, sharded, "threads={threads}");
    }
}

#[test]
fn sharded_sinks_correct_or_typed_error_under_faults() {
    // An on-disk store with a tiny pool, so sharded kernels do real
    // page I/O that the armed schedule can fail: every outcome must be
    // the fault-free serial answer or a typed error, never a panic or
    // a silently wrong result.
    let xml = DblpGenerator::new(DblpConfig::sized(60)).generate_xml();
    let opts = StoreOptions {
        on_disk: true,
        pool_pages: 2,
        ..StoreOptions::in_memory()
    };
    let mut db = TimberDb::load_xml(&xml, &opts).unwrap();
    let reference: Vec<String> = CORPUS.iter().map(|q| expected(&xml, q)).collect();
    let mut injected = 0u64;
    for seed in [7u64, 11, 13] {
        let schedule = FaultConfig::seeded(seed)
            .with_read_error(0.02)
            .with_read_flip(0.01);
        db.set_faults(Some(schedule)).unwrap();
        db.set_threads(4);
        db.set_batch_size(64);
        for (qi, query) in CORPUS.iter().enumerate() {
            // A typed error is acceptable under faults; an Ok result must
            // match the fault-free reference (serialization itself may
            // also hit a fault, hence the inner `if let`).
            if let Ok(r) = db.query(query, PlanMode::GroupByRewrite) {
                if let Ok(xml) = r.to_xml_on(db.store()) {
                    assert_eq!(xml, reference[qi], "seed={seed} query #{qi}");
                }
            }
        }
        injected += db.fault_stats().unwrap().total();
        db.set_faults(None).unwrap();
        // Disarmed, the sharded pipeline answers perfectly again.
        for (qi, query) in CORPUS.iter().enumerate() {
            assert_eq!(
                run_physical(&mut db, query, PlanMode::GroupByRewrite, 4, 64),
                reference[qi],
                "post-disarm seed={seed} query #{qi}"
            );
        }
    }
    assert!(injected > 0, "schedules must actually inject faults");
}

#[test]
fn explain_analyze_reports_partition_counts() {
    let mut db = timber_integration_tests::fig6_db();
    for threads in thread_matrix(&[1, 4]) {
        db.set_threads(threads);
        for (query, mode) in [
            (QUERY1, PlanMode::GroupByRewrite),
            (QUERY2, PlanMode::Direct),
        ] {
            let text = db.explain_analyze(query, mode).unwrap().render();
            let parts: Vec<&str> = text.lines().filter(|l| l.contains("parts=")).collect();
            assert!(
                !parts.is_empty(),
                "threads={threads} {mode:?}: no sink reported partitions in {text}"
            );
            assert!(
                parts.iter().all(|l| l.contains("skew=")),
                "threads={threads}: {text}"
            );
        }
    }
}
