//! Parallel operator evaluation must be byte-identical to sequential.
//!
//! The execution knob (`tax::ExecOptions { threads }`) fans the per-tree
//! work of SELECT / GROUPBY / DUPELIM / AGGREGATE out over worker
//! threads, but every merge step runs sequentially in input order, so a
//! run with N threads is required to produce exactly the output of a
//! single-threaded run — same trees, same group order, same bytes.

use datagen::{DblpConfig, DblpGenerator};
use tax::ops::groupby::{groupby, groupby_sharded, BasisItem, Direction, GroupOrder};
use tax::ops::select::select_db_opts;
use tax::pattern::{Axis, PatternTree, Pred};
use tax::ExecOptions;
use timber::{PlanMode, TimberDb};
use xmlstore::{DocumentStore, StoreOptions};

const THREAD_COUNTS: [usize; 3] = [2, 4, 7];

fn dblp_store(articles: usize) -> DocumentStore {
    let xml = DblpGenerator::new(DblpConfig::sized(articles)).generate_xml();
    DocumentStore::from_xml(&xml, &StoreOptions::in_memory()).unwrap()
}

#[test]
fn select_db_parallel_is_identical_to_sequential() {
    let s = dblp_store(200);
    let mut p = PatternTree::with_root(Pred::tag("doc_root"));
    let art = p.add_child(p.root(), Axis::Descendant, Pred::tag("article"));
    let author = p.add_child(art, Axis::Child, Pred::tag("author"));
    let sequential = select_db_opts(&s, &p, &[art, author], &ExecOptions::sequential()).unwrap();
    assert!(!sequential.is_empty());
    for threads in THREAD_COUNTS {
        let parallel =
            select_db_opts(&s, &p, &[art, author], &ExecOptions::with_threads(threads)).unwrap();
        assert_eq!(sequential, parallel, "threads={threads}");
    }
}

#[test]
fn groupby_parallel_is_identical_to_sequential() {
    let s = dblp_store(300);
    let mut sp = PatternTree::with_root(Pred::tag("doc_root"));
    let art = sp.add_child(sp.root(), Axis::Descendant, Pred::tag("article"));
    let input = select_db_opts(&s, &sp, &[art], &ExecOptions::sequential()).unwrap();

    let mut gp = PatternTree::with_root(Pred::tag("article"));
    let title = gp.add_child(gp.root(), Axis::Child, Pred::tag("title"));
    let author = gp.add_child(gp.root(), Axis::Child, Pred::tag("author"));
    let basis = [BasisItem::content(author)];
    let ordering = [GroupOrder {
        label: title,
        direction: Direction::Descending,
    }];

    let sequential = groupby(&s, &input, &gp, &basis, &ordering).unwrap();
    assert!(sequential.len() > 1);
    for threads in THREAD_COUNTS {
        let opts = ExecOptions::with_threads(threads);
        let (parallel, _) = groupby_sharded(&s, &input, &gp, &basis, &ordering, &opts).unwrap();
        let parallel = parallel.into_trees();
        // Same groups, in the same first-arrival order, with the same
        // members — structural equality over the whole collection.
        assert_eq!(sequential, parallel, "threads={threads}");
        // And the materialized form is byte-identical too.
        for (a, b) in sequential.iter().zip(&parallel) {
            assert_eq!(
                format!("{:?}", a.materialize(&s).unwrap()),
                format!("{:?}", b.materialize(&s).unwrap()),
            );
        }
    }
}

/// The full Figure 1–3 pipeline (Query 1 over the Fig. 6 database and a
/// synthetic DBLP): parse → optional rewrite → evaluate, under both plan
/// modes. Thread count must not change a single output byte.
#[test]
fn query_pipeline_parallel_is_byte_identical() {
    for xml in [
        timber_integration_tests::FIG6_DB.to_owned(),
        DblpGenerator::new(DblpConfig::sized(250)).generate_xml(),
    ] {
        let mut db = TimberDb::load_xml(&xml, &StoreOptions::in_memory()).unwrap();
        for query in [
            timber_integration_tests::QUERY1,
            timber_integration_tests::QUERY2,
            timber_integration_tests::QUERY_COUNT,
        ] {
            for mode in [PlanMode::Direct, PlanMode::GroupByRewrite] {
                db.set_threads(1);
                let sequential = db.query(query, mode).unwrap();
                let sequential_xml = sequential.to_xml_on(db.store()).unwrap();
                for threads in THREAD_COUNTS {
                    db.set_threads(threads);
                    let parallel = db.query(query, mode).unwrap();
                    assert_eq!(sequential.rewritten, parallel.rewritten);
                    assert_eq!(
                        sequential_xml,
                        parallel.to_xml_on(db.store()).unwrap(),
                        "threads={threads} mode={mode:?}"
                    );
                }
            }
        }
    }
}

/// Concurrency smoke: many threads hammering one shared store while the
/// parallel operators run must still agree with the sequential answer.
#[test]
fn parallel_run_on_shared_store_is_stable_across_repeats() {
    let xml = DblpGenerator::new(DblpConfig::sized(150)).generate_xml();
    let mut db = TimberDb::load_xml(&xml, &StoreOptions::in_memory()).unwrap();
    db.set_threads(1);
    let expected = db
        .query(timber_integration_tests::QUERY1, PlanMode::GroupByRewrite)
        .unwrap()
        .to_xml_on(db.store())
        .unwrap();
    db.set_threads(4);
    for _ in 0..5 {
        let got = db
            .query(timber_integration_tests::QUERY1, PlanMode::GroupByRewrite)
            .unwrap()
            .to_xml_on(db.store())
            .unwrap();
        assert_eq!(expected, got);
    }
}
