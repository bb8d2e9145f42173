//! Differential testing of the executor against the reference model
//! (`tests/src/model.rs`): the batched, sharded pipeline must serialize
//! to exactly the bytes the query as written evaluates to — for every
//! query of the E1/E2 corpus, in both plan modes, across thread counts
//! and batch sizes, on the Fig. 6 database and on random plain and
//! ragged bibliographies.

use smallrand::prop::check;
use timber::{PlanMode, TimberDb};
use timber_integration_tests::{
    assert_matches_model, batch_matrix, bibliography, expected, fig6_db, run, thread_matrix, Shape,
    FIG6_DB, QUERY1, QUERY2, QUERY_COUNT,
};
use xmlstore::StoreOptions;

/// A projection-only query: no grouping, no join — exercises the
/// optimizer's select→project fusion and the streaming leaf.
const QUERY_PROJECT: &str = r#"
    FOR $a IN distinct-values(document("bib.xml")//author)
    RETURN <row> {$a} </row>
"#;

const CORPUS: [&str; 4] = [QUERY1, QUERY2, QUERY_COUNT, QUERY_PROJECT];

#[test]
fn every_cell_equals_the_model_on_fig6() {
    let mut db = fig6_db();
    for threads in thread_matrix(&[1, 2, 4]) {
        db.set_threads(threads);
        for query in CORPUS {
            for batch in batch_matrix(&[1, 2, 3, 256]) {
                assert_matches_model(&mut db, FIG6_DB, query, batch, "fig6");
            }
        }
    }
}

#[test]
fn run_records_metrics_consistent_with_result() {
    let db = fig6_db();
    for query in CORPUS {
        for mode in [PlanMode::Direct, PlanMode::GroupByRewrite] {
            let r = db.query(query, mode).unwrap();
            let m = r.metrics.as_ref().expect("a run records metrics");
            assert_eq!(m.trees_out, r.len(), "{mode:?} query: {query}");
            assert!(m.node_count() >= 1);
        }
    }
}

#[test]
fn every_cell_equals_the_model_on_random_bibliographies() {
    check(
        "every_cell_equals_the_model_on_random_bibliographies",
        32,
        |g| {
            let shape = [Shape::Plain, Shape::Ragged][g.usize_in(0, 1)];
            let xml = bibliography(g, shape);
            let mut db = TimberDb::load_xml(&xml, &StoreOptions::in_memory()).unwrap();
            db.set_threads(*g.pick(&thread_matrix(&[1, 4])));
            let batch = *g.pick(&batch_matrix(&[1, 3, 256]));
            for query in CORPUS {
                assert_matches_model(&mut db, &xml, query, batch, "random");
            }
        },
    );
}

#[test]
fn empty_database_yields_empty_output_at_every_batching() {
    let mut db = TimberDb::load_xml("<bib/>", &StoreOptions::in_memory()).unwrap();
    for query in CORPUS {
        assert_eq!(expected("<bib/>", query), "");
        assert_matches_model(&mut db, "<bib/>", query, 1, "empty");
    }
}

#[test]
fn explain_analyze_output_matches_plain_query() {
    // The analyzed execution is the same pipeline; its result must match
    // a plain run byte for byte.
    let mut db = fig6_db();
    for query in CORPUS {
        for mode in [PlanMode::Direct, PlanMode::GroupByRewrite] {
            let analyzed = db.explain_analyze(query, mode).unwrap();
            assert_eq!(
                run(&mut db, query, mode, 256),
                analyzed.result.to_xml_on(db.store()).unwrap(),
                "{mode:?} query: {query}"
            );
        }
    }
}
