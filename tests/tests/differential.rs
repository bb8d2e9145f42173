//! Differential testing of the executor against itself in its
//! degenerate configuration: the batched, sharded pipeline must produce
//! byte-identical serialized output to the one-batch serial run — for
//! every query of the E1/E2 corpus, in both plan modes, across thread
//! counts and batch sizes, and on randomly generated bibliographies.
//! (Independent of the executor, `plan_equivalence.rs` holds Direct
//! against GROUPBY and `figures.rs` pins the Fig. 6 bytes.)

use smallrand::prop::{check, Gen};
use timber::{PlanMode, TimberDb};
use timber_integration_tests::{
    batch_matrix, fig6_db, reference_run, run, thread_matrix, FIG6_DB, QUERY1, QUERY2, QUERY_COUNT,
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
fn batched_equals_one_batch_serial_on_corpus() {
    let mut db = fig6_db();
    for query in CORPUS {
        for mode in [PlanMode::Direct, PlanMode::GroupByRewrite] {
            let expected = reference_run(&mut db, query, mode);
            for batch in batch_matrix(&[1, 2, 3, 256]) {
                let got = run(&mut db, query, mode, batch);
                assert_eq!(expected, got, "{mode:?} batch={batch} query: {query}");
            }
        }
    }
}

#[test]
fn batched_equals_one_batch_serial_across_thread_counts() {
    let mut db = fig6_db();
    for threads in thread_matrix(&[1, 2, 4]) {
        db.set_threads(threads);
        for query in CORPUS {
            for mode in [PlanMode::Direct, PlanMode::GroupByRewrite] {
                let expected = reference_run(&mut db, query, mode);
                for batch in batch_matrix(&[2]) {
                    let got = run(&mut db, query, mode, batch);
                    assert_eq!(
                        expected, got,
                        "threads={threads} batch={batch} {mode:?} query: {query}"
                    );
                }
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

/// The random-bibliography generator of the plan-equivalence suite.
fn bibliography(g: &mut Gen) -> String {
    const POOL: [&str; 5] = ["Jack", "Jill", "John", "Jane", "Joan"];
    let articles = g.usize_in(0, 11);
    let mut s = String::from("<bib>");
    for _ in 0..articles {
        s.push_str("<article>");
        let k = g.usize_in(1, 3);
        let mut picked = Vec::new();
        while picked.len() < k {
            let i = g.usize_in(0, POOL.len() - 1);
            if !picked.contains(&i) {
                picked.push(i);
            }
        }
        picked.sort_unstable();
        for &i in &picked {
            s.push_str(&format!("<author>{}</author>", POOL[i]));
        }
        s.push_str(&format!("<title>Title {}</title>", g.usize_in(0, 999)));
        s.push_str("</article>");
    }
    s.push_str("</bib>");
    s
}

#[test]
fn batched_equals_one_batch_serial_on_random_bibliographies() {
    check(
        "batched_equals_one_batch_serial_on_random_bibliographies",
        32,
        |g| {
            let xml = bibliography(g);
            let mut db = TimberDb::load_xml(&xml, &StoreOptions::in_memory()).unwrap();
            let batch = [1, 3, 256][g.usize_in(0, 2)];
            for query in CORPUS {
                for mode in [PlanMode::Direct, PlanMode::GroupByRewrite] {
                    let expected = reference_run(&mut db, query, mode);
                    let got = run(&mut db, query, mode, batch);
                    assert_eq!(expected, got, "{mode:?} batch={batch} on {xml}");
                }
            }
        },
    );
}

#[test]
fn empty_database_yields_empty_output_at_every_batching() {
    let mut db = TimberDb::load_xml("<bib/>", &StoreOptions::in_memory()).unwrap();
    for query in CORPUS {
        for mode in [PlanMode::Direct, PlanMode::GroupByRewrite] {
            let expected = reference_run(&mut db, query, mode);
            let got = run(&mut db, query, mode, 1);
            assert_eq!(expected, got, "{mode:?} query: {query}");
            assert!(got.is_empty());
        }
    }
}

#[test]
fn explain_analyze_output_matches_plain_query() {
    // The analyzed execution is the same pipeline; its result must match
    // a plain run byte for byte.
    let db = TimberDb::load_xml(FIG6_DB, &StoreOptions::in_memory()).unwrap();
    for query in CORPUS {
        for mode in [PlanMode::Direct, PlanMode::GroupByRewrite] {
            let plain = db.query(query, mode).unwrap();
            let analyzed = db.explain_analyze(query, mode).unwrap();
            assert_eq!(
                plain.to_xml_on(db.store()).unwrap(),
                analyzed.result.to_xml_on(db.store()).unwrap(),
                "{mode:?} query: {query}"
            );
        }
    }
}
