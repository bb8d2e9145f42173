//! Differential suite for the rollup path: under
//! `PlanMode::GroupByRewrite` the grouping rewrite emits grouped
//! aggregates as the streaming `Rollup`, and its serialized output — like
//! the direct plan's —
//! must be the bytes the reference model evaluates the query to: for
//! every aggregate function, across batch sizes (CI sweeps `{16, 256}`
//! via `TIMBER_TEST_BATCH`), on random multi-author bibliographies, for
//! fractional Avg/Sum values, and under seeded fault schedules
//! (correct-or-typed-error).

use datagen::{DblpConfig, DblpGenerator};
use smallrand::prop::check;
use timber::{PlanMode, TimberDb};
use timber_integration_tests::{
    assert_matches_model, batch_matrix, bibliography, expected, fig6_db, Shape, FIG6_DB,
    QUERY_COUNT,
};
use xmlstore::{FaultConfig, StoreOptions};

/// A per-author aggregate query over the articles' `<year>` values.
fn agg_query(func: &str) -> String {
    format!(
        r#"
        FOR $a IN distinct-values(document("bib.xml")//author)
        LET $y := document("bib.xml")//article[author = $a]/year
        RETURN <authorpubs> {{$a}} {{{func}($y)}} </authorpubs>
    "#
    )
}

/// Every aggregate the rollup kernel accumulates.
const FUNCS: [&str; 5] = ["count", "sum", "min", "max", "avg"];

fn corpus() -> Vec<String> {
    let mut qs = vec![QUERY_COUNT.to_owned()];
    qs.extend(FUNCS.iter().map(|f| agg_query(f)));
    qs
}

#[test]
fn every_corpus_aggregate_fuses_to_a_rollup() {
    let db = fig6_db();
    for query in corpus() {
        // The rewrite emits the operator the query means: `GroupBy`,
        // `Aggregate` and the final `Project` as one flat `Rollup`.
        let (plan, rewritten) = db.compile(&query, PlanMode::GroupByRewrite).unwrap();
        assert!(rewritten, "{query}");
        let text = plan.explain();
        let ops: Vec<&str> = text.lines().map(|l| l.trim_start()).collect();
        assert!(ops[0].starts_with("Rename"), "{text}");
        assert!(
            ops[1].starts_with("Rollup") && ops[1].contains(" flat "),
            "{text}"
        );
        assert!(ops[2].starts_with("Project pattern=[$1:article]"), "{text}");
        assert!(
            ops[3].starts_with("SelectDb pattern=[$1:article]"),
            "{text}"
        );
        assert_eq!(ops.len(), 4, "{text}");
    }
}

/// Every article carries the `<year>` the LET path selects, so the
/// direct (outer-join) plan and the grouped plan agree; Alpha's two
/// authors exercise the multi-valued grouping basis.
const YEARS_DB: &str = "<bib>\
    <article><author>Jack</author><title>Zeta</title><year>2001</year></article>\
    <article><author>Jack</author><author>Jill</author><title>Alpha</title><year>1999</year></article>\
    <article><author>Jack</author><title>Midway</title><year>1995</year></article>\
    <article><author>Jill</author><title>Beta</title><year>2002</year></article>\
    <article><author>John</author><title>Gamma</title><year>1984</year></article>\
</bib>";

/// Every `{batch} × {Direct, GroupByRewrite}` cell of `query` over `xml`
/// against the model.
fn assert_matrix_matches_model(xml: &str, query: &str, what: &str) {
    let db = TimberDb::load_xml(xml, &StoreOptions::in_memory()).unwrap();
    for batch in batch_matrix(&[1, 16, 256]) {
        assert_matches_model(&db, xml, query, batch, what);
    }
}

#[test]
fn rollup_matches_the_model_across_batches() {
    for query in corpus() {
        assert_matrix_matches_model(YEARS_DB, &query, "years");
    }
    // Fig. 6 has titles and no years: only the count over titles is
    // defined for every author there.
    assert_matrix_matches_model(FIG6_DB, QUERY_COUNT, "fig6");
}

#[test]
fn avg_keeps_its_fraction_formatting_through_the_rollup() {
    // Jack's years 2001/1999/1995 average to a repeating fraction; the
    // rollup's sum+count accumulator must render it exactly as written.
    let xml = "<bib>\
        <article><author>Jack</author><title>Zeta</title><year>2001</year></article>\
        <article><author>Jack</author><title>Alpha</title><year>1999</year></article>\
        <article><author>Jack</author><title>Midway</title><year>1995</year></article>\
        <article><author>Jill</author><title>Beta</title><year>2002</year></article>\
    </bib>";
    let q = agg_query("avg");
    let want = expected(xml, &q);
    assert!(want.contains("<avg>1998.3333333333333</avg>"), "{want}");
    // Whole-number averages render as integers (2002, not 2002.0).
    assert!(want.contains("<avg>2002</avg>"), "{want}");
    assert_matrix_matches_model(xml, &q, "avg formatting");
}

#[test]
fn fractional_values_fold_identically() {
    // Fractional years force real floating-point accumulation: the
    // running Sum/Avg folds must add in document order bit for bit, at
    // every batch size; the non-numeric year is ignored.
    let xml = "<bib>\
        <article><author>Jack</author><title>A</title><year>0.1</year></article>\
        <article><author>Jack</author><title>B</title><year>0.2</year></article>\
        <article><author>Jack</author><author>Jill</author><title>C</title><year>0.30000000000000004</year></article>\
        <article><author>Jill</author><title>D</title><year>12.5</year></article>\
        <article><author>Jill</author><title>E</title><year>not-a-number</year></article>\
    </bib>";
    for func in ["sum", "avg", "min", "max"] {
        assert_matrix_matches_model(xml, &agg_query(func), func);
    }
}

#[test]
fn rollup_matches_the_model_on_random_bibliographies() {
    // Random multi-author bibliographies: the multi-valued grouping
    // basis (an article with k authors contributes to k accumulators)
    // and group sizes vary per case. The count over titles also runs on
    // ragged shapes (duplicate authors, untitled and empty articles).
    check(
        "rollup_matches_the_model_on_random_bibliographies",
        24,
        |g| {
            let batch = *g.pick(&batch_matrix(&[1, 16, 256]));
            let xml = bibliography(g, Shape::Years);
            let db = TimberDb::load_xml(&xml, &StoreOptions::in_memory()).unwrap();
            for query in corpus() {
                assert_matches_model(&db, &xml, &query, batch, "years");
            }
            let xml = bibliography(g, Shape::Ragged);
            let db = TimberDb::load_xml(&xml, &StoreOptions::in_memory()).unwrap();
            assert_matches_model(&db, &xml, QUERY_COUNT, batch, "ragged");
        },
    );
}

fn fault_seeds() -> Vec<u64> {
    match std::env::var("CRASH_SEEDS") {
        Ok(s) => s.split(',').filter_map(|t| t.trim().parse().ok()).collect(),
        Err(_) => vec![1, 2, 3],
    }
}

#[test]
fn rollup_under_fault_schedules_is_correct_or_typed_error() {
    // On-disk database with a tiny pool so populating the rollup's
    // output does real physical I/O the schedules can hit. Contract: the byte-identical
    // fault-free answer, or a clean typed error — never a panic, never
    // a silently wrong aggregate.
    let xml = DblpGenerator::new(DblpConfig::sized(400)).generate_xml();
    let opts = StoreOptions {
        on_disk: true,
        // One frame, emptied when a schedule is armed: the plan reads
        // no page, and output population reads each heap page of the
        // result once — a dozen physical reads a query, so the
        // schedules fire often enough to hit some of them.
        pool_pages: 1,
        ..StoreOptions::in_memory()
    };
    let db = TimberDb::load_xml(&xml, &opts).unwrap();
    let queries: Vec<String> = vec![QUERY_COUNT.to_owned(), agg_query("avg")];
    let reference: Vec<String> = queries.iter().map(|q| expected(&xml, q)).collect();
    let mut injected = 0u64;
    for seed in fault_seeds() {
        for schedule in [
            FaultConfig::seeded(seed).with_read_error(0.2),
            FaultConfig::seeded(seed).with_read_flip(0.2),
        ] {
            db.set_faults(Some(schedule)).unwrap();
            for (qi, q) in queries.iter().enumerate() {
                match db.query(q, PlanMode::GroupByRewrite) {
                    Ok(result) => match result.to_xml_on(db.store()) {
                        Ok(out) => {
                            assert_eq!(out, reference[qi], "seed={seed}: silent corruption")
                        }
                        Err(e) => {
                            let _ = e.to_string();
                        }
                    },
                    Err(e) => {
                        let _ = e.to_string();
                    }
                }
            }
            injected += db.fault_stats().unwrap().total();
            db.set_faults(None).unwrap();
        }
    }
    assert!(injected > 0, "schedules must actually inject faults");
    // Disarmed, the store answers perfectly again.
    for (qi, q) in queries.iter().enumerate() {
        let r = db.query(q, PlanMode::GroupByRewrite).unwrap();
        assert_eq!(r.to_xml_on(db.store()).unwrap(), reference[qi]);
    }
}
