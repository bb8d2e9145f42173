//! Differential testing of the executor against the reference model
//! (`tests/src/model.rs`): every query must serialize to exactly the
//! bytes the query as written evaluates to — for every query of the
//! E1/E2 corpus, two more nested RETURN paths and an `ORDER BY` on the
//! returned path, in both plan modes, on the Fig. 6 database, on a
//! bibliography where every article has two authors, and on random
//! dated and ragged bibliographies.

use smallrand::prop::check;
use timber::{PlanMode, TimberDb};
use timber_integration_tests::{
    assert_matches_model, bibliography, expected, fig6_db, run, Shape, FIG6_DB, QUERY1, QUERY2,
    QUERY_COUNT,
};
use xmlstore::StoreOptions;

/// A projection-only query: no grouping, no join — exercises the
/// executor's select→project fusion.
const QUERY_PROJECT: &str = r#"
    FOR $a IN distinct-values(document("bib.xml")//author)
    RETURN <row> {$a} </row>
"#;

/// Query 1 returning the joined tag itself: each article's authors,
/// the one the group is keyed by among them.
const QUERY_AUTHORS: &str = r#"
    FOR $a IN distinct-values(document("bib.xml")//author)
    RETURN <authorpubs>
      {$a}
      { FOR $b IN document("bib.xml")//article
        WHERE $a = $b/author
        RETURN $b/author }
    </authorpubs>
"#;

/// Query 1 returning a path other than the title.
const QUERY_YEARS: &str = r#"
    FOR $a IN distinct-values(document("bib.xml")//author)
    RETURN <authorpubs>
      {$a}
      { FOR $b IN document("bib.xml")//article
        WHERE $a = $b/author
        RETURN $b/year }
    </authorpubs>
"#;

/// Query 1 ordered by the path it returns, which an article can repeat:
/// an article's titles stay together, ordered by its first. It orders
/// by an optional path, so `Shape::Ragged` (untitled articles) is outside
/// its GROUPBY plan's precondition — DESIGN.md, *Oracle*, 2.
const QUERY_TITLES_BY_TITLE: &str = r#"
    FOR $a IN distinct-values(document("bib.xml")//author)
    RETURN <authorpubs>
      {$a}
      { FOR $b IN document("bib.xml")//article
        WHERE $a = $b/author
        ORDER BY $b/title
        RETURN $b/title }
    </authorpubs>
"#;

const CORPUS: [&str; 7] = [
    QUERY1,
    QUERY2,
    QUERY_COUNT,
    QUERY_PROJECT,
    QUERY_AUTHORS,
    QUERY_YEARS,
    QUERY_TITLES_BY_TITLE,
];

/// The Fig. 6 articles with a year each: `QUERY_YEARS` is inside the
/// GROUPBY rewrite's precondition only where every author has a dated
/// article (DESIGN.md, *Oracle*, 1).
const FIG6_DATED: &str = "<bib>\
    <article><author>Jack</author><author>John</author><title>Querying XML</title><year>1999</year></article>\
    <article><author>Jill</author><author>Jack</author><title>XML and the Web</title><year>2001</year></article>\
    <article><author>John</author><title>Hack HTML</title><year>2000</year></article>\
</bib>";

/// Three two-author articles, every author sharing an article with each
/// of the others: Fig. 3's non-partitioning semantics put each article
/// in both of its authors' groups. Each has a year, which keeps
/// `QUERY_YEARS` inside the GROUPBY rewrite's precondition.
const TWO_AUTHORS_EACH: &str = "<bib>\
    <article><author>Jack</author><author>John</author><title>T1</title><year>1999</year></article>\
    <article><author>Jill</author><author>Jack</author><title>T2</title><year>2000</year></article>\
    <article><author>John</author><author>Jill</author><title>T3</title><year>2001</year></article>\
</bib>";

#[test]
fn every_cell_equals_the_model_on_fig6() {
    assert_eq!(expected(FIG6_DB, QUERY1), expected(FIG6_DATED, QUERY1));
    for (xml, what) in [(FIG6_DATED, "fig6"), (TWO_AUTHORS_EACH, "two authors each")] {
        let db = TimberDb::load_xml(xml, &StoreOptions::in_memory()).unwrap();
        for query in CORPUS {
            assert_matches_model(&db, xml, query, what);
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
            let shape = [Shape::Years, Shape::Ragged][g.usize_in(0, 1)];
            let xml = bibliography(g, shape);
            let db = TimberDb::load_xml(&xml, &StoreOptions::in_memory()).unwrap();
            for query in CORPUS {
                if shape == Shape::Ragged && query == QUERY_TITLES_BY_TITLE {
                    continue;
                }
                assert_matches_model(&db, &xml, query, "random");
            }
        },
    );
}

#[test]
fn empty_database_yields_empty_output_at_every_batching() {
    let db = TimberDb::load_xml("<bib/>", &StoreOptions::in_memory()).unwrap();
    for query in CORPUS {
        assert_eq!(expected("<bib/>", query), "");
        assert_matches_model(&db, "<bib/>", query, "empty");
    }
}

#[test]
fn explain_analyze_output_matches_plain_query() {
    // The analyzed execution is the same pipeline; its result must match
    // a plain run byte for byte.
    let db = fig6_db();
    for query in CORPUS {
        for mode in [PlanMode::Direct, PlanMode::GroupByRewrite] {
            let analyzed = db.explain_analyze(query, mode).unwrap();
            assert_eq!(
                run(&db, query, mode),
                analyzed.result.to_xml_on(db.store()).unwrap(),
                "{mode:?} query: {query}"
            );
        }
    }
}
