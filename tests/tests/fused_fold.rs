//! What the rollup's one-pass fold keeps, held to the reference model in
//! both plan modes, for COUNT and for a numeric aggregate: a group is
//! created at its key's first witness even when that row binds no
//! member, a row naming a key twice folds once, content-less keys group
//! under the one absent key (a `CUBE BY` query, where that is the
//! defined behaviour), and a two-key row folds once into its coarser
//! lattice group.

use timber::TimberDb;
use timber_integration_tests::{assert_matches_model, QUERY_COUNT};
use xmlstore::StoreOptions;

/// The count query and its SUM-over-`<year>` variant.
fn count_and_sum() -> [String; 2] {
    let sum = QUERY_COUNT
        .replace("/title", "/year")
        .replace("count(", "sum(");
    [QUERY_COUNT.to_owned(), sum]
}

fn assert_queries_match_model(xml: &str, queries: &[String], what: &str) {
    let db = TimberDb::load_xml(xml, &StoreOptions::in_memory()).unwrap();
    for query in queries {
        assert_matches_model(&db, xml, query, what);
    }
}

#[test]
fn a_group_first_witnessed_without_a_member_keeps_its_position() {
    // Jack's first article has neither title nor year; his group still
    // comes before Jill's.
    let xml = "<bib>\
        <article><author>Jack</author></article>\
        <article><author>Jill</author><title>A</title><year>1999</year></article>\
        <article><author>Jack</author><title>B</title><year>2001</year></article>\
    </bib>";
    assert_queries_match_model(xml, &count_and_sum(), "memberless first witness");
}

#[test]
fn a_row_naming_an_author_twice_folds_once() {
    let xml = "<bib>\
        <article><author>Jack</author><author>Jack</author><title>A</title><year>2</year></article>\
        <article><author>Jill</author><author>Jack</author><title>B</title><year>3</year></article>\
    </bib>";
    assert_queries_match_model(xml, &count_and_sum(), "repeated author");
}

/// A `CUBE BY` over `dims` aggregating `<pages>` with `func`.
fn cube(dims: &str, func: &str) -> String {
    format!(
        r#"FOR $b IN document("bib.xml")//article CUBE BY {dims}
           RETURN <pubs> {{{func}($b/pages)}} </pubs>"#
    )
}

#[test]
fn content_less_authors_group_under_the_absent_key() {
    let xml = "<bib>\
        <article><author/><pages>5</pages></article>\
        <article><author>Jill</author><pages>7</pages></article>\
        <article><author><name>Jo</name></author><pages>9</pages></article>\
    </bib>";
    let queries = ["count", "sum"].map(|f| cube("$b/author", f));
    assert_queries_match_model(xml, &queries, "absent key");
}

#[test]
fn a_two_author_article_folds_once_into_its_journal_group() {
    let xml = "<bib>\
        <article><journal>J</journal><author>Jack</author><author>Jill</author><pages>3</pages></article>\
        <article><journal>J</journal><author>Jill</author><pages>4</pages></article>\
        <article><journal>K</journal><author>Jack</author><pages>5</pages></article>\
    </bib>";
    let queries = ["count", "sum"].map(|f| cube("$b/journal, $b/author", f));
    assert_queries_match_model(xml, &queries, "coarser level");
}
