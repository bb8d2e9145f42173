//! What the one-pass fold keeps, held to the reference model in both
//! plan modes. For the rollup, with COUNT and a numeric aggregate: a
//! group is created at its key's first witness even when that row binds
//! no member, a row naming a key twice folds once, content-less keys
//! group under the one absent key (a `CUBE BY` query, where that is the
//! defined behaviour), and a two-key row folds once into its coarser
//! lattice group. For Query 1's gather (`GroupBy` and Fig. 5d's
//! projection as one sink), in its nested and LET forms and ordered by
//! `$b/year DESCENDING`: an untitled article's group is dropped when no
//! member has a title, a row naming an author twice joins its group
//! once, and a two-author article sits in both groups. Nested articles
//! are `plan_equivalence.rs`'s pin.

use timber::{PlanMode, TimberDb};
use timber_integration_tests::{assert_matches_model, expected, run, QUERY1, QUERY2, QUERY_COUNT};
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

/// Query 1, its LET form, and Query 1 with the inner FLWR ordered by
/// `$b/year DESCENDING`.
fn query1_forms() -> [String; 3] {
    let by_year = QUERY1.replace(
        "RETURN $b/title",
        "ORDER BY $b/year DESCENDING RETURN $b/title",
    );
    assert_ne!(by_year, QUERY1);
    [QUERY1.to_owned(), QUERY2.to_owned(), by_year]
}

/// Serve each form of Query 1 in both plan modes: the direct plan gives
/// the model's bytes, the GROUPBY plan the same less the rows of
/// authors none of whose articles has a title (DESIGN.md, *Oracle*, 1).
/// Returns the GROUPBY plan's bytes of each form.
fn assert_gathers_match_model(xml: &str, what: &str) -> Vec<String> {
    let db = TimberDb::load_xml(xml, &StoreOptions::in_memory()).unwrap();
    let titled = |model: &str| -> String {
        let rows = model.lines().filter(|row| row.contains("<title>"));
        rows.map(|row| format!("{row}\n")).collect()
    };
    query1_forms()
        .iter()
        .map(|query| {
            let want = expected(xml, query);
            assert_eq!(run(&db, query, PlanMode::Direct), want, "{what}: {query}");
            let got = run(&db, query, PlanMode::GroupByRewrite);
            assert_eq!(got, titled(&want), "{what}: {query}");
            got
        })
        .collect()
}

#[test]
fn an_untitled_article_leaves_its_group_only_through_titled_members() {
    // Jack is first witnessed by his untitled article and keeps his
    // position; Joe's one article is untitled, so his group has no
    // member with a title and is dropped.
    let xml = "<bib>\
        <article><author>Jack</author><year>2003</year></article>\
        <article><author>Joe</author><author>Jill</author><year>2002</year></article>\
        <article><author>Jill</author><title>A</title><year>1999</year></article>\
        <article><author>Jack</author><title>B</title><year>2001</year></article>\
    </bib>";
    let rows = "<authorpubs><author>Jack</author><title>B</title></authorpubs>\n\
        <authorpubs><author>Jill</author><title>A</title></authorpubs>\n";
    for got in assert_gathers_match_model(xml, "untitled article") {
        assert_eq!(got, rows);
    }
}

#[test]
fn a_row_naming_an_author_twice_joins_the_group_once() {
    let xml = "<bib>\
        <article><author>Jack</author><author>Jack</author><title>A</title><year>2</year></article>\
        <article><author>Jill</author><author>Jack</author><title>B</title><year>3</year></article>\
    </bib>";
    for got in &assert_gathers_match_model(xml, "repeated author")[..2] {
        assert!(
            got.starts_with(
                "<authorpubs><author>Jack</author><title>A</title><title>B</title></authorpubs>\n"
            ),
            "{got}"
        );
    }
}

#[test]
fn a_two_author_article_sits_in_both_groups() {
    // Fig. 3: grouping does not partition. Ordered by year, Jack's
    // later article comes first.
    let xml = "<bib>\
        <article><author>Jack</author><author>Jill</author><title>A</title><year>1999</year></article>\
        <article><author>Jack</author><title>B</title><title>C</title><year>2001</year></article>\
    </bib>";
    let got = assert_gathers_match_model(xml, "two authors");
    let jill = "<authorpubs><author>Jill</author><title>A</title></authorpubs>\n";
    let jack =
        |titles: &str| format!("<authorpubs><author>Jack</author>{titles}</authorpubs>\n{jill}");
    let in_order = jack("<title>A</title><title>B</title><title>C</title>");
    assert_eq!(
        got,
        [
            in_order.clone(),
            in_order,
            jack("<title>B</title><title>C</title><title>A</title>")
        ]
    );
}
