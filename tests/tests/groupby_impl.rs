//! Experiment X4's two grouping implementations agree: identifier
//! processing (`tax::ops::groupby`: groups of node identifiers, written
//! at output) and eager replication
//! (`timber_bench::replicated::groupby_replicated`: each member copied
//! into an owned element) write the same bytes, and replication asks
//! for more pages.

use smallrand::prop::{check, Gen};
use tax::ops::groupby::{groupby, BasisItem, Direction, GroupOrder};
use tax::output::write_xml_lines;
use tax::pattern::{Axis, PatternTree, Pred};
use tax::Batch;
use timber_bench::replicated::groupby_replicated;
use xmlparse::serialize::element_to_string;
use xmlstore::{DocumentStore, NodeEntry, StoreOptions};

/// The shrunken counterexample preserved from the retired proptest
/// regression file: a single article whose `author` precedes `title`.
const REGRESSION: &str = "<bib><article><author>Jack</author><title>T00000</title></article></bib>";

/// Random bibliography: each article has 1–3 authors drawn from a pool
/// of 4 names and a distinct title, so keys repeat and overlap. Authors
/// come before the title, matching the regression shape.
fn bibliography(g: &mut Gen) -> String {
    const NAMES: [&str; 4] = ["Jack", "Jill", "John", "Jane"];
    let articles = g.usize_in(0, 9);
    let mut s = String::from("<bib>");
    for _ in 0..articles {
        s.push_str("<article>");
        let mut seen = Vec::new();
        for _ in 0..g.usize_in(1, 3) {
            let a = g.usize_in(0, 3);
            if !seen.contains(&a) {
                seen.push(a);
                s.push_str(&format!("<author>{}</author>", NAMES[a]));
            }
        }
        s.push_str(&format!(
            "<title>T{:05}</title></article>",
            g.usize_in(0, 9999)
        ));
    }
    s.push_str("</bib>");
    s
}

/// The store of `xml` and its articles as stored rows.
fn articles(xml: &str) -> (DocumentStore, Vec<NodeEntry>) {
    let s = DocumentStore::from_xml(xml, &StoreOptions::in_memory()).unwrap();
    let rows = s
        .tag_id("article")
        .map_or(Vec::new(), |article| s.nodes_with_tag(article).to_vec());
    (s, rows)
}

/// The groups of `rows` written one a line by each implementation:
/// identifier processing, then replication.
fn both(
    s: &DocumentStore,
    rows: &[NodeEntry],
    p: &PatternTree,
    basis: &[BasisItem],
    ordering: &[GroupOrder],
) -> (String, String) {
    let (groups, _) = groupby(s, &Batch::Stored(rows.to_vec()), p, basis, ordering).unwrap();
    let mut identifier = String::new();
    write_xml_lines(s, &groups, &mut identifier).unwrap();
    let replicas = groupby_replicated(s, rows, p, basis, ordering).unwrap();
    let replicated = replicas.iter().map(|e| element_to_string(e) + "\n");
    (identifier, replicated.collect())
}

/// `article {title, author}`, with the title and author labels.
fn article_pattern() -> (PatternTree, usize, usize) {
    let mut p = PatternTree::with_root(Pred::tag("article"));
    let title = p.add_child(p.root(), Axis::Child, Pred::tag("title"));
    let author = p.add_child(p.root(), Axis::Child, Pred::tag("author"));
    (p, title, author)
}

fn check_impls_agree(xml: &str) {
    let (s, rows) = articles(xml);
    let (p, title, author) = article_pattern();
    let ordering = [GroupOrder {
        label: title,
        direction: Direction::Ascending,
    }];
    let (identifier, replicated) = both(&s, &rows, &p, &[BasisItem::content(author)], &ordering);
    assert_eq!(identifier, replicated, "on {xml}");
}

#[test]
fn identifier_and_replicated_agree() {
    check_impls_agree(REGRESSION);
    check("identifier_and_replicated_agree", 64, |g| {
        check_impls_agree(&bibliography(g))
    });
}

/// The Figures 1–3 data: articles with Transaction titles.
const FIG_SAMPLE: &str = "<bib>\
    <article><title>Transaction Mng</title><author>Silberschatz</author></article>\
    <article><title>Overview of Transaction Mng</title><author>Silberschatz</author><author>Garcia-Molina</author></article>\
    <article><title>Transaction Mng for the Web</title><author>Thompson</author></article>\
</bib>";

#[test]
fn replicated_groupby_same_logical_output() {
    // Same groups, same member articles in the same (descending title)
    // order.
    let (s, rows) = articles(FIG_SAMPLE);
    let (p, title, author) = article_pattern();
    let ordering = [GroupOrder {
        label: title,
        direction: Direction::Descending,
    }];
    let (identifier, replicated) = both(&s, &rows, &p, &[BasisItem::content(author)], &ordering);
    assert_eq!(identifier.lines().count(), 3);
    assert_eq!(identifier, replicated);
}

#[test]
fn replication_costs_more_io() {
    let (s, rows) = articles(FIG_SAMPLE);
    let (p, _, author) = article_pattern();
    let basis = [BasisItem::content(author)];

    s.reset_io_stats();
    groupby(&s, &Batch::Stored(rows.clone()), &p, &basis, &[]).unwrap();
    let fast_io = s.io_stats().page_requests();

    s.reset_io_stats();
    groupby_replicated(&s, &rows, &p, &basis, &[]).unwrap();
    let slow_io = s.io_stats().page_requests();
    assert!(
        slow_io > fast_io,
        "replication ({slow_io}) must touch more pages than identifier processing ({fast_io})"
    );
}

#[test]
fn interleaved_keys_agree_across_implementations() {
    // One article whose author institutions interleave (X, Y, X): the
    // article must appear exactly once in group X under both
    // implementations. The replicated path once deduped only
    // *adjacent* same-key witnesses and emitted it twice.
    let (s, rows) = articles(
        "<bib>\
            <article><title>P1</title>\
              <author><name>A</name><institution>X</institution></author>\
              <author><name>B</name><institution>Y</institution></author>\
              <author><name>C</name><institution>X</institution></author>\
            </article>\
            <article><title>P2</title>\
              <author><name>D</name><institution>Y</institution></author>\
            </article>\
        </bib>",
    );
    let mut p = PatternTree::with_root(Pred::tag("article"));
    let author = p.add_child(p.root(), Axis::Child, Pred::tag("author"));
    let inst = p.add_child(author, Axis::Child, Pred::tag("institution"));
    let (identifier, replicated) = both(&s, &rows, &p, &[BasisItem::content(inst)], &[]);
    assert_eq!(identifier, replicated);
    let groups: Vec<&str> = identifier.lines().collect();
    assert_eq!(groups.len(), 2); // X, Y
                                 // Group X holds the first article exactly once.
    assert!(groups[0].contains("<institution>X</institution></TAX_grouping_basis>"));
    assert_eq!(groups[0].matches("<article>").count(), 1);
}
