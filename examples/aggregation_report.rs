//! Grouping composed with aggregation (Sec. 4.3): per-author publication
//! counts and year ranges, computed with the TAX `groupby` and
//! `aggregate` operators directly — grouping restructures, aggregation
//! summarizes, and the two stay separate logical operators.
//!
//! ```text
//! cargo run --release -p timber-examples --bin aggregation_report -- [articles]
//! ```

#![forbid(unsafe_code)]

use datagen::{DblpConfig, DblpGenerator};
use tax::batch::{Batch, Matches};
use tax::ops::aggregate::{aggregate, AggFunc, UpdateSpec};
use tax::ops::groupby::{groupby, BasisItem, Direction, GroupOrder};
use tax::ops::project::ProjectItem;
use tax::output::write_xml_lines;
use tax::pattern::{Axis, PatternTree, Pred};
use tax::tags;
use timber::TimberDb;
use xmlstore::StoreOptions;

fn main() {
    let articles: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(3_000);

    let xml = DblpGenerator::new(DblpConfig::sized(articles)).generate_xml();
    let db = TimberDb::load_xml(&xml, &StoreOptions::in_memory()).expect("load");
    let store = db.store();
    println!(
        "synthetic DBLP: {} stored nodes, {} articles\n",
        store.node_count(),
        articles
    );

    // 1. The article collection (Fig. 9 shape).
    let mut sp = PatternTree::with_root(Pred::tag("doc_root"));
    let art = sp.add_child(sp.root(), Axis::Descendant, Pred::tag("article"));
    let sel = Matches::select(store, &sp, &[art]).expect("select");
    let input = sel.project(&[ProjectItem::deep(art)]).expect("project");

    // 2. Group by author, members ordered by ascending year.
    let mut gp = PatternTree::with_root(Pred::tag("article"));
    let author = gp.add_child(gp.root(), Axis::Child, Pred::tag("author"));
    let year = gp.add_child(gp.root(), Axis::Child, Pred::tag("year"));
    let (groups, _) = groupby(
        store,
        &input,
        &gp,
        &[BasisItem::content(author)],
        &[GroupOrder {
            label: year,
            direction: Direction::Ascending,
        }],
    )
    .expect("groupby");
    println!("{} author groups", groups.len());
    let Batch::Groups(groups) = groups else {
        unreachable!("groupby emits groups")
    };

    // 3. Aggregations over each group: COUNT of member articles, MIN and
    //    MAX of the member years, appended after the group root's last
    //    child — cells each group carries until it is written.
    let mut count_p = PatternTree::with_root(Pred::tag(tags::GROUP_ROOT));
    let sub = count_p.add_child(count_p.root(), Axis::Child, Pred::tag(tags::GROUP_SUBROOT));
    let member = count_p.add_child(sub, Axis::Child, Pred::tag("article"));
    let with_counts = aggregate(
        store,
        groups,
        &count_p,
        AggFunc::Count,
        member,
        "pubcount",
        UpdateSpec::AfterLastChild(0),
    )
    .expect("count");

    let mut year_p = PatternTree::with_root(Pred::tag(tags::GROUP_ROOT));
    let sub = year_p.add_child(year_p.root(), Axis::Child, Pred::tag(tags::GROUP_SUBROOT));
    let m = year_p.add_child(sub, Axis::Child, Pred::tag("article"));
    let y = year_p.add_child(m, Axis::Child, Pred::tag("year"));
    let with_min = aggregate(
        store,
        with_counts,
        &year_p,
        AggFunc::Min,
        y,
        "first_year",
        UpdateSpec::AfterLastChild(0),
    )
    .expect("min");
    let with_max = aggregate(
        store,
        with_min,
        &year_p,
        AggFunc::Max,
        y,
        "last_year",
        UpdateSpec::AfterLastChild(0),
    )
    .expect("max");

    // 4. Report the most prolific authors, read off the written groups.
    let mut text = String::new();
    write_xml_lines(store, &Batch::Groups(with_max), &mut text).expect("write");
    let mut rows: Vec<(String, u64, String, String)> = Vec::new();
    for line in text.lines() {
        let e = xmlparse::parse_document(line).expect("parse").into_root();
        let author = e
            .child(tags::GROUPING_BASIS)
            .and_then(|b| b.child("author"))
            .map(|a| a.text())
            .unwrap_or_default();
        let count: u64 = e
            .child("pubcount")
            .map(|c| c.text().parse().unwrap_or(0))
            .unwrap_or(0);
        let first = e.child("first_year").map(|c| c.text()).unwrap_or_default();
        let last = e.child("last_year").map(|c| c.text()).unwrap_or_default();
        rows.push((author, count, first, last));
    }
    rows.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

    println!("\ntop authors by publication count:");
    println!(
        "{:<28} {:>6} {:>11} {:>10}",
        "author", "pubs", "first year", "last year"
    );
    for (author, count, first, last) in rows.iter().take(15) {
        println!("{author:<28} {count:>6} {first:>11} {last:>10}");
    }

    // Sanity: counts add up to the number of (article, author) pairs.
    let total: u64 = rows.iter().map(|r| r.1).sum();
    println!("\nsum of per-author counts = {total} (author occurrences, not articles — grouping does not partition)");
}
