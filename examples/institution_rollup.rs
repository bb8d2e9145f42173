//! The richer grouping specifications of Sec. 1: group articles by the
//! authors' *institution*, and then two-level grouping — institution
//! outer, author inner — built directly with the TAX `groupby` operator
//! (the third introductory query of the paper).
//!
//! ```text
//! cargo run --release -p timber-examples --bin institution_rollup -- [articles]
//! ```

#![forbid(unsafe_code)]

use datagen::{DblpConfig, DblpGenerator};
use tax::batch::{Batch, Matches};
use tax::ops::groupby::{groupby, BasisItem, Direction, GroupOrder};
use tax::ops::project::ProjectItem;
use tax::output::write_xml_lines;
use tax::pattern::{Axis, PatternTree, Pred};
use tax::tags;
use timber::{PlanMode, TimberDb};
use xmlstore::StoreOptions;

/// The group-by-institution query from the introduction.
const INST_QUERY: &str = r#"
    FOR $i IN distinct-values(document("bib.xml")//institution)
    RETURN <instpubs>
      {$i}
      { FOR $b IN document("bib.xml")//article
        WHERE $i = $b/author/institution
        RETURN $b/title }
    </instpubs>
"#;

fn main() {
    let articles: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(2_000);

    let cfg = DblpConfig::sized(articles).with_institutions();
    let xml = DblpGenerator::new(cfg).generate_xml();
    let db = TimberDb::load_xml(&xml, &StoreOptions::in_memory()).expect("load");
    println!(
        "synthetic DBLP with institutions: {} stored nodes\n",
        db.store().node_count()
    );

    // Part 1: the XQuery formulation, both plans.
    println!("-- group-by-institution (XQuery, both plans) --");
    for (name, mode) in [
        ("direct ", PlanMode::Direct),
        ("groupby", PlanMode::GroupByRewrite),
    ] {
        let t0 = std::time::Instant::now();
        let result = db.query(INST_QUERY, mode).expect("query");
        println!(
            "  {name}: {:>7.3}s, {} institutions, rewritten={}",
            t0.elapsed().as_secs_f64(),
            result.len(),
            result.rewritten
        );
    }
    let sample = db
        .query(INST_QUERY, PlanMode::GroupByRewrite)
        .unwrap()
        .to_xml_on(db.store())
        .unwrap();
    println!(
        "  first row: {}\n",
        truncate(sample.lines().next().unwrap_or(""), 160)
    );

    // Part 2: two-level grouping with the algebra directly —
    // institution outer, author inner, articles ordered by title.
    println!("-- two-level grouping (TAX operators) --");
    let store = db.store();

    // The articles, one stored row each.
    let mut sp = PatternTree::with_root(Pred::tag("doc_root"));
    let art = sp.add_child(sp.root(), Axis::Descendant, Pred::tag("article"));
    let sel = Matches::select(store, &sp, &[art]).expect("select");
    let input = sel.project(&[ProjectItem::deep(art)]).expect("project");

    // Outer grouping: by institution (through author), members ordered by
    // descending title — the Fig. 3 ordering list.
    let mut gp = PatternTree::with_root(Pred::tag("article"));
    let title = gp.add_child(gp.root(), Axis::Child, Pred::tag("title"));
    let author = gp.add_child(gp.root(), Axis::Child, Pred::tag("author"));
    let inst = gp.add_child(author, Axis::Child, Pred::tag("institution"));
    let (outer_groups, _) = groupby(
        store,
        &input,
        &gp,
        &[BasisItem::content(inst)],
        &[GroupOrder {
            label: title,
            direction: Direction::Descending,
        }],
    )
    .expect("outer groupby");
    println!("  {} institution groups", outer_groups.len());
    let Batch::Groups(outer_groups) = outer_groups else {
        unreachable!("groupby emits groups")
    };

    // Inner grouping: within each institution group, group that group's
    // member articles by author.
    let mut total_author_groups = 0usize;
    let mut text = String::new();
    write_xml_lines(store, &Batch::Groups(outer_groups.clone()), &mut text).expect("write");
    for (g, line) in text.lines().enumerate().take(3) {
        let e = xmlparse::parse_document(line).expect("parse").into_root();
        let inst_name = e
            .child(tags::GROUPING_BASIS)
            .and_then(|b| b.child("institution"))
            .map(|i| i.text())
            .unwrap_or_default();

        // The group's member articles, as stored rows.
        let members = Batch::Stored(outer_groups.member_rows(g));
        let mut ap = PatternTree::with_root(Pred::tag("article"));
        let author = ap.add_child(ap.root(), Axis::Child, Pred::tag("author"));
        let name = ap.add_child(author, Axis::Child, Pred::tag("name"));
        let inner = groupby(store, &members, &ap, &[BasisItem::content(name)], &[])
            .expect("inner groupby")
            .0;
        total_author_groups += inner.len();
        println!(
            "  {:<40} {:>4} articles, {:>3} author groups",
            truncate(&inst_name, 40),
            members.len(),
            inner.len()
        );
    }
    println!("  (author groups across first three institutions: {total_author_groups})");
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_owned()
    } else {
        format!("{}…", &s[..n])
    }
}
