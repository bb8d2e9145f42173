//! Figure-level semantics tests: Figs. 1–5 and 11 of the paper
//! reproduced as assertions.

use tax::matching::match_db;
use tax::ops::groupby::{groupby, BasisItem, Direction, GroupOrder};
use tax::pattern::{Axis, PatternTree, Pred};
use tax::tags;
use timber::{PlanMode, TimberDb};
use xmlstore::{DocumentStore, StoreOptions};
use xquery::{opt, parse_query, translate, Plan};

/// The Sec. 4.1 grouping rewrite, the optimizer's one rule.
fn grouping_rewrite(plan: Plan) -> (Plan, bool) {
    let (plan, trace) = opt::optimize(plan);
    let fired = trace.fired("groupby-rewrite");
    (plan, fired)
}

/// The DBLP fragment behind Figures 1–3.
const FIG1_DB: &str = "<dblp>\
    <article><title>Transaction Mng ...</title><author>Silberschatz</author></article>\
    <article><title>Overview of Transaction Mng</title><author>Silberschatz</author><author>Garcia-Molina</author></article>\
    <article><title>Transaction Mng ...</title><author>Thompson</author></article>\
</dblp>";

fn fig1_store() -> DocumentStore {
    DocumentStore::from_xml(FIG1_DB, &StoreOptions::in_memory()).unwrap()
}

/// Figure 1: `$1.tag = article & $2.tag = title &
/// $2.content = "*Transaction*" & $3.tag = author`, pc edges.
fn fig1_pattern() -> PatternTree {
    let mut p = PatternTree::with_root(Pred::tag("article"));
    p.add_child(
        p.root(),
        Axis::Child,
        Pred::tag("title").and(Pred::content_contains("Transaction")),
    );
    p.add_child(p.root(), Axis::Child, Pred::tag("author"));
    p
}

#[test]
fn fig1_fig2_pattern_match_yields_four_witness_trees() {
    let s = fig1_store();
    let bindings = match_db(&s, &fig1_pattern()).unwrap();
    // Figure 2 shows four witness trees: one per (article, author) pair.
    assert_eq!(bindings.len(), 4);
}

#[test]
fn fig3_grouping_with_descending_title_order() {
    let s = fig1_store();
    let _p = fig1_pattern();
    // Input: the witness trees of Fig. 2 (whole articles).
    let article_tag = s.tag_id("article").unwrap();
    let arts = tax::Batch::Stored(s.nodes_with_tag(article_tag).to_vec());
    let mut gp = PatternTree::with_root(Pred::tag("article"));
    let title = gp.add_child(gp.root(), Axis::Child, Pred::tag("title"));
    let author = gp.add_child(gp.root(), Axis::Child, Pred::tag("author"));
    let groups = groupby(
        &s,
        &arts,
        &gp,
        &[BasisItem::content(author)],
        &[GroupOrder {
            label: title,
            direction: Direction::Descending,
        }],
    )
    .unwrap()
    .0
    .into_trees();
    // Fig. 3: three groups (Silberschatz, Garcia-Molina, Thompson).
    assert_eq!(groups.len(), 3);
    let g0 = groups[0].materialize(&s).unwrap();
    assert_eq!(g0.name, tags::GROUP_ROOT);
    assert_eq!(
        g0.child(tags::GROUPING_BASIS)
            .unwrap()
            .child("author")
            .unwrap()
            .text(),
        "Silberschatz"
    );
    // Two-author article appears in both the Silberschatz and the
    // Garcia-Molina groups.
    let titles_of = |g: &tax::Tree| -> Vec<String> {
        g.materialize(&s)
            .unwrap()
            .child(tags::GROUP_SUBROOT)
            .unwrap()
            .children_named("article")
            .map(|a| a.child("title").unwrap().text())
            .collect()
    };
    assert_eq!(titles_of(&groups[0]).len(), 2);
    assert!(titles_of(&groups[1]).contains(&"Overview of Transaction Mng".to_owned()));
    // Descending title order within the Silberschatz group.
    let t = titles_of(&groups[0]);
    assert!(t[0] > t[1], "{t:?}");
}

#[test]
fn fig4_naive_parse_pattern_trees() {
    let q = parse_query(timber_integration_tests::QUERY1).unwrap();
    let plan = translate(&q).unwrap();
    let text = plan.explain();
    // Fig. 4a: outer pattern doc_root -ad-> author.
    assert!(text.contains("[$1:doc_root, $1-ad->$2:author]"), "{text}");
    // Fig. 4b: join between the outer author and the article's author.
    assert!(
        text.contains("LeftOuterJoinDb on left.$2 = right.$3"),
        "{text}"
    );
}

#[test]
fn fig5_rewritten_plan_structure() {
    let q = parse_query(timber_integration_tests::QUERY1).unwrap();
    let (plan, fired) = grouping_rewrite(translate(&q).unwrap());
    assert!(fired);
    let text = plan.explain();
    // Fig. 5a: initial pattern doc_root -ad-> article, selected and
    // projected at the article. The scan starts below `doc_root`, which
    // binds only the store root and so constrains nothing.
    assert!(
        text.contains("SelectDb pattern=[$1:article] SL=[\"$1\"]"),
        "{text}"
    );
    // Fig. 5b: grouping pattern article -pc-> author, basis $2.content.
    assert!(
        text.contains("GroupBy pattern=[$1:article, $1-pc->$2:author]"),
        "{text}"
    );
    assert!(text.contains("basis=[\"$2.content\"]"), "{text}");
    // Fig. 5d: the final projection over the group tree.
    assert!(text.contains("TAX_group_root"), "{text}");
    assert!(text.contains("TAX_group_subroot"), "{text}");
}

#[test]
fn fig11_let_form_produces_identical_groupby() {
    let q1 = parse_query(timber_integration_tests::QUERY1).unwrap();
    let q2 = parse_query(timber_integration_tests::QUERY2).unwrap();
    let (p1, f1) = grouping_rewrite(translate(&q1).unwrap());
    let (p2, f2) = grouping_rewrite(translate(&q2).unwrap());
    assert!(f1 && f2);
    assert_eq!(p1.explain(), p2.explain());
}

#[test]
fn fig12_architecture_pipeline_runs() {
    // Parser → optimizer → evaluator → output, over the Fig. 6 DB.
    let db = TimberDb::load_xml(
        timber_integration_tests::FIG6_DB,
        &StoreOptions::in_memory(),
    )
    .unwrap();
    let r = db
        .query(timber_integration_tests::QUERY1, PlanMode::GroupByRewrite)
        .unwrap();
    assert!(r.rewritten);
    assert_eq!(r.len(), 3);
}
