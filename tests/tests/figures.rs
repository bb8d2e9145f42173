//! Figure-level semantics tests: Figs. 1–5 and 11 of the paper
//! reproduced as assertions. The trees of Figs. 2 and 3 are held to
//! their bytes.

use tax::batch::{Batch, Matches};
use tax::matching::match_db;
use tax::ops::groupby::{groupby, BasisItem, Direction, GroupOrder};
use tax::output::write_xml_lines;
use tax::pattern::{Axis, PatternTree, Pred};
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

/// `batch` written, one row a line.
fn written(s: &DocumentStore, batch: &Batch) -> String {
    let mut out = String::new();
    write_xml_lines(s, batch, &mut out).unwrap();
    out
}

#[test]
fn fig1_fig2_pattern_match_yields_four_witness_trees() {
    let s = fig1_store();
    let bindings = match_db(&s, &fig1_pattern()).unwrap();
    // Figure 2 shows four witness trees: one per (article, author) pair.
    assert_eq!(bindings.len(), 4);
    let witnesses = Batch::Matches(Matches::select(&s, &fig1_pattern(), &[]).unwrap());
    assert_eq!(
        written(&s, &witnesses),
        "<article><title>Transaction Mng ...</title><author>Silberschatz</author></article>\n\
         <article><title>Overview of Transaction Mng</title><author>Silberschatz</author></article>\n\
         <article><title>Overview of Transaction Mng</title><author>Garcia-Molina</author></article>\n\
         <article><title>Transaction Mng ...</title><author>Thompson</author></article>\n"
    );
}

/// Fig. 3's bytes: the author groups, each member whole, descending by
/// title.
const FIG3: &str = "\
<TAX_group_root><TAX_grouping_basis><author>Silberschatz</author></TAX_grouping_basis><TAX_group_subroot>\
<article><title>Transaction Mng ...</title><author>Silberschatz</author></article>\
<article><title>Overview of Transaction Mng</title><author>Silberschatz</author><author>Garcia-Molina</author></article>\
</TAX_group_subroot></TAX_group_root>\n\
<TAX_group_root><TAX_grouping_basis><author>Garcia-Molina</author></TAX_grouping_basis><TAX_group_subroot>\
<article><title>Overview of Transaction Mng</title><author>Silberschatz</author><author>Garcia-Molina</author></article>\
</TAX_group_subroot></TAX_group_root>\n\
<TAX_group_root><TAX_grouping_basis><author>Thompson</author></TAX_grouping_basis><TAX_group_subroot>\
<article><title>Transaction Mng ...</title><author>Thompson</author></article>\
</TAX_group_subroot></TAX_group_root>\n";

#[test]
fn fig3_grouping_with_descending_title_order() {
    let s = fig1_store();
    let _p = fig1_pattern();
    // Input: the witness trees of Fig. 2 (whole articles).
    let article_tag = s.tag_id("article").unwrap();
    let arts = Batch::Stored(s.nodes_with_tag(article_tag).to_vec());
    let mut gp = PatternTree::with_root(Pred::tag("article"));
    let title = gp.add_child(gp.root(), Axis::Child, Pred::tag("title"));
    let author = gp.add_child(gp.root(), Axis::Child, Pred::tag("author"));
    let (groups, _) = groupby(
        &s,
        &arts,
        &gp,
        &[BasisItem::content(author)],
        &[GroupOrder {
            label: title,
            direction: Direction::Descending,
        }],
    )
    .unwrap();
    // Fig. 3: three groups (Silberschatz, Garcia-Molina, Thompson). The
    // two-author article appears in both the Silberschatz and the
    // Garcia-Molina groups, and the Silberschatz group's titles descend.
    assert_eq!(groups.len(), 3);
    let text = written(&s, &groups);
    assert_eq!(text, FIG3);
    let overview = "<title>Overview of Transaction Mng</title>";
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines[0].contains(overview) && lines[1].contains(overview));
    let sil = lines[0]
        .split("<title>")
        .skip(1)
        .map(|t| t.split('<').next().unwrap());
    let titles: Vec<&str> = sil.collect();
    assert_eq!(titles.len(), 2);
    assert!(titles[0] > titles[1], "{titles:?}");
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
