//! The paper's worked example (Sec. 4.1, Figs. 6–10): Query 1 executed
//! step by step over the Figure 6 sample database, checking each
//! intermediate collection against the figures.

use tax::batch::{Batch, Matches};
use tax::ops::groupby::{groupby, BasisItem};
use tax::ops::project::ProjectItem;
use tax::ops::{dup_elim, left_outer_join_db, select_db};
use tax::pattern::{Axis, PatternTree, Pred};
use tax::tags;
use timber::PlanMode;
use timber_integration_tests::{fig6_db, model, FIG6_DB, QUERY1};

/// Fig. 4a: the outer pattern tree (doc_root -ad-> author).
fn outer_pattern() -> PatternTree {
    let mut p = PatternTree::with_root(Pred::tag("doc_root"));
    p.add_child(p.root(), Axis::Descendant, Pred::tag("author"));
    p
}

#[test]
fn fig7_outer_selection_projection_dupelim() {
    let db = fig6_db();
    let store = db.store();
    let p = outer_pattern();
    // Selection (SL = $2), projection ($1, $2*), dup-elim on $2.content.
    let sel = select_db(store, &p, &[1]).unwrap();
    assert_eq!(sel.len(), 5, "five author occurrences");
    let proj = Matches::select(store, &p, &[1])
        .unwrap()
        .project(&[ProjectItem::shallow(0), ProjectItem::deep(1)])
        .unwrap();
    let distinct = dup_elim(store, proj, &p, 1).unwrap().into_trees();
    // Fig. 7: three doc_root/author trees: Jack, John, Jill.
    assert_eq!(distinct.len(), 3);
    let names: Vec<String> = distinct
        .iter()
        .map(|t| {
            t.materialize(store)
                .unwrap()
                .child("author")
                .unwrap()
                .text()
        })
        .collect();
    assert_eq!(names, ["Jack", "John", "Jill"]);
}

#[test]
fn fig8_left_outer_join_pairs_five_author_article_members() {
    let db = fig6_db();
    let store = db.store();
    let p = outer_pattern();
    // The outer selection's rows, duplicates eliminated: Fig. 7 as the
    // rows of the scan's binding table.
    let rows = Batch::Matches(Matches::select(store, &p, &[1]).unwrap());
    let distinct = dup_elim(store, rows, &p, 1).unwrap();
    assert!(matches!(distinct, Batch::Matches(_)), "{distinct:?}");

    // Fig. 4b inner pattern: doc_root -ad-> article -pc-> author.
    let mut right = PatternTree::with_root(Pred::tag("doc_root"));
    let art = right.add_child(right.root(), Axis::Descendant, Pred::tag("article"));
    let auth = right.add_child(art, Axis::Child, Pred::tag("author"));

    // Fig. 8's product trees, held as identifiers: one group per
    // author, its articles as members.
    let joined = left_outer_join_db(store, &distinct, &p, 1, &right, auth, &[art]).unwrap();
    let pairs: Vec<(String, Vec<String>)> = Batch::Groups(joined)
        .into_trees()
        .iter()
        .map(|t| {
            let e = t.materialize(store).unwrap();
            assert_eq!(e.name, tags::GROUP_ROOT);
            let key = e.child(tags::GROUPING_BASIS).unwrap().child("author");
            let members = e.child(tags::GROUP_SUBROOT).unwrap().child_elements();
            let titles = members.map(|a| a.child("title").unwrap().text()).collect();
            (key.unwrap().text(), titles)
        })
        .collect();
    // Jack×2, John×2, Jill×1: five (author, article) pairs.
    assert_eq!(
        pairs,
        [
            ("Jack", vec!["Querying XML", "XML and the Web"]),
            ("John", vec!["Querying XML", "Hack HTML"]),
            ("Jill", vec!["XML and the Web"]),
        ]
        .map(|(a, ts)| (a.to_owned(), ts.into_iter().map(str::to_owned).collect()))
    );
}

#[test]
fn fig9_article_collection() {
    let db = fig6_db();
    let store = db.store();
    // Phase 2 step 1: selection+projection with the Fig. 5a pattern.
    let mut p = PatternTree::with_root(Pred::tag("doc_root"));
    let art = p.add_child(p.root(), Axis::Descendant, Pred::tag("article"));
    let sel = Matches::select(store, &p, &[art]).unwrap();
    let arts = sel.project(&[ProjectItem::deep(art)]).unwrap().into_trees();
    assert_eq!(arts.len(), 3);
    let titles: Vec<String> = arts
        .iter()
        .map(|t| t.materialize(store).unwrap().child("title").unwrap().text())
        .collect();
    assert_eq!(titles, ["Querying XML", "XML and the Web", "Hack HTML"]);
}

#[test]
fn fig10_intermediate_group_trees() {
    let db = fig6_db();
    let store = db.store();
    let mut p = PatternTree::with_root(Pred::tag("doc_root"));
    let art = p.add_child(p.root(), Axis::Descendant, Pred::tag("article"));
    let sel = Matches::select(store, &p, &[art]).unwrap();
    let arts = sel.project(&[ProjectItem::deep(art)]).unwrap();

    // Fig. 5b: article -pc-> author; grouping basis $2.content.
    let mut gp = PatternTree::with_root(Pred::tag("article"));
    let author = gp.add_child(gp.root(), Axis::Child, Pred::tag("author"));
    let (groups, _) = groupby(store, &arts, &gp, &[BasisItem::content(author)], &[]).unwrap();
    let groups = groups.into_trees();

    // Fig. 10: three groups — Jack (2 articles), John (2), Jill (1).
    assert_eq!(groups.len(), 3);
    let summary: Vec<(String, usize)> = groups
        .iter()
        .map(|g| {
            let e = g.materialize(store).unwrap();
            let who = e
                .child(tags::GROUPING_BASIS)
                .unwrap()
                .child("author")
                .unwrap()
                .text();
            let n = e
                .child(tags::GROUP_SUBROOT)
                .unwrap()
                .children_named("article")
                .count();
            (who, n)
        })
        .collect();
    assert_eq!(
        summary,
        [
            ("Jack".to_owned(), 2),
            ("John".to_owned(), 2),
            ("Jill".to_owned(), 1)
        ]
    );

    // The two-author articles appear in two groups (non-partitioning).
    let total_members: usize = summary.iter().map(|(_, n)| n).sum();
    assert_eq!(total_members, 5, "3 articles yield 5 group memberships");
}

#[test]
fn full_pipeline_matches_figures_end_to_end() {
    let db = fig6_db();
    let expected = "\
<authorpubs><author>Jack</author><title>Querying XML</title><title>XML and the Web</title></authorpubs>\n\
<authorpubs><author>John</author><title>Querying XML</title><title>Hack HTML</title></authorpubs>\n\
<authorpubs><author>Jill</author><title>XML and the Web</title></authorpubs>\n";
    // The hand-written figure validates the oracle before the oracle
    // validates anything else.
    assert_eq!(model::eval(&[FIG6_DB], QUERY1).unwrap(), expected);
    for mode in [PlanMode::Direct, PlanMode::GroupByRewrite] {
        let r = db.query(QUERY1, mode).unwrap();
        assert_eq!(r.to_xml_on(db.store()).unwrap(), expected, "mode {mode:?}");
    }
}
