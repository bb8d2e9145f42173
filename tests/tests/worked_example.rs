//! The paper's worked example (Sec. 4.1, Figs. 6–10): Query 1 executed
//! step by step over the Figure 6 sample database, checking the bytes of
//! each intermediate collection against the figures.

use tax::batch::{Batch, Matches};
use tax::ops::groupby::{groupby, BasisItem};
use tax::ops::project::ProjectItem;
use tax::ops::{dup_elim, left_outer_join_db};
use tax::output::write_xml_lines;
use tax::pattern::{Axis, PatternTree, Pred};
use timber::PlanMode;
use timber_integration_tests::{fig6_db, model, FIG6_DB, QUERY1};
use xmlstore::DocumentStore;

/// The Fig. 6 articles, whole.
const QUERYING: &str =
    "<article><author>Jack</author><author>John</author><title>Querying XML</title></article>";
const WEB: &str =
    "<article><author>Jill</author><author>Jack</author><title>XML and the Web</title></article>";
const HACK: &str = "<article><author>John</author><title>Hack HTML</title></article>";

/// `batch` written, one row a line.
fn written(store: &DocumentStore, batch: &Batch) -> Vec<String> {
    let mut out = String::new();
    write_xml_lines(store, batch, &mut out).unwrap();
    out.lines().map(str::to_owned).collect()
}

/// The bytes of a group of author `key` over `members`: Fig. 8's pairs
/// and Fig. 10's groups.
fn group(key: &str, members: &[&str]) -> String {
    format!(
        "<TAX_group_root><TAX_grouping_basis><author>{key}</author></TAX_grouping_basis>\
         <TAX_group_subroot>{}</TAX_group_subroot></TAX_group_root>",
        members.concat()
    )
}

/// The member articles across `groups`.
fn memberships(groups: &[String]) -> usize {
    groups.iter().map(|g| g.matches("<article>").count()).sum()
}

/// The `doc_root/author` tree of each name in `names`.
fn author_rows(names: &[&str]) -> Vec<String> {
    let row = |name| format!("<doc_root><author>{name}</author></doc_root>");
    names.iter().map(row).collect()
}

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
    let sel = Batch::Matches(Matches::select(store, &p, &[1]).unwrap());
    assert_eq!(sel.len(), 5, "five author occurrences");
    let all = ["Jack", "John", "Jill", "Jack", "John"];
    assert_eq!(written(store, &sel), author_rows(&all));
    let proj = Matches::select(store, &p, &[1])
        .unwrap()
        .project(&[ProjectItem::shallow(0), ProjectItem::deep(1)])
        .unwrap();
    let distinct = dup_elim(store, proj, &p, 1).unwrap();
    // Fig. 7: three doc_root/author trees: Jack, John, Jill.
    assert_eq!(distinct.len(), 3);
    assert_eq!(written(store, &distinct), author_rows(&all[..3]));
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
    // Jack×2, John×2, Jill×1: five (author, article) pairs.
    let pairs = written(store, &Batch::Groups(joined));
    assert_eq!(memberships(&pairs), 5);
    assert_eq!(
        pairs,
        [
            group("Jack", &[QUERYING, WEB]),
            group("John", &[QUERYING, HACK]),
            group("Jill", &[WEB]),
        ]
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
    let arts = sel.project(&[ProjectItem::deep(art)]).unwrap();
    assert_eq!(arts.len(), 3);
    assert_eq!(written(store, &arts), [QUERYING, WEB, HACK]);
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

    // Fig. 10: three groups — Jack (2 articles), John (2), Jill (1). The
    // two-author articles appear in two groups (non-partitioning): 3
    // articles yield 5 group memberships.
    let groups = written(store, &groups);
    assert_eq!(groups.len(), 3);
    assert_eq!(memberships(&groups), 5);
    assert_eq!(
        groups,
        [
            group("Jack", &[QUERYING, WEB]),
            group("John", &[QUERYING, HACK]),
            group("Jill", &[WEB]),
        ]
    );
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
