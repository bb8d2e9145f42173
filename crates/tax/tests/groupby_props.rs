//! Property-based tests for the grouping operator's invariants (Sec. 3).
//!
//! Ported from proptest to the in-tree `smallrand::prop` harness. The
//! former proptest regression corpus survives as [`REGRESSION`], which
//! every property checks explicitly before its random cases.

use smallrand::prop::{check, Gen};
use tax::ops::groupby::{groupby, groupby_replicated, BasisItem, Direction, GroupOrder};
use tax::pattern::{Axis, PatternTree, Pred};
use tax::value::compare_opt_values;
use tax::{tags, Batch};
use xmlstore::{DocumentStore, StoreOptions};

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

fn setup(xml: &str) -> (DocumentStore, Batch, PatternTree, usize, usize) {
    let s = DocumentStore::from_xml(xml, &StoreOptions::in_memory()).unwrap();
    let arts = match s.tag_id("article") {
        Some(article) => Batch::Stored(s.nodes_with_tag(article).to_vec()),
        None => Batch::default(),
    };
    let mut p = PatternTree::with_root(Pred::tag("article"));
    let title = p.add_child(p.root(), Axis::Child, Pred::tag("title"));
    let author = p.add_child(p.root(), Axis::Child, Pred::tag("author"));
    (s, arts, p, title, author)
}

fn check_group_count(xml: &str) {
    let (s, arts, p, _title, author) = setup(xml);
    let groups = groupby(&s, &arts, &p, &[BasisItem::content(author)], &[])
        .unwrap()
        .0
        .into_trees();
    let distinct = xml
        .split("<author>")
        .skip(1)
        .map(|rest| rest.split('<').next().unwrap().to_owned())
        .collect::<std::collections::HashSet<_>>();
    assert_eq!(groups.len(), distinct.len(), "on {xml}");
}

#[test]
fn group_count_equals_distinct_authors() {
    check_group_count(REGRESSION);
    check("group_count_equals_distinct_authors", 64, |g| {
        check_group_count(&bibliography(g))
    });
}

fn check_memberships(xml: &str) {
    // Non-partitioning: total group members = total (article, author)
    // pairs (authors are distinct within an article by construction).
    let (s, arts, p, _title, author) = setup(xml);
    let groups = groupby(&s, &arts, &p, &[BasisItem::content(author)], &[])
        .unwrap()
        .0
        .into_trees();
    let total_members: usize = groups
        .iter()
        .map(|g| {
            let e = g.materialize(&s).unwrap();
            e.child(tags::GROUP_SUBROOT)
                .unwrap()
                .children_named("article")
                .count()
        })
        .sum();
    assert_eq!(total_members, xml.matches("<author>").count(), "on {xml}");
}

#[test]
fn memberships_equal_author_occurrences() {
    check_memberships(REGRESSION);
    check("memberships_equal_author_occurrences", 64, |g| {
        check_memberships(&bibliography(g))
    });
}

fn check_sorted(xml: &str, descending: bool) {
    let (s, arts, p, title, author) = setup(xml);
    let dir = if descending {
        Direction::Descending
    } else {
        Direction::Ascending
    };
    let groups = groupby(
        &s,
        &arts,
        &p,
        &[BasisItem::content(author)],
        &[GroupOrder {
            label: title,
            direction: dir,
        }],
    )
    .unwrap()
    .0
    .into_trees();
    for g in &groups {
        let e = g.materialize(&s).unwrap();
        let titles: Vec<String> = e
            .child(tags::GROUP_SUBROOT)
            .unwrap()
            .children_named("article")
            .map(|a| a.child("title").unwrap().text())
            .collect();
        for w in titles.windows(2) {
            let ord = compare_opt_values(Some(&w[0]), Some(&w[1]));
            if descending {
                assert_ne!(ord, std::cmp::Ordering::Less, "{titles:?} on {xml}");
            } else {
                assert_ne!(ord, std::cmp::Ordering::Greater, "{titles:?} on {xml}");
            }
        }
    }
}

#[test]
fn members_sorted_by_ordering_list() {
    check_sorted(REGRESSION, false);
    check_sorted(REGRESSION, true);
    check("members_sorted_by_ordering_list", 64, |g| {
        let descending = g.bool();
        check_sorted(&bibliography(g), descending)
    });
}

fn check_impls_agree(xml: &str) {
    let (s, arts, p, title, author) = setup(xml);
    let ordering = [GroupOrder {
        label: title,
        direction: Direction::Ascending,
    }];
    let fast = groupby(&s, &arts, &p, &[BasisItem::content(author)], &ordering)
        .unwrap()
        .0
        .into_trees();
    let slow = groupby_replicated(&s, &arts, &p, &[BasisItem::content(author)], &ordering).unwrap();
    assert_eq!(fast.len(), slow.len(), "on {xml}");
    for (f, sl) in fast.iter().zip(slow.iter()) {
        let fe = xmlparse::serialize::element_to_string(&f.materialize(&s).unwrap());
        let se = xmlparse::serialize::element_to_string(&sl.materialize(&s).unwrap());
        assert_eq!(fe, se, "on {xml}");
    }
}

#[test]
fn identifier_and_replicated_agree() {
    check_impls_agree(REGRESSION);
    check("identifier_and_replicated_agree", 64, |g| {
        check_impls_agree(&bibliography(g))
    });
}

fn check_first_appearance_order(xml: &str) {
    let (s, arts, p, _title, author) = setup(xml);
    let groups = groupby(&s, &arts, &p, &[BasisItem::content(author)], &[])
        .unwrap()
        .0
        .into_trees();
    let keys: Vec<String> = groups
        .iter()
        .map(|g| {
            g.materialize(&s)
                .unwrap()
                .child(tags::GROUPING_BASIS)
                .unwrap()
                .child("author")
                .unwrap()
                .text()
        })
        .collect();
    // Expected order: first document occurrence of each distinct name.
    let mut expected = Vec::new();
    for rest in xml.split("<author>").skip(1) {
        let name = rest.split('<').next().unwrap().to_owned();
        if !expected.contains(&name) {
            expected.push(name);
        }
    }
    assert_eq!(keys, expected, "on {xml}");
}

#[test]
fn groups_in_first_appearance_order() {
    check_first_appearance_order(REGRESSION);
    check("groups_in_first_appearance_order", 64, |g| {
        check_first_appearance_order(&bibliography(g))
    });
}
