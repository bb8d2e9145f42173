//! Projection (Sec. 2): pattern + projection list → node elimination.
//!
//! All nodes named in the projection list `PL` are kept (a `*`-adorned
//! label keeps the whole data subtree); partial hierarchical
//! relationships between surviving nodes are preserved; relative order is
//! preserved.
//!
//! A projection reads rows, never trees, and there are the two the
//! paper's plans build. Over a selection's match rows through the
//! selection's own pattern it is the fused select→project
//! ([`Matches::project`](crate::batch::Matches::project)). Over the
//! groups an `Aggregate` appended to — the literal count plan, the
//! paper-shaped oracle — [`Projection`] writes the key cell and the
//! appended value, building no group tree to re-match. The rewrite's
//! final projection (Fig. 5d) is not here: it runs inside the grouping's
//! own pass ([`gather`](super::groupby::gather)). Any other projection
//! is refused.

use crate::batch::{Batch, Cell, Groups, Rows};
use crate::error::{Error, Result};
use crate::ops::groupby::BasisItem;
use crate::pattern::{Axis, PatternNodeId, PatternTree, Pred};
use crate::tags;

/// One entry of a projection list: a pattern node, optionally `*`-adorned
/// (keep the whole subtree).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProjectItem {
    /// The pattern node label.
    pub label: PatternNodeId,
    /// `true` for `$i*`.
    pub deep: bool,
}

impl ProjectItem {
    /// `$i` — keep just the node.
    pub fn shallow(label: PatternNodeId) -> Self {
        ProjectItem { label, deep: false }
    }

    /// `$i*` — keep the node and all its descendants.
    pub fn deep(label: PatternNodeId) -> Self {
        ProjectItem { label, deep: true }
    }
}

/// The literal count plan's final projection, `PL = [$1, key*,
/// appended*]` over a `GroupBy`'s groups an `Aggregate` appended cells
/// to, its shape recognized once: an output row is the group root over
/// the key cell and the appended cells, a group with none dropped. Any
/// other projection, or input, is refused when it runs.
#[derive(Debug)]
pub struct Projection {
    recognized: bool,
}

impl Projection {
    /// `pattern` / `pl` over an input that is a `GroupBy` with the
    /// pattern and basis `grouped` whose groups an `Aggregate` appended
    /// `<appended>` cells to — or over some other input (either is
    /// `None`).
    pub fn new(
        pattern: &PatternTree,
        pl: &[ProjectItem],
        anchor_root: bool,
        grouped: Option<(&PatternTree, &[BasisItem])>,
        appended: Option<&str>,
    ) -> Self {
        let recognized = grouped
            .zip(appended)
            .is_some_and(|((gb, basis), tag)| recognize(pattern, pl, anchor_root, gb, basis, tag));
        Projection { recognized }
    }

    /// Project the groups an `Aggregate` appended to into one-level rows.
    pub fn project(&self, batch: Batch) -> Result<Batch> {
        let (Batch::Groups(groups), true) = (batch, self.recognized) else {
            return Err(Error::Unsupported(
                "a projection runs over a selection, or over appended groups".into(),
            ));
        };
        let mut out = Rows::new(groups.tags[0]);
        for g in 0..groups.members.len() {
            let cells = groups.appended(g);
            if !cells.is_empty() {
                out.push(key(&groups, g).chain(cells.iter().cloned()));
            }
        }
        Ok(Batch::Rows(out))
    }
}

/// Group `g`'s key cells, whole.
fn key(groups: &Groups, g: usize) -> impl Iterator<Item = Cell> + '_ {
    groups.key(g).iter().map(|kind| match kind {
        &Cell::Ref { node, .. } => Cell::Ref { node, deep: true },
        elem => elem.clone(),
    })
}

/// Whether `pattern` / `pl` over a `GroupBy` with pattern `gb_pattern`
/// and basis `basis`, whose groups carry `appended` cells, is the
/// literal count plan's projection: anchored, join-free, `PL = [$1, $3*,
/// $4*]` over nodes `0 {1 {2}, 3}` — `TAX_group_root`,
/// `TAX_grouping_basis`, a `pc` tag test of the tag every cell of the one
/// content basis item has (so it binds the one basis child), and
/// `<appended>` itself.
fn recognize(
    pattern: &PatternTree,
    pl: &[ProjectItem],
    anchor_root: bool,
    gb_pattern: &PatternTree,
    basis: &[BasisItem],
    appended: &str,
) -> bool {
    let ([item], [root, key, out]) = (basis, pl) else {
        return false;
    };
    let Some(key_tag) = gb_pattern.node(item.label).pred.required_tag() else {
        return false;
    };
    let is = |id: usize, tag: &str| matches!(&pattern.node(id).pred, Pred::Tag(t) if t == tag);
    let pc = |id: usize| pattern.node(id).axis == Axis::Child;
    let kids = |id: usize| &pattern.node(id).children[..];
    anchor_root
        && pattern.len() == 4
        && pattern.join_pairs().is_empty()
        && (kids(0), kids(1), kids(2), kids(3)) == (&[1, 3][..], &[2][..], &[][..], &[][..])
        && is(0, tags::GROUP_ROOT)
        && is(1, tags::GROUPING_BASIS)
        && is(2, key_tag)
        && is(3, appended)
        && (1..=3).all(pc)
        && [*root, *key, *out]
            == [
                ProjectItem::shallow(0),
                ProjectItem::deep(2),
                ProjectItem::deep(3),
            ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Matches;
    use crate::ops::groupby::{gather, groupby, Direction, GroupOrder};
    use crate::output::lines;
    use std::collections::HashSet;
    use xmlstore::{DocumentStore, NodeEntry, StoreOptions};

    const SAMPLE: &str = "<bib>\
        <article><title>T1</title><author>Jack</author><author>John</author><year>1999</year></article>\
        <article><title>T2</title><author>Jill</author><year>2002</year></article>\
    </bib>";

    fn store() -> DocumentStore {
        DocumentStore::from_xml(SAMPLE, &StoreOptions::in_memory()).unwrap()
    }

    /// `doc_root -ad-> article`.
    fn article_scan() -> PatternTree {
        let mut p = PatternTree::with_root(Pred::tag("doc_root"));
        p.add_child(p.root(), Axis::Descendant, Pred::tag("article"));
        p
    }

    #[test]
    fn project_extracts_article_roots() {
        // The fused select→project keeping the deep article: one stored
        // row per article.
        let s = store();
        let p = article_scan();
        let arts = Matches::select(&s, &p, &[1])
            .unwrap()
            .project(&[ProjectItem::deep(1)]);
        let arts = arts.unwrap();
        assert!(
            matches!(arts, Batch::Stored(ref rows) if rows.len() == 2),
            "{arts:?}"
        );
        assert_eq!(
            lines(&s, &arts)[0],
            "<article><title>T1</title><author>Jack</author><author>John</author><year>1999</year></article>"
        );
    }

    #[test]
    fn projection_keeps_hierarchy() {
        // `[$1, $2*]` keeps each witness tree: the article whole under
        // the shallow root it descends from, nothing in between.
        let s = store();
        let p = article_scan();
        let pl = [ProjectItem::shallow(0), ProjectItem::deep(1)];
        let kept = Matches::select(&s, &p, &[1]).unwrap().project(&pl).unwrap();
        assert!(matches!(kept, Batch::Matches(_)), "{kept:?}");
        assert_eq!(
            lines(&s, &kept)[0],
            "<doc_root><article><title>T1</title><author>Jack</author><author>John</author>\
             <year>1999</year></article></doc_root>"
        );
        // Any other list over match rows is refused.
        let refused = Matches::select(&s, &p, &[1])
            .unwrap()
            .project(&[ProjectItem::shallow(1)]);
        assert!(matches!(refused, Err(Error::Unsupported(_))), "{refused:?}");
    }

    /// The stored rows of `s`'s articles.
    fn articles(s: &DocumentStore) -> Batch {
        let article = s.tag_id("article");
        Batch::Stored(article.map_or_else(Vec::new, |t| s.nodes_with_tag(t).to_vec()))
    }

    /// Articles grouped by author — `article {author, title, year}`, the
    /// author the basis — members ordered by `ordering` on `by`.
    fn author_grouping(
        ordering: Option<Direction>,
        by: &str,
    ) -> (PatternTree, Vec<BasisItem>, Vec<GroupOrder>) {
        let mut gb = PatternTree::with_root(Pred::tag("article"));
        let author = gb.add_child(gb.root(), Axis::Child, Pred::tag("author"));
        let label = if ordering.is_some() && by != "author" {
            gb.add_child(gb.root(), Axis::Descendant, Pred::tag(by))
        } else {
            author
        };
        let ordering = ordering.map(|direction| GroupOrder { label, direction });
        (
            gb,
            vec![BasisItem::content(author)],
            ordering.into_iter().collect(),
        )
    }

    /// Fig. 5d's member path: `article` and then `path`'s steps, the last
    /// one extracted.
    fn member_path(path: &[(Axis, &str)]) -> (PatternTree, PatternNodeId) {
        let mut p = PatternTree::with_root(Pred::tag("article"));
        let mut out = p.root();
        for &(axis, tag) in path {
            out = p.add_child(out, axis, Pred::tag(tag));
        }
        (p, out)
    }

    /// The gather the fused sink replaced, over `groupby`'s groups: each
    /// row's extracts from one anchored match of the member path, in
    /// document order, each once, one inside the last kept dropped; an
    /// output row per group with an extract, a node two members reach
    /// written once. The oracle the fused sink is held to.
    fn gather_groups(
        s: &DocumentStore,
        groups: &Groups,
        member: &PatternTree,
        extract: PatternNodeId,
    ) -> Rows {
        let mut found: Vec<(u32, NodeEntry)> = Vec::new();
        crate::matching::for_each_match(s, member, &groups.rows, true, |row, m| {
            found.push((row, m[extract]))
        })
        .unwrap();
        found.sort_unstable_by_key(|&(row, e)| (row, e.start));
        found.dedup_by(|(row, e), (kept_row, kept)| row == kept_row && e.start < kept.end);
        let run = |m: u32| found.iter().filter(move |&&(row, _)| row == m);
        let disjoint = groups.rows.windows(2).all(|w| w[0].end < w[1].start);
        let mut out = Rows::new(groups.tags[0]);
        for (g, group) in groups.members.iter().enumerate() {
            if group.iter().all(|&m| run(m).next().is_none()) {
                continue;
            }
            let mut written = HashSet::new();
            let nodes = group.iter().flat_map(|&m| run(m)).map(|&(_, e)| e);
            let nodes = nodes.filter(|e| disjoint || written.insert(e.id));
            out.push(key(groups, g).chain(nodes.map(|node| Cell::Ref { node, deep: true })));
        }
        out
    }

    /// The gather of the member path `(member, extract)` over the
    /// grouping `grouped` of the stored `rows`, written one row a string,
    /// after checking it against `groupby` followed by [`gather_groups`].
    fn fused_against_groupby(
        s: &DocumentStore,
        rows: &Batch,
        (gb, basis, ordering): &(PatternTree, Vec<BasisItem>, Vec<GroupOrder>),
        (member, extract): &(PatternTree, PatternNodeId),
    ) -> Vec<String> {
        let path = (member, *extract);
        let (got, stages) = gather(s, rows, gb, basis, ordering, path).unwrap();
        assert!(matches!(got, Batch::Rows(_)), "{got:?}");
        assert_eq!(stages.iter().map(|&(c, _)| c).collect::<String>(), "pb");
        let Batch::Groups(groups) = groupby(s, rows, gb, basis, ordering).unwrap().0 else {
            panic!("groupby emits groups")
        };
        let want = gather_groups(s, &groups, member, *extract);
        let got = lines(s, &got);
        assert_eq!(got, lines(s, &Batch::Rows(want)));
        got
    }

    /// The gather over `xml`'s author groups, members ordered by the
    /// title, written one row a string.
    fn gathered(
        xml_text: &str,
        ordering: Option<Direction>,
        axis: Axis,
        extract: &str,
    ) -> Vec<String> {
        let s = DocumentStore::from_xml(xml_text, &StoreOptions::in_memory()).unwrap();
        let grouping = author_grouping(ordering, "title");
        let path = member_path(&[(axis, extract)]);
        fused_against_groupby(&s, &articles(&s), &grouping, &path)
    }

    #[test]
    fn zero_witness_trees_contribute_nothing() {
        // A group none of whose members holds the extract is dropped.
        let out = gathered(SAMPLE, None, Axis::Child, "publisher");
        assert!(out.is_empty(), "{out:?}");
        let out = gathered(SAMPLE, None, Axis::Child, "year");
        assert_eq!(out.len(), 3, "{out:?}");
    }

    #[test]
    fn deep_projection_subsumes_nested_selection() {
        // `$b//title` reaches a title nested in a title: it is written
        // once, inside the outer one.
        let xml_text =
            "<bib><article><author>A</author><title>T<title>N</title></title></article></bib>";
        let out = gathered(xml_text, None, Axis::Descendant, "title");
        assert_eq!(
            out,
            ["<TAX_group_root><author>A</author><title>T<title>N</title></title></TAX_group_root>"]
        );
    }

    #[test]
    fn relative_order_preserved() {
        // Members in member order — here descending by title — and each
        // member's extracts in document order.
        let xml_text = "<bib>\
            <article><author>A</author><title>B</title><sec><title>Z</title></sec></article>\
            <article><author>A</author><title>M</title></article>\
        </bib>";
        let out = gathered(
            xml_text,
            Some(Direction::Descending),
            Axis::Descendant,
            "title",
        );
        assert_eq!(
            out,
            ["<TAX_group_root><author>A</author><title>M</title><title>B</title><title>Z</title></TAX_group_root>"]
        );
    }

    #[test]
    fn a_group_of_five_thousand_members_projects_in_one_pass() {
        // A Zipf-head group: the gather is one pass over the member rows'
        // extracts, however many members a group holds.
        const MEMBERS: usize = 5_000;
        let mut xml_text = String::from("<bib>");
        for i in 0..MEMBERS {
            xml_text.push_str(&format!(
                "<article><title>T{i}</title><author>Head</author></article>"
            ));
        }
        xml_text.push_str("</bib>");
        let out = gathered(&xml_text, None, Axis::Child, "title");
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].matches("<title>").count(), MEMBERS);
    }

    /// The literal count plan's final projection over groups keyed by
    /// `author`, whose appended cells are tagged `appended`.
    fn counted(appended: &str) -> (PatternTree, Vec<ProjectItem>) {
        let mut p = PatternTree::with_root(Pred::tag(tags::GROUP_ROOT));
        let b = p.add_child(0, Axis::Child, Pred::tag(tags::GROUPING_BASIS));
        let key = p.add_child(b, Axis::Child, Pred::tag("author"));
        let count = p.add_child(0, Axis::Child, Pred::tag(appended));
        let pl = vec![
            ProjectItem::shallow(0),
            ProjectItem::deep(key),
            ProjectItem::deep(count),
        ];
        (p, pl)
    }

    #[test]
    fn only_the_literal_count_plans_shape_is_projected() {
        let mut gb = PatternTree::with_root(Pred::tag("article"));
        let author = gb.add_child(gb.root(), Axis::Child, Pred::tag("author"));
        let basis = [BasisItem::content(author)];
        let (p, pl) = counted("count");
        let fits = |p: &PatternTree, pl: &[ProjectItem], anchor: bool, basis: &[BasisItem]| {
            Projection::new(p, pl, anchor, Some((&gb, basis)), Some("count")).recognized
        };
        assert!(fits(&p, &pl, true, &basis));
        // Not anchored; a second basis item; a key that is not the basis
        // tag; a shallow key, a deep root, a shallow value or one more
        // node kept.
        assert!(!fits(&p, &pl, false, &basis));
        assert!(!fits(&p, &pl, true, &[basis[0].clone(), basis[0].clone()]));
        assert!(!fits(&p, &pl, true, &[BasisItem::content(gb.root())]));
        for (i, item) in [
            ProjectItem::shallow(2),
            ProjectItem::deep(0),
            ProjectItem::shallow(3),
        ]
        .into_iter()
        .enumerate()
        {
            let mut other = pl.clone();
            other[i] = item;
            assert!(!fits(&p, &other, true, &basis), "{other:?}");
        }
        let mut more = pl.clone();
        more.push(ProjectItem::shallow(1));
        assert!(!fits(&p, &more, true, &basis));
        // A second child under the basis, a node under the value, or a
        // join predicate.
        for at in [1, 3] {
            let mut wider = p.clone();
            wider.add_child(at, Axis::Child, Pred::tag("author"));
            assert!(!fits(&wider, &pl, true, &basis));
        }
        let mut joined = p.clone();
        joined.add_child(
            0,
            Axis::Child,
            Pred::tag("year").and(Pred::ContentEqNode(2)),
        );
        assert!(!fits(&joined, &pl, true, &basis));
        // Another appended tag, no `Aggregate` below, or no `GroupBy`.
        let new = |grouped, appended| Projection::new(&p, &pl, true, grouped, appended);
        assert!(!new(Some((&gb, &basis[..])), Some("sum")).recognized);
        assert!(!new(Some((&gb, &basis[..])), None).recognized);
        assert!(!new(None, Some("count")).recognized);
    }

    #[test]
    fn the_gather_writes_what_the_group_trees_project_to() {
        // Multi-title, untitled and nested-title articles; `A` keys the
        // article whose authors the `author` extract returns. The bytes
        // are what projecting the group trees wrote.
        let xml_text = "<bib>\
            <article><author>A</author><title>T1</title><title>T2<title>N</title></title><author>B</author></article>\
            <article><author>C</author></article>\
            <article><author>A</author><author>C</author><title>T3</title><sec><title>S</title></sec></article>\
        </bib>";
        let row = |key: &str, titles: &[&str]| {
            let titles: String = titles
                .iter()
                .map(|t| format!("<title>{t}</title>"))
                .collect();
            format!("<TAX_group_root><author>{key}</author>{titles}</TAX_group_root>")
        };
        let nested = "T2<title>N</title>";
        for (ordering, axis, want) in [
            (
                None,
                Axis::Child,
                [
                    row("A", &["T1", nested, "T3"]),
                    row("B", &["T1", nested]),
                    row("C", &["T3"]),
                ],
            ),
            (
                None,
                Axis::Descendant,
                [
                    row("A", &["T1", nested, "T3", "S"]),
                    row("B", &["T1", nested]),
                    row("C", &["T3", "S"]),
                ],
            ),
            (
                Some(Direction::Descending),
                Axis::Child,
                [
                    row("A", &["T3", "T1", nested]),
                    row("B", &["T1", nested]),
                    row("C", &["T3"]),
                ],
            ),
            (
                Some(Direction::Descending),
                Axis::Descendant,
                [
                    row("A", &["T3", "S", "T1", nested]),
                    row("B", &["T1", nested]),
                    row("C", &["T3", "S"]),
                ],
            ),
        ] {
            let got = gathered(xml_text, ordering, axis, "title");
            assert_eq!(got, want, "{ordering:?} {axis:?}");
        }
    }

    #[test]
    fn a_node_two_members_reach_is_written_once_at_the_first() {
        // Nested articles: the outer row's `$b//title` reaches the inner
        // article's title, which the inner row reaches again.
        let xml_text = "<bib><article><author>A</author><title>O</title>\
            <article><author>A</author><title>I</title></article></article></bib>";
        let out = gathered(xml_text, None, Axis::Descendant, "title");
        assert_eq!(
            out,
            ["<TAX_group_root><author>A</author><title>O</title><title>I</title></TAX_group_root>"]
        );
    }

    #[test]
    fn other_inputs_are_refused() {
        // The gather over groups (it runs in the grouping's pass, over
        // stored rows); the count plan's projection over stored rows, and
        // Fig. 5d's projection over groups, which only the gather writes.
        let s = store();
        let (gb, basis, ordering) = author_grouping(None, "title");
        let (groups, _) = groupby(&s, &articles(&s), &gb, &basis, &ordering).unwrap();
        let (member, extract) = member_path(&[(Axis::Child, "title")]);
        let over_groups = gather(&s, &groups, &gb, &basis, &ordering, (&member, extract));
        let (p, pl) = counted("count");
        let count = Projection::new(&p, &pl, true, Some((&gb, &basis[..])), Some("count"));
        let mut fig5d = PatternTree::with_root(Pred::tag(tags::GROUP_ROOT));
        let b = fig5d.add_child(0, Axis::Child, Pred::tag(tags::GROUPING_BASIS));
        let key = fig5d.add_child(b, Axis::Child, Pred::tag("author"));
        let sub = fig5d.add_child(0, Axis::Child, Pred::tag(tags::GROUP_SUBROOT));
        let art = fig5d.add_child(sub, Axis::Child, Pred::tag("article"));
        let title = fig5d.add_child(art, Axis::Child, Pred::tag("title"));
        let pl = [0, key, title].map(ProjectItem::deep);
        let pl = [ProjectItem::shallow(0), pl[1], pl[2]];
        let fig5d = Projection::new(&fig5d, &pl, true, Some((&gb, &basis[..])), None);
        for err in [
            over_groups.map(|(out, _)| out),
            count.project(articles(&s)),
            fig5d.project(groups),
        ] {
            assert!(matches!(err, Err(Error::Unsupported(_))), "{err:?}");
        }
    }

    #[test]
    fn the_gather_equals_the_projected_groups_on_random_bibliographies() {
        // Both routes into the one fold — star patterns, and a member path
        // through `<sec>` that takes the tables — under every ordering,
        // over disjoint and nested rows, and over rows listed twice.
        smallrand::prop::check("gather_equals_the_projected_groups", 200, |g| {
            let nest = g.bool();
            let xml_text = crate::ops::groupby::tests::bibliography(g, nest);
            let s = DocumentStore::from_xml(&xml_text, &StoreOptions::in_memory()).unwrap();
            let direction = *g.pick(&[
                None,
                Some(Direction::Ascending),
                Some(Direction::Descending),
            ]);
            let by = *g.pick(&["title", "year", "author"]);
            let grouping = author_grouping(direction, by);
            let path = member_path(match g.usize_in(0, 3) {
                0 => &[(Axis::Child, "title")],
                1 => &[(Axis::Descendant, "title")],
                2 => &[(Axis::Child, "year")],
                _ => &[(Axis::Child, "sec"), (Axis::Child, "title")],
            });
            let Batch::Stored(mut rows) = articles(&s) else {
                unreachable!()
            };
            if g.ratio(1, 4) && !rows.is_empty() {
                let again = rows[g.usize_in(0, rows.len() - 1)];
                rows.push(again);
                rows.sort_by_key(|e| e.id);
            }
            let rows = Batch::Stored(rows);
            fused_against_groupby(&s, &rows, &grouping, &path);
        });
    }
}
