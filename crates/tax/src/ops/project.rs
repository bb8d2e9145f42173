//! Projection (Sec. 2): pattern + projection list → node elimination.
//!
//! All nodes named in the projection list `PL` are kept (a `*`-adorned
//! label keeps the whole data subtree); partial hierarchical
//! relationships between surviving nodes are preserved; relative order is
//! preserved.
//!
//! A projection reads rows, never trees, and there are the three the
//! paper's plans build. Over a selection's match rows through the
//! selection's own pattern it is the fused select→project
//! ([`Matches::project`](crate::batch::Matches::project)). Over a
//! `GroupBy`, [`Projection`] recognizes the other two and builds no
//! group tree to re-match: the rewrite's final projection (Fig. 5d) runs
//! as one sink with the `GroupBy` ([`Projection::gather`]), which walks
//! each grouped row once and writes each output row from the key cell
//! and the members' extracts, and the literal count plan's projection
//! over aggregated groups writes the key cell and the appended value.
//! Any other projection is refused.

use crate::batch::{Batch, Cell, Groups, Rows};
use crate::error::{Error, Result};
use crate::exec::Stages;
use crate::ops::groupby::{fold_groups, BasisItem, GroupOrder, Members};
use crate::pattern::{Axis, PatternNodeId, PatternTree, Pred};
use crate::tags;
use std::collections::HashSet;
use xmlstore::{DocumentStore, NodeEntry};

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

/// A projection over a `GroupBy` as the executor runs it, its shape
/// recognized once:
///
/// * the rewrite's final projection (Fig. 5d): one sink with the
///   `GroupBy` ([`Projection::gather`]). An output row is the group root
///   over the key cell and the members' extracts of the member path, in
///   member order, a group with none dropped. A node that two members of
///   a group reach — rows that nest or repeat — is written once, at its
///   first member;
/// * `PL = [$1, key*, appended*]` over groups an `Aggregate` appended
///   cells to: an output row is the group root over the key cell and
///   the appended cells, a group with none dropped.
///
/// Any other projection, or input, is refused when it runs.
#[derive(Debug)]
pub struct Projection {
    gather: Option<Gather>,
}

/// What a recognized projection writes after each group's key.
#[derive(Debug)]
enum Gather {
    /// Fig. 5d: the extracts of the member subpattern.
    Members(PatternTree, PatternNodeId),
    /// The cells `aggregate` appended.
    Appended,
}

impl Projection {
    /// `pattern` / `pl` over an input that is a `GroupBy` with the
    /// pattern and basis `grouped` — whose groups an `Aggregate` appended
    /// `<appended>` cells to, when that is set — or over some other input
    /// (`grouped` is `None`).
    pub fn new(
        pattern: &PatternTree,
        pl: &[ProjectItem],
        anchor_root: bool,
        grouped: Option<(&PatternTree, &[BasisItem])>,
        appended: Option<&str>,
    ) -> Self {
        let gather = grouped
            .and_then(|(gb, basis)| recognize(pattern, pl, anchor_root, gb, basis, appended));
        Projection { gather }
    }

    /// Whether this is Fig. 5d's projection, which runs as one sink with
    /// its `GroupBy` ([`Projection::gather`]).
    pub fn gathers_members(&self) -> bool {
        matches!(self.gather, Some(Gather::Members(..)))
    }

    /// Project the groups an `Aggregate` appended to into one-level rows.
    pub fn project(&self, batch: Batch) -> Result<Batch> {
        let (Batch::Groups(groups), Some(Gather::Appended)) = (batch, &self.gather) else {
            return Err(Error::Unsupported(
                "a projection runs fused, or over appended groups".into(),
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

    /// Fig. 5d's projection run as one sink with the `GroupBy` under it —
    /// `pattern`, `basis`, `ordering` — over that operator's input, the
    /// stored rows, or none: the rollup's one pass over each row, whose
    /// groups keep their members' extracts. Members are sorted by the
    /// ordering list, arrival breaking ties, as the groups are written.
    /// Returns the rows and the stage times — the pass, the build.
    pub fn gather(
        &self,
        store: &DocumentStore,
        input: &Batch,
        pattern: &PatternTree,
        basis: &[BasisItem],
        ordering: &[GroupOrder],
    ) -> Result<(Batch, Stages)> {
        let Some(Gather::Members(member, extract)) = &self.gather else {
            return Err(Error::Unsupported(
                "only Fig. 5d's projection runs with its grouping".into(),
            ));
        };
        let rows = input.stored()?;
        // Only rows that nest or repeat can reach one node twice.
        let disjoint = rows.windows(2).all(|w| w[0].end < w[1].start);
        let mut written = HashSet::new();
        let mut out = Rows::new(store.dict().intern(tags::GROUP_ROOT));
        let member = Some((member, *extract));
        let gather = |kept: &Members, keys: &[NodeEntry], group: &[u32]| {
            if group.iter().all(|&m| kept.extracts(m).is_empty()) {
                return;
            }
            written.clear();
            let keys = keys.iter().map(|&node| Cell::Ref { node, deep: true });
            let nodes = group.iter().flat_map(|&m| kept.extracts(m));
            let nodes = nodes.filter(|e| disjoint || written.insert(e.id));
            out.push(keys.chain(nodes.map(|&node| Cell::Ref { node, deep: true })));
        };
        let stages = fold_groups(store, rows, pattern, basis, ordering, member, gather)?;
        Ok((Batch::Rows(out), stages))
    }
}

/// Group `g`'s key cells, whole.
fn key(groups: &Groups, g: usize) -> impl Iterator<Item = Cell> + '_ {
    groups.key(g).iter().map(|kind| match kind {
        &Cell::Ref { node, .. } => Cell::Ref { node, deep: true },
        elem => elem.clone(),
    })
}

/// What `pattern` / `pl` over a `GroupBy` with pattern `gb_pattern` and
/// basis `basis` gathers, when it is one of the two projections the
/// plans end in: anchored, join-free, `PL = [$1, $3*, out*]` over nodes
/// `0 {1 {2}, 3 …}` — `TAX_group_root`, `TAX_grouping_basis`, a `pc` tag
/// test of the tag every cell of the one content basis item has (so it
/// binds the one basis child), and either `TAX_group_subroot {4 …
/// extract …}` with the member at 4 (Fig. 5d), or, over groups carrying
/// `appended` cells, `<appended>` itself.
fn recognize(
    pattern: &PatternTree,
    pl: &[ProjectItem],
    anchor_root: bool,
    gb_pattern: &PatternTree,
    basis: &[BasisItem],
    appended: Option<&str>,
) -> Option<Gather> {
    let ([item], [root, key, out]) = (basis, pl) else {
        return None;
    };
    let key_tag = gb_pattern.node(item.label).pred.required_tag()?;
    let is = |id: usize, tag: &str| matches!(&pattern.node(id).pred, Pred::Tag(t) if t == tag);
    let pc = |id: usize| pattern.node(id).axis == Axis::Child;
    let kids = |id: usize| &pattern.node(id).children[..];
    let fits = anchor_root
        && pattern.len() > 3
        && pattern.join_pairs().is_empty()
        && (kids(0), kids(1), kids(2)) == (&[1, 3][..], &[2][..], &[][..])
        && is(0, tags::GROUP_ROOT)
        && is(1, tags::GROUPING_BASIS)
        && is(2, key_tag)
        && (1..=3).all(pc)
        && [*root, *key] == [ProjectItem::shallow(0), ProjectItem::deep(2)]
        && out.deep;
    if !fits {
        return None;
    }
    if let Some(tag) = appended {
        return (is(3, tag) && kids(3).is_empty() && out.label == 3).then_some(Gather::Appended);
    }
    let member = is(3, tags::GROUP_SUBROOT) && kids(3) == [4] && pc(4) && pattern.len() > 5;
    let (member, mapping) = member.then(|| pattern.subtree_pattern(4))?;
    let extract = (*mapping.get(out.label)?).filter(|&x| x != member.root())?;
    Some(Gather::Members(member, extract))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Matches;
    use crate::ops::groupby::{groupby, Direction, GroupOrder};
    use crate::output::lines;
    use crate::pattern::PatternNodeId;
    use xmlstore::{NodeEntry, StoreOptions};

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

    /// The Fig. 5d projection over groups of `author` keys, its member
    /// path `article` and then `path`'s steps, the last one extracted.
    fn fig5d_path(path: &[(Axis, &str)]) -> (PatternTree, Vec<ProjectItem>) {
        let mut p = PatternTree::with_root(Pred::tag(tags::GROUP_ROOT));
        let basis = p.add_child(p.root(), Axis::Child, Pred::tag(tags::GROUPING_BASIS));
        let key = p.add_child(basis, Axis::Child, Pred::tag("author"));
        let sub = p.add_child(p.root(), Axis::Child, Pred::tag(tags::GROUP_SUBROOT));
        let mut out = p.add_child(sub, Axis::Child, Pred::tag("article"));
        for &(axis, tag) in path {
            out = p.add_child(out, axis, Pred::tag(tag));
        }
        let pl = vec![
            ProjectItem::shallow(p.root()),
            ProjectItem::deep(key),
            ProjectItem::deep(out),
        ];
        (p, pl)
    }

    /// The Fig. 5d projection whose member path is `article -axis->
    /// extract`.
    fn fig5d_pattern(axis: Axis, extract: &str) -> (PatternTree, Vec<ProjectItem>) {
        fig5d_path(&[(axis, extract)])
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

    /// The fused gather of `p` / `pl` over the grouping `grouped` of the
    /// stored `rows`, written one row a string, after checking it
    /// against `groupby` followed by [`gather_groups`].
    fn fused_against_groupby(
        s: &DocumentStore,
        rows: &Batch,
        (gb, basis, ordering): &(PatternTree, Vec<BasisItem>, Vec<GroupOrder>),
        (p, pl): &(PatternTree, Vec<ProjectItem>),
    ) -> Vec<String> {
        let gather = Projection::new(p, pl, true, Some((gb, basis)), None);
        let (got, stages) = gather.gather(s, rows, gb, basis, ordering).unwrap();
        assert!(matches!(got, Batch::Rows(_)), "{got:?}");
        assert_eq!(stages.iter().map(|&(c, _)| c).collect::<String>(), "pb");
        let Some(Gather::Members(member, extract)) = &gather.gather else {
            panic!("not Fig. 5d's projection: {p:?}")
        };
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
        fused_against_groupby(&s, &articles(&s), &grouping, &fig5d_pattern(axis, extract))
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

    #[test]
    fn only_the_fig5d_shape_is_gathered() {
        let mut gb = PatternTree::with_root(Pred::tag("article"));
        let author = gb.add_child(gb.root(), Axis::Child, Pred::tag("author"));
        let basis = [BasisItem::content(author)];
        let (p, pl) = fig5d_pattern(Axis::Child, "title");
        let fits = |p: &PatternTree, pl: &[ProjectItem], anchor: bool, basis: &[BasisItem]| {
            matches!(
                recognize(p, pl, anchor, &gb, basis, None),
                Some(Gather::Members(..))
            )
        };
        assert!(fits(&p, &pl, true, &basis));
        assert!(fits(
            &fig5d_pattern(Axis::Descendant, "title").0,
            &pl,
            true,
            &basis
        ));
        // Not anchored; a second basis item; a key that is not the basis
        // tag; a shallow key, a deep root, the member
        // itself or one more node kept.
        assert!(!fits(&p, &pl, false, &basis));
        assert!(!fits(&p, &pl, true, &[basis[0].clone(), basis[0].clone()]));
        assert!(!fits(&p, &pl, true, &[BasisItem::content(gb.root())]));
        for (i, item) in [
            ProjectItem::shallow(2),
            ProjectItem::deep(0),
            ProjectItem::deep(4),
        ]
        .into_iter()
        .enumerate()
        {
            let mut other = pl.clone();
            other[i] = item;
            assert!(!fits(&p, &other, true, &basis), "{other:?}");
        }
        let mut more = pl.clone();
        more.push(ProjectItem::shallow(4));
        assert!(!fits(&p, &more, true, &basis));
        // A second child under the basis or a join predicate.
        let mut wider = p.clone();
        wider.add_child(1, Axis::Child, Pred::tag("author"));
        assert!(!fits(&wider, &pl, true, &basis));
        let mut joined = p.clone();
        joined.add_child(
            4,
            Axis::Child,
            Pred::tag("year").and(Pred::ContentEqNode(2)),
        );
        assert!(!fits(&joined, &pl, true, &basis));
        // Over aggregated groups: `[$1, key*, appended*]`, the appended
        // node tagged as the aggregate's cells are.
        let mut counted = PatternTree::with_root(Pred::tag(tags::GROUP_ROOT));
        let b = counted.add_child(0, Axis::Child, Pred::tag(tags::GROUPING_BASIS));
        let key = counted.add_child(b, Axis::Child, Pred::tag("author"));
        let count = counted.add_child(0, Axis::Child, Pred::tag("count"));
        let pl = [0, key, count].map(ProjectItem::deep);
        let pl = [ProjectItem::shallow(0), pl[1], pl[2]];
        let appended = |tag| recognize(&counted, &pl, true, &gb, &basis, tag);
        assert!(matches!(appended(Some("count")), Some(Gather::Appended)));
        assert!(appended(Some("sum")).is_none());
        assert!(appended(None).is_none());
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
        // Fig. 5d's projection over groups (it runs with its grouping,
        // over stored rows), over anything else, and any other projection
        // run with a grouping.
        let s = store();
        let (gb, basis, ordering) = author_grouping(None, "title");
        let (p, pl) = fig5d_pattern(Axis::Child, "title");
        let gather = Projection::new(&p, &pl, true, Some((&gb, &basis[..])), None);
        let other = Projection::new(&p, &pl, false, Some((&gb, &basis[..])), None);
        assert!(gather.gathers_members() && !other.gathers_members());
        let (groups, _) = groupby(&s, &articles(&s), &gb, &basis, &ordering).unwrap();
        let fused = |projection: &Projection, input: &Batch| {
            projection
                .gather(&s, input, &gb, &basis, &ordering)
                .map(|(out, _)| out)
        };
        for err in [
            gather.project(groups.clone()),
            fused(&gather, &groups),
            fused(&other, &articles(&s)),
        ] {
            assert!(matches!(err, Err(Error::Unsupported(_))), "{err:?}");
        }
    }

    #[test]
    fn the_fused_gather_equals_groupby_then_the_gather_on_random_bibliographies() {
        // Both routes into the one fold — star patterns, and a member path
        // through `<sec>` that takes the tables — under every ordering,
        // over disjoint and nested rows, and over rows listed twice.
        smallrand::prop::check("fused_gather_equals_groupby_then_gather", 200, |g| {
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
            let path: &[(Axis, &str)] = match g.usize_in(0, 3) {
                0 => &[(Axis::Child, "title")],
                1 => &[(Axis::Descendant, "title")],
                2 => &[(Axis::Child, "year")],
                _ => &[(Axis::Child, "sec"), (Axis::Child, "title")],
            };
            let Batch::Stored(mut rows) = articles(&s) else {
                unreachable!()
            };
            if g.ratio(1, 4) && !rows.is_empty() {
                let again = rows[g.usize_in(0, rows.len() - 1)];
                rows.push(again);
                rows.sort_by_key(|e| e.id);
            }
            let rows = Batch::Stored(rows);
            fused_against_groupby(&s, &rows, &grouping, &fig5d_path(path));
        });
    }
}
