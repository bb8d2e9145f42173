//! The naive plan's join pipeline (Sec. 4.1): the left outer join of the
//! outer bindings against the database, and the RETURN stitch.
//!
//! A nested FLWR joins the outer bindings with the database through the
//! "join-plan" pattern tree of Fig. 4b — every (author, article) pair of
//! Fig. 8 — then stitches the RETURN arguments back together on the
//! shared key: a full outer join fused with the final construction and
//! rename ([`stitch`]). The pairs stay identifiers (Sec. 5.3): the join
//! emits one group per outer row, its key cell and the ordinals of the
//! subjects it joined ([`Groups`]), and the stitch matches the subject's
//! paths to the RETURN and ORDER BY nodes once, over those subjects
//! ([`Members`]). Keys are content symbols, an outer row's read off its
//! selection's table: equal symbol ⇔ equal string, and a node without
//! content ([`NO_SYM`]) joins nothing. No data page is read.

use crate::batch::{Batch, Cell, Groups, Rows};
use crate::error::{Error, Result};
use crate::matching::match_db;
use crate::ops::aggregate::{compute, format_value, numeric, AggFunc};
use crate::ops::groupby::{sort_members, BasisItem, Direction, GroupOrder};
use crate::ops::witness::witnesses;
use crate::pattern::{PatternNodeId, PatternTree};
use crate::tags::{GROUPING_BASIS, GROUP_ROOT, GROUP_SUBROOT};
use std::collections::{HashMap, HashSet};
use xmlstore::{DocumentStore, NodeEntry, NO_SYM};

/// Left outer join of `left` — rows of a selection of `left_pattern`
/// bound at `left_label` — against the stored database: the blocking
/// sink's kernel. The right side is matched once with `right_pattern`,
/// and a binding joins a left row when its `right_label` node has the
/// row's content symbol. Each left row, in order, becomes one group: its
/// bound node as the key cell and, as members, the subjects (the node
/// `right_sl` adorns) of the bindings it joins, in binding order, a run
/// of one subject's bindings once — no members when it joins nothing.
/// The members index the distinct subjects in document order.
pub fn left_outer_join_db(
    store: &DocumentStore,
    left: &Batch,
    left_pattern: &PatternTree,
    left_label: PatternNodeId,
    right_pattern: &PatternTree,
    right_label: PatternNodeId,
    right_sl: &[PatternNodeId],
) -> Result<Groups> {
    let subject = subject(right_pattern, right_sl)?;
    if right_label >= right_pattern.len() {
        return Err(Error::UnknownLabel(format!("${}", right_label + 1)));
    }
    let left = left.bound(left_pattern, left_label)?;
    let right = match_db(store, right_pattern)?;
    let cols = store.columns();
    let key = |e: &NodeEntry| cols.content[e.id.0 as usize];
    let mut rows = right.column(subject).to_vec();
    rows.sort_unstable_by_key(|e| e.start);
    rows.dedup_by_key(|e| e.start);
    let mut buckets: HashMap<u32, Vec<u32>> = HashMap::new();
    for (e, s) in right.column(right_label).iter().zip(right.column(subject)) {
        let member = rows.partition_point(|r| r.start < s.start) as u32;
        let bucket = buckets.entry(key(e)).or_default();
        if bucket.last() != Some(&member) {
            bucket.push(member);
        }
    }
    buckets.remove(&NO_SYM);
    let members = left.iter().map(|e| buckets.get(&key(e)).cloned());
    let members = members.map(Option::unwrap_or_default).collect();
    let keys = left.into_iter().map(|node| Cell::Ref { node, deep: true });
    let tags = [GROUP_ROOT, GROUPING_BASIS, GROUP_SUBROOT].map(|tag| store.dict().intern(tag));
    let (keys, width) = (keys.collect(), 1);
    Ok(Groups {
        rows,
        tags,
        keys,
        width,
        members,
        appended: Vec::new(),
    })
}

/// The join's subject: the one node its right side adorns.
fn subject(right_pattern: &PatternTree, right_sl: &[PatternNodeId]) -> Result<PatternNodeId> {
    match *right_sl {
        [subject] if subject < right_pattern.len() => Ok(subject),
        _ => Err(Error::Unsupported("a join adorns one subject".into())),
    }
}

/// What the stitch reads of each subject a join pairs: the join's right
/// pattern cut to the paths from the subject to the RETURN node (its
/// label in it is the second field) and to the ORDER BY node.
#[derive(Debug)]
pub struct Members(PatternTree, PatternNodeId, Vec<GroupOrder>);

impl Members {
    /// The members of a join of `right_pattern` adorned at `right_sl`,
    /// returning `extract`, ordered by `order`.
    pub fn new(
        right_pattern: &PatternTree,
        right_sl: &[PatternNodeId],
        extract: PatternNodeId,
        order: Option<(PatternNodeId, Direction)>,
    ) -> Result<Members> {
        let targets: Vec<PatternNodeId> = [extract].into_iter().chain(order.map(|o| o.0)).collect();
        let subject = subject(right_pattern, right_sl)?;
        let Some((pattern, ids)) = right_pattern.paths(subject, &targets) else {
            return Err(Error::Unsupported(
                "RETURN and ORDER BY lie under the subject".into(),
            ));
        };
        let ordering = order.map(|(_, direction)| (ids[1], direction));
        let ordering = ordering.map(|(label, direction)| GroupOrder { label, direction });
        Ok(Members(pattern, ids[0], ordering.into_iter().collect()))
    }
}

/// One stitched part: an extracted node, its content (for an aggregate)
/// and its subject's first witness, which it orders by.
#[derive(Clone, Copy)]
struct Part {
    node: NodeEntry,
    value: u32,
    first: u32,
}

/// The RETURN stitching of the naive plan (Sec. 4.1): a full outer join
/// of the `outer` rows and the join's groups on the key, fused with the
/// final per-binding construction and rename — the kernel behind the
/// executor's `StitchConstruct` sink. Each outer row (a selection's,
/// bound at `outer_label`) becomes one `tag` row: its bound node, then
/// the extracted nodes of the subjects its key joined, or their
/// aggregate `agg`.
///
/// One anchored witness extraction over the joined subjects yields every
/// part's node, value and ordering symbol. A key's parts are its group's
/// subjects' extracts in member order, each node once — the naive plan's
/// "duplicate elimination based on articles" — ordered as group members
/// are (`ORDER BY` on the first witness of their subject, arrival
/// breaking ties), so a subject's parts stay together.
pub fn stitch(
    store: &DocumentStore,
    outer: &Batch,
    outer_pattern: &PatternTree,
    outer_label: PatternNodeId,
    inner: Option<(&Groups, &Members)>,
    agg: Option<(AggFunc, &str)>,
    tag: &str,
) -> Result<Rows> {
    let outer = outer.bound(outer_pattern, outer_label)?;
    let cols = store.columns();
    let key = |e: &NodeEntry| cols.content[e.id.0 as usize];
    let dict = store.dict();
    let mut parts: HashMap<u32, Vec<Part>> = HashMap::new();
    if let Some((groups, Members(pattern, extract, ordering))) = inner {
        let basis = [BasisItem::content(*extract)];
        let w = witnesses(store, &groups.rows, pattern, &basis, ordering, true)?;
        let per_row = w.per_row(groups.rows.len());
        for (g, group) in groups.members.iter().enumerate() {
            let [Cell::Ref { node: k, .. }] = groups.key(g) else {
                continue;
            };
            // One bucket per key: equal keys joined the same subjects.
            if key(k) == NO_SYM || parts.contains_key(&key(k)) {
                continue;
            }
            let mut seen = HashSet::new();
            let mut bucket = Vec::new();
            for ws in group.iter().map(|&m| per_row[m as usize].clone()) {
                let first = ws.start;
                for i in ws.filter(|&i| seen.insert(w.cells(i)[0])) {
                    let (node, value) = (w.cells(i)[0], w.key(i)[0]);
                    bucket.push(Part { node, value, first });
                }
            }
            sort_members(dict, &mut bucket, ordering, |p| p.first, |i| w.sort_syms(i));
            parts.insert(key(k), bucket);
        }
    }
    let mut out = Rows::new(dict.intern(tag));
    for node in outer {
        let bound = std::iter::once(Cell::Ref { node, deep: true });
        let matched = parts.get(&key(&node)).map_or(&[][..], Vec::as_slice);
        let Some((func, agg_tag)) = agg else {
            let nodes = matched.iter().map(|p| Cell::Ref {
                node: p.node,
                deep: true,
            });
            out.push(bound.chain(nodes));
            continue;
        };
        let values: Vec<f64> = match func {
            AggFunc::Count => Vec::new(),
            _ => matched
                .iter()
                .filter_map(|p| numeric(dict, p.value))
                .collect(),
        };
        let value = compute(func, matched.len(), &values).map(|v| Cell::Elem {
            tag: dict.intern(agg_tag),
            content: Some(dict.intern(&format_value(v))),
        });
        out.push(bound.chain(value));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Matches;
    use crate::ops::dupelim::dup_elim;
    use crate::output::materialize_all;
    use crate::pattern::{Axis, Pred};
    use crate::tags;
    use xmlstore::StoreOptions;

    /// The Figure 6 sample database.
    const FIG6: &str = "<doc_root_inner>\
        <article><author>Jack</author><author>John</author><title>Querying XML</title></article>\
        <article><author>Jill</author><author>Jack</author><title>XML and the Web</title></article>\
        <article><author>John</author><title>Hack HTML</title></article>\
    </doc_root_inner>";

    fn store() -> DocumentStore {
        DocumentStore::from_xml(FIG6, &StoreOptions::in_memory()).unwrap()
    }

    fn outer_pattern() -> PatternTree {
        let mut p = PatternTree::with_root(Pred::tag("doc_root"));
        p.add_child(p.root(), Axis::Descendant, Pred::tag("author"));
        p
    }

    fn join_right_pattern() -> (PatternTree, PatternNodeId, PatternNodeId) {
        let mut p = PatternTree::with_root(Pred::tag("doc_root"));
        let art = p.add_child(p.root(), Axis::Descendant, Pred::tag("article"));
        let auth = p.add_child(art, Axis::Child, Pred::tag("author"));
        (p, art, auth)
    }

    /// Distinct-author rows (Fig. 7): the outer scan's, deduplicated.
    fn distinct_authors(s: &DocumentStore) -> Batch {
        let p = outer_pattern();
        let rows = Batch::Matches(Matches::select(s, &p, &[1]).unwrap());
        dup_elim(s, rows, &p, 1).unwrap()
    }

    /// Each group's key text and its members, as written.
    fn pairs(s: &DocumentStore, groups: Groups) -> Vec<(String, Vec<xmlparse::Element>)> {
        let pair = |e: xmlparse::Element| {
            assert_eq!(e.name, tags::GROUP_ROOT);
            let basis = e.child(tags::GROUPING_BASIS).unwrap();
            let key = basis.child("author").unwrap().text();
            let members = e.child(tags::GROUP_SUBROOT).unwrap().child_elements();
            (key, members.cloned().collect())
        };
        let written = materialize_all(s, &Batch::Groups(groups)).unwrap();
        written.into_iter().map(pair).collect()
    }

    #[test]
    fn figure8_left_outer_join() {
        let s = store();
        let authors = distinct_authors(&s);
        assert_eq!(authors.len(), 3); // Jack, John, Jill
        let (right, art, auth) = join_right_pattern();
        let joined =
            left_outer_join_db(&s, &authors, &outer_pattern(), 1, &right, auth, &[art]).unwrap();
        // Jack: 2 articles; John: 2; Jill: 1 → 5 (author, article) pairs
        // (Fig. 8), held as one group per author.
        let pairs = pairs(&s, joined);
        let shape: Vec<(&str, usize)> = pairs.iter().map(|(k, m)| (&k[..], m.len())).collect();
        assert_eq!(shape, [("Jack", 2), ("John", 2), ("Jill", 1)]);
        assert!(pairs
            .iter()
            .flat_map(|(_, m)| m)
            .all(|a| a.name == "article"));
    }

    #[test]
    fn left_outer_preserves_unmatched() {
        let xml = "<bib><author>Orphan</author>\
            <article><author>Jack</author><title>T</title></article></bib>";
        let s = DocumentStore::from_xml(xml, &StoreOptions::in_memory()).unwrap();
        let authors = distinct_authors(&s);
        assert_eq!(authors.len(), 2);
        let (right, art, auth) = join_right_pattern();
        let joined =
            left_outer_join_db(&s, &authors, &outer_pattern(), 1, &right, auth, &[art]).unwrap();
        // Orphan joins nothing but keeps its group; Jack joins one article.
        let shape: Vec<(String, usize)> = pairs(&s, joined)
            .into_iter()
            .map(|(k, m)| (k, m.len()))
            .collect();
        assert_eq!(shape, [("Orphan".to_owned(), 0), ("Jack".to_owned(), 1)]);
    }

    #[test]
    fn right_adornment_controls_depth() {
        // The adorned node is the subject a pair holds, whole: with
        // SL = [article] the titles are reachable from the pairs, with
        // SL = [author] the members are the joining authors themselves.
        let s = store();
        let authors = distinct_authors(&s);
        let (right, art, auth) = join_right_pattern();
        for (sl, member, titled) in [(art, "article", true), (auth, "author", false)] {
            let joined =
                left_outer_join_db(&s, &authors, &outer_pattern(), 1, &right, auth, &[sl]).unwrap();
            let members: Vec<xmlparse::Element> =
                pairs(&s, joined).into_iter().flat_map(|(_, m)| m).collect();
            assert_eq!(members.len(), 5);
            assert!(members.iter().all(|m| m.name == member));
            assert_eq!(members.iter().any(|m| m.child("title").is_some()), titled);
        }
    }

    #[test]
    fn unknown_labels_rejected() {
        let s = store();
        let (right, art, _) = join_right_pattern();
        let none = Batch::default();
        assert!(left_outer_join_db(&s, &none, &outer_pattern(), 9, &right, 2, &[art]).is_err());
        assert!(left_outer_join_db(&s, &none, &outer_pattern(), 1, &right, 9, &[art]).is_err());
        // The right side adorns exactly one subject.
        for sl in [&[][..], &[art, 2], &[9]] {
            assert!(left_outer_join_db(&s, &none, &outer_pattern(), 1, &right, 2, sl).is_err());
        }
    }

    #[test]
    fn absent_contents_never_join() {
        // Structured authors have no content: the two dedup to one left
        // row, whose key joins no database binding — not even the
        // article's equally structured author.
        let xml = "<bib><author><n>A</n></author>\
            <article><author><n>A</n></author><title>T</title></article></bib>";
        let s = DocumentStore::from_xml(xml, &StoreOptions::in_memory()).unwrap();
        let authors = distinct_authors(&s);
        assert_eq!(authors.len(), 1);
        let (right, art, auth) = join_right_pattern();
        let joined =
            left_outer_join_db(&s, &authors, &outer_pattern(), 1, &right, auth, &[art]).unwrap();
        let pairs = pairs(&s, joined);
        assert_eq!(pairs.len(), 1);
        assert!(pairs[0].1.is_empty(), "the left row alone");
    }

    #[test]
    fn a_left_side_other_than_a_scan_of_its_pattern_is_refused() {
        // The join keys its left rows by the scan's bound column: stored
        // rows, or rows of a scan of another pattern, are a typed
        // refusal, not a guess.
        let s = store();
        let stored = Batch::Stored(s.nodes_with_tag(s.tag_id("author").unwrap()).to_vec());
        let p = PatternTree::with_root(Pred::tag("author"));
        let other = Batch::Matches(Matches::select(&s, &p, &[0]).unwrap());
        let (right, art, auth) = join_right_pattern();
        for left in [stored, other] {
            let err = left_outer_join_db(&s, &left, &outer_pattern(), 1, &right, auth, &[art]);
            assert!(matches!(err, Err(Error::Unsupported(_))), "{err:?}");
        }
    }
}
