//! The grouping operator (Sec. 3) — the paper's contribution.
//!
//! `groupby` takes a collection, a pattern tree `P`, a *grouping basis*
//! (pattern labels whose `$i.content` values partition the witness
//! trees), and an *ordering list* (ASCENDING/DESCENDING on labels). For
//! each group `Wᵢ` the output tree `Sᵢ` is:
//!
//! ```text
//! TAX_group_root
//! ├── TAX_grouping_basis     (one child per basis item, in basis order)
//! └── TAX_group_subroot      (the source trees of the group's witness
//!                             trees, ordered by the ordering list)
//! ```
//!
//! Grouping does **not** partition: a source tree with several witness
//! trees (a two-author article grouped by author) appears in several
//! groups — exactly Figure 3.
//!
//! Two implementations are provided:
//!
//! * [`groupby`] — the identifier-processing implementation of Sec. 5.3:
//!   witnesses are columns of node identifiers and key symbols (the
//!   shared extraction, `super::witness`); grouping and ordering values
//!   are symbols of the label columns, resolved to text only where a
//!   member sort compares them, and the groups come out as columns
//!   ([`Groups`]: key cells and member row ordinals), no tree built.
//! * [`groupby_replicated`] — the strawman Sec. 5.3 warns about: each
//!   witness eagerly replicates and fully materializes its source tree
//!   before sorting. Kept as the ablation baseline (experiment X4).

use crate::batch::{Batch, Groups};
use crate::error::Result;
use crate::exec::Stages;
use crate::matching::for_each_match;
use crate::ops::keyenc::GroupIndex;
use crate::ops::witness::{witnesses, Witnesses};
use crate::pattern::{PatternNodeId, PatternTree};
use crate::tags::{GROUPING_BASIS, GROUP_ROOT, GROUP_SUBROOT};
use crate::tree::{Collection, Tree, TreeNodeKind};
use crate::value::compare_opt_values;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xmlstore::{Dictionary, DocumentStore, NodeEntry, Sym, NO_SYM};

/// One item of the grouping basis: `$i.content`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasisItem {
    /// The pattern node whose matched content supplies the value.
    pub label: PatternNodeId,
}

impl BasisItem {
    /// Group on `$i.content`.
    pub fn content(label: PatternNodeId) -> Self {
        BasisItem { label }
    }
}

/// Sort direction of one ordering-list component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Smallest first.
    Ascending,
    /// Largest first.
    Descending,
}

/// One component of the ordering list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupOrder {
    /// The pattern node whose matched content supplies the sort key.
    pub label: PatternNodeId,
    /// Sort direction.
    pub direction: Direction,
}

/// The grouping key: one dictionary symbol per basis item
/// ([`crate::ops::keyenc::ABSENT`] when the value is missing, e.g. an
/// element with no content). Fixed-width words, so equality is a flat
/// word compare — see [`crate::ops::keyenc`].
pub use crate::ops::keyenc::Key;

/// One group under formation: the witness that created it (its key and
/// basis cells are the group's) and its members, as witness ordinals —
/// a member's input row is its witness's, and the ordinal is its arrival
/// rank.
struct Group {
    first: u32,
    members: Vec<u32>,
}

/// Identifier-processing grouping (Sec. 5.3): the blocking sink's
/// kernel. The input is stored rows, or none; anything else is refused
/// with [`Error::Unsupported`](crate::Error::Unsupported). The
/// groups come out as columns ([`Batch::Groups`]) in first-arrival order
/// — the order of the witness that created each group. A two-author
/// article's witnesses carry different keys, and the article appears in
/// both groups (Fig. 3's non-partitioning semantics).
///
/// Returns the groups and the sink's stage times.
pub fn groupby(
    store: &DocumentStore,
    input: &Batch,
    pattern: &PatternTree,
    basis: &[BasisItem],
    ordering: &[GroupOrder],
) -> Result<(Batch, Stages)> {
    let rows = input.stored()?;
    // Only the grouping and ordering values are populated — the
    // "minimum information" sort of Sec. 5.3.
    let clock = Instant::now();
    let w = witnesses(store, rows, pattern, basis, ordering, false)?;
    let witness = clock.elapsed();
    let dict = store.dict();
    let tags = [GROUP_ROOT, GROUPING_BASIS, GROUP_SUBROOT].map(|tag| dict.intern(tag));
    let groups = form_groups(dict, &w, ordering);
    let fold = clock.elapsed() - witness;
    let mut keys = Vec::with_capacity(groups.len() * basis.len());
    let members = groups
        .into_iter()
        .map(|g| {
            keys.extend(stored_basis(rows, &w, g.first, basis.len(), false));
            g.members.iter().map(|&m| w.tree_idx[m as usize]).collect()
        })
        .collect();
    let out = Batch::Groups(Groups {
        rows: rows.to_vec(),
        tags,
        keys,
        width: basis.len(),
        members,
        appended: Vec::new(),
    });
    let build = clock.elapsed() - witness - fold;
    Ok((out, [witness, Duration::ZERO, fold, build]))
}

/// Group formation over the witnesses in arrival order: groups in
/// first-arrival order, members sorted by the ordering list.
///
/// Member dedup checks only the group's last member: same-row witnesses
/// of one key are consecutive in the collection-major stream.
fn form_groups(dict: &Dictionary, w: &Witnesses, ordering: &[GroupOrder]) -> Vec<Group> {
    let mut index = GroupIndex::new((0..w.len() as u32).map(|i| w.key(i)));
    let mut groups: Vec<Group> = Vec::new();
    for i in 0..w.len() as u32 {
        let gid = index.group(w.key(i), groups.len());
        if gid == groups.len() {
            groups.push(Group {
                first: i,
                members: Vec::new(),
            });
        }
        // A source row joins each of its witnesses' groups (Fig. 3's
        // non-partitioning), but enters a given group only once —
        // several witnesses with the *same* key (e.g. two authors
        // sharing an institution) do not replicate the member.
        let members = &mut groups[gid].members;
        if members.last().map(|&m| w.tree_idx[m as usize]) != Some(w.tree_idx[i as usize]) {
            members.push(i);
        }
    }
    for group in &mut groups {
        sort_members(dict, w, &mut group.members, ordering, |&m| m);
    }
    groups
}

/// Order a group's members by the ordering list, arrival rank breaking
/// ties. `first` names the witness a member sorts by; the ordering
/// values are its content symbols, whose text is resolved here, once per
/// member, for the numeric-aware comparison.
pub(crate) fn sort_members<T: Copy>(
    dict: &Dictionary,
    w: &Witnesses,
    members: &mut [T],
    ordering: &[GroupOrder],
    first: impl Fn(&T) -> u32,
) {
    if ordering.is_empty() {
        return;
    }
    let mut keyed: Vec<(Vec<Option<Arc<str>>>, T)> = members
        .iter()
        .map(|m| {
            let text = |&s: &u32| (s != NO_SYM).then(|| dict.resolve(Sym(s)));
            (w.sort_syms(first(m)).iter().map(text).collect(), *m)
        })
        .collect();
    keyed.sort_by(|a, b| {
        compare_sort_keys(&a.0, &b.0, ordering).then(first(&a.1).cmp(&first(&b.1)))
    });
    for (slot, (_, m)) in members.iter_mut().zip(keyed) {
        *slot = m;
    }
}

/// Replication-based grouping: the Sec. 5.3 strawman that materializes
/// every member eagerly. Produces the same logical output as [`groupby`]
/// but populates all data up front. The input is stored rows, as for
/// [`groupby`].
pub fn groupby_replicated(
    store: &DocumentStore,
    input: &Batch,
    pattern: &PatternTree,
    basis: &[BasisItem],
    ordering: &[GroupOrder],
) -> Result<Collection> {
    let rows = input.stored()?;
    validate(pattern, basis, ordering)?;
    // Replicate: one fully materialized copy of the source tree per
    // witness, tagged with its grouping values.
    struct Replica {
        key: Key,
        sort_key: Vec<Option<String>>,
        tree: Tree,
        /// The tag of each basis node's match (for the basis children).
        basis_tags: Vec<Sym>,
        arrival: usize,
    }
    let mut matches: Vec<(usize, Vec<NodeEntry>)> = Vec::new();
    for_each_match(store, pattern, rows, false, |row, m| {
        matches.push((row as usize, m.to_vec()))
    })?;
    let cols = store.columns();
    let mut replicas: Vec<Replica> = Vec::new();
    // Last source row replicated under each key. Checking only the
    // globally last replica would miss same-row witnesses whose keys
    // interleave (e.g. authors from institutions X, Y, X), duplicating
    // the row in group X — the per-key map matches the identifier
    // implementation's per-group member dedup exactly.
    let mut last_source: HashMap<Key, usize> = HashMap::new();
    for (row, binding) in matches {
        let key: Key = basis
            .iter()
            .map(|item| cols.content[binding[item.label].id.0 as usize])
            .collect();
        let basis_tags = basis
            .iter()
            .map(|item| Sym(cols.tag[binding[item.label].id.0 as usize]))
            .collect();
        let sort_key = ordering
            .iter()
            .map(|o| store.content(binding[o.label].id))
            .collect::<std::result::Result<Vec<_>, _>>()?;
        // Same-key witnesses of one source row collapse, matching the
        // identifier implementation's member semantics.
        if last_source.get(&key) == Some(&row) {
            continue;
        }
        last_source.insert(key.clone(), row);
        // Eager full materialization — the expensive step.
        let element = Tree::new_ref(rows[row], true).materialize(store)?;
        let arrival = replicas.len();
        replicas.push(Replica {
            key,
            sort_key,
            tree: Tree::from_element(store.dict(), &element),
            basis_tags,
            arrival,
        });
    }

    // Group the replicas by key (first-arrival group order).
    let mut index = GroupIndex::new(replicas.iter().map(|r| &r.key[..]));
    let mut grouped: Vec<Vec<usize>> = Vec::new();
    for (i, r) in replicas.iter().enumerate() {
        match index.group(&r.key, grouped.len()) {
            g if g == grouped.len() => grouped.push(vec![i]),
            g => grouped[g].push(i),
        }
    }

    let mut out = Vec::with_capacity(grouped.len());
    for mut member_ids in grouped {
        member_ids.sort_by(|&a, &b| {
            let ra = &replicas[a];
            let rb = &replicas[b];
            compare_sort_keys(&ra.sort_key, &rb.sort_key, ordering)
                .then(ra.arrival.cmp(&rb.arrival))
        });
        let dict = store.dict();
        let mut tree = Tree::new_elem(dict, GROUP_ROOT);
        let basis_root = tree.add_elem(dict, tree.root(), GROUPING_BASIS);
        let first = &replicas[member_ids[0]];
        for (&value, &tag) in first.key.iter().zip(&first.basis_tags) {
            let content = (value != NO_SYM).then_some(Sym(value));
            tree.add_node(basis_root, TreeNodeKind::Elem { tag, content });
        }
        let subroot = tree.add_elem(dict, tree.root(), GROUP_SUBROOT);
        for &mid in &member_ids {
            tree.append_subtree(subroot, &replicas[mid].tree, replicas[mid].tree.root());
        }
        out.push(tree);
    }
    Ok(out)
}

pub(crate) fn validate(
    pattern: &PatternTree,
    basis: &[BasisItem],
    ordering: &[GroupOrder],
) -> Result<()> {
    for b in basis {
        if b.label >= pattern.len() {
            return Err(crate::error::Error::UnknownLabel(format!(
                "${}",
                b.label + 1
            )));
        }
    }
    for o in ordering {
        if o.label >= pattern.len() {
            return Err(crate::error::Error::UnknownLabel(format!(
                "${}",
                o.label + 1
            )));
        }
    }
    Ok(())
}

fn compare_sort_keys<S: AsRef<str>>(
    a: &[Option<S>],
    b: &[Option<S>],
    ordering: &[GroupOrder],
) -> Ordering {
    for (i, o) in ordering.iter().enumerate() {
        let (x, y) = (a[i].as_ref(), b[i].as_ref());
        let ord = compare_opt_values(x.map(AsRef::as_ref), y.map(AsRef::as_ref));
        let ord = match o.direction {
            Direction::Ascending => ord,
            Direction::Descending => ord.reverse(),
        };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// The basis children of the group witness `first` created over stored
/// `rows`, one for each of the first `width` basis items: a reference to
/// the bound node — whole when `deep_keys`, or when it is the row itself
/// (a stored row is its subtree). `deep_keys` is set by the flat shapes
/// (fused rollup, cube): they pre-apply the consumer's `Project
/// deep(key)` step, which keeps a structured key node's whole subtree.
pub(crate) fn stored_basis<'w>(
    rows: &'w [NodeEntry],
    w: &'w Witnesses,
    first: u32,
    width: usize,
    deep_keys: bool,
) -> impl Iterator<Item = TreeNodeKind> + 'w {
    let row = rows[w.tree_idx[first as usize] as usize];
    w.cells(first)[..width]
        .iter()
        .map(move |&node| TreeNodeKind::Ref {
            node,
            deep: deep_keys || node.id == row.id,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::select::select_db;
    use crate::pattern::{Axis, Pred};
    use crate::tags;
    use xmlstore::StoreOptions;

    /// The Figures 1–3 data: articles with Transaction titles.
    const FIG_SAMPLE: &str = "<bib>\
        <article><title>Transaction Mng</title><author>Silberschatz</author></article>\
        <article><title>Overview of Transaction Mng</title><author>Silberschatz</author><author>Garcia-Molina</author></article>\
        <article><title>Transaction Mng for the Web</title><author>Thompson</author></article>\
    </bib>";

    fn store() -> DocumentStore {
        DocumentStore::from_xml(FIG_SAMPLE, &StoreOptions::in_memory()).unwrap()
    }

    /// [`groupby`]'s groups as trees.
    fn group_trees(
        s: &DocumentStore,
        input: &Batch,
        p: &PatternTree,
        basis: &[BasisItem],
        ordering: &[GroupOrder],
    ) -> Result<Collection> {
        Ok(groupby(s, input, p, basis, ordering)?.0.into_trees())
    }

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

    /// The articles Fig. 1's pattern matches, each once, as stored rows.
    fn articles(s: &DocumentStore) -> Batch {
        let p = fig1_pattern();
        let mut seen = std::collections::HashSet::new();
        let roots = select_db(s, &p, &[p.root()]).unwrap();
        let rows = roots.iter().filter_map(|t| match t.node(0).kind {
            TreeNodeKind::Ref { node, .. } => seen.insert(node.id).then_some(node),
            _ => None,
        });
        Batch::Stored(rows.collect())
    }

    fn author_groupby(s: &DocumentStore, input: &Batch, ordering: &[GroupOrder]) -> Collection {
        let mut p = PatternTree::with_root(Pred::tag("article"));
        let title = p.add_child(p.root(), Axis::Child, Pred::tag("title"));
        let author = p.add_child(p.root(), Axis::Child, Pred::tag("author"));
        let basis = [BasisItem::content(author)];
        let ordering: Vec<GroupOrder> = ordering
            .iter()
            .map(|o| GroupOrder {
                label: if o.label == usize::MAX {
                    title
                } else {
                    o.label
                },
                direction: o.direction,
            })
            .collect();
        group_trees(s, input, &p, &basis, &ordering).unwrap()
    }

    #[test]
    fn figure3_grouping_by_author() {
        let s = store();
        let arts = articles(&s);
        assert_eq!(arts.len(), 3);
        let groups = author_groupby(&s, &arts, &[]);
        // Three groups: Silberschatz, Garcia-Molina, Thompson.
        assert_eq!(groups.len(), 3);

        let g0 = groups[0].materialize(&s).unwrap();
        assert_eq!(g0.name, tags::GROUP_ROOT);
        let kids: Vec<&str> = g0.child_elements().map(|c| c.name.as_str()).collect();
        assert_eq!(kids, [tags::GROUPING_BASIS, tags::GROUP_SUBROOT]);

        // Silberschatz has two articles; the two-author article also
        // appears in Garcia-Molina's group (non-partitioning).
        let sil = g0.child(tags::GROUP_SUBROOT).unwrap();
        assert_eq!(sil.children_named("article").count(), 2);
        let gm = groups[1].materialize(&s).unwrap();
        assert_eq!(
            gm.child(tags::GROUP_SUBROOT)
                .unwrap()
                .children_named("article")
                .count(),
            1
        );
    }

    #[test]
    fn figure3_ordering_descending_title() {
        let s = store();
        let arts = articles(&s);
        let groups = author_groupby(
            &s,
            &arts,
            &[GroupOrder {
                label: usize::MAX, // replaced by the title label
                direction: Direction::Descending,
            }],
        );
        let g0 = groups[0].materialize(&s).unwrap();
        let titles: Vec<String> = g0
            .child(tags::GROUP_SUBROOT)
            .unwrap()
            .children_named("article")
            .map(|a| a.child("title").unwrap().text())
            .collect();
        // Descending: "Transaction Mng" > "Overview of Transaction Mng".
        assert_eq!(titles, ["Transaction Mng", "Overview of Transaction Mng"]);
    }

    #[test]
    fn ascending_ordering() {
        let s = store();
        let arts = articles(&s);
        let groups = author_groupby(
            &s,
            &arts,
            &[GroupOrder {
                label: usize::MAX,
                direction: Direction::Ascending,
            }],
        );
        let g0 = groups[0].materialize(&s).unwrap();
        let titles: Vec<String> = g0
            .child(tags::GROUP_SUBROOT)
            .unwrap()
            .children_named("article")
            .map(|a| a.child("title").unwrap().text())
            .collect();
        assert_eq!(titles, ["Overview of Transaction Mng", "Transaction Mng"]);
    }

    #[test]
    fn basis_child_carries_the_grouping_node() {
        let s = store();
        let arts = articles(&s);
        let groups = author_groupby(&s, &arts, &[]);
        let g0 = groups[0].materialize(&s).unwrap();
        let basis = g0.child(tags::GROUPING_BASIS).unwrap();
        assert_eq!(basis.child("author").unwrap().text(), "Silberschatz");
    }

    #[test]
    fn multi_item_basis() {
        let xml = "<bib>\
            <article><author>Jack</author><journal>TODS</journal><title>X</title></article>\
            <article><author>Jack</author><journal>VLDBJ</journal><title>Y</title></article>\
            <article><author>Jack</author><journal>TODS</journal><title>Z</title></article>\
        </bib>";
        let s = DocumentStore::from_xml(xml, &StoreOptions::in_memory()).unwrap();
        let article = s.tag_id("article").unwrap();
        let arts = Batch::Stored(s.nodes_with_tag(article).to_vec());
        let mut p = PatternTree::with_root(Pred::tag("article"));
        let author = p.add_child(p.root(), Axis::Child, Pred::tag("author"));
        let journal = p.add_child(p.root(), Axis::Child, Pred::tag("journal"));
        let groups = group_trees(
            &s,
            &arts,
            &p,
            &[BasisItem::content(author), BasisItem::content(journal)],
            &[],
        )
        .unwrap();
        assert_eq!(groups.len(), 2); // (Jack,TODS) ×2 and (Jack,VLDBJ) ×1
    }

    #[test]
    fn replicated_groupby_same_logical_output() {
        let s = store();
        let arts = articles(&s);
        let mut p = PatternTree::with_root(Pred::tag("article"));
        let title = p.add_child(p.root(), Axis::Child, Pred::tag("title"));
        let author = p.add_child(p.root(), Axis::Child, Pred::tag("author"));
        let basis = [BasisItem::content(author)];
        let ordering = [GroupOrder {
            label: title,
            direction: Direction::Descending,
        }];
        let fast = group_trees(&s, &arts, &p, &basis, &ordering).unwrap();
        let slow = groupby_replicated(&s, &arts, &p, &basis, &ordering).unwrap();
        assert_eq!(fast.len(), slow.len());
        for (f, sl) in fast.iter().zip(slow.iter()) {
            let fe = f.materialize(&s).unwrap();
            let se = sl.materialize(&s).unwrap();
            // Same member articles in the same order (titles agree).
            let titles = |e: &xmlparse::Element| -> Vec<String> {
                e.child(tags::GROUP_SUBROOT)
                    .unwrap()
                    .children_named("article")
                    .map(|a| a.child("title").unwrap().text())
                    .collect()
            };
            assert_eq!(titles(&fe), titles(&se));
        }
    }

    #[test]
    fn replication_costs_more_io() {
        let s = store();
        let arts = articles(&s);
        let mut p = PatternTree::with_root(Pred::tag("article"));
        let author = p.add_child(p.root(), Axis::Child, Pred::tag("author"));
        let basis = [BasisItem::content(author)];

        s.reset_io_stats();
        let _ = group_trees(&s, &arts, &p, &basis, &[]).unwrap();
        let fast_io = s.io_stats().page_requests();

        s.reset_io_stats();
        let _ = groupby_replicated(&s, &arts, &p, &basis, &[]).unwrap();
        let slow_io = s.io_stats().page_requests();
        assert!(
            slow_io > fast_io,
            "replication ({slow_io}) must touch more pages than identifier processing ({fast_io})"
        );
    }

    #[test]
    fn empty_input_gives_no_groups() {
        let s = store();
        let p = PatternTree::with_root(Pred::tag("article"));
        let groups = group_trees(&s, &Batch::default(), &p, &[BasisItem::content(0)], &[]).unwrap();
        assert!(groups.is_empty());
    }

    #[test]
    fn unknown_basis_label_rejected() {
        let s = store();
        let p = PatternTree::with_root(Pred::tag("article"));
        assert!(group_trees(&s, &Batch::default(), &p, &[BasisItem::content(5)], &[]).is_err());
        assert!(group_trees(
            &s,
            &Batch::default(),
            &p,
            &[BasisItem::content(0)],
            &[GroupOrder {
                label: 9,
                direction: Direction::Ascending
            }]
        )
        .is_err());
    }

    #[test]
    fn missing_attribute_groups_under_none_key() {
        // A key node with no content forms its own group.
        let xml = "<bib><article><year>1999</year><title>A</title></article>\
            <article><year/><title>B</title></article></bib>";
        let s = DocumentStore::from_xml(xml, &StoreOptions::in_memory()).unwrap();
        let article = s.tag_id("article").unwrap();
        let arts = Batch::Stored(s.nodes_with_tag(article).to_vec());
        let mut p = PatternTree::with_root(Pred::tag("article"));
        let year = p.add_child(p.root(), Axis::Child, Pred::tag("year"));
        let groups = group_trees(&s, &arts, &p, &[BasisItem::content(year)], &[]).unwrap();
        assert_eq!(groups.len(), 2); // "1999" and missing
        let g1 = groups[1].materialize(&s).unwrap();
        let key = g1
            .child(tags::GROUPING_BASIS)
            .unwrap()
            .child("year")
            .unwrap();
        assert_eq!(key.text(), "");
        assert_eq!(
            g1.child(tags::GROUP_SUBROOT)
                .unwrap()
                .children_named("article")
                .count(),
            1
        );
    }

    #[test]
    fn interleaved_keys_agree_across_implementations() {
        // One article whose author institutions interleave (X, Y, X):
        // the article must appear exactly once in group X under both
        // implementations. The replicated path once deduped only
        // *adjacent* same-key witnesses and emitted it twice.
        let xml = "<bib>\
            <article><title>P1</title>\
              <author><name>A</name><institution>X</institution></author>\
              <author><name>B</name><institution>Y</institution></author>\
              <author><name>C</name><institution>X</institution></author>\
            </article>\
            <article><title>P2</title>\
              <author><name>D</name><institution>Y</institution></author>\
            </article>\
        </bib>";
        let s = DocumentStore::from_xml(xml, &StoreOptions::in_memory()).unwrap();
        let article = s.tag_id("article").unwrap();
        let arts = Batch::Stored(s.nodes_with_tag(article).to_vec());
        let mut p = PatternTree::with_root(Pred::tag("article"));
        let author = p.add_child(p.root(), Axis::Child, Pred::tag("author"));
        let inst = p.add_child(author, Axis::Child, Pred::tag("institution"));
        let basis = [BasisItem::content(inst)];

        let fast = group_trees(&s, &arts, &p, &basis, &[]).unwrap();
        let slow = groupby_replicated(&s, &arts, &p, &basis, &[]).unwrap();
        assert_eq!(fast.len(), 2); // X, Y
        assert_eq!(fast.len(), slow.len());
        for (f, sl) in fast.iter().zip(slow.iter()) {
            let fe = xmlparse::serialize::element_to_string(&f.materialize(&s).unwrap());
            let se = xmlparse::serialize::element_to_string(&sl.materialize(&s).unwrap());
            assert_eq!(fe, se);
        }
        // Group X holds the first article exactly once.
        let x = fast[0].materialize(&s).unwrap();
        assert_eq!(
            x.child(tags::GROUP_SUBROOT)
                .unwrap()
                .children_named("article")
                .count(),
            1
        );
    }
}
