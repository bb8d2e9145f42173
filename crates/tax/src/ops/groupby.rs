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
//! [`groupby`] is the identifier-processing implementation of Sec. 5.3:
//! witnesses are columns of node identifiers and key symbols (the
//! shared extraction, `super::witness`); grouping and ordering values
//! are symbols of the label columns, resolved to text only where a
//! member sort compares them, and the groups come out as columns
//! ([`Groups`]: key cells and member row ordinals), no tree built. The
//! strawman Sec. 5.3 warns about — each witness eagerly replicating its
//! source tree — is experiment X4's baseline and lives with it, in the
//! bench harness.

use crate::batch::{Batch, Cell, Groups};
use crate::error::Result;
use crate::exec::Stages;
use crate::ops::keyenc::GroupIndex;
use crate::ops::witness::{witnesses, Witnesses};
use crate::pattern::{PatternNodeId, PatternTree};
use crate::tags::{GROUPING_BASIS, GROUP_ROOT, GROUP_SUBROOT};
use crate::value::compare_opt_values;
use std::cmp::Ordering;
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
    let groups = form_groups(dict, &w, basis.len(), ordering);
    let fold = clock.elapsed() - witness;
    let mut keys = Vec::with_capacity(groups.len() * basis.len());
    let members = groups
        .into_iter()
        .map(|g| {
            keys.extend(stored_basis(rows, &w, g.first));
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
    Ok((
        out,
        vec![
            ('w', witness),
            ('c', Duration::ZERO),
            ('f', fold),
            ('b', build),
        ],
    ))
}

/// Group formation over the witnesses in arrival order: groups in
/// first-arrival order, members sorted by the ordering list.
///
/// Member dedup checks only the group's last member: same-row witnesses
/// of one key are consecutive in the collection-major stream.
fn form_groups(
    dict: &Dictionary,
    w: &Witnesses,
    width: usize,
    ordering: &[GroupOrder],
) -> Vec<Group> {
    let mut index = GroupIndex::new(width, w.len());
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
/// `rows`, one for each basis item: a reference to the bound node —
/// whole when it is the row itself (a stored row is its subtree).
fn stored_basis<'w>(
    rows: &'w [NodeEntry],
    w: &'w Witnesses,
    first: u32,
) -> impl Iterator<Item = Cell> + 'w {
    let row = rows[w.tree_idx[first as usize] as usize];
    w.cells(first).iter().map(move |&node| Cell::Ref {
        node,
        deep: node.id == row.id,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Matches;
    use crate::ops::project::ProjectItem;
    use crate::output::lines;
    use crate::pattern::{Axis, Pred};
    use xmlstore::StoreOptions;

    /// The Figures 1–3 data: articles with Transaction titles.
    const FIG_SAMPLE: &str = "<bib>\
        <article><title>Transaction Mng</title><author>Silberschatz</author></article>\
        <article><title>Overview of Transaction Mng</title><author>Silberschatz</author><author>Garcia-Molina</author></article>\
        <article><title>Transaction Mng for the Web</title><author>Thompson</author></article>\
    </bib>";
    const A1: &str =
        "<article><title>Transaction Mng</title><author>Silberschatz</author></article>";
    const A2: &str = "<article><title>Overview of Transaction Mng</title><author>Silberschatz</author><author>Garcia-Molina</author></article>";
    const A3: &str =
        "<article><title>Transaction Mng for the Web</title><author>Thompson</author></article>";

    fn store() -> DocumentStore {
        DocumentStore::from_xml(FIG_SAMPLE, &StoreOptions::in_memory()).unwrap()
    }

    /// The bytes of an author group over `members`.
    fn group(author: &str, members: &[&str]) -> String {
        format!(
            "<TAX_group_root><TAX_grouping_basis><author>{author}</author></TAX_grouping_basis>\
             <TAX_group_subroot>{}</TAX_group_subroot></TAX_group_root>",
            members.concat()
        )
    }

    /// [`groupby`]'s groups.
    fn groups(
        s: &DocumentStore,
        input: &Batch,
        p: &PatternTree,
        basis: &[BasisItem],
        ordering: &[GroupOrder],
    ) -> Result<Batch> {
        Ok(groupby(s, input, p, basis, ordering)?.0)
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
        let roots = Matches::select(s, &p, &[p.root()]).unwrap();
        let Batch::Stored(mut rows) = roots.project(&[ProjectItem::deep(p.root())]).unwrap() else {
            panic!("a deep root projects to stored rows")
        };
        rows.dedup_by_key(|e| e.id);
        Batch::Stored(rows)
    }

    /// Groups by author content, members ordered by title in `direction`.
    fn author_groupby(
        s: &DocumentStore,
        input: &Batch,
        direction: Option<Direction>,
    ) -> Vec<String> {
        let mut p = PatternTree::with_root(Pred::tag("article"));
        let title = p.add_child(p.root(), Axis::Child, Pred::tag("title"));
        let author = p.add_child(p.root(), Axis::Child, Pred::tag("author"));
        let basis = [BasisItem::content(author)];
        let ordering: Vec<GroupOrder> = direction
            .map(|direction| GroupOrder {
                label: title,
                direction,
            })
            .into_iter()
            .collect();
        lines(s, &groups(s, input, &p, &basis, &ordering).unwrap())
    }

    #[test]
    fn figure3_grouping_by_author() {
        // Three groups: Silberschatz, Garcia-Molina, Thompson. The
        // two-author article appears in Silberschatz's and in
        // Garcia-Molina's group (non-partitioning).
        let s = store();
        let arts = articles(&s);
        assert_eq!(arts.len(), 3);
        assert_eq!(
            author_groupby(&s, &arts, None),
            [
                group("Silberschatz", &[A1, A2]),
                group("Garcia-Molina", &[A2]),
                group("Thompson", &[A3]),
            ]
        );
    }

    #[test]
    fn figure3_ordering_descending_title() {
        // Descending: "Transaction Mng" > "Overview of Transaction Mng".
        let s = store();
        let groups = author_groupby(&s, &articles(&s), Some(Direction::Descending));
        assert_eq!(groups[0], group("Silberschatz", &[A1, A2]));
    }

    #[test]
    fn ascending_ordering() {
        let s = store();
        let groups = author_groupby(&s, &articles(&s), Some(Direction::Ascending));
        assert_eq!(groups[0], group("Silberschatz", &[A2, A1]));
    }

    #[test]
    fn basis_child_carries_the_grouping_node() {
        let s = store();
        let groups = author_groupby(&s, &articles(&s), None);
        let basis = "<TAX_grouping_basis><author>Silberschatz</author></TAX_grouping_basis>";
        assert!(groups[0].starts_with(&format!("<TAX_group_root>{basis}")));
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
        let groups = groups(
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
    fn empty_input_gives_no_groups() {
        let s = store();
        let p = PatternTree::with_root(Pred::tag("article"));
        let none = groups(&s, &Batch::default(), &p, &[BasisItem::content(0)], &[]).unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn unknown_basis_label_rejected() {
        let s = store();
        let p = PatternTree::with_root(Pred::tag("article"));
        assert!(groups(&s, &Batch::default(), &p, &[BasisItem::content(5)], &[]).is_err());
        assert!(groups(
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
        let groups = lines(
            &s,
            &groups(&s, &arts, &p, &[BasisItem::content(year)], &[]).unwrap(),
        );
        assert_eq!(groups.len(), 2); // "1999" and missing
        assert_eq!(
            groups[1],
            "<TAX_group_root><TAX_grouping_basis><year/></TAX_grouping_basis>\
             <TAX_group_subroot><article><year/><title>B</title></article></TAX_group_subroot>\
             </TAX_group_root>"
        );
    }
}
