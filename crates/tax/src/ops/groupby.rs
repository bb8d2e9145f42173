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
//! ([`Groups`]: key cells and member row ordinals), no tree built. Given
//! a member path, the same pass runs Fig. 5d's final projection too
//! ([`gather`]): each group comes out as one row of its key and its
//! members' extracts, the rewrite's `GroupBy → Project`. The
//! strawman Sec. 5.3 warns about — each witness eagerly replicating its
//! source tree — is experiment X4's baseline and lives with it, in the
//! bench harness.

use crate::batch::{Batch, Cell, Groups, Rows};
use crate::error::Result;
use crate::exec::Stages;
use crate::ops::rollup::{Fold, Kept};
use crate::pattern::{PatternNodeId, PatternTree};
use crate::tags::{GROUPING_BASIS, GROUP_ROOT, GROUP_SUBROOT};
use crate::value::compare_opt_values;
use std::cmp::Ordering;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;
use xmlstore::{Dictionary, DocumentStore, NodeColumns, NodeEntry, NodeId, Sym, NO_SYM};

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

/// Identifier-processing grouping (Sec. 5.3): the blocking sink's
/// kernel. The input is stored rows, or none; anything else is refused
/// with [`Error::Unsupported`](crate::Error::Unsupported). One pass folds
/// each row into its keys' groups as it walks it (`fold_groups`), and
/// the groups come out as columns ([`Batch::Groups`]) in first-witness
/// order. A two-author article's witnesses carry different keys, and the
/// article appears in both groups (Fig. 3's non-partitioning
/// semantics); several witnesses of one key (two authors sharing an
/// institution) do not replicate it.
///
/// Returns the groups and the sink's stage times: the pass, the build.
pub fn groupby(
    store: &DocumentStore,
    input: &Batch,
    pattern: &PatternTree,
    basis: &[BasisItem],
    ordering: &[GroupOrder],
) -> Result<(Batch, Stages)> {
    let rows = input.stored()?;
    let dict = store.dict();
    let (mut keys, mut members) = (Vec::new(), Vec::new());
    // Only the grouping and ordering values are read — the "minimum
    // information" sort of Sec. 5.3.
    let group = |kept: &Members, cells: &[NodeEntry], group: &[u32]| {
        // A group's basis cells are its first witness's, whole where they
        // are that witness's row: its first-arrived member's.
        let row = |&m: &u32| kept.members[m as usize].row;
        let first = rows[group.iter().min().map_or(0, row) as usize];
        let deep = |node: NodeEntry| node.id == first.id;
        keys.extend(cells.iter().map(|&node| Cell::Ref {
            node,
            deep: deep(node),
        }));
        members.push(group.iter().map(row).collect());
    };
    let stages = fold_groups(store, rows, pattern, basis, ordering, None, group)?;
    let out = Batch::Groups(Groups {
        rows: rows.to_vec(),
        tags: [GROUP_ROOT, GROUPING_BASIS, GROUP_SUBROOT].map(|tag| dict.intern(tag)),
        keys,
        width: basis.len(),
        members,
        appended: Vec::new(),
    });
    Ok((out, stages))
}

/// Fig. 5d's final projection run in the grouping's pass (`GroupBy →
/// Project`): the groups of the stored `rows` (or none) as [`groupby`]
/// forms them, each walked row keeping its extracts of the `member`
/// path. An output row is the group root over the key cells and the
/// members' extracts, in member order, a group with none dropped; a node
/// that two members of a group reach — rows that nest or repeat — is
/// written once, at its first member. Returns the rows and the stage
/// times: the pass, the build.
pub fn gather(
    store: &DocumentStore,
    input: &Batch,
    pattern: &PatternTree,
    basis: &[BasisItem],
    ordering: &[GroupOrder],
    member: (&PatternTree, PatternNodeId),
) -> Result<(Batch, Stages)> {
    let rows = input.stored()?;
    // Only rows that nest or repeat can reach one node twice.
    let disjoint = rows.windows(2).all(|w| w[0].end < w[1].start);
    let mut written = HashSet::new();
    let mut out = Rows::new(store.dict().intern(GROUP_ROOT));
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
    let stages = fold_groups(store, rows, pattern, basis, ordering, Some(member), gather)?;
    Ok((Batch::Rows(out), stages))
}

/// Fold the stored `rows` into the groups of `pattern` on `basis` in one
/// pass — the rollup's [`Fold`] — each member keeping its `ordering`
/// symbols and, given a `member` path, its extracts; then hand each
/// group, in first-witness order, to `f(kept, keys, members)`: its key
/// cells, and its members (a counting sort by group keeps arrival order)
/// sorted by the ordering list, arrival breaking ties. Returns the
/// stage times: the pass, the build.
fn fold_groups(
    store: &DocumentStore,
    rows: &[NodeEntry],
    pattern: &PatternTree,
    basis: &[BasisItem],
    ordering: &[GroupOrder],
    member: Option<(&PatternTree, PatternNodeId)>,
    mut f: impl FnMut(&Members, &[NodeEntry], &[u32]),
) -> Result<Stages> {
    validate(pattern, basis, ordering)?;
    let clock = Instant::now();
    let labels: Vec<PatternNodeId> = (basis.iter().map(|b| b.label))
        .chain(ordering.iter().map(|o| o.label))
        .collect();
    let width = basis.len();
    // A row usually joins a group or more, with an extract.
    let kept = Members {
        basis: width,
        nodes: Vec::with_capacity(member.map_or(0, |_| rows.len())),
        members: Vec::with_capacity(rows.len()),
        ..Members::default()
    };
    let fold = Fold::run(store, rows, pattern, &labels, width..=width, member, kept)?;
    let pass = clock.elapsed();
    let (level, kept) = (&fold.levels[0], &fold.kept);
    let groups = level.groups.len();
    let mut starts = vec![0; groups + 1];
    for m in &kept.members {
        starts[m.group as usize + 1] += 1;
    }
    for g in 0..groups {
        starts[g + 1] += starts[g];
    }
    let (mut at, mut order) = (starts.clone(), vec![0; kept.members.len()]);
    for (i, m) in (0..).zip(&kept.members) {
        order[at[m.group as usize]] = i;
        at[m.group as usize] += 1;
    }
    let n = ordering.len();
    let syms = |m: u32| &kept.sort[m as usize * n..][..n];
    for (g, span) in starts.windows(2).enumerate() {
        let group = &mut order[span[0]..span[1]];
        sort_members(store.dict(), group, ordering, |&m| m, syms);
        f(kept, &level.keys[g * width..][..width], group);
    }
    Ok(vec![('p', pass), ('b', clock.elapsed() - pass)])
}

/// What grouping keeps of the rows it folds: each group's members — the
/// rows that joined it, each at its first witness there, in arrival
/// order — and each row's extracts of the member path, when one is
/// walked ([`gather`]).
#[derive(Default)]
struct Members {
    /// The current row, and its extracts as its member bindings reach
    /// them; once it joins a group, their run in `nodes`: in document
    /// order, each once, one inside the last kept dropped (it is part of
    /// that deep extract).
    row: u32,
    pending: Vec<NodeEntry>,
    placed: Option<(u32, u32)>,
    nodes: Vec<NodeEntry>,
    members: Vec<Member>,
    /// Each member's ordering symbols: its first witness's nodes for the
    /// labels after the `basis` ones.
    sort: Vec<u32>,
    basis: usize,
}

/// A row in a group: the row, its run of extracts and the group.
struct Member {
    row: u32,
    run: (u32, u32),
    group: u32,
}

// Inlined into the fold's loop, as the rollup's `Agg` is.
impl Kept for Members {
    /// A group's members name it.
    type Group = ();

    #[inline]
    fn row(&mut self, row: u32) {
        self.row = row;
        self.pending.clear();
        self.placed = None;
    }

    #[inline]
    fn member(&mut self, cols: &NodeColumns, id: u32) {
        self.pending.push(cols.entry(NodeId(id)));
    }

    #[inline]
    fn join(&mut self, cols: &NodeColumns, gid: usize, _: &mut (), ids: &[u32]) {
        let run = *self.placed.get_or_insert_with(|| {
            self.pending.sort_unstable_by_key(|e| e.start);
            self.pending.dedup_by(|e, kept| e.start < kept.end);
            let start = self.nodes.len() as u32;
            self.nodes.extend_from_slice(&self.pending);
            (start, self.nodes.len() as u32)
        });
        let (row, group) = (self.row, gid as u32);
        self.members.push(Member { row, run, group });
        let syms = ids[self.basis..]
            .iter()
            .map(|&id| cols.content[id as usize]);
        self.sort.extend(syms);
    }
}

impl Members {
    /// Member `m`'s extracts.
    fn extracts(&self, m: u32) -> &[NodeEntry] {
        let (start, end) = self.members[m as usize].run;
        &self.nodes[start as usize..end as usize]
    }
}

/// Order a group's members by the ordering list, arrival `rank`
/// breaking ties. A member's ordering values are the `syms` of its rank,
/// content symbols whose text is resolved here, once per member, for
/// the numeric-aware comparison.
pub(crate) fn sort_members<'s, T: Copy>(
    dict: &Dictionary,
    members: &mut [T],
    ordering: &[GroupOrder],
    rank: impl Fn(&T) -> u32,
    syms: impl Fn(u32) -> &'s [u32],
) {
    if ordering.is_empty() {
        return;
    }
    let mut keyed: Vec<(Vec<Option<Arc<str>>>, T)> = members
        .iter()
        .map(|m| {
            let text = |&s: &u32| (s != NO_SYM).then(|| dict.resolve(Sym(s)));
            (syms(rank(m)).iter().map(text).collect(), *m)
        })
        .collect();
    keyed.sort_by(|a, b| compare_sort_keys(&a.0, &b.0, ordering).then(rank(&a.1).cmp(&rank(&b.1))));
    for (slot, (_, m)) in members.iter_mut().zip(keyed) {
        *slot = m;
    }
}

pub(crate) fn validate(
    pattern: &PatternTree,
    basis: &[BasisItem],
    ordering: &[GroupOrder],
) -> Result<()> {
    let mut labels = basis
        .iter()
        .map(|b| b.label)
        .chain(ordering.iter().map(|o| o.label));
    match labels.find(|&label| label >= pattern.len()) {
        Some(label) => Err(crate::error::Error::UnknownLabel(format!("${}", label + 1))),
        None => Ok(()),
    }
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::batch::Matches;
    use crate::ops::keyenc::GroupIndex;
    use crate::ops::project::ProjectItem;
    use crate::ops::witness::witnesses;
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

    /// A random bibliography: articles of up to three authors from a
    /// small pool (an empty one among them), up to two titles (one may
    /// hold a title, one sit under a `<sec>`), a year or none; with
    /// `nest`, an article may hold another.
    pub(crate) fn bibliography(g: &mut smallrand::prop::Gen, nest: bool) -> String {
        fn article(g: &mut smallrand::prop::Gen, nest: bool, depth: usize) -> String {
            let mut a = String::from("<article>");
            for _ in 0..g.usize_in(0, 3) {
                match *g.pick(&["A", "B", "C", "D", ""]) {
                    "" => a.push_str("<author/>"),
                    name => a.push_str(&format!("<author>{name}</author>")),
                }
            }
            for i in 0..g.usize_in(0, 2) {
                let inner = match g.ratio(1, 4) {
                    true => "<title>N</title>",
                    false => "",
                };
                let title = format!("<title>T{}{inner}</title>", g.usize_in(0, 9) + i);
                match g.ratio(1, 4) {
                    true => a.push_str(&format!("<sec>{title}</sec>")),
                    false => a.push_str(&title),
                }
            }
            if g.bool() {
                a.push_str(&format!("<year>{}</year>", 1990 + g.usize_in(0, 20)));
            }
            if nest && depth < 2 && g.ratio(1, 3) {
                a.push_str(&article(g, nest, depth + 1));
            }
            a + "</article>"
        }
        let n = g.usize_in(0, 8);
        let articles: String = (0..n).map(|_| article(g, nest, 0)).collect();
        format!("<bib>{articles}</bib>")
    }

    /// The groups `groupby` folds in one pass, formed from the witness
    /// table: every embedding's key and cells first (`super::witness`),
    /// then groups in first-witness order, a row entering a group once,
    /// members sorted by the ordering list with arrival breaking ties.
    /// The oracle the fold is held to.
    fn witness_table_groups(
        s: &DocumentStore,
        rows: &[NodeEntry],
        p: &PatternTree,
        basis: &[BasisItem],
        ordering: &[GroupOrder],
    ) -> Batch {
        let w = witnesses(s, rows, p, basis, ordering, false).unwrap();
        let mut index = GroupIndex::new(basis.len(), w.tree_idx.len());
        let mut groups: Vec<(u32, Vec<u32>)> = Vec::new();
        for i in 0..w.tree_idx.len() as u32 {
            let gid = index.group(w.key(i), groups.len());
            if gid == groups.len() {
                groups.push((i, Vec::new()));
            }
            let members = &mut groups[gid].1;
            let row = |m: u32| w.tree_idx[m as usize];
            if members.last().map(|&m| row(m)) != Some(row(i)) {
                members.push(i);
            }
        }
        let mut keys = Vec::new();
        let members = groups.into_iter().map(|(first, mut members)| {
            sort_members(s.dict(), &mut members, ordering, |&m| m, |m| w.sort_syms(m));
            let row = rows[w.tree_idx[first as usize] as usize];
            let deep = |node: NodeEntry| Cell::Ref {
                node,
                deep: node.id == row.id,
            };
            keys.extend(w.cells(first).iter().map(|&node| deep(node)));
            members.iter().map(|&m| w.tree_idx[m as usize]).collect()
        });
        let members = members.collect();
        let tags = [GROUP_ROOT, GROUPING_BASIS, GROUP_SUBROOT].map(|t| s.dict().intern(t));
        Batch::Groups(Groups {
            rows: rows.to_vec(),
            tags,
            keys,
            width: basis.len(),
            members,
            appended: Vec::new(),
        })
    }

    #[test]
    fn the_fold_forms_the_witness_tables_groups_on_random_bibliographies() {
        // Star patterns on one and two basis items and a pattern that
        // takes the tables (a content test), under every ordering, over
        // disjoint, nested and repeated rows.
        smallrand::prop::check("fold_forms_the_witness_tables_groups", 200, |g| {
            let nest = g.bool();
            let xml_text = bibliography(g, nest);
            let s = DocumentStore::from_xml(&xml_text, &StoreOptions::in_memory()).unwrap();
            let mut p = PatternTree::with_root(Pred::tag("article"));
            let author = match g.ratio(1, 4) {
                true => Pred::tag("author").and(Pred::content_contains("A")),
                false => Pred::tag("author"),
            };
            let author = p.add_child(p.root(), Axis::Child, author);
            let title = p.add_child(p.root(), Axis::Descendant, Pred::tag("title"));
            let year = p.add_child(p.root(), Axis::Child, Pred::tag("year"));
            let mut basis = vec![BasisItem::content(author)];
            if g.ratio(1, 3) {
                basis.push(BasisItem::content(*g.pick(&[year, title, p.root()])));
            }
            let direction = *g.pick(&[Direction::Ascending, Direction::Descending]);
            let label = *g.pick(&[title, year, author, p.root()]);
            let ordering = match g.bool() {
                true => vec![GroupOrder { label, direction }],
                false => Vec::new(),
            };
            let article = s.tag_id("article");
            let mut rows = article.map_or_else(Vec::new, |t| s.nodes_with_tag(t).to_vec());
            if g.ratio(1, 4) && !rows.is_empty() {
                let again = rows[g.usize_in(0, rows.len() - 1)];
                rows.push(again);
                rows.sort_by_key(|e| e.id);
            }
            let input = Batch::Stored(rows.clone());
            let (folded, _) = groupby(&s, &input, &p, &basis, &ordering).unwrap();
            let want = witness_table_groups(&s, &rows, &p, &basis, &ordering);
            assert_eq!(folded, want, "{xml_text}");
            assert_eq!(lines(&s, &folded), lines(&s, &want));
        });
    }
}
