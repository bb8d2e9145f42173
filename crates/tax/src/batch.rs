//! What flows between operators: a batch of rows that is a list of
//! stored nodes, of a selection's match rows, of groups, or of trees.
//!
//! Most collections a plan moves are not trees anyone built (Sec. 5.3,
//! "witness trees held as node identifiers"): the article collection a
//! scan hands to `GROUPBY` is stored nodes, each standing for its whole
//! subtree; a selection's witness trees are rows of the binding table it
//! matched; groups, and the left outer join's pairs (Fig. 8), are key
//! cells and member row ordinals. [`Batch::Stored`], [`Batch::Matches`]
//! and [`Batch::Groups`] say so by type, and operators that read only
//! keys or paths out of them work on the labels. [`Batch::into_trees`] is
//! the one place a row becomes a [`Tree`]. [`Source`] is the borrowed
//! view the sinks read, so the public `&Collection` entry points —
//! classified once, on entry — and the executor's batches reach the same
//! code. DESIGN.md, *Binding tables*.

use crate::error::{Error, Result};
use crate::matching::{match_db, Bindings};
use crate::ops::project::{project_one, ProjectItem};
use crate::ops::select::{chain_bound, keeps_witness, witness_tree};
use crate::pattern::{PatternNodeId, PatternTree};
use crate::tree::{Collection, Tree, TreeNodeKind};
use std::borrow::Cow;
use std::sync::Arc;
use xmlstore::{DocumentStore, NodeEntry, Sym};

/// One batch of operator output.
#[derive(Debug, Clone, PartialEq)]
pub enum Batch {
    /// Each row is one stored node standing for its whole subtree — what
    /// `Tree::new_ref(node, true)` would be, without the tree.
    Stored(Vec<NodeEntry>),
    /// Each row is one row of a selection's binding table — the witness
    /// tree it induces, without the tree.
    Matches(Matches),
    /// Each row is an in-memory tree.
    Trees(Vec<Tree>),
    /// Each row is one group over stored rows, held as columns — what
    /// `groupby` emits for a `Stored` input, and the left outer join for
    /// its pairs, instead of trees.
    Groups(Groups),
}

/// A selection over the stored database: its pattern, adornment list
/// and binding table.
type Selection = (PatternTree, Vec<PatternNodeId>, Bindings);

/// Rows of a selection, as ordinals into its table (which every batch
/// of one scan shares).
#[derive(Debug, Clone, PartialEq)]
pub struct Matches {
    scan: Arc<Selection>,
    pub(crate) rows: Vec<u32>,
}

impl Matches {
    /// Every row of the match of `pattern`, whose witness trees keep the
    /// subtrees of the `sl` nodes.
    pub fn select(
        store: &DocumentStore,
        pattern: &PatternTree,
        sl: &[PatternNodeId],
    ) -> Result<Matches> {
        let table = match_db(store, pattern)?;
        let rows = (0..table.len() as u32).collect();
        let scan = Arc::new((pattern.clone(), sl.to_vec(), table));
        Ok(Matches { scan, rows })
    }

    /// The rows in runs of at most `size`, in order.
    pub fn chunks(self, size: usize) -> Vec<Matches> {
        let scan = &self.scan;
        let chunk = |rows| Matches {
            scan: Arc::clone(scan),
            rows,
        };
        chunked(self.rows, size).into_iter().map(chunk).collect()
    }

    /// The witness trees of the rows.
    pub(crate) fn trees(&self) -> Vec<Tree> {
        let (pattern, sl, table) = &*self.scan;
        let tree = |&r: &u32| witness_tree(pattern, table.row(r as usize), sl);
        self.rows.iter().map(tree).collect()
    }

    /// The node each row binds to `label`.
    fn column(&self, label: PatternNodeId) -> Vec<NodeEntry> {
        let col = self.scan.2.column(label);
        self.rows.iter().map(|&r| col[r as usize]).collect()
    }

    /// The fused select→project over these rows: their witness trees
    /// projected through the selection's pattern with `pl`, anchored. A
    /// list of one deep node that is the root, or a chain selection's
    /// bound node (`chain_bound`), gives its column as stored rows:
    /// every other node the list could select lies inside it. A list that
    /// keeps each witness tree whole (`keeps_witness`) gives the rows
    /// themselves, any other list the projected trees.
    pub fn project(self, store: &DocumentStore, pl: &[ProjectItem]) -> Result<Batch> {
        let (pattern, sl, _) = &*self.scan;
        if let [ProjectItem { label, deep: true }] = *pl {
            if label == pattern.root() || chain_bound(pattern, sl) == Some(label) {
                return Ok(Batch::Stored(self.column(label)));
            }
        }
        if keeps_witness(pattern, sl, pl) {
            return Ok(Batch::Matches(self));
        }
        let mut out = Vec::new();
        for tree in self.trees() {
            project_one(store, &tree, pattern, pl, true, &mut out)?;
        }
        Ok(Batch::Trees(out))
    }
}

/// Groups over stored rows: each group's basis children and members.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Groups {
    /// The rows the members index: the sink's whole input.
    pub(crate) rows: Vec<NodeEntry>,
    /// Tags of `TAX_group_root`, `TAX_grouping_basis`, `TAX_group_subroot`.
    pub(crate) tags: [Sym; 3],
    /// The basis children of every group, `width` (basis items) a group.
    pub(crate) keys: Vec<TreeNodeKind>,
    pub(crate) width: usize,
    /// Each group's members as ordinals into `rows`, in member order.
    pub(crate) members: Vec<Vec<u32>>,
}

impl Groups {
    /// The basis children of group `g`.
    pub(crate) fn key(&self, g: usize) -> &[TreeNodeKind] {
        &self.keys[g * self.width..][..self.width]
    }

    /// The group trees: `TAX_group_root { TAX_grouping_basis { keys },
    /// TAX_group_subroot { one deep reference per member } }`.
    pub(crate) fn trees(&self) -> Vec<Tree> {
        let [root, basis, subroot] = self.tags;
        (0..self.members.len())
            .map(|g| {
                let mut tree = Tree::new_elem_sym(root);
                let b = tree.add_elem_sym(tree.root(), basis);
                for kind in self.key(g) {
                    tree.add_node(b, kind.clone());
                }
                let s = tree.add_elem_sym(tree.root(), subroot);
                for &m in &self.members[g] {
                    tree.add_ref(s, self.rows[m as usize], true);
                }
                tree
            })
            .collect()
    }
}

/// `items` in runs of `size` (at least one), moved.
fn chunked<T>(items: Vec<T>, size: usize) -> Vec<Vec<T>> {
    let mut items = items.into_iter();
    std::iter::from_fn(|| Some(items.by_ref().take(size.max(1)).collect::<Vec<T>>()))
        .take_while(|chunk| !chunk.is_empty())
        .collect()
}

impl Default for Batch {
    fn default() -> Self {
        Batch::Trees(Vec::new())
    }
}

impl Batch {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Batch::Stored(rows) => rows.len(),
            Batch::Matches(matches) => matches.rows.len(),
            Batch::Trees(trees) => trees.len(),
            Batch::Groups(groups) => groups.members.len(),
        }
    }

    /// Whether the batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The rows as trees: a stored row becomes the one-node deep
    /// reference it stands for, a match its witness tree, a group its
    /// group tree.
    pub fn into_trees(self) -> Vec<Tree> {
        match self {
            Batch::Stored(rows) => rows.into_iter().map(|e| Tree::new_ref(e, true)).collect(),
            Batch::Matches(matches) => matches.trees(),
            Batch::Trees(trees) => trees,
            Batch::Groups(groups) => groups.trees(),
        }
    }

    /// The rows in batches of at most `size` (at least one), in order —
    /// groups in one batch: their consumer matches the member path once
    /// over all the rows they share.
    pub fn into_chunks(self, size: usize) -> Vec<Batch> {
        match self {
            Batch::Stored(rows) => chunked(rows, size).into_iter().map(Batch::Stored).collect(),
            Batch::Matches(rows) => rows.chunks(size).into_iter().map(Batch::Matches).collect(),
            Batch::Trees(trees) => chunked(trees, size).into_iter().map(Batch::Trees).collect(),
            groups => vec![groups],
        }
    }

    /// Append the rows of `other`. An empty batch becomes `other`; stored
    /// rows stay stored among stored rows, and matches among matches of
    /// one scan; anything else becomes trees.
    pub fn append(&mut self, other: Batch) {
        match (&mut *self, other) {
            (all, more) if all.is_empty() => *all = more,
            (Batch::Stored(rows), Batch::Stored(more)) => rows.extend(more),
            (Batch::Matches(all), Batch::Matches(more)) if Arc::ptr_eq(&all.scan, &more.scan) => {
                all.rows.extend(more.rows)
            }
            (_, more) => {
                let mut trees = std::mem::take(self).into_trees();
                trees.extend(more.into_trees());
                *self = Batch::Trees(trees);
            }
        }
    }

    /// The node each row binds to `by`, for an operator keying the rows
    /// by it under `pattern`: a selection's rows bound there
    /// ([`chain_bound`]) read it off the table, and an empty batch binds
    /// none. Other rows are refused.
    pub(crate) fn bound(&self, pattern: &PatternTree, by: PatternNodeId) -> Result<Vec<NodeEntry>> {
        let binds = |(p, sl, _): &Selection| p == pattern && chain_bound(p, sl) == Some(by);
        match self {
            Batch::Matches(m) if binds(&m.scan) => Ok(m.column(by)),
            rows if rows.is_empty() && by < pattern.len() => Ok(Vec::new()),
            _ => Err(Error::Unsupported("keys by a scan's bound node".into())),
        }
    }
}

/// A borrowed operator input: stored rows or trees.
#[derive(Debug, Clone)]
pub enum Source<'a> {
    /// Stored nodes, each standing for its whole subtree.
    Stored(Cow<'a, [NodeEntry]>),
    /// In-memory trees.
    Trees(Cow<'a, [Tree]>),
}

/// A sink's drained input: matches and groups are read as their trees.
impl<'a> From<&'a Batch> for Source<'a> {
    fn from(batch: &'a Batch) -> Self {
        match batch {
            Batch::Stored(rows) => Source::Stored(Cow::Borrowed(rows)),
            Batch::Matches(matches) => Source::Trees(Cow::Owned(matches.trees())),
            Batch::Trees(trees) => Source::Trees(Cow::Borrowed(trees)),
            Batch::Groups(groups) => Source::Trees(Cow::Owned(groups.trees())),
        }
    }
}

/// A collection is classified once: when every tree is one deep stored
/// reference, the rows are the referenced nodes.
impl<'a> From<&'a Collection> for Source<'a> {
    fn from(trees: &'a Collection) -> Self {
        let rows: Option<Vec<NodeEntry>> = trees
            .iter()
            .map(|t| match (t.len(), &t.node(t.root()).kind) {
                (1, &TreeNodeKind::Ref { node, deep: true }) => Some(node),
                _ => None,
            })
            .collect();
        match rows {
            Some(rows) if !rows.is_empty() => Source::Stored(Cow::Owned(rows)),
            _ => Source::Trees(Cow::Borrowed(trees)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlstore::{DocumentStore, StoreOptions};

    fn articles() -> (DocumentStore, Vec<NodeEntry>) {
        let s = DocumentStore::from_xml(
            "<bib><article><t>A</t></article><article><t>B</t></article></bib>",
            &StoreOptions::in_memory(),
        )
        .unwrap();
        let rows = s.nodes_with_tag(s.tag_id("article").unwrap()).to_vec();
        (s, rows)
    }

    #[test]
    fn into_trees_builds_one_deep_reference_per_row() {
        let (_s, rows) = articles();
        let trees = Batch::Stored(rows.clone()).into_trees();
        assert_eq!(trees.len(), 2);
        for (t, e) in trees.iter().zip(&rows) {
            assert_eq!(*t, Tree::new_ref(*e, true));
        }
    }

    #[test]
    fn append_keeps_stored_rows_only_among_stored_rows() {
        let (s, rows) = articles();
        let mut all = Batch::default();
        all.append(Batch::Stored(rows[..1].to_vec()));
        all.append(Batch::Stored(rows[1..].to_vec()));
        assert_eq!(all, Batch::Stored(rows.clone()));
        all.append(Batch::Trees(vec![Tree::new_elem(s.dict(), "x")]));
        assert!(matches!(all, Batch::Trees(_)));
        assert_eq!(all.len(), 3);
        let mut trees = Batch::Trees(vec![Tree::new_elem(s.dict(), "x")]);
        trees.append(Batch::Stored(rows));
        assert_eq!(trees.len(), 3);
        assert!(matches!(trees, Batch::Trees(_)));
    }

    #[test]
    fn a_collection_of_deep_references_classifies_as_stored() {
        let (s, rows) = articles();
        let refs: Collection = rows.iter().map(|e| Tree::new_ref(*e, true)).collect();
        assert!(matches!(Source::from(&refs), Source::Stored(r) if r[..] == rows[..]));
        // A shallow reference, a constructed tree or a tree with arena
        // children keeps the whole collection as trees.
        let mut mixed: Collection = rows.iter().map(|e| Tree::new_ref(*e, true)).collect();
        mixed.push(Tree::new_ref(rows[0], false));
        assert!(matches!(Source::from(&mixed), Source::Trees(_)));
        let built = vec![Tree::new_elem(s.dict(), "x")];
        assert!(matches!(Source::from(&built), Source::Trees(_)));
        assert!(matches!(Source::from(&Vec::new()), Source::Trees(_)));
    }
}
