//! What flows between operators: an operator's whole output, one batch
//! of rows that is a list of stored nodes, of a selection's match rows,
//! of groups, or of one-level rows. No operator takes a tree.
//!
//! The collections a plan moves are not trees anyone built (Sec. 5.3,
//! "witness trees held as node identifiers"): the article collection a
//! scan hands to `GROUPBY` is stored nodes, each standing for its whole
//! subtree; a selection's witness trees are rows of the binding table it
//! matched; groups, and the left outer join's pairs (Fig. 8), are key
//! cells, member row ordinals and appended aggregate cells.
//! [`Batch::Stored`], [`Batch::Matches`] and [`Batch::Groups`] say so by
//! type, operators that read only keys or paths out of them work on the
//! labels, and the output operators emit [`Batch::Rows`]. A tree is what
//! a batch renders into, for output and for the figures:
//! [`Batch::into_trees`] is the one place a row becomes a [`Tree`].
//! [`Source`] is the stored rows a grouping sink reads, taken from a
//! batch or from a public `&Collection` of deep references; any other
//! input is refused. DESIGN.md, *Binding tables*.

use crate::error::{Error, Result};
use crate::matching::{match_db, Bindings};
use crate::ops::project::ProjectItem;
use crate::ops::select::{chain_bound, keeps_witness, witness_tree};
use crate::pattern::{PatternNodeId, PatternTree};
use crate::tree::{populate, Collection, Results, Tree, TreeNodeKind, CHUNK};
use std::borrow::Cow;
use std::ops::Deref;
use std::sync::Arc;
use xmlparse::XmlWriter;
use xmlstore::{DocumentStore, NodeEntry, Sym, Tape};

/// An operator's output: every row it emits, in order.
#[derive(Debug, Clone, PartialEq)]
pub enum Batch {
    /// Each row is one stored node standing for its whole subtree — what
    /// `Tree::new_ref(node, true)` would be, without the tree.
    Stored(Vec<NodeEntry>),
    /// Each row is one row of a selection's binding table — the witness
    /// tree it induces, without the tree.
    Matches(Matches),
    /// Each row is one group over stored rows, held as columns — what
    /// `groupby` and the left outer join emit, and `aggregate` appends
    /// to.
    Groups(Groups),
    /// Each row is a one-level tree held as cells — what the output
    /// operators emit instead of trees.
    Rows(Rows),
}

/// A selection over the stored database: its pattern, adornment list
/// and binding table.
type Selection = (PatternTree, Vec<PatternNodeId>, Bindings);

/// Rows of a selection, as ordinals into its table.
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
    /// themselves. Any other list is refused.
    pub fn project(self, pl: &[ProjectItem]) -> Result<Batch> {
        let (pattern, sl, _) = &*self.scan;
        if let [ProjectItem { label, deep: true }] = *pl {
            if label == pattern.root() || chain_bound(pattern, sl) == Some(label) {
                return Ok(Batch::Stored(self.column(label)));
            }
        }
        if keeps_witness(pattern, sl, pl) {
            return Ok(Batch::Matches(self));
        }
        Err(Error::Unsupported(
            "a fused projection keeps the root, the bound node or the witness".into(),
        ))
    }
}

/// Groups over stored rows: each group's basis children, members and
/// appended cells.
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
    /// The cells `aggregate` appended to each group, in the order it
    /// ran (`afterLastChild($1)`); empty until it runs.
    pub(crate) appended: Vec<Vec<TreeNodeKind>>,
}

impl Groups {
    /// The basis children of group `g`.
    pub(crate) fn key(&self, g: usize) -> &[TreeNodeKind] {
        &self.keys[g * self.width..][..self.width]
    }

    /// The cells appended to group `g`.
    pub(crate) fn appended(&self, g: usize) -> &[TreeNodeKind] {
        self.appended.get(g).map_or(&[], Vec::as_slice)
    }

    /// The stored rows that are group `g`'s members, in member order.
    pub fn member_rows(&self, g: usize) -> Vec<NodeEntry> {
        self.members[g]
            .iter()
            .map(|&m| self.rows[m as usize])
            .collect()
    }

    /// The group trees: `TAX_group_root { TAX_grouping_basis { keys },
    /// TAX_group_subroot { one deep reference per member }, appended }`.
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
                for cell in self.appended(g) {
                    tree.add_node(tree.root(), cell.clone());
                }
                tree
            })
            .collect()
    }
}

/// One-level trees as columns: row `i` is an element `tag` whose
/// children are `cells[starts[i]..starts[i + 1]]`, each a deep stored
/// reference or a constructed element with content. Output population
/// writes a row straight from its cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rows {
    pub(crate) tag: Sym,
    starts: Vec<u32>,
    cells: Vec<TreeNodeKind>,
}

impl Rows {
    /// No rows yet, each to be tagged `tag`.
    pub(crate) fn new(tag: Sym) -> Rows {
        let (starts, cells) = (vec![0], Vec::new());
        Rows { tag, starts, cells }
    }

    /// Append a row of `cells`.
    pub(crate) fn push(&mut self, cells: impl IntoIterator<Item = TreeNodeKind>) {
        self.cells.extend(cells);
        let end = u32::try_from(self.cells.len()).expect("a batch holds under 2^32 cells");
        self.starts.push(end);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// Whether there is no row.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn row(&self, i: usize) -> &[TreeNodeKind] {
        &self.cells[self.starts[i] as usize..self.starts[i + 1] as usize]
    }

    /// The rows as trees: the tag, each cell a child of it.
    pub fn into_trees(self) -> Vec<Tree> {
        let tree = |i| {
            let mut tree = Tree::new_elem_sym(self.tag);
            for cell in self.row(i) {
                tree.add_node(tree.root(), cell.clone());
            }
            tree
        };
        (0..self.len()).map(tree).collect()
    }

    /// Append row `i`'s XML text to `out`: the bytes its tree writes.
    pub fn write_xml(&self, store: &DocumentStore, i: usize, out: &mut String) -> Result<()> {
        let mut one = Rows::new(self.tag);
        one.push(self.row(i).iter().cloned());
        populate(store, &one, &mut XmlWriter::new(out), |_| {}, CHUNK).map(drop)
    }
}

/// A row is recorded as its tree is: the tag, each cell, closed.
impl Results for Rows {
    fn count(&self) -> usize {
        self.len()
    }

    fn emit(&self, store: &DocumentStore, i: usize, out: &mut Tape) -> Result<()> {
        out.open(self.tag);
        for cell in self.row(i) {
            cell.emit_open(store, out)?;
            out.close();
        }
        out.close();
        Ok(())
    }
}

/// No rows.
impl Default for Batch {
    fn default() -> Self {
        Batch::Stored(Vec::new())
    }
}

impl Batch {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Batch::Stored(rows) => rows.len(),
            Batch::Matches(matches) => matches.rows.len(),
            Batch::Groups(groups) => groups.members.len(),
            Batch::Rows(rows) => rows.len(),
        }
    }

    /// Whether the batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The rows as trees: a stored row becomes the one-node deep
    /// reference it stands for, a match its witness tree, a group its
    /// group tree, a one-level row its tree.
    pub fn into_trees(self) -> Vec<Tree> {
        match self {
            Batch::Stored(rows) => rows.into_iter().map(|e| Tree::new_ref(e, true)).collect(),
            Batch::Matches(matches) => matches.trees(),
            Batch::Groups(groups) => groups.trees(),
            Batch::Rows(rows) => rows.into_trees(),
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

/// A grouping sink's input: stored rows, each standing for its whole
/// subtree.
#[derive(Debug, Clone)]
pub struct Source<'a>(Cow<'a, [NodeEntry]>);

impl Deref for Source<'_> {
    type Target = [NodeEntry];
    fn deref(&self) -> &[NodeEntry] {
        &self.0
    }
}

/// A batch is a sink's input when it holds stored rows, or none.
impl<'a> TryFrom<&'a Batch> for Source<'a> {
    type Error = Error;
    fn try_from(batch: &'a Batch) -> Result<Self> {
        match batch {
            Batch::Stored(rows) => Ok(Source(Cow::Borrowed(rows))),
            rows if rows.is_empty() => Ok(Source(Cow::Borrowed(&[]))),
            _ => Err(Error::Unsupported(
                "a grouping sink reads stored rows".into(),
            )),
        }
    }
}

/// A collection is a sink's input when every tree is one deep stored
/// reference: the rows are the referenced nodes.
impl<'a> TryFrom<&'a Collection> for Source<'a> {
    type Error = Error;
    fn try_from(trees: &'a Collection) -> Result<Self> {
        let row = |t: &Tree| match (t.len(), &t.node(t.root()).kind) {
            (1, &TreeNodeKind::Ref { node, deep: true }) => Ok(node),
            _ => Err(Error::Unsupported(
                "a grouping sink reads deep references to stored nodes".into(),
            )),
        };
        Ok(Source(Cow::Owned(
            trees.iter().map(row).collect::<Result<_>>()?,
        )))
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
    fn a_collection_of_deep_references_classifies_as_stored() {
        let (s, rows) = articles();
        let refs: Collection = rows.iter().map(|e| Tree::new_ref(*e, true)).collect();
        assert_eq!(Source::try_from(&refs).unwrap()[..], rows[..]);
        assert!(Source::try_from(&Vec::new()).unwrap().is_empty());
        // A shallow reference or a constructed tree is refused.
        let mut mixed: Collection = rows.iter().map(|e| Tree::new_ref(*e, true)).collect();
        mixed.push(Tree::new_ref(rows[0], false));
        let built = vec![Tree::new_elem(s.dict(), "x")];
        for trees in [mixed, built] {
            let refused = Source::try_from(&trees);
            assert!(matches!(refused, Err(Error::Unsupported(_))), "{refused:?}");
        }
    }
}
