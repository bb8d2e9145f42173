//! What flows between operators: a batch of rows that is either a list
//! of stored nodes or a list of in-memory trees.
//!
//! Most collections a plan moves are not trees anyone built: the article
//! collection a scan hands to `GROUPBY` is a list of stored nodes, each
//! standing for its whole subtree (Sec. 5.3, "witness trees held as node
//! identifiers"). [`Batch::Stored`] says so by type, and the operators
//! that only read keys out of their input (the grouping sinks) work on
//! the labels directly. [`Batch::into_trees`] is the one place a stored
//! row becomes a one-node [`Tree`], for operators that construct or walk
//! arena trees. [`Source`] is the borrowed view the kernels read, so the
//! public `&Collection` entry points — classified once, on entry — and
//! the executor's batches reach the same code. DESIGN.md, *Binding
//! tables*.

use crate::matching::vnode::VNode;
use crate::tree::{Collection, Tree, TreeNodeId, TreeNodeKind};
use std::borrow::Cow;
use xmlstore::NodeEntry;

/// One batch of operator output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Batch {
    /// Each row is one stored node standing for its whole subtree — what
    /// `Tree::new_ref(node, true)` would be, without the tree.
    Stored(Vec<NodeEntry>),
    /// Each row is an in-memory tree.
    Trees(Vec<Tree>),
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
            Batch::Trees(trees) => trees.len(),
        }
    }

    /// Whether the batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the rows are stored nodes.
    pub fn is_stored(&self) -> bool {
        matches!(self, Batch::Stored(_))
    }

    /// The rows as trees: a stored row becomes the one-node deep
    /// reference it stands for.
    pub fn into_trees(self) -> Vec<Tree> {
        match self {
            Batch::Stored(rows) => rows.into_iter().map(|e| Tree::new_ref(e, true)).collect(),
            Batch::Trees(trees) => trees,
        }
    }

    /// Append the rows of `other`. Stored rows stay stored only among
    /// stored rows; a mix becomes trees.
    pub fn append(&mut self, other: Batch) {
        match (&mut *self, other) {
            (Batch::Stored(rows), Batch::Stored(more)) => rows.extend(more),
            (all, more) if all.is_empty() => *all = more,
            (_, more) => {
                let mut trees = std::mem::take(self).into_trees();
                trees.extend(more.into_trees());
                *self = Batch::Trees(trees);
            }
        }
    }
}

/// A borrowed operator input: stored rows or trees.
#[derive(Debug, Clone)]
pub enum Source<'a> {
    /// Stored nodes, each standing for its whole subtree.
    Stored(Cow<'a, [NodeEntry]>),
    /// In-memory trees.
    Trees(&'a [Tree]),
}

impl<'a> From<&'a Batch> for Source<'a> {
    fn from(batch: &'a Batch) -> Self {
        match batch {
            Batch::Stored(rows) => Source::Stored(Cow::Borrowed(rows)),
            Batch::Trees(trees) => Source::Trees(trees),
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
            _ => Source::Trees(trees),
        }
    }
}

impl Source<'_> {
    /// Copy row `row` (whole) under `parent` of `tree`.
    pub(crate) fn append_row(&self, row: usize, tree: &mut Tree, parent: TreeNodeId) {
        match self {
            Source::Stored(rows) => tree.add_ref(parent, rows[row], true),
            Source::Trees(trees) => tree.append_subtree(parent, &trees[row], trees[row].root()),
        };
    }

    /// Copy node `cell` of row `row` under `parent` of `tree`: the node
    /// alone, or with its subtree when `deep`. A node that *is* the row
    /// keeps the depth the row has — a stored row is its whole subtree.
    pub(crate) fn append_cell(
        &self,
        row: usize,
        cell: VNode,
        deep: bool,
        tree: &mut Tree,
        parent: TreeNodeId,
    ) {
        match (self, cell) {
            (Source::Stored(rows), VNode::Stored(e)) => {
                tree.add_ref(parent, e, deep || e.id == rows[row].id)
            }
            (Source::Trees(_), VNode::Stored(e)) => tree.add_ref(parent, e, deep),
            (Source::Trees(trees), VNode::Arena(i)) if deep => {
                tree.append_subtree(parent, &trees[row], i)
            }
            (Source::Trees(trees), VNode::Arena(i)) => {
                tree.add_node(parent, trees[row].node(i).kind.clone())
            }
            (Source::Stored(_), VNode::Arena(_)) => unreachable!("a stored row has no arena nodes"),
        };
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
        assert!(!all.is_stored());
        assert_eq!(all.len(), 3);
        let mut trees = Batch::Trees(vec![Tree::new_elem(s.dict(), "x")]);
        trees.append(Batch::Stored(rows));
        assert_eq!(trees.len(), 3);
        assert!(!trees.is_stored());
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
