//! Virtual nodes: a uniform view over in-memory tree nodes and stored
//! nodes, so the recursive matcher can walk a heterogeneous data tree
//! whose deep references continue in the store.

use crate::error::Result;
use crate::tree::{Tree, TreeNodeId, TreeNodeKind};
use std::sync::Arc;
use xmlstore::{DocumentStore, NodeColumns, NodeEntry, NodeId, NodeKind, Sym};

/// A node of the *virtual* data tree: either an arena node of the
/// in-memory [`Tree`], or a stored node reached through a deep reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VNode {
    /// An arena node.
    Arena(TreeNodeId),
    /// A stored node (with its containment label).
    Stored(NodeEntry),
}

impl From<NodeEntry> for VNode {
    fn from(e: NodeEntry) -> Self {
        VNode::Stored(e)
    }
}

impl VNode {
    /// The stored entry, if this is a stored node.
    pub fn as_stored(&self) -> Option<NodeEntry> {
        match self {
            VNode::Stored(e) => Some(*e),
            VNode::Arena(_) => None,
        }
    }
}

/// A read view over one in-memory tree plus the store behind its
/// references. The store's label columns are pinned once, at
/// construction, so every structural question about a stored node —
/// tag, children, content symbol — is an array read.
pub struct VTree<'a> {
    store: &'a DocumentStore,
    tree: &'a Tree,
    cols: Arc<NodeColumns>,
}

impl<'a> VTree<'a> {
    /// Wrap a tree.
    pub fn new(store: &'a DocumentStore, tree: &'a Tree) -> Self {
        VTree {
            store,
            tree,
            cols: store.columns(),
        }
    }

    /// The underlying store.
    pub fn store(&self) -> &DocumentStore {
        self.store
    }

    /// The underlying tree.
    pub fn tree(&self) -> &'a Tree {
        self.tree
    }

    /// The virtual root.
    pub fn root(&self) -> VNode {
        VNode::Arena(self.tree.root())
    }

    /// What `v` is made of: the stored node it stands for, or a
    /// constructed element's symbols.
    pub(crate) fn payload(&self, v: VNode) -> Payload {
        match v {
            VNode::Stored(e) => Payload::Stored(e.id),
            VNode::Arena(i) => match &self.tree.node(i).kind {
                TreeNodeKind::Ref { node, .. } => Payload::Stored(node.id),
                TreeNodeKind::Elem { tag, content } => Payload::Elem {
                    tag: *tag,
                    content: *content,
                },
            },
        }
    }

    /// Children of a stored node via the columnar label region: no page
    /// access, attributes filtered out.
    fn stored_children(&self, id: NodeId) -> Vec<VNode> {
        let cols = &*self.cols;
        cols.child_ids(id)
            .filter(|c| cols.kind[c.0 as usize] != NodeKind::Attribute)
            .map(|c| VNode::Stored(cols.entry(c)))
            .collect()
    }

    /// Children of a virtual node, in document order. Attribute nodes of
    /// stored elements are not surfaced as children: pattern trees
    /// address elements only.
    /// Stored-node navigation runs over the columnar label region and
    /// touches no pages.
    pub fn children(&self, v: VNode) -> Result<Vec<VNode>> {
        match v {
            VNode::Arena(i) => match &self.tree.node(i).kind {
                TreeNodeKind::Ref { node, deep: true } => Ok(self.stored_children(node.id)),
                _ => Ok(self
                    .tree
                    .node(i)
                    .children
                    .iter()
                    .map(|&c| VNode::Arena(c))
                    .collect()),
            },
            VNode::Stored(e) => Ok(self.stored_children(e.id)),
        }
    }

    /// All descendants of `v` (excluding `v`), pre-order.
    pub fn descendants(&self, v: VNode) -> Result<Vec<VNode>> {
        let mut out = Vec::new();
        let mut stack = self.children(v)?;
        stack.reverse();
        while let Some(n) = stack.pop() {
            out.push(n);
            let mut kids = self.children(n)?;
            kids.reverse();
            stack.extend(kids);
        }
        Ok(out)
    }

    /// All virtual nodes of the tree, pre-order, root included.
    pub fn all_nodes(&self) -> Result<Vec<VNode>> {
        let mut out = vec![self.root()];
        out.extend(self.descendants(self.root())?);
        Ok(out)
    }

    /// Tag symbol of a virtual node (columnar for stored nodes — no page
    /// access).
    pub fn tag_sym(&self, v: VNode) -> Sym {
        match self.payload(v) {
            Payload::Stored(id) => Sym(self.cols.tag[id.0 as usize]),
            Payload::Elem { tag, .. } => tag,
        }
    }

    /// Tag of a virtual node.
    pub fn tag(&self, v: VNode) -> Result<String> {
        Ok(self.store.dict().resolve(self.tag_sym(v)).to_string())
    }

    /// Content of a virtual node (a data-value look-up for stored nodes).
    pub fn content(&self, v: VNode) -> Result<Option<String>> {
        match v {
            VNode::Arena(i) => self.tree.content_of(self.store, i),
            VNode::Stored(e) => Ok(self.store.content(e.id)?),
        }
    }

    /// Content *symbol* of a virtual node, from the columnar region — no
    /// page access. This is the grouping-key fast path: a key is a
    /// fixed-width sequence of these symbols.
    pub fn content_sym(&self, v: VNode) -> Option<Sym> {
        match self.payload(v) {
            Payload::Stored(id) => self.cols.content_sym(id).map(Sym),
            Payload::Elem { content, .. } => content,
        }
    }
}

/// The two things a virtual node can be made of.
pub(crate) enum Payload {
    /// A stored node, met directly or through a reference.
    Stored(NodeId),
    /// A constructed element.
    Elem {
        /// Its tag.
        tag: Sym,
        /// Its content, if any.
        content: Option<Sym>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlstore::StoreOptions;

    fn store() -> DocumentStore {
        DocumentStore::from_xml(
            "<bib><article year=\"1999\"><title>T1</title><author>Jack</author><author>Jill</author></article></bib>",
            &StoreOptions::in_memory(),
        )
        .unwrap()
    }

    #[test]
    fn arena_children_listed() {
        let s = store();
        let mut t = Tree::new_elem(s.dict(), "root");
        t.add_elem_with_content(s.dict(), t.root(), "a", "1");
        t.add_elem_with_content(s.dict(), t.root(), "b", "2");
        let vt = VTree::new(&s, &t);
        let kids = vt.children(vt.root()).unwrap();
        assert_eq!(kids.len(), 2);
        assert_eq!(vt.tag(kids[0]).unwrap(), "a");
        assert_eq!(vt.content(kids[1]).unwrap().as_deref(), Some("2"));
    }

    #[test]
    fn deep_ref_children_come_from_store() {
        let s = store();
        let article = s.tag_id("article").unwrap();
        let art = s.nodes_with_tag(article)[0];
        let t = Tree::new_ref(art, true);
        let vt = VTree::new(&s, &t);
        let kids = vt.children(vt.root()).unwrap();
        // title + 2 authors; the @year attribute node is filtered out.
        assert_eq!(kids.len(), 3);
        assert_eq!(vt.tag(kids[0]).unwrap(), "title");
    }

    #[test]
    fn shallow_ref_children_are_arena_only() {
        let s = store();
        let article = s.tag_id("article").unwrap();
        let art = s.nodes_with_tag(article)[0];
        let t = Tree::new_ref(art, false);
        let vt = VTree::new(&s, &t);
        assert!(vt.children(vt.root()).unwrap().is_empty());
    }

    #[test]
    fn descendants_cross_the_ref_boundary() {
        let s = store();
        let article = s.tag_id("article").unwrap();
        let art = s.nodes_with_tag(article)[0];
        let mut t = Tree::new_elem(s.dict(), "wrapper");
        t.add_ref(t.root(), art, true);
        let vt = VTree::new(&s, &t);
        let all = vt.all_nodes().unwrap();
        // wrapper + article-ref + title + 2 authors = 5
        assert_eq!(all.len(), 5);
    }

    #[test]
    fn stored_vnode_tag_and_content() {
        let s = store();
        let author = s.tag_id("author").unwrap();
        let a = s.nodes_with_tag(author)[1];
        let t = Tree::new_elem(s.dict(), "x");
        let vt = VTree::new(&s, &t);
        let v = VNode::Stored(a);
        assert_eq!(vt.tag(v).unwrap(), "author");
        assert_eq!(vt.content(v).unwrap().as_deref(), Some("Jill"));
    }
}
