//! The in-memory data tree manipulated by TAX operators.
//!
//! A tree is an arena of nodes; each node is either a **constructed
//! element** (tag + optional content) or a **reference** to a stored node.
//! A *deep* reference stands for the entire stored subtree and is only
//! expanded when the tree is materialized — this is the "identifier
//! processing" of Sec. 5.3: witness trees and group trees circulate as
//! identifiers, and data pages are touched only for the values an operator
//! actually needs.
//!
//! Data population is one walk, run twice per chunk of trees: to list
//! the stored rows whose values it will write, then — after one batched
//! read of them ([`DocumentStore::values`]) — to write them, as XML text
//! ([`Tree::write_xml`], [`write_xml_lines`]) or as the DOM elements of
//! the same bytes ([`Tree::materialize`], [`materialize_all`]).
//! Constructed elements are reported from their symbols; a reference
//! goes through the store's walk over its label columns
//! ([`DocumentStore::emit_open`]) and takes the node's arena children
//! before it closes. Only heap pages are requested, each once a chunk.
//!
//! Constructed nodes carry dictionary [`Sym`]s, not strings: tags like
//! `TAX_group_root` and computed values are interned once into the
//! store's unified dictionary and resolved back to text only at
//! serialization. Tree payloads are therefore fixed-width and `Clone` is
//! a flat memcpy of arena vectors — every clone is counted in a
//! per-thread counter so the executor can surface tree-copy traffic per
//! operator (a query runs on one thread, so no other query's clones
//! land in its window).

use crate::error::Result;
use crate::matching::vnode::VNode;
use std::cell::Cell;
use xmlparse::{Element, ElementBuilder, XmlSink, XmlWriter};
use xmlstore::{Dictionary, DocumentStore, NodeEntry, RowSink, RowWriter, Sym};

/// A collection of data trees — what every TAX operator consumes and
/// produces.
pub type Collection = Vec<Tree>;

/// Arena index of a node within a [`Tree`].
pub type TreeNodeId = usize;

thread_local! {
    /// This thread's count of [`Tree`] clones — the executor's
    /// clone-budget metric.
    static TREE_CLONES: Cell<u64> = const { Cell::new(0) };
}

/// Number of tree clones this thread has performed so far.
pub fn tree_clones() -> u64 {
    TREE_CLONES.get()
}

/// What a tree node is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeNodeKind {
    /// A constructed element, e.g. `TAX_group_root`.
    Elem {
        /// Interned tag name.
        tag: Sym,
        /// Optional interned character content.
        content: Option<Sym>,
    },
    /// A reference to a stored node. With `deep == true` the node stands
    /// for the whole stored subtree; otherwise just for the node itself
    /// (tag and content), with children given explicitly in the arena.
    /// The reference carries the full `(start, end, level)` label — in
    /// TIMBER the label *is* the node identifier — so structural work on
    /// references never reads the record.
    Ref {
        /// The stored node, with its containment label.
        node: NodeEntry,
        /// Whether the entire stored subtree is included.
        deep: bool,
    },
}

/// One arena node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeNode {
    /// Payload.
    pub kind: TreeNodeKind,
    /// Parent arena index (`None` for the root).
    pub parent: Option<TreeNodeId>,
    /// Children arena indices, in order.
    pub children: Vec<TreeNodeId>,
}

/// An ordered, labelled data tree.
#[derive(Debug, PartialEq, Eq)]
pub struct Tree {
    nodes: Vec<TreeNode>,
}

impl Clone for Tree {
    fn clone(&self) -> Self {
        TREE_CLONES.set(TREE_CLONES.get() + 1);
        Tree {
            nodes: self.nodes.clone(),
        }
    }
}

impl Tree {
    /// A tree whose root is a constructed element.
    pub fn new_elem(dict: &Dictionary, tag: impl AsRef<str>) -> Self {
        Self::new_elem_sym(dict.intern(tag.as_ref()))
    }

    /// A tree whose root is a constructed element with an already-interned
    /// tag.
    pub fn new_elem_sym(tag: Sym) -> Self {
        Tree {
            nodes: vec![TreeNode {
                kind: TreeNodeKind::Elem { tag, content: None },
                parent: None,
                children: Vec::new(),
            }],
        }
    }

    /// A tree that is a single (deep) reference to a stored subtree.
    pub fn new_ref(node: NodeEntry, deep: bool) -> Self {
        Tree {
            nodes: vec![TreeNode {
                kind: TreeNodeKind::Ref { node, deep },
                parent: None,
                children: Vec::new(),
            }],
        }
    }

    /// One virtual node as a standalone tree. A stored node becomes a
    /// reference of the requested depth; an arena reference of `src` is
    /// re-issued at the requested depth; a constructed element keeps its
    /// tag and content and, when `deep`, its arena subtree (a deep
    /// reference already stands for its whole stored subtree). `src` is
    /// the tree `VNode::Arena` indexes into (`None` when matching the
    /// stored database, where every binding is `VNode::Stored`).
    pub fn from_vnode(src: Option<&Tree>, v: VNode, deep: bool) -> Self {
        let mut t = Tree {
            nodes: vec![TreeNode {
                kind: Self::vnode_kind(src, v, deep),
                parent: None,
                children: Vec::new(),
            }],
        };
        if let (true, VNode::Arena(i), Some(src)) = (deep, v, src) {
            if matches!(src.nodes[i].kind, TreeNodeKind::Elem { .. }) {
                for &c in &src.nodes[i].children {
                    t.append_subtree(0, src, c);
                }
            }
        }
        t
    }

    /// The payload `v` takes in a tree built at the requested depth.
    pub(crate) fn vnode_kind(src: Option<&Tree>, v: VNode, deep: bool) -> TreeNodeKind {
        match v {
            VNode::Stored(node) => TreeNodeKind::Ref { node, deep },
            VNode::Arena(i) => {
                let src = src.expect("an arena binding implies a source tree");
                match &src.nodes[i].kind {
                    TreeNodeKind::Ref { node, .. } => TreeNodeKind::Ref { node: *node, deep },
                    elem @ TreeNodeKind::Elem { .. } => elem.clone(),
                }
            }
        }
    }

    /// Build a fully materialized tree from a DOM element: text-only
    /// children become the node's content, mixed-content text becomes
    /// `#text` children, attributes are dropped (TAX trees address
    /// attributes through predicates, not as children).
    pub fn from_element(dict: &Dictionary, elem: &xmlparse::Element) -> Self {
        let mut t = Tree::new_elem(dict, &elem.name);
        Self::fill_from_element(dict, &mut t, 0, elem);
        t
    }

    fn fill_from_element(
        dict: &Dictionary,
        t: &mut Tree,
        node: TreeNodeId,
        elem: &xmlparse::Element,
    ) {
        let has_elem_children = elem.children.iter().any(|c| c.as_element().is_some());
        if !has_elem_children {
            let text = elem.text();
            if !text.is_empty() {
                if let TreeNodeKind::Elem { content, .. } = &mut t.node_mut(node).kind {
                    *content = Some(dict.intern(&text));
                }
            }
            return;
        }
        for child in &elem.children {
            match child {
                xmlparse::XmlNode::Element(e) => {
                    let id = t.add_elem(dict, node, &e.name);
                    Self::fill_from_element(dict, t, id, e);
                }
                xmlparse::XmlNode::Text(s) => {
                    if !s.trim().is_empty() {
                        t.add_elem_with_content(dict, node, "#text", s);
                    }
                }
                xmlparse::XmlNode::Comment(_) => {}
            }
        }
    }

    /// The root's arena index (always 0).
    pub fn root(&self) -> TreeNodeId {
        0
    }

    /// Number of arena nodes (deep references count as one).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the arena is empty (never true for a constructed tree).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Immutable access to a node.
    pub fn node(&self, id: TreeNodeId) -> &TreeNode {
        &self.nodes[id]
    }

    /// Mutable access to a node.
    pub fn node_mut(&mut self, id: TreeNodeId) -> &mut TreeNode {
        &mut self.nodes[id]
    }

    /// Append a new node under `parent`, returning its index.
    pub fn add_node(&mut self, parent: TreeNodeId, kind: TreeNodeKind) -> TreeNodeId {
        let id = self.nodes.len();
        self.nodes.push(TreeNode {
            kind,
            parent: Some(parent),
            children: Vec::new(),
        });
        self.nodes[parent].children.push(id);
        id
    }

    /// Append a constructed element under `parent`.
    pub fn add_elem(
        &mut self,
        dict: &Dictionary,
        parent: TreeNodeId,
        tag: impl AsRef<str>,
    ) -> TreeNodeId {
        self.add_elem_sym(parent, dict.intern(tag.as_ref()))
    }

    /// Append a constructed element with an already-interned tag.
    pub fn add_elem_sym(&mut self, parent: TreeNodeId, tag: Sym) -> TreeNodeId {
        self.add_node(parent, TreeNodeKind::Elem { tag, content: None })
    }

    /// Append a constructed element with content under `parent`.
    pub fn add_elem_with_content(
        &mut self,
        dict: &Dictionary,
        parent: TreeNodeId,
        tag: impl AsRef<str>,
        content: impl AsRef<str>,
    ) -> TreeNodeId {
        self.add_elem_with_content_sym(
            parent,
            dict.intern(tag.as_ref()),
            dict.intern(content.as_ref()),
        )
    }

    /// Append a constructed element with already-interned tag and content.
    pub fn add_elem_with_content_sym(
        &mut self,
        parent: TreeNodeId,
        tag: Sym,
        content: Sym,
    ) -> TreeNodeId {
        self.add_node(
            parent,
            TreeNodeKind::Elem {
                tag,
                content: Some(content),
            },
        )
    }

    /// Append a stored-node reference under `parent`.
    pub fn add_ref(&mut self, parent: TreeNodeId, node: NodeEntry, deep: bool) -> TreeNodeId {
        self.add_node(parent, TreeNodeKind::Ref { node, deep })
    }

    /// Insert a new node under `parent` at child position `pos`.
    pub fn insert_node(
        &mut self,
        parent: TreeNodeId,
        pos: usize,
        kind: TreeNodeKind,
    ) -> TreeNodeId {
        let id = self.nodes.len();
        self.nodes.push(TreeNode {
            kind,
            parent: Some(parent),
            children: Vec::new(),
        });
        let pos = pos.min(self.nodes[parent].children.len());
        self.nodes[parent].children.insert(pos, id);
        id
    }

    /// Deep-copy the subtree of `other` rooted at `src` as the last child
    /// of `parent` in `self`. Returns the copied root's index.
    pub fn append_subtree(
        &mut self,
        parent: TreeNodeId,
        other: &Tree,
        src: TreeNodeId,
    ) -> TreeNodeId {
        let new_id = self.add_node(parent, other.nodes[src].kind.clone());
        for &c in &other.nodes[src].children {
            self.append_subtree(new_id, other, c);
        }
        new_id
    }

    /// Pre-order traversal of arena node indices.
    pub fn preorder(&self) -> Vec<TreeNodeId> {
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![self.root()];
        while let Some(n) = stack.pop() {
            out.push(n);
            for &c in self.nodes[n].children.iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// Whether arena node `a` is a (proper) ancestor of `d`.
    pub fn is_ancestor(&self, a: TreeNodeId, d: TreeNodeId) -> bool {
        let mut cur = self.nodes[d].parent;
        while let Some(p) = cur {
            if p == a {
                return true;
            }
            cur = self.nodes[p].parent;
        }
        false
    }

    /// The interned tag of an arena node. For references this reads the
    /// columnar label region — no page access.
    pub fn tag_sym_of(&self, store: &DocumentStore, id: TreeNodeId) -> Sym {
        match &self.nodes[id].kind {
            TreeNodeKind::Elem { tag, .. } => *tag,
            TreeNodeKind::Ref { node, .. } => Sym(store.columns().tag[node.id.0 as usize]),
        }
    }

    /// The tag of an arena node. For references this reads the columnar
    /// label region — no page access.
    pub fn tag_of(&self, store: &DocumentStore, id: TreeNodeId) -> Result<String> {
        Ok(store.tag_name(self.tag_sym_of(store, id)).to_string())
    }

    /// The content of an arena node (a data-value look-up for references).
    pub fn content_of(&self, store: &DocumentStore, id: TreeNodeId) -> Result<Option<String>> {
        match &self.nodes[id].kind {
            TreeNodeKind::Elem { content, .. } => {
                Ok(content.map(|c| store.dict().resolve(c).to_string()))
            }
            TreeNodeKind::Ref { node, .. } => Ok(store.content(node.id)?),
        }
    }

    /// Materialize ("data population", Sec. 5.3) into a DOM element,
    /// expanding deep references through the store.
    pub fn materialize(&self, store: &DocumentStore) -> Result<Element> {
        let mut dom = ElementBuilder::new();
        populate(store, std::slice::from_ref(self), &mut dom, |_| {})?;
        Ok(dom.finish())
    }

    /// Append the tree's XML text to `out` — the same bytes as
    /// serializing [`materialize`](Self::materialize), with no DOM in
    /// between.
    pub fn write_xml(&self, store: &DocumentStore, out: &mut String) -> Result<()> {
        let one = std::slice::from_ref(self);
        populate(store, one, &mut XmlWriter::new(out), |_| {})
    }

    /// Report the subtree at arena node `id` to `out`: a constructed
    /// element from its symbols, a reference through the store's column
    /// walk (its stored subtree too when deep), then — inside either —
    /// the node's arena children. Into a `Vec<NodeId>` this lists the
    /// stored rows whose values it writes, into a [`RowWriter`] it writes.
    fn emit(&self, store: &DocumentStore, id: TreeNodeId, out: &mut impl RowSink) -> Result<()> {
        let node = &self.nodes[id];
        match &node.kind {
            TreeNodeKind::Elem { tag, content } => {
                out.open(*tag);
                if let Some(c) = content {
                    out.text(*c);
                }
            }
            TreeNodeKind::Ref { node: stored, deep } => store.emit_open(stored.id, *deep, out)?,
        }
        for &c in &node.children {
            self.emit(store, c, out)?;
        }
        out.close();
        Ok(())
    }
}

/// Stored values a chunk of output may have pending before they are
/// fetched and written (it closes at the first tree boundary past this):
/// memory is bounded by the chunk's row list and value arena, not by the
/// result, and each chunk reads a heap page once however trees order it.
const CHUNK_VALUES: usize = 1 << 16;

/// Output population (Sec. 5.3) of `trees` into `sink`, a chunk at a
/// time: list the stored rows whose values the chunk's trees write (the
/// walk alone — no output, no page), fetch them in one batched read,
/// then run the walk again over the fetched values, calling `after_each`
/// when a tree is written. Both runs see the projection pinned here.
fn populate<S: XmlSink>(
    store: &DocumentStore,
    trees: &[Tree],
    sink: &mut S,
    mut after_each: impl FnMut(&mut S),
) -> Result<()> {
    let store = &store.snapshot();
    let mut rows = Vec::new();
    let mut rest = trees;
    while !rest.is_empty() {
        rows.clear();
        let mut listed = 0;
        while listed < rest.len() && rows.len() < CHUNK_VALUES {
            rest[listed].emit(store, rest[listed].root(), &mut rows)?;
            listed += 1;
        }
        let fetched = store.values(&rows)?;
        let mut values = fetched.iter();
        let (chunk, after) = rest.split_at(listed);
        let mut out = RowWriter::new(store.dict(), &mut values, sink);
        for tree in chunk {
            tree.emit(store, tree.root(), &mut out)?;
            after_each(out.sink());
        }
        rest = after;
    }
    Ok(())
}

/// Append the XML text of `trees` to `out`, one tree per line.
pub fn write_xml_lines(store: &DocumentStore, trees: &[Tree], out: &mut String) -> Result<()> {
    populate(store, trees, &mut XmlWriter::new(out), |text| {
        text.text("\n")
    })
}

/// Materialize every tree of `trees` as a DOM element.
pub fn materialize_all(store: &DocumentStore, trees: &[Tree]) -> Result<Vec<Element>> {
    let mut out = Vec::with_capacity(trees.len());
    populate(store, trees, &mut ElementBuilder::new(), |dom| {
        out.push(std::mem::take(dom).finish())
    })?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlstore::StoreOptions;

    fn store() -> DocumentStore {
        DocumentStore::from_xml(
            "<bib><article year=\"1999\"><title>Querying XML</title><author>Jack</author></article></bib>",
            &StoreOptions::in_memory(),
        )
        .unwrap()
    }

    #[test]
    fn build_and_navigate() {
        let s = store();
        let d = s.dict();
        let mut t = Tree::new_elem(d, "root");
        let a = t.add_elem(d, t.root(), "a");
        let b = t.add_elem_with_content(d, a, "b", "text");
        assert_eq!(t.len(), 3);
        assert_eq!(t.node(a).parent, Some(t.root()));
        assert_eq!(t.node(t.root()).children, vec![a]);
        assert!(t.is_ancestor(t.root(), b));
        assert!(t.is_ancestor(a, b));
        assert!(!t.is_ancestor(b, a));
        assert!(!t.is_ancestor(a, a));
    }

    #[test]
    fn from_vnode_builds_each_kind_at_the_requested_depth() {
        let s = store();
        let d = s.dict();
        let article = s.nodes_with_tag(s.tag_id("article").unwrap())[0];
        // src: root{ wrap{ leaf="x" }, ref(article, shallow){ marker } }
        let mut src = Tree::new_elem(d, "root");
        let wrap = src.add_elem(d, src.root(), "wrap");
        src.add_elem_with_content(d, wrap, "leaf", "x");
        let r = src.add_ref(src.root(), article, false);
        src.add_elem(d, r, "marker");

        for deep in [false, true] {
            // A stored node is a reference of the requested depth.
            let t = Tree::from_vnode(None, VNode::Stored(article), deep);
            assert_eq!(t, Tree::new_ref(article, deep));
            // An arena reference is re-issued at the requested depth,
            // without the arena children that hung under it.
            let t = Tree::from_vnode(Some(&src), VNode::Arena(r), deep);
            assert_eq!(t, Tree::new_ref(article, deep));
        }
        // A constructed element: the node alone, or its arena subtree.
        let shallow = Tree::from_vnode(Some(&src), VNode::Arena(wrap), false);
        assert_eq!(shallow, Tree::new_elem(d, "wrap"));
        let deep = Tree::from_vnode(Some(&src), VNode::Arena(wrap), true);
        let mut expect = Tree::new_elem(d, "wrap");
        expect.add_elem_with_content(d, 0, "leaf", "x");
        assert_eq!(deep, expect);
    }

    #[test]
    fn preorder_order() {
        let s = store();
        let d = s.dict();
        let mut t = Tree::new_elem(d, "r");
        let a = t.add_elem(d, t.root(), "a");
        let _a1 = t.add_elem(d, a, "a1");
        let _b = t.add_elem(d, t.root(), "b");
        let order: Vec<String> = t
            .preorder()
            .iter()
            .map(|&n| match &t.node(n).kind {
                TreeNodeKind::Elem { tag, .. } => d.resolve(*tag).to_string(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, ["r", "a", "a1", "b"]);
    }

    #[test]
    fn insert_node_at_position() {
        let s = store();
        let d = s.dict();
        let mut t = Tree::new_elem(d, "r");
        let a = t.add_elem(d, t.root(), "a");
        let c = t.add_elem(d, t.root(), "c");
        let b = t.insert_node(
            t.root(),
            1,
            TreeNodeKind::Elem {
                tag: d.intern("b"),
                content: None,
            },
        );
        assert_eq!(t.node(t.root()).children, vec![a, b, c]);
    }

    #[test]
    fn append_subtree_copies_deeply() {
        let s = store();
        let d = s.dict();
        let mut src = Tree::new_elem(d, "s");
        let x = src.add_elem(d, src.root(), "x");
        src.add_elem_with_content(d, x, "y", "v");

        let mut dst = Tree::new_elem(d, "d");
        dst.append_subtree(dst.root(), &src, x);
        assert_eq!(dst.len(), 3);
        let elem = dst.materialize(&s).unwrap();
        let copied = elem.child("x").unwrap();
        assert_eq!(copied.child("y").unwrap().text(), "v");
    }

    #[test]
    fn deep_ref_materializes_stored_subtree() {
        let s = store();
        let article = s.tag_id("article").unwrap();
        let node = s.nodes_with_tag(article)[0];
        let t = Tree::new_ref(node, true);
        let elem = t.materialize(&s).unwrap();
        assert_eq!(elem.name, "article");
        assert_eq!(elem.attr("year"), Some("1999"));
        assert_eq!(elem.children_named("author").count(), 1);
    }

    #[test]
    fn shallow_ref_keeps_only_node_and_arena_children() {
        let s = store();
        let article = s.tag_id("article").unwrap();
        let author = s.tag_id("author").unwrap();
        let art = s.nodes_with_tag(article)[0];
        let auth = s.nodes_with_tag(author)[0];
        // Witness-tree shape: article (shallow) with author (shallow) child.
        let mut t = Tree::new_ref(art, false);
        t.add_ref(t.root(), auth, false);
        let elem = t.materialize(&s).unwrap();
        assert_eq!(elem.name, "article");
        // Shallow article keeps attributes but not the title child.
        assert_eq!(elem.attr("year"), Some("1999"));
        assert!(elem.child("title").is_none());
        assert_eq!(elem.child("author").unwrap().text(), "Jack");
    }

    #[test]
    fn tag_and_content_of_refs() {
        let s = store();
        let title = s.tag_id("title").unwrap();
        let node = s.nodes_with_tag(title)[0];
        let t = Tree::new_ref(node, false);
        assert_eq!(t.tag_of(&s, t.root()).unwrap(), "title");
        assert_eq!(t.tag_sym_of(&s, t.root()), title);
        assert_eq!(
            t.content_of(&s, t.root()).unwrap().as_deref(),
            Some("Querying XML")
        );
    }

    #[test]
    fn elem_content_materializes_as_text() {
        let s = store();
        let mut t = Tree::new_elem(s.dict(), "authorpubs");
        t.add_elem_with_content(s.dict(), t.root(), "author", "Jack");
        let e = t.materialize(&s).unwrap();
        assert_eq!(e.child("author").unwrap().text(), "Jack");
    }

    #[test]
    fn clones_are_counted() {
        let s = store();
        let t = Tree::new_elem(s.dict(), "r");
        let before = tree_clones();
        let _c1 = t.clone();
        let _c2 = t.clone();
        assert_eq!(tree_clones() - before, 2);
    }
}
