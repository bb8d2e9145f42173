//! The in-memory data tree that operator rows render into.
//!
//! A tree is an arena of nodes; each node is either a **constructed
//! element** (tag + optional content) or a **reference** to a stored node.
//! A *deep* reference stands for the entire stored subtree and is only
//! expanded when the tree is materialized — the "identifier processing"
//! of Sec. 5.3: data pages are touched only when a tree is written. No
//! operator takes a tree; rows become trees for output and for the
//! figures ([`Batch::into_trees`](crate::Batch::into_trees)).
//!
//! Data population walks each tree once, recording a chunk of trees on
//! a [`Tape`]: its events, and the stored rows whose values it writes.
//! One batched read fetches those rows ([`DocumentStore::values`]) and a
//! [`RowWriter`] replays the tape, as XML text ([`Tree::write_xml`],
//! [`write_xml_lines`]) or as the DOM elements of the same bytes
//! ([`Tree::materialize`], [`materialize_all`]). Constructed elements are
//! recorded from their symbols; a reference goes through the store's walk
//! over its label columns ([`DocumentStore::emit_open`]) and takes the
//! node's arena children before it closes. Only heap pages are
//! requested, each once a chunk.
//!
//! Constructed nodes carry dictionary [`Sym`]s, not strings: tags like
//! `TAX_group_root` and computed values are interned once into the
//! store's unified dictionary and resolved back to text only at
//! serialization. Tree payloads are therefore fixed-width and `Clone` is
//! a flat memcpy of arena vectors.

use crate::error::Result;
use xmlparse::{Element, ElementBuilder, XmlSink, XmlWriter};
use xmlstore::{Dictionary, DocumentStore, NodeEntry, RowWriter, Sym, Tape};

/// A collection of data trees: what a batch of rows renders into.
pub type Collection = Vec<Tree>;

/// Arena index of a node within a [`Tree`].
pub type TreeNodeId = usize;

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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tree {
    nodes: Vec<TreeNode>,
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

    /// Materialize ("data population", Sec. 5.3) into a DOM element,
    /// expanding deep references through the store.
    pub fn materialize(&self, store: &DocumentStore) -> Result<Element> {
        let mut dom = ElementBuilder::new();
        populate(store, std::slice::from_ref(self), &mut dom, |_| {}, CHUNK)?;
        Ok(dom.finish())
    }

    /// Append the tree's XML text to `out` — the same bytes as
    /// serializing [`materialize`](Self::materialize), with no DOM in
    /// between.
    pub fn write_xml(&self, store: &DocumentStore, out: &mut String) -> Result<()> {
        let one = std::slice::from_ref(self);
        populate(store, one, &mut XmlWriter::new(out), |_| {}, CHUNK).map(drop)
    }

    /// Record the subtree at arena node `id` on `out`: the node, then —
    /// inside it — its arena children.
    fn emit(&self, store: &DocumentStore, id: TreeNodeId, out: &mut Tape) -> Result<()> {
        let node = &self.nodes[id];
        node.kind.emit_open(store, out)?;
        for &c in &node.children {
            self.emit(store, c, out)?;
        }
        out.close();
        Ok(())
    }
}

impl TreeNodeKind {
    /// Record the node on `out` and leave it open: a constructed element
    /// from its symbols, a reference through the store's column walk
    /// (its stored subtree too when deep).
    pub(crate) fn emit_open(&self, store: &DocumentStore, out: &mut Tape) -> Result<()> {
        match self {
            TreeNodeKind::Elem { tag, content } => {
                out.open(*tag);
                if let Some(c) = content {
                    out.text(*c);
                }
            }
            TreeNodeKind::Ref { node, deep } => store.emit_open(node.id, *deep, out)?,
        }
        Ok(())
    }
}

/// Results that output population writes, one at a time: trees, or the
/// rows of a [`Rows`](crate::batch::Rows).
pub trait Results {
    /// Number of results.
    fn count(&self) -> usize;

    /// Record result `i` on `out`, closed.
    fn emit(&self, store: &DocumentStore, i: usize, out: &mut Tape) -> Result<()>;
}

impl Results for [Tree] {
    fn count(&self) -> usize {
        self.len()
    }

    fn emit(&self, store: &DocumentStore, i: usize, out: &mut Tape) -> Result<()> {
        self[i].emit(store, self[i].root(), out)
    }
}

/// Stored values, and events, a chunk of output may record before it is
/// fetched and written (it closes at the first tree boundary past
/// either): memory is bounded by the chunk's tape and value arena, not
/// by the result — the event bound keeps a result of constructed
/// elements alone bounded too — and each chunk reads a heap page once
/// however trees order it.
const CHUNK_VALUES: usize = 1 << 16;
const CHUNK_EVENTS: usize = 1 << 18;
pub(crate) const CHUNK: (usize, usize) = (CHUNK_VALUES, CHUNK_EVENTS);

/// Output population (Sec. 5.3) of `results` into `sink`, a chunk at a
/// time: walk the chunk's results once onto a tape (no output, no page),
/// fetch the tape's stored values in one batched read, then replay the
/// tape, calling `after_each` where a result ends. A chunk closes at
/// `bounds` = (values, events). Every chunk sees the projection pinned
/// here. Returns the number of chunks written.
pub(crate) fn populate<S: XmlSink, R: Results + ?Sized>(
    store: &DocumentStore,
    results: &R,
    sink: &mut S,
    mut after_each: impl FnMut(&mut S),
    bounds: (usize, usize),
) -> Result<usize> {
    let store = &store.snapshot();
    let mut out = RowWriter::new(store.dict(), sink);
    let mut tape = Tape::default();
    let mut chunks = 0;
    for i in 0..results.count() {
        results.emit(store, i, &mut tape)?;
        tape.end_tree();
        let full = tape.rows().len() >= bounds.0 || tape.events() >= bounds.1;
        if full || i + 1 == results.count() {
            let values = store.values(tape.rows())?;
            out.replay(&tape, &values, &mut after_each);
            tape.clear();
            chunks += 1;
        }
    }
    Ok(chunks)
}

/// Append the XML text of `results` to `out`, one result per line.
pub fn write_xml_lines<R: Results + ?Sized>(
    store: &DocumentStore,
    results: &R,
    out: &mut String,
) -> Result<()> {
    let newline = |text: &mut XmlWriter| text.text("\n");
    populate(store, results, &mut XmlWriter::new(out), newline, CHUNK).map(drop)
}

/// Materialize every result of `results` as a DOM element.
pub fn materialize_all<R: Results + ?Sized>(
    store: &DocumentStore,
    results: &R,
) -> Result<Vec<Element>> {
    let mut out = Vec::with_capacity(results.count());
    let finish = |dom: &mut ElementBuilder| out.push(std::mem::take(dom).finish());
    populate(store, results, &mut ElementBuilder::new(), finish, CHUNK)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Batch;
    use smallrand::prop::Gen;
    use std::fmt::Write as _;
    use xmlparse::serialize::element_to_string;
    use xmlstore::{FaultConfig, StoreOptions};

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
        // A shallow reference writes its stored node's tag and content.
        let s = store();
        let title = s.tag_id("title").unwrap();
        let t = Tree::new_ref(s.nodes_with_tag(title)[0], false);
        let mut out = String::new();
        t.write_xml(&s, &mut out).unwrap();
        assert_eq!(out, "<title>Querying XML</title>");
    }

    #[test]
    fn elem_content_materializes_as_text() {
        let s = store();
        let mut t = Tree::new_elem(s.dict(), "authorpubs");
        t.add_elem_with_content(s.dict(), t.root(), "author", "Jack");
        let e = t.materialize(&s).unwrap();
        assert_eq!(e.child("author").unwrap().text(), "Jack");
    }

    /// A random bibliography of `articles` articles: authors from a pool
    /// of five, attributes on some articles (one with escaped quotes),
    /// titles that need escaping, mixed content in some.
    fn bibliography(g: &mut Gen, articles: usize) -> String {
        const POOL: [&str; 5] = ["Jack", "Jill", "John", "Jane", "Joan"];
        let mut s = String::from("<bib>");
        for n in 0..articles {
            s.push_str("<article");
            if g.bool() {
                let _ = write!(s, " year=\"{}\"", 1999 + n % 3);
            }
            if g.ratio(1, 4) {
                s.push_str(" key=\"a&amp;b &quot;q&quot;\"");
            }
            s.push('>');
            for _ in 0..g.usize_in(1, 3) {
                let _ = write!(s, "<author>{}</author>", g.pick(&POOL));
            }
            let word = g.ident(12);
            let _ = write!(s, "<title>Title {n}: &lt;{word}&gt; &amp; more</title>");
            if g.ratio(1, 3) {
                s.push_str("<note>see <i>this</i> too</note>");
            }
            s.push_str("</article>");
        }
        s.push_str("</bib>");
        s
    }

    /// Query 1's output shape over `s`, and stored parts of every kind:
    /// per author row, `<authorpubs>` holding the name and a deep
    /// reference to its article; per article, a deep reference, and a
    /// shallow one holding deep references to its authors.
    fn result_of(s: &DocumentStore) -> Vec<Tree> {
        let d = s.dict();
        let (article, author) = (s.tag_id("article").unwrap(), s.tag_id("author").unwrap());
        let mut trees = Vec::new();
        for a in s.nodes_with_tag(author) {
            let mut t = Tree::new_elem(d, "authorpubs");
            t.add_elem_with_content_sym(0, author, s.content_sym(a.id).unwrap());
            let parent = s.parent(a.id).unwrap().unwrap();
            t.add_ref(0, s.entry(parent).unwrap(), true);
            trees.push(t);
        }
        for art in s.nodes_with_tag(article) {
            trees.push(Tree::new_ref(art, true));
            let mut shallow = Tree::new_ref(art, false);
            for c in s.children(art.id).unwrap() {
                if Sym(s.columns().tag[c.0 as usize]) == author {
                    shallow.add_ref(0, s.entry(c).unwrap(), true);
                }
            }
            trees.push(shallow);
        }
        trees
    }

    /// `results` populated at `bounds` by both routes: the text, one
    /// result a line, and the DOM elements — which must serialize to that
    /// text — with the number of chunks written.
    fn populate_with<R: Results + ?Sized>(
        s: &DocumentStore,
        results: &R,
        bounds: (usize, usize),
    ) -> (String, Vec<Element>, usize) {
        let mut text = String::new();
        let newline = |w: &mut XmlWriter| w.text("\n");
        let chunks = populate(s, results, &mut XmlWriter::new(&mut text), newline, bounds).unwrap();
        let mut dom = Vec::new();
        let finish = |b: &mut ElementBuilder| dom.push(std::mem::take(b).finish());
        let dom_chunks = populate(s, results, &mut ElementBuilder::new(), finish, bounds).unwrap();
        assert_eq!(dom_chunks, chunks);
        let lines: String = dom.iter().map(|e| element_to_string(e) + "\n").collect();
        assert_eq!(lines, text, "the DOM route at {chunks} chunks");
        (text, dom, chunks)
    }

    /// [`populate_with`]'s text and chunk count.
    fn populate_at(s: &DocumentStore, trees: &[Tree], bounds: (usize, usize)) -> (String, usize) {
        let (text, _, chunks) = populate_with(s, trees, bounds);
        (text, chunks)
    }

    /// Every bound of 1, 2, 3 and 7 values, or events, writes the bytes
    /// of one chunk, in as many chunks as the bound asks for.
    fn assert_chunkings_agree(s: &DocumentStore, trees: &[Tree]) {
        let (one, chunks) = populate_at(s, trees, CHUNK);
        assert_eq!(chunks, 1);
        let stored = trees.iter().any(|t| {
            let mut tape = Tape::default();
            t.emit(s, t.root(), &mut tape).unwrap();
            !tape.rows().is_empty()
        });
        for bound in [1, 2, 3, 7] {
            let (text, chunks) = populate_at(s, trees, (bound, usize::MAX));
            assert_eq!(text, one, "{bound} values a chunk");
            assert_eq!(chunks > 1, stored, "{chunks} chunks at {bound} values");
            let (text, chunks) = populate_at(s, trees, (usize::MAX, bound));
            assert_eq!(text, one, "{bound} events a chunk");
            let split = chunks > 1 && (bound > 1 || chunks == trees.len());
            assert!(split, "{chunks} chunks at {bound} events");
        }
    }

    #[test]
    fn every_chunking_writes_the_bytes_of_one_chunk() {
        let fig6 = "<bib>\
            <article><author>Jack</author><author>John</author><title>Querying XML</title></article>\
            <article><author>Jill</author><author>Jack</author><title>XML and the Web</title></article>\
            <article><author>John</author><title>Hack HTML</title></article>\
        </bib>";
        let random = bibliography(&mut Gen::new(32), 9);
        for xml in [fig6, &random] {
            let s = DocumentStore::from_xml(xml, &StoreOptions::in_memory()).unwrap();
            assert_chunkings_agree(&s, &result_of(&s));
        }
        // Constructed elements alone read no value: only the event bound
        // splits them.
        let s = store();
        let constructed: Vec<Tree> = (0..6)
            .map(|i| {
                let mut t = Tree::new_elem(s.dict(), "row");
                t.add_elem_with_content(s.dict(), 0, "n", format!("{i} & <{i}>"));
                t
            })
            .collect();
        assert_chunkings_agree(&s, &constructed);
    }

    /// Query 1, its count variant and `CUBE BY $b/author, $b/title`
    /// over `s` as both plans' output operators emit them, renamed as
    /// the plans do: the GROUPBY plans' gather, flat fold and lattice over
    /// the scan's stored rows, and the direct plans' stitch over the
    /// distinct authors and their join with the articles.
    fn paper_outputs(s: &DocumentStore) -> Vec<(&'static str, Batch)> {
        use crate::batch::Matches;
        use crate::ops::join::{stitch, Members};
        use crate::ops::project::{ProjectItem, Projection};
        use crate::ops::{cube, dup_elim, groupby, left_outer_join_db, rename_root, rollup};
        use crate::ops::{AggFunc, BasisItem, RollupShape};
        use crate::pattern::{Axis, PatternTree, Pred};
        use crate::tags::{GROUPING_BASIS, GROUP_ROOT, GROUP_SUBROOT};
        let tag = |t: &str| Pred::tag(t);
        let articles = Batch::Stored(s.nodes_with_tag(s.tag_id("article").unwrap()).to_vec());
        let mut scan = PatternTree::with_root(tag("article"));
        let author = scan.add_child(0, Axis::Child, tag("author"));
        let title = scan.add_child(0, Axis::Child, tag("title"));
        let by_author = [BasisItem::content(author)];
        let mut fig5d = PatternTree::with_root(tag(GROUP_ROOT));
        let basis = fig5d.add_child(0, Axis::Child, tag(GROUPING_BASIS));
        let key = fig5d.add_child(basis, Axis::Child, tag("author"));
        let subroot = fig5d.add_child(0, Axis::Child, tag(GROUP_SUBROOT));
        let member = fig5d.add_child(subroot, Axis::Child, tag("article"));
        let extract = fig5d.add_child(member, Axis::Child, tag("title"));
        let pl = [0, key, extract].map(ProjectItem::deep);
        let pl = [ProjectItem::shallow(0), pl[1], pl[2]];
        let gather = Projection::new(&fig5d, &pl, true, Some((&scan, &by_author[..])), None);
        let (groups, _) = groupby(s, &articles, &scan, &by_author, &[]).unwrap();
        let mut titled = PatternTree::with_root(tag("article"));
        let t = titled.add_child(0, Axis::Child, tag("title"));
        let count = AggFunc::Count;
        let flat = RollupShape::Flat;
        let (counted, _) = rollup(
            s, &articles, &scan, &by_author, &titled, t, count, "count", flat,
        )
        .unwrap();
        let lattice = [BasisItem::content(author), BasisItem::content(title)];
        let (cubed, _) = cube(s, &articles, &scan, &lattice, &titled, t, count, "count").unwrap();

        let mut outer = PatternTree::with_root(tag("doc_root"));
        outer.add_child(0, Axis::Descendant, tag("author"));
        let scanned = Batch::Matches(Matches::select(s, &outer, &[1]).unwrap());
        let authors = dup_elim(s, scanned, &outer, 1).unwrap();
        let mut right = PatternTree::with_root(tag("doc_root"));
        let article = right.add_child(0, Axis::Descendant, tag("article"));
        let joined = right.add_child(article, Axis::Child, tag("author"));
        let extract = right.add_child(article, Axis::Child, tag("title"));
        let pairs = left_outer_join_db(s, &authors, &outer, 1, &right, joined, &[article]).unwrap();
        let members = Members::new(&right, &[article], extract, None).unwrap();
        let inner = Some((&pairs, &members));
        let direct = |agg| stitch(s, &authors, &outer, 1, inner, agg, "authorpubs").unwrap();
        let renamed = |out, tag| rename_root(s.dict(), out, tag).unwrap();
        vec![
            (
                "Query 1, GROUPBY",
                renamed(gather.project(s, groups).unwrap(), "authorpubs"),
            ),
            ("Query 1, direct", Batch::Rows(direct(None))),
            ("count, GROUPBY", renamed(counted, "authorpubs")),
            ("count, direct", Batch::Rows(direct(Some((count, "count"))))),
            ("CUBE BY", renamed(cubed, "pubs")),
        ]
    }

    #[test]
    fn rows_write_what_their_trees_write() {
        // At every chunking — 1, 2, 3, 7 values or events a chunk, or one
        // chunk — the rows write the bytes, and the DOM elements, of
        // their trees written by the tree path.
        let bounds = [1, 2, 3, 7].map(|b| [(b, usize::MAX), (usize::MAX, b)]);
        for seed in 0..6 {
            let xml = bibliography(&mut Gen::new(seed), 2 + seed as usize * 3);
            let s = DocumentStore::from_xml(&xml, &StoreOptions::in_memory()).unwrap();
            for (what, out) in paper_outputs(&s) {
                let Batch::Rows(rows) = out else {
                    panic!("{what}: {out:?}")
                };
                assert!(!rows.is_empty(), "{what} over {xml}");
                let trees = rows.clone().into_trees();
                for at in bounds.concat().into_iter().chain([CHUNK]) {
                    let (text, dom, _) = populate_with(&s, &rows, at);
                    let (want, want_dom, _) = populate_with(&s, &trees[..], at);
                    assert_eq!(text, want, "{what} at {at:?} over {xml}");
                    assert_eq!(dom, want_dom, "{what} at {at:?}");
                }
            }
        }
    }

    #[test]
    fn a_read_fault_in_the_second_chunk_keeps_the_first_chunks_text() {
        // One pool frame, values on several heap pages, a tree a chunk:
        // the first and the last article, so the second chunk needs a
        // page the first did not leave in the pool.
        let xml = bibliography(&mut Gen::new(7), 300);
        let opts = StoreOptions::in_memory().with_pool_pages(1);
        let s = DocumentStore::from_xml(&xml, &opts).unwrap();
        assert!(s.heap_pages() > 1, "{} heap pages", s.heap_pages());
        let articles = s.nodes_with_tag(s.tag_id("article").unwrap());
        let trees = [articles[0], articles[articles.len() - 1]].map(|a| Tree::new_ref(a, true));
        let bounds = (usize::MAX, 1);
        let (reference, chunks) = populate_at(&s, &trees, bounds);
        assert_eq!(chunks, 2);

        // Every read after the first chunk's fails.
        s.clear_buffer_pool().unwrap();
        let before = s.io_stats().disk.reads;
        let mut first = String::new();
        trees[0].write_xml(&s, &mut first).unwrap();
        let reads = s.io_stats().disk.reads - before;
        s.clear_buffer_pool().unwrap();
        let faults = FaultConfig::seeded(3)
            .with_read_error(1.0)
            .with_after_ops(reads);
        s.inject_faults(Some(faults)).unwrap();
        let mut text = String::from("kept|");
        let newline = |w: &mut XmlWriter| w.text("\n");
        let err = populate(
            &s,
            &trees[..],
            &mut XmlWriter::new(&mut text),
            newline,
            bounds,
        );
        assert!(
            matches!(err, Err(crate::Error::Store(ref e)) if e.is_transient()),
            "{err:?}"
        );
        assert_eq!(text, format!("kept|{first}\n"));
        s.inject_faults(None).unwrap();
        assert_eq!(populate_at(&s, &trees, bounds).0, reference);
    }
}
