//! A read view over the stored document for the navigating scan
//! matcher ([`match_db_scan`](super::naive::match_db_scan)): children,
//! descendants, tags and contents of stored nodes.

use crate::error::Result;
use std::sync::Arc;
use xmlstore::{DocumentStore, NodeColumns, NodeEntry, NodeKind, Sym};

/// A read view over the store. The store's label columns are pinned
/// once, at construction, so every structural question about a stored
/// node — tag, children, content symbol — is an array read.
pub struct VTree<'a> {
    store: &'a DocumentStore,
    cols: Arc<NodeColumns>,
}

impl<'a> VTree<'a> {
    /// View `store`.
    pub fn new(store: &'a DocumentStore) -> Self {
        VTree {
            store,
            cols: store.columns(),
        }
    }

    /// The underlying store.
    pub fn store(&self) -> &DocumentStore {
        self.store
    }

    /// The document root.
    pub fn root(&self) -> NodeEntry {
        self.store.root()
    }

    /// Children of a stored node, in document order, via the columnar
    /// label region: no page access. Attribute nodes are not surfaced as
    /// children: pattern trees address elements only.
    pub fn children(&self, e: NodeEntry) -> Vec<NodeEntry> {
        let cols = &*self.cols;
        cols.child_ids(e.id)
            .filter(|c| cols.kind[c.0 as usize] != NodeKind::Attribute)
            .map(|c| cols.entry(c))
            .collect()
    }

    /// All descendants of `e` (excluding `e`), pre-order.
    pub fn descendants(&self, e: NodeEntry) -> Vec<NodeEntry> {
        let mut out = Vec::new();
        let mut stack = self.children(e);
        stack.reverse();
        while let Some(n) = stack.pop() {
            out.push(n);
            let mut kids = self.children(n);
            kids.reverse();
            stack.extend(kids);
        }
        out
    }

    /// Tag of a stored node (columnar — no page access).
    pub fn tag(&self, e: NodeEntry) -> String {
        let sym = Sym(self.cols.tag[e.id.0 as usize]);
        self.store.dict().resolve(sym).to_string()
    }

    /// Content of a stored node: a data-value look-up.
    pub fn content(&self, e: NodeEntry) -> Result<Option<String>> {
        Ok(self.store.content(e.id)?)
    }

    /// Content *symbol* of a stored node, from the columnar region — no
    /// page access.
    pub fn content_sym(&self, e: NodeEntry) -> Option<Sym> {
        self.cols.content_sym(e.id).map(Sym)
    }
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
    fn deep_ref_children_come_from_store() {
        let s = store();
        let article = s.tag_id("article").unwrap();
        let art = s.nodes_with_tag(article)[0];
        let vt = VTree::new(&s);
        let kids = vt.children(art);
        // title + 2 authors; the @year attribute node is filtered out.
        assert_eq!(kids.len(), 3);
        assert_eq!(vt.tag(kids[0]), "title");
        assert_eq!(vt.descendants(vt.root()).len(), 5);
    }

    #[test]
    fn stored_vnode_tag_and_content() {
        let s = store();
        let author = s.tag_id("author").unwrap();
        let a = s.nodes_with_tag(author)[1];
        let vt = VTree::new(&s);
        assert_eq!(vt.tag(a), "author");
        assert_eq!(vt.content(a).unwrap().as_deref(), Some("Jill"));
    }
}
