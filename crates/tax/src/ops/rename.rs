//! Renaming (Sec. 4.1): change the tag of each tree's root.
//!
//! The naive parse and the rewritten plan both end with "a rename
//! operator … to change the dummy root to the tag specified in the return
//! clause" — e.g. `TAX_group_root` → `authorpubs`.

use crate::batch::Batch;
use crate::error::Result;
use crate::tree::TreeNodeKind;
use xmlstore::Dictionary;

/// Rename the root of every row to `new_tag`, in place: one-level rows
/// take it as their tag, any other row is renamed as its tree. The tag
/// is interned once, whatever the batch size.
///
/// A constructed root keeps its content; a reference root is replaced by
/// a constructed element whose children are the reference's arena
/// children (for a deep reference the stored subtree's children are
/// *not* pulled up — rename is meant for the dummy roots produced by
/// joins, groupings, and constructors, which are always constructed).
pub fn rename_root(dict: &Dictionary, input: Batch, new_tag: &str) -> Result<Batch> {
    let tag = dict.intern(new_tag);
    let mut input = match input {
        Batch::Rows(mut rows) => {
            rows.tag = tag;
            return Ok(Batch::Rows(rows));
        }
        other => other.into_trees(),
    };
    for t in &mut input {
        let root = t.root();
        let new_kind = match &t.node(root).kind {
            TreeNodeKind::Elem { content, .. } => TreeNodeKind::Elem {
                tag,
                content: *content,
            },
            TreeNodeKind::Ref { .. } => TreeNodeKind::Elem { tag, content: None },
        };
        t.node_mut(root).kind = new_kind;
    }
    Ok(Batch::Trees(input))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Rows;
    use crate::tree::Tree;
    use xmlstore::{DocumentStore, StoreOptions};

    fn store() -> DocumentStore {
        DocumentStore::from_xml("<bib><a>x</a></bib>", &StoreOptions::in_memory()).unwrap()
    }

    #[test]
    fn rename_constructed_root_keeps_children_and_content() {
        let s = store();
        let mut t = Tree::new_elem(s.dict(), crate::tags::GROUP_ROOT);
        t.add_elem_with_content(s.dict(), t.root(), "author", "Jack");
        let out = rename_root(s.dict(), Batch::Trees(vec![t]), "authorpubs").unwrap();
        let out = out.into_trees();
        let e = out[0].materialize(&s).unwrap();
        assert_eq!(e.name, "authorpubs");
        assert_eq!(e.child("author").unwrap().text(), "Jack");
    }

    #[test]
    fn rename_ref_root_becomes_elem() {
        let s = store();
        let a = s.tag_id("a").unwrap();
        let node = s.nodes_with_tag(a)[0];
        let t = Tree::new_ref(node, false);
        let out = rename_root(s.dict(), Batch::Trees(vec![t]), "renamed").unwrap();
        let out = out.into_trees();
        let e = out[0].materialize(&s).unwrap();
        assert_eq!(e.name, "renamed");
    }

    #[test]
    fn renamed_rows_are_their_renamed_trees() {
        let s = store();
        let node = s.nodes_with_tag(s.tag_id("a").unwrap())[0];
        let mut rows = Rows::new(s.dict().intern(crate::tags::GROUP_ROOT));
        rows.push([TreeNodeKind::Ref { node, deep: true }]);
        rows.push([]);
        let trees = Batch::Trees(Batch::Rows(rows.clone()).into_trees());
        let want = rename_root(s.dict(), trees, "x").unwrap();
        let got = rename_root(s.dict(), Batch::Rows(rows), "x").unwrap();
        assert!(matches!(got, Batch::Rows(_)), "{got:?}");
        assert_eq!(got.into_trees(), want.into_trees());
    }

    #[test]
    fn empty_collection_passthrough() {
        let s = store();
        assert!(rename_root(s.dict(), Batch::default(), "t")
            .unwrap()
            .is_empty());
    }
}
