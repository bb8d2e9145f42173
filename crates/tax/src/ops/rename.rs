//! Renaming (Sec. 4.1): change the tag of each tree's root.
//!
//! The naive parse and the rewritten plan both end with "a rename
//! operator … to change the dummy root to the tag specified in the return
//! clause" — e.g. `TAX_group_root` → `authorpubs`.

use crate::batch::Batch;
use crate::error::{Error, Result};
use xmlstore::Dictionary;

/// Rename the root of every one-level row to `new_tag`: the rows take
/// it as their tag, interned once, whatever the batch size. Any other
/// batch is refused — rename is meant for the dummy roots the output
/// operators construct.
pub fn rename_root(dict: &Dictionary, input: Batch, new_tag: &str) -> Result<Batch> {
    let Batch::Rows(mut rows) = input else {
        return Err(Error::Unsupported("rename takes one-level rows".into()));
    };
    rows.tag = dict.intern(new_tag);
    Ok(Batch::Rows(rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{Cell, Rows};
    use crate::output::lines;
    use xmlstore::{DocumentStore, StoreOptions};

    fn store() -> DocumentStore {
        DocumentStore::from_xml("<bib><a>x</a></bib>", &StoreOptions::in_memory()).unwrap()
    }

    #[test]
    fn renamed_rows_are_their_renamed_trees() {
        let s = store();
        let node = s.nodes_with_tag(s.tag_id("a").unwrap())[0];
        let mut rows = Rows::new(s.dict().intern(crate::tags::GROUP_ROOT));
        rows.push([Cell::Ref { node, deep: true }]);
        rows.push([]);
        let got = rename_root(s.dict(), Batch::Rows(rows), "x").unwrap();
        assert!(matches!(got, Batch::Rows(_)), "{got:?}");
        assert_eq!(lines(&s, &got), ["<x><a>x</a></x>", "<x/>"]);
    }

    #[test]
    fn rename_constructed_root_keeps_children_and_content() {
        // A row's root is constructed: renaming it keeps its cells, a
        // constructed cell's content included.
        let s = store();
        let node = s.nodes_with_tag(s.tag_id("a").unwrap())[0];
        let dict = s.dict();
        let mut rows = Rows::new(dict.intern(crate::tags::GROUP_ROOT));
        let count = Cell::Elem {
            tag: dict.intern("count"),
            content: Some(dict.intern("3")),
        };
        rows.push([Cell::Ref { node, deep: true }, count]);
        let out = rename_root(dict, Batch::Rows(rows), "authorpubs").unwrap();
        assert_eq!(
            lines(&s, &out),
            ["<authorpubs><a>x</a><count>3</count></authorpubs>"]
        );
    }

    #[test]
    fn other_rows_are_refused() {
        let s = store();
        let stored = Batch::Stored(s.nodes_with_tag(s.tag_id("a").unwrap()).to_vec());
        for input in [stored, Batch::default()] {
            let err = rename_root(s.dict(), input, "t");
            assert!(matches!(err, Err(Error::Unsupported(_))), "{err:?}");
        }
    }

    #[test]
    fn empty_collection_passthrough() {
        let s = store();
        let none = Batch::Rows(Rows::new(s.dict().intern("r")));
        assert!(rename_root(s.dict(), none, "t").unwrap().is_empty());
    }
}
