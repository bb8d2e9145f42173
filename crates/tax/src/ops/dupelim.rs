//! Duplicate elimination (Sec. 4.1): keep the first tree per distinct
//! content of a bound pattern node.
//!
//! The naive parse of Query 1 applies this after the outer
//! selection/projection ("a duplicate elimination based on the content of
//! the bound variable", here `$2.content` — the author value). Sec. 6
//! eliminates duplicates "by looking up the actual data values"; here the
//! value is the node's content symbol, taken by the shared witness
//! extraction from the label columns or the constructed node — equal
//! symbol ⇔ equal string, so the comparison reads no data page.

use crate::error::Result;
use crate::ops::witness::first_keys;
use crate::pattern::{PatternNodeId, PatternTree};
use crate::tree::{Collection, Tree};
use std::collections::HashSet;
use xmlstore::DocumentStore;

/// Keep the first tree for each distinct content of the node bound by
/// `by`. Trees in which the pattern does not match at all are kept
/// unconditionally (they carry no duplicate key); nodes without content
/// share one key.
pub fn dup_elim(
    store: &DocumentStore,
    input: Collection,
    pattern: &PatternTree,
    by: PatternNodeId,
) -> Result<Collection> {
    let keys = dup_keys(store, &input, pattern, by)?;
    let mut seen = HashSet::new();
    Ok(input
        .into_iter()
        .zip(keys)
        .filter_map(|(tree, key)| (key.is_none() || seen.insert(key)).then_some(tree))
        .collect())
}

/// Per-tree duplicate keys: the content symbol of the node the tree's
/// first witness binds to `by` ([`xmlstore::NO_SYM`] when it has none),
/// `None` when the pattern does not match. Exposed separately so a
/// streaming executor can run the first-occurrence scan itself, carrying
/// the seen-set across batches.
pub fn dup_keys(
    store: &DocumentStore,
    input: &[Tree],
    pattern: &PatternTree,
    by: PatternNodeId,
) -> Result<Vec<Option<u32>>> {
    let keys = first_keys(store, input, pattern, by)?;
    Ok(keys.into_iter().map(|k| k.map(|(key, _)| key)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::select::select_db;
    use crate::pattern::{Axis, Pred};
    use xmlstore::StoreOptions;

    const SAMPLE: &str = "<bib>\
        <article><title>T1</title><author>Jack</author><author>John</author></article>\
        <article><title>T2</title><author>Jill</author><author>Jack</author></article>\
        <article><title>T3</title><author>John</author></article>\
    </bib>";

    fn store() -> DocumentStore {
        DocumentStore::from_xml(SAMPLE, &StoreOptions::in_memory()).unwrap()
    }

    #[test]
    fn distinct_authors_query1_outer_step() {
        // The outer step of Query 1: select authors, project, dup-elim.
        let s = store();
        let mut p = PatternTree::with_root(Pred::tag("doc_root"));
        let author = p.add_child(p.root(), Axis::Descendant, Pred::tag("author"));
        let sel = select_db(&s, &p, &[author]).unwrap();
        assert_eq!(sel.len(), 5);
        let distinct = dup_elim(&s, sel, &p, author).unwrap();
        assert_eq!(distinct.len(), 3); // Jack, John, Jill
        let names: Vec<String> = distinct
            .iter()
            .map(|t| t.materialize(&s).unwrap().child("author").unwrap().text())
            .collect();
        assert_eq!(names, ["Jack", "John", "Jill"]); // first occurrence order
    }

    #[test]
    fn unmatched_trees_pass_through() {
        let s = store();
        let input = vec![
            crate::tree::Tree::new_elem(s.dict(), "odd"),
            crate::tree::Tree::new_elem(s.dict(), "odd"),
        ];
        let p = PatternTree::with_root(Pred::tag("author"));
        let out = dup_elim(&s, input, &p, p.root()).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn bad_label_rejected() {
        let s = store();
        let p = PatternTree::with_root(Pred::tag("author"));
        assert!(dup_elim(&s, Vec::new(), &p, 7).is_err());
    }

    #[test]
    fn io_cost_of_value_lookups() {
        // The duplicate keys are content symbols of the label columns:
        // no value look-up requests a page.
        let s = store();
        let mut p = PatternTree::with_root(Pred::tag("doc_root"));
        let author = p.add_child(p.root(), Axis::Descendant, Pred::tag("author"));
        let sel = select_db(&s, &p, &[author]).unwrap();
        s.reset_io_stats();
        assert_eq!(dup_elim(&s, sel, &p, author).unwrap().len(), 3);
        assert_eq!(s.io_stats().page_requests(), 0);
    }

    #[test]
    fn absent_contents_are_one_key_and_unmatched_trees_are_kept() {
        // Two authors with element content (no content of their own), one
        // with text, and a tree the pattern does not match.
        let s = DocumentStore::from_xml(
            "<bib><author><n>A</n></author><author><n>B</n></author><author>C</author></bib>",
            &StoreOptions::in_memory(),
        )
        .unwrap();
        let authors: Collection = s
            .nodes_with_tag(s.tag_id("author").unwrap())
            .iter()
            .map(|e| Tree::new_ref(*e, true))
            .chain([Tree::new_elem(s.dict(), "odd")])
            .collect();
        let p = PatternTree::with_root(Pred::tag("author"));
        let keys = dup_keys(&s, &authors, &p, 0).unwrap();
        assert_eq!(keys[0], Some(xmlstore::NO_SYM));
        assert_eq!(keys[0], keys[1]);
        assert_eq!(keys[3], None);
        let kept = dup_elim(&s, authors.clone(), &p, 0).unwrap();
        assert_eq!(
            kept,
            [&authors[0], &authors[2], &authors[3]].map(Clone::clone)
        );
    }

    #[test]
    fn a_constructed_key_equals_a_stored_one_with_the_same_text() {
        let s = store();
        let jack = s.nodes_with_tag(s.tag_id("author").unwrap())[0];
        let mut built = Tree::new_elem(s.dict(), "author");
        built.node_mut(0).kind = crate::tree::TreeNodeKind::Elem {
            tag: s.dict().intern("author"),
            content: Some(s.dict().intern("Jack")),
        };
        let p = PatternTree::with_root(Pred::tag("author"));
        for input in [
            vec![built.clone(), Tree::new_ref(jack, true)],
            vec![Tree::new_ref(jack, true), built.clone()],
        ] {
            let kept = dup_elim(&s, input.clone(), &p, 0).unwrap();
            assert_eq!(kept, input[..1]);
        }
    }
}
