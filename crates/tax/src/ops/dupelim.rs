//! Duplicate elimination (Sec. 4.1): keep the first tree per distinct
//! content of a bound pattern node.
//!
//! The naive parse of Query 1 applies this after the outer
//! selection/projection ("a duplicate elimination based on the content of
//! the bound variable", here `$2.content` — the author value). Sec. 6
//! eliminates duplicates "by looking up the actual data values"; here the
//! value is the node's content symbol — read off the selection's table
//! for its rows, taken by the shared witness extraction from the label
//! columns or the constructed node for trees. Equal symbol ⇔ equal
//! string, so the comparison reads no data page. The executor calls it
//! once over its whole input, so the first row per key in that call is
//! the first in the query.

use crate::batch::{Batch, Source};
use crate::error::Result;
use crate::ops::groupby::BasisItem;
use crate::ops::witness::witnesses;
use crate::pattern::{PatternNodeId, PatternTree};
use std::collections::HashSet;
use xmlstore::{DocumentStore, NodeEntry};

/// Keep the first row for each distinct content of the node bound by
/// `by`. A selection's rows bound at `by` key by their bound node and
/// stay rows; other rows key as their trees, by their first witness. A
/// tree in which the pattern does not match at all is kept
/// unconditionally (it carries no duplicate key); nodes without content
/// share one key.
pub fn dup_elim(
    store: &DocumentStore,
    input: Batch,
    pattern: &PatternTree,
    by: PatternNodeId,
) -> Result<Batch> {
    let (cols, mut seen) = (store.columns(), HashSet::new());
    let key = |e: &NodeEntry| cols.content[e.id.0 as usize];
    match (input.bound(pattern, by), input) {
        (Ok(nodes), Batch::Matches(mut rows)) => {
            let mut fresh = nodes.iter().map(|e| seen.insert(key(e)));
            rows.rows.retain(|_| fresh.next() == Some(true));
            Ok(Batch::Matches(rows))
        }
        (_, input) => {
            let (trees, basis) = (input.into_trees(), [BasisItem::content(by)]);
            let source = Source::Trees(trees[..].into());
            let w = witnesses(store, &source, pattern, &basis, &[], false)?;
            let (rows, mut kept) = (w.per_row(trees.len()), Vec::new());
            for (tree, ws) in trees.into_iter().zip(rows) {
                // A tree the pattern does not match carries no key.
                if ws.is_empty() || seen.insert(w.key(ws.start)[0]) {
                    kept.push(tree);
                }
            }
            Ok(Batch::Trees(kept))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Matches;
    use crate::ops::select::select_db;
    use crate::pattern::{Axis, Pred};
    use crate::tree::{Collection, Tree};
    use xmlstore::StoreOptions;

    const SAMPLE: &str = "<bib>\
        <article><title>T1</title><author>Jack</author><author>John</author></article>\
        <article><title>T2</title><author>Jill</author><author>Jack</author></article>\
        <article><title>T3</title><author>John</author></article>\
    </bib>";

    fn store() -> DocumentStore {
        DocumentStore::from_xml(SAMPLE, &StoreOptions::in_memory()).unwrap()
    }

    /// [`dup_elim`] over one collection of trees.
    fn dedup(
        s: &DocumentStore,
        input: Collection,
        p: &PatternTree,
        by: PatternNodeId,
    ) -> Result<Collection> {
        dup_elim(s, Batch::Trees(input), p, by).map(Batch::into_trees)
    }

    #[test]
    fn distinct_authors_query1_outer_step() {
        // The outer step of Query 1: select authors, project, dup-elim.
        let s = store();
        let mut p = PatternTree::with_root(Pred::tag("doc_root"));
        let author = p.add_child(p.root(), Axis::Descendant, Pred::tag("author"));
        let sel = select_db(&s, &p, &[author]).unwrap();
        assert_eq!(sel.len(), 5);
        let distinct = dedup(&s, sel, &p, author).unwrap();
        assert_eq!(distinct.len(), 3); // Jack, John, Jill
        let names: Vec<String> = distinct
            .iter()
            .map(|t| t.materialize(&s).unwrap().child("author").unwrap().text())
            .collect();
        assert_eq!(names, ["Jack", "John", "Jill"]); // first occurrence order

        // The selection's rows key by their bound node and stay rows:
        // the same three witness trees.
        let rows = Batch::Matches(Matches::select(&s, &p, &[author]).unwrap());
        let kept = dup_elim(&s, rows, &p, author).unwrap();
        assert!(matches!(kept, Batch::Matches(_)), "{kept:?}");
        assert_eq!(kept.into_trees(), distinct);
    }

    #[test]
    fn unmatched_trees_pass_through() {
        let s = store();
        let input = vec![
            crate::tree::Tree::new_elem(s.dict(), "odd"),
            crate::tree::Tree::new_elem(s.dict(), "odd"),
        ];
        let p = PatternTree::with_root(Pred::tag("author"));
        let out = dedup(&s, input, &p, p.root()).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn bad_label_rejected() {
        let s = store();
        let p = PatternTree::with_root(Pred::tag("author"));
        assert!(dedup(&s, Vec::new(), &p, 7).is_err());
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
        assert_eq!(dedup(&s, sel, &p, author).unwrap().len(), 3);
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
        let kept = dedup(&s, authors.clone(), &p, 0).unwrap();
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
            let kept = dedup(&s, input.clone(), &p, 0).unwrap();
            assert_eq!(kept, input[..1]);
        }
    }
}
