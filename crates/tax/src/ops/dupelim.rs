//! Duplicate elimination (Sec. 4.1): keep the first tree per distinct
//! content of a bound pattern node.
//!
//! The naive parse of Query 1 applies this after the outer
//! selection/projection ("a duplicate elimination based on the content of
//! the bound variable", here `$2.content` — the author value). Sec. 6
//! eliminates duplicates "by looking up the actual data values"; here the
//! value is the node's content symbol, read off the selection's table.
//! Equal symbol ⇔ equal string, so the comparison reads no data page. The
//! executor calls it once over its whole input, so the first row per key
//! in that call is the first in the query.

use crate::batch::Batch;
use crate::error::Result;
use crate::pattern::{PatternNodeId, PatternTree};
use std::collections::HashSet;
use xmlstore::DocumentStore;

/// Keep the first row for each distinct content of the node bound by
/// `by`. The rows are a selection's, bound at `by` (or none); any other
/// batch is refused. Nodes without content share one key.
pub fn dup_elim(
    store: &DocumentStore,
    input: Batch,
    pattern: &PatternTree,
    by: PatternNodeId,
) -> Result<Batch> {
    let (cols, mut seen) = (store.columns(), HashSet::new());
    let nodes = input.bound(pattern, by)?;
    let Batch::Matches(mut rows) = input else {
        return Ok(input); // no rows
    };
    let mut fresh = nodes
        .iter()
        .map(|e| seen.insert(cols.content[e.id.0 as usize]));
    rows.rows.retain(|_| fresh.next() == Some(true));
    Ok(Batch::Matches(rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Matches;
    use crate::error::Error;
    use crate::output::lines;
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

    /// `doc_root -ad-> author`, bound at the author.
    fn authors() -> PatternTree {
        let mut p = PatternTree::with_root(Pred::tag("doc_root"));
        p.add_child(p.root(), Axis::Descendant, Pred::tag("author"));
        p
    }

    /// [`dup_elim`] over the rows of a selection of `p` bound at `by`.
    fn dedup(s: &DocumentStore, p: &PatternTree, by: PatternNodeId) -> Result<Batch> {
        let rows = Batch::Matches(Matches::select(s, p, &[by]).unwrap());
        dup_elim(s, rows, p, by)
    }

    #[test]
    fn distinct_authors_query1_outer_step() {
        // The outer step of Query 1: select authors, dup-elim. The rows
        // stay rows: the first witness tree per distinct author.
        let s = store();
        let p = authors();
        assert_eq!(Matches::select(&s, &p, &[1]).unwrap().rows.len(), 5);
        let kept = dedup(&s, &p, 1).unwrap();
        assert!(matches!(kept, Batch::Matches(_)), "{kept:?}");
        // First occurrence order.
        let row = |name: &str| format!("<doc_root><author>{name}</author></doc_root>");
        assert_eq!(lines(&s, &kept), [row("Jack"), row("John"), row("Jill")]);
    }

    #[test]
    fn bad_label_rejected() {
        let s = store();
        let p = PatternTree::with_root(Pred::tag("author"));
        assert!(dup_elim(&s, Batch::default(), &p, 7).is_err());
    }

    #[test]
    fn rows_not_bound_at_the_key_are_refused() {
        // Stored rows, and a selection bound elsewhere, carry no key
        // column.
        let s = store();
        let p = authors();
        let stored = Batch::Stored(s.nodes_with_tag(s.tag_id("author").unwrap()).to_vec());
        let elsewhere = Batch::Matches(Matches::select(&s, &p, &[0]).unwrap());
        for rows in [stored, elsewhere] {
            let err = dup_elim(&s, rows, &p, 1);
            assert!(matches!(err, Err(Error::Unsupported(_))), "{err:?}");
        }
    }

    #[test]
    fn io_cost_of_value_lookups() {
        // The duplicate keys are content symbols of the label columns:
        // no value look-up requests a page.
        let s = store();
        let p = authors();
        s.reset_io_stats();
        assert_eq!(dedup(&s, &p, 1).unwrap().len(), 3);
        assert_eq!(s.io_stats().page_requests(), 0);
    }

    #[test]
    fn absent_contents_are_one_key() {
        // Two authors with element content (no content of their own) and
        // one with text: the two share the absent key.
        let s = DocumentStore::from_xml(
            "<bib><author><n>A</n></author><author><n>B</n></author><author>C</author></bib>",
            &StoreOptions::in_memory(),
        )
        .unwrap();
        let p = authors();
        let kept = lines(&s, &dedup(&s, &p, 1).unwrap());
        assert_eq!(
            kept,
            [
                "<doc_root><author><n>A</n></author></doc_root>",
                "<doc_root><author>C</author></doc_root>"
            ]
        );
    }
}
