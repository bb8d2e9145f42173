//! Duplicate elimination (Sec. 4.1): keep the first tree per distinct
//! content of a bound pattern node.
//!
//! The naive parse of Query 1 applies this after the outer
//! selection/projection ("a duplicate elimination based on the content of
//! the bound variable", here `$2.content` — the author value). The value
//! comparison requires a data look-up for stored nodes, which is part of
//! the direct plan's cost (Sec. 6: "we eliminate duplicates … by looking
//! up the actual data values").

use crate::error::Result;
use crate::exec::{par_map, ExecOptions};
use crate::matching::match_tree;
use crate::matching::vnode::VTree;
use crate::pattern::{PatternNodeId, PatternTree};
use crate::tree::Collection;
use std::collections::HashSet;
use xmlstore::DocumentStore;

/// The duplicate key of one tree: `None` when the pattern did not match
/// (the tree is kept unconditionally), `Some(content)` otherwise.
pub type DupKey = Option<Option<String>>;

/// Keep the first tree for each distinct content of the node bound by
/// `by`. Trees in which the pattern does not match at all are kept
/// unconditionally (they carry no duplicate key).
pub fn dup_elim(
    store: &DocumentStore,
    input: Collection,
    pattern: &PatternTree,
    by: PatternNodeId,
) -> Result<Collection> {
    let keys = dup_keys(store, &input, pattern, by, &ExecOptions::default())?;
    let mut seen: HashSet<Option<String>> = HashSet::new();
    let mut out = Vec::new();
    for (tree, key) in input.into_iter().zip(keys) {
        match key {
            None => out.push(tree),
            Some(value) => {
                if seen.insert(value) {
                    out.push(tree);
                }
            }
        }
    }
    Ok(out)
}

/// Per-tree duplicate keys, extracted in parallel. Exposed separately so
/// a streaming executor can run the first-occurrence scan itself,
/// carrying the seen-set across batches.
pub fn dup_keys(
    store: &DocumentStore,
    input: &[crate::tree::Tree],
    pattern: &PatternTree,
    by: PatternNodeId,
    opts: &ExecOptions,
) -> Result<Vec<DupKey>> {
    if by >= pattern.len() {
        return Err(crate::error::Error::UnknownLabel(format!("${}", by + 1)));
    }
    par_map(opts, input, |_, tree| {
        let bindings = match_tree(store, tree, pattern, false)?;
        match bindings.first() {
            None => Ok(None),
            Some(b) => Ok(Some(VTree::new(store, tree).content(b[by])?)),
        }
    })
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
        let s = store();
        let mut p = PatternTree::with_root(Pred::tag("doc_root"));
        let author = p.add_child(p.root(), Axis::Descendant, Pred::tag("author"));
        let sel = select_db(&s, &p, &[author]).unwrap();
        s.reset_io_stats();
        let _ = dup_elim(&s, sel, &p, author).unwrap();
        assert!(
            s.io_stats().page_requests() > 0,
            "dup-elim must look up data values"
        );
    }
}
