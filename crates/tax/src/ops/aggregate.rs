//! Aggregation (Sec. 4.3): map matched value collections to a summary
//! value and *insert it into the tree* at a specified position.
//!
//! `A⟨aggAttr = f($j), spec⟩(C)` outputs one tree per input tree,
//! identical to the input except for a new element carrying the computed
//! value, placed according to the update specification
//! `afterLastChild($i)`. Grouping and aggregation are *separate* logical
//! operators in TAX (unlike SQL), which is what lets grouping restructure
//! trees without any aggregation.

use crate::batch::Source;
use crate::error::{Error, Result};
use crate::matching::vnode::VNode;
use crate::ops::groupby::BasisItem;
use crate::ops::witness::witnesses;
use crate::pattern::{PatternNodeId, PatternTree};
use crate::tree::{Collection, TreeNodeKind};
use xmlstore::{Dictionary, DocumentStore, Sym, NO_SYM};

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Number of witnesses (for `count($t)` the values need not be
    /// numeric, nor even fetched).
    Count,
    /// Sum of numeric values (non-numeric values are ignored).
    Sum,
    /// Minimum numeric value.
    Min,
    /// Maximum numeric value.
    Max,
    /// Arithmetic mean.
    Avg,
}

/// Where the computed value is inserted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateSpec {
    /// `after lastChild($i)`: as the new last child of the node bound by
    /// `$i`.
    AfterLastChild(PatternNodeId),
}

/// Apply the aggregation operator.
///
/// * `of`: the pattern node whose matched contents are aggregated; for
///   [`AggFunc::Count`] it may be any bound node (witnesses are counted).
/// * `new_tag`: the element name carrying the computed value (`aggAttr`).
///
/// Anchors must bind to arena nodes of the input trees (constructed nodes
/// or reference roots) — inserting inside an unexpanded stored subtree is
/// not supported, matching how TIMBER computes aggregates over witness
/// structures rather than rewriting stored documents.
///
/// One witness extraction over all trees gives each tree its witnesses —
/// the values at `of` as content symbols, the anchor of the first — and
/// each tree's computed element is inserted into that same (moved, never
/// copied) tree.
pub fn aggregate(
    store: &DocumentStore,
    mut input: Collection,
    pattern: &PatternTree,
    func: AggFunc,
    of: PatternNodeId,
    new_tag: &str,
    spec: UpdateSpec,
) -> Result<Collection> {
    let UpdateSpec::AfterLastChild(anchor_label) = spec;
    let basis = [BasisItem::content(of), BasisItem::content(anchor_label)];
    let trees = Source::Trees(input[..].into());
    let w = witnesses(store, &trees, pattern, &basis, &[], false)?;
    let dict = store.dict();
    let rows = w.per_row(input.len());
    for (tree, ws) in input.iter_mut().zip(rows) {
        if ws.is_empty() {
            continue;
        }
        let values: Vec<f64> = match func {
            AggFunc::Count => Vec::new(),
            _ => ws
                .clone()
                .filter_map(|i| numeric(dict, w.key(i)[0]))
                .collect(),
        };
        let Some(value) = compute(func, ws.len(), &values) else {
            continue;
        };

        // Insert at the anchor of the first witness.
        let VNode::Arena(anchor_id) = w.cells(ws.start)[1] else {
            return Err(Error::Unsupported(
                "aggregation anchor must be a constructed or reference node of the input tree, \
                 not a node inside an unexpanded stored subtree"
                    .into(),
            ));
        };
        let kind = TreeNodeKind::Elem {
            tag: dict.intern(new_tag),
            content: Some(dict.intern(&format_value(value))),
        };
        tree.add_node(anchor_id, kind);
    }
    Ok(input)
}

/// The number a content symbol holds, if its text parses as one — what
/// SUM / MIN / MAX / AVG fold; [`NO_SYM`] and non-numeric text hold none.
pub(crate) fn numeric(dict: &Dictionary, sym: u32) -> Option<f64> {
    (sym != NO_SYM)
        .then(|| dict.resolve(Sym(sym)))
        .and_then(|text| text.trim().parse().ok())
}

/// Apply an aggregate function to the gathered numeric values;
/// `witnesses` is the match count (what COUNT reports). `None` means the
/// aggregate is undefined (e.g. MIN over no numeric values).
pub fn compute(func: AggFunc, witnesses: usize, values: &[f64]) -> Option<f64> {
    match func {
        AggFunc::Count => Some(witnesses as f64),
        AggFunc::Sum => Some(values.iter().sum()),
        AggFunc::Min => values.iter().copied().reduce(f64::min),
        AggFunc::Max => values.iter().copied().reduce(f64::max),
        AggFunc::Avg => {
            if values.is_empty() {
                None
            } else {
                Some(values.iter().sum::<f64>() / values.len() as f64)
            }
        }
    }
}

/// Render a computed aggregate value: integers without a trailing `.0`.
pub fn format_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{Axis, Pred};
    use crate::tree::Tree;
    use xmlstore::StoreOptions;

    fn store() -> DocumentStore {
        DocumentStore::from_xml("<bib/>", &StoreOptions::in_memory()).unwrap()
    }

    /// authorpubs tree with three title children and a price-ish value.
    fn sample_tree(s: &DocumentStore) -> Tree {
        let mut t = Tree::new_elem(s.dict(), "authorpubs");
        t.add_elem_with_content(s.dict(), t.root(), "author", "Jack");
        t.add_elem_with_content(s.dict(), t.root(), "title", "A");
        t.add_elem_with_content(s.dict(), t.root(), "title", "B");
        t.add_elem_with_content(s.dict(), t.root(), "title", "C");
        t
    }

    fn title_pattern() -> (PatternTree, PatternNodeId, PatternNodeId) {
        let mut p = PatternTree::with_root(Pred::tag("authorpubs"));
        let title = p.add_child(p.root(), Axis::Child, Pred::tag("title"));
        (p, 0, title)
    }

    #[test]
    fn count_after_last_child() {
        let s = store();
        let (p, root, title) = title_pattern();
        let out = aggregate(
            &s,
            vec![sample_tree(&s)],
            &p,
            AggFunc::Count,
            title,
            "pubcount",
            UpdateSpec::AfterLastChild(root),
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        let e = out[0].materialize(&s).unwrap();
        let kids: Vec<&str> = e.child_elements().map(|c| c.name.as_str()).collect();
        assert_eq!(kids, ["author", "title", "title", "title", "pubcount"]);
        assert_eq!(e.child("pubcount").unwrap().text(), "3");
    }

    fn years_tree(s: &DocumentStore) -> Tree {
        let mut t = Tree::new_elem(s.dict(), "pubs");
        t.add_elem_with_content(s.dict(), t.root(), "year", "1999");
        t.add_elem_with_content(s.dict(), t.root(), "year", "2001");
        t.add_elem_with_content(s.dict(), t.root(), "year", "2002");
        t
    }

    fn year_pattern() -> (PatternTree, PatternNodeId) {
        let mut p = PatternTree::with_root(Pred::tag("pubs"));
        let y = p.add_child(p.root(), Axis::Child, Pred::tag("year"));
        (p, y)
    }

    #[test]
    fn numeric_aggregates() {
        let s = store();
        let (p, y) = year_pattern();
        for (func, expect) in [
            (AggFunc::Sum, "6002"),
            (AggFunc::Min, "1999"),
            (AggFunc::Max, "2002"),
        ] {
            let out = aggregate(
                &s,
                vec![years_tree(&s)],
                &p,
                func,
                y,
                "agg",
                UpdateSpec::AfterLastChild(0),
            )
            .unwrap();
            let e = out[0].materialize(&s).unwrap();
            assert_eq!(e.child("agg").unwrap().text(), expect, "{func:?}");
        }
    }

    #[test]
    fn avg_formats_fraction() {
        let s = store();
        let (p, y) = year_pattern();
        let out = aggregate(
            &s,
            vec![years_tree(&s)],
            &p,
            AggFunc::Avg,
            y,
            "avg",
            UpdateSpec::AfterLastChild(0),
        )
        .unwrap();
        let e = out[0].materialize(&s).unwrap();
        let v: f64 = e.child("avg").unwrap().text().parse().unwrap();
        assert!((v - 2000.666).abs() < 0.01);
    }

    #[test]
    fn unmatched_trees_pass_through_unchanged() {
        let s = store();
        let (p, _root, title) = title_pattern();
        let mut t = Tree::new_elem(s.dict(), "other");
        t.add_elem_with_content(s.dict(), t.root(), "x", "1");
        let out = aggregate(
            &s,
            vec![t.clone()],
            &p,
            AggFunc::Count,
            title,
            "n",
            UpdateSpec::AfterLastChild(0),
        )
        .unwrap();
        assert_eq!(out[0], t);
    }

    #[test]
    fn non_numeric_values_ignored_for_sum() {
        let s = store();
        let mut t = Tree::new_elem(s.dict(), "pubs");
        t.add_elem_with_content(s.dict(), t.root(), "year", "1999");
        t.add_elem_with_content(s.dict(), t.root(), "year", "unknown");
        let (p, y) = year_pattern();
        let out = aggregate(
            &s,
            vec![t],
            &p,
            AggFunc::Sum,
            y,
            "sum",
            UpdateSpec::AfterLastChild(0),
        )
        .unwrap();
        let e = out[0].materialize(&s).unwrap();
        assert_eq!(e.child("sum").unwrap().text(), "1999");
    }

    #[test]
    fn min_of_no_numeric_values_passes_through() {
        let s = store();
        let mut t = Tree::new_elem(s.dict(), "pubs");
        t.add_elem_with_content(s.dict(), t.root(), "year", "n/a");
        let (p, y) = year_pattern();
        let out = aggregate(
            &s,
            vec![t.clone()],
            &p,
            AggFunc::Min,
            y,
            "min",
            UpdateSpec::AfterLastChild(0),
        )
        .unwrap();
        assert_eq!(out[0], t);
    }

    #[test]
    fn unknown_labels_rejected() {
        let s = store();
        let p = PatternTree::with_root(Pred::tag("pubs"));
        assert!(aggregate(
            &s,
            Vec::new(),
            &p,
            AggFunc::Count,
            4,
            "n",
            UpdateSpec::AfterLastChild(0)
        )
        .is_err());
        assert!(aggregate(
            &s,
            Vec::new(),
            &p,
            AggFunc::Count,
            0,
            "n",
            UpdateSpec::AfterLastChild(4)
        )
        .is_err());
    }

    #[test]
    fn format_value_integers_and_fractions() {
        assert_eq!(format_value(3.0), "3");
        assert_eq!(format_value(-2.0), "-2");
        assert_eq!(format_value(2.5), "2.5");
    }
}
