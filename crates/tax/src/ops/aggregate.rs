//! Aggregation (Sec. 4.3): map matched value collections to a summary
//! value and *insert it into the tree* at a specified position.
//!
//! `A⟨aggAttr = f($j), spec⟩(C)` outputs one tree per input tree,
//! identical to the input except for a new element carrying the computed
//! value, placed according to the update specification
//! `afterLastChild($i)`. Grouping and aggregation are *separate* logical
//! operators in TAX (unlike SQL), which is what lets grouping restructure
//! trees without any aggregation.
//!
//! The trees aggregated here are `GROUPBY`'s groups, held as columns
//! ([`Groups`]): the pattern reaches the members through the group root
//! and subroot, and the new element is appended after the root's last
//! child — a cell the group carries, folded over its members in member
//! order with the rollup's accumulator.

use crate::batch::Groups;
use crate::error::{Error, Result};
use crate::matching::for_each_match;
use crate::ops::rollup::{Acc, ValueCells};
use crate::pattern::{Axis, PatternNodeId, PatternTree, Pred};
use crate::tags::{GROUP_ROOT, GROUP_SUBROOT};
use xmlstore::{Dictionary, DocumentStore, NodeEntry, Sym, NO_SYM};

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

/// Apply the aggregation operator to `groups`.
///
/// * `pattern`: `TAX_group_root -pc-> TAX_group_subroot -pc-> member…`,
///   without join predicates; its witnesses in a group are the member
///   subpattern's embeddings anchored at each member row;
/// * `of`: the pattern node, at or below the member, whose matched
///   contents are aggregated; for [`AggFunc::Count`] the witnesses are
///   counted;
/// * `new_tag`: the element name carrying the computed value (`aggAttr`);
/// * `spec`: `afterLastChild($1)`, the group root.
///
/// A group with no witness, or whose aggregate is undefined (MIN over no
/// numeric value), is left unchanged. A pattern or update specification
/// of any other shape is refused.
pub fn aggregate(
    store: &DocumentStore,
    mut groups: Groups,
    pattern: &PatternTree,
    func: AggFunc,
    of: PatternNodeId,
    new_tag: &str,
    spec: UpdateSpec,
) -> Result<Groups> {
    let UpdateSpec::AfterLastChild(anchor) = spec;
    if let Some(label) = [of, anchor].into_iter().find(|&l| l >= pattern.len()) {
        return Err(Error::UnknownLabel(format!("${}", label + 1)));
    }
    let (member, of) = member_path(pattern, of, anchor).ok_or_else(|| {
        Error::Unsupported(
            "aggregation folds group members: TAX_group_root -pc-> TAX_group_subroot \
             -pc-> member, appended after the root's last child"
                .into(),
        )
    })?;
    let contributions = contributions(store, &groups.rows, &member, of, func)?;
    let mut values = ValueCells::new(store.dict(), new_tag);
    groups.appended.resize(groups.members.len(), Vec::new());
    for (members, cells) in groups.members.iter().zip(&mut groups.appended) {
        let (mut bindings, mut acc) = (0, Acc::default());
        for &m in members {
            let c = &contributions[m as usize];
            bindings += c.bindings;
            acc.fold(&c.values);
        }
        cells.extend(acc.finish(func, bindings).map(|v| values.cell(v)));
    }
    Ok(groups)
}

/// One input row's aggregate contribution: what a group that holds the
/// row as a member folds in for it.
#[derive(Clone, Default)]
struct Contribution {
    /// Member-pattern bindings (what COUNT counts).
    bindings: usize,
    /// Numeric values at the aggregated label, in binding order (empty
    /// for COUNT, which never fetches values).
    values: Vec<f64>,
}

/// Each stored row's aggregate contribution. Member bindings anchor at
/// the row's root: inside a group tree the member label binds exactly
/// the subroot's member children, i.e. this row.
fn contributions(
    store: &DocumentStore,
    rows: &[NodeEntry],
    member_pattern: &PatternTree,
    of: PatternNodeId,
    func: AggFunc,
) -> Result<Vec<Contribution>> {
    let dict = store.dict();
    let mut out = vec![Contribution::default(); rows.len()];
    let cols = store.columns();
    for_each_match(store, member_pattern, rows, true, |row, m| {
        let c = &mut out[row as usize];
        c.bindings += 1;
        if func != AggFunc::Count {
            c.values
                .extend(numeric(dict, cols.content[m[of].id.0 as usize]));
        }
    })?;
    Ok(out)
}

/// The member subpattern of `pattern` and `of` in it, when `pattern` is
/// a join-free `TAX_group_root -pc-> TAX_group_subroot -pc-> member…`,
/// `of` lies at or below the member and `anchor` is the root.
fn member_path(
    pattern: &PatternTree,
    of: PatternNodeId,
    anchor: PatternNodeId,
) -> Option<(PatternTree, PatternNodeId)> {
    let is = |id: usize, tag: &str| matches!(&pattern.node(id).pred, Pred::Tag(t) if t == tag);
    let only_child = |id: usize| match pattern.node(id).children[..] {
        [c] if pattern.node(c).axis == Axis::Child => Some(c),
        _ => None,
    };
    let root = pattern.root();
    let subroot = only_child(root)?;
    let member = only_child(subroot)?;
    let fits = anchor == root
        && is(root, GROUP_ROOT)
        && is(subroot, GROUP_SUBROOT)
        && pattern.join_pairs().is_empty();
    let (member, mapping) = fits.then(|| pattern.subtree_pattern(member))?;
    Some((member, mapping[of]?))
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
    use crate::batch::{Batch, Cell};
    use crate::ops::groupby::{groupby, BasisItem};
    use crate::output::lines;
    use xmlstore::StoreOptions;

    /// Jack: the first two articles; Jill: the second; Joan: the third,
    /// untitled, its year not a number.
    const SAMPLE: &str = "<bib>\
        <article><author>Jack</author><title>A</title><year>1999</year></article>\
        <article><author>Jack</author><author>Jill</author><title>B</title><title>C</title>\
            <year>2001</year><year>2002</year></article>\
        <article><author>Joan</author><year>unknown</year></article>\
    </bib>";

    fn store() -> DocumentStore {
        DocumentStore::from_xml(SAMPLE, &StoreOptions::in_memory()).unwrap()
    }

    /// The articles grouped by author.
    fn groups(s: &DocumentStore) -> Groups {
        let rows = s.nodes_with_tag(s.tag_id("article").unwrap()).to_vec();
        let mut p = PatternTree::with_root(Pred::tag("article"));
        let author = p.add_child(p.root(), Axis::Child, Pred::tag("author"));
        let (out, _) = groupby(
            s,
            &Batch::Stored(rows),
            &p,
            &[BasisItem::content(author)],
            &[],
        )
        .unwrap();
        match out {
            Batch::Groups(groups) => groups,
            other => panic!("{other:?}"),
        }
    }

    /// `TAX_group_root -pc-> TAX_group_subroot -pc-> article -pc-> leaf`.
    fn member_pattern(leaf: &str) -> (PatternTree, PatternNodeId) {
        let mut p = PatternTree::with_root(Pred::tag(GROUP_ROOT));
        let sub = p.add_child(p.root(), Axis::Child, Pred::tag(GROUP_SUBROOT));
        let member = p.add_child(sub, Axis::Child, Pred::tag("article"));
        let l = p.add_child(member, Axis::Child, Pred::tag(leaf));
        (p, l)
    }

    /// Each group's appended cells as `tag=value`, by group.
    fn appended(s: &DocumentStore, groups: &Groups) -> Vec<Vec<String>> {
        let dict = s.dict();
        let text = |cell: &Cell| match cell {
            Cell::Elem { tag, content } => {
                format!("{}={}", dict.resolve(*tag), dict.resolve(content.unwrap()))
            }
            other => panic!("{other:?}"),
        };
        (0..groups.members.len())
            .map(|g| groups.appended(g).iter().map(text).collect())
            .collect()
    }

    fn run(s: &DocumentStore, leaf: &str, func: AggFunc, tag: &str) -> Groups {
        let (p, of) = member_pattern(leaf);
        aggregate(
            s,
            groups(s),
            &p,
            func,
            of,
            tag,
            UpdateSpec::AfterLastChild(0),
        )
        .unwrap()
    }

    #[test]
    fn count_after_last_child() {
        let s = store();
        let out = run(&s, "title", AggFunc::Count, "pubcount");
        assert_eq!(
            appended(&s, &out),
            [vec!["pubcount=3"], vec!["pubcount=2"], vec![]]
        );
        // The group tree carries it as the root's last child.
        let group = &lines(&s, &Batch::Groups(out))[0];
        assert!(
            group.ends_with("</TAX_group_subroot><pubcount>3</pubcount></TAX_group_root>"),
            "{group}"
        );
    }

    #[test]
    fn numeric_aggregates() {
        let s = store();
        for (func, expect) in [
            (AggFunc::Sum, ["agg=6002", "agg=4003"]),
            (AggFunc::Min, ["agg=1999", "agg=2001"]),
            (AggFunc::Max, ["agg=2002", "agg=2002"]),
        ] {
            let out = appended(&s, &run(&s, "year", func, "agg"));
            assert_eq!(out[..2], expect.map(|e| vec![e.to_owned()]), "{func:?}");
        }
    }

    #[test]
    fn avg_formats_fraction() {
        let s = store();
        let out = appended(&s, &run(&s, "year", AggFunc::Avg, "avg"));
        let v: f64 = out[0][0]["avg=".len()..].parse().unwrap();
        assert!((v - 2000.666).abs() < 0.01, "{out:?}");
        assert_eq!(out[1], ["avg=2001.5"]);
    }

    #[test]
    fn unmatched_trees_pass_through_unchanged() {
        // Joan's article has no title: her group tree comes out as it
        // went in.
        let s = store();
        let before = lines(&s, &Batch::Groups(groups(&s)));
        let after = lines(&s, &Batch::Groups(run(&s, "title", AggFunc::Count, "n")));
        assert_eq!(after[2], before[2]);
        assert_ne!(after[0], before[0]);
    }

    #[test]
    fn non_numeric_values_ignored_for_sum() {
        // Joan's one year is not a number: her sum is over no value.
        let s = store();
        let out = appended(&s, &run(&s, "year", AggFunc::Sum, "sum"));
        assert_eq!(out[2], ["sum=0"]);
    }

    #[test]
    fn min_of_no_numeric_values_passes_through() {
        let s = store();
        let out = appended(&s, &run(&s, "year", AggFunc::Min, "min"));
        assert!(out[2].is_empty(), "{out:?}");
    }

    #[test]
    fn unknown_labels_rejected() {
        let s = store();
        let (p, of) = member_pattern("title");
        for (of, anchor) in [(9, 0), (of, 9)] {
            let spec = UpdateSpec::AfterLastChild(anchor);
            let err = aggregate(&s, groups(&s), &p, AggFunc::Count, of, "n", spec);
            assert!(matches!(err, Err(Error::UnknownLabel(_))), "{err:?}");
        }
    }

    #[test]
    fn other_shapes_are_refused() {
        // An anchor below the root, a value above the member, a pattern
        // that does not reach the members through the subroot.
        let s = store();
        let (p, title) = member_pattern("title");
        let mut flat = PatternTree::with_root(Pred::tag(GROUP_ROOT));
        let leaf = flat.add_child(flat.root(), Axis::Descendant, Pred::tag("title"));
        for (p, of, anchor) in [(&p, title, 1), (&p, 1, 0), (&flat, leaf, 0)] {
            let spec = UpdateSpec::AfterLastChild(anchor);
            let err = aggregate(&s, groups(&s), p, AggFunc::Count, of, "n", spec);
            assert!(matches!(err, Err(Error::Unsupported(_))), "{err:?}");
        }
    }

    #[test]
    fn format_value_integers_and_fractions() {
        assert_eq!(format_value(3.0), "3");
        assert_eq!(format_value(-2.0), "-2");
        assert_eq!(format_value(2.5), "2.5");
    }
}
