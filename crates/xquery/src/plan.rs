//! Logical TAX plans.
//!
//! A [`Plan`] is a tree of algebra operators over the stored database.
//! The translator emits the *naive* plan of Sec. 4.1 (a `CUBE BY` query
//! straight as a [`Plan::Cube`]); the rewriter replaces the join pipeline
//! with a `GROUPBY` pipeline, or a [`Plan::Rollup`] for the count
//! variant. Every scan is a [`Plan::SelectDb`], and a selection whose
//! witness trees are projected is a [`Plan::Project`] over it, which the
//! evaluator (in the `timber` crate) runs as one match.

use std::fmt::Write;
use tax::ops::aggregate::{AggFunc, UpdateSpec};
use tax::ops::groupby::{BasisItem, Direction, GroupOrder};
use tax::ops::project::ProjectItem;
use tax::pattern::{PatternNodeId, PatternTree};

/// A logical operator tree.
#[derive(Debug, Clone)]
pub enum Plan {
    /// Selection over the stored database: pattern + adornment list.
    SelectDb {
        /// Pattern to match.
        pattern: PatternTree,
        /// Adorned labels (whole subtrees kept).
        sl: Vec<PatternNodeId>,
    },
    /// Projection of a collection.
    Project {
        /// Input plan.
        input: Box<Plan>,
        /// Pattern to match per tree.
        pattern: PatternTree,
        /// Projection list.
        pl: Vec<ProjectItem>,
        /// Whether the pattern root binds only tree roots.
        anchor_root: bool,
    },
    /// Duplicate elimination on a bound node's content.
    DupElim {
        /// Input plan.
        input: Box<Plan>,
        /// Pattern to match per tree.
        pattern: PatternTree,
        /// The label whose content is the key.
        by: PatternNodeId,
    },
    /// The naive parse's left outer join against the database (Fig. 8):
    /// per left row, the right subjects it joins.
    LeftOuterJoinDb {
        /// Left input plan (the outer bindings).
        left: Box<Plan>,
        /// Pattern extracting the left join key.
        left_pattern: PatternTree,
        /// Left key label.
        left_label: PatternNodeId,
        /// Right (database) pattern — the "inner" part of the join-plan
        /// pattern tree of Fig. 4b.
        right_pattern: PatternTree,
        /// Right key label.
        right_label: PatternNodeId,
        /// Adornment of right witnesses: the one subject (e.g. the
        /// article) the join pairs with each left row.
        right_sl: Vec<PatternNodeId>,
        /// The node the nested RETURN extracts (right-pattern label).
        right_extract: PatternNodeId,
        /// The user's ORDER BY, as a right-pattern label and direction
        /// (the stitch's member order; the rewriter turns this into the
        /// GROUPBY ordering list).
        order: Option<(PatternNodeId, Direction)>,
    },
    /// The grouping operator (Sec. 3).
    GroupBy {
        /// Input plan.
        input: Box<Plan>,
        /// Grouping pattern (Fig. 5b).
        pattern: PatternTree,
        /// Grouping basis.
        basis: Vec<BasisItem>,
        /// Ordering list.
        ordering: Vec<GroupOrder>,
    },
    /// Aggregation with update specification (Sec. 4.3), over the
    /// groups of its input.
    Aggregate {
        /// Input plan.
        input: Box<Plan>,
        /// Pattern over each group: `TAX_group_root -pc->
        /// TAX_group_subroot -pc-> member…`.
        pattern: PatternTree,
        /// Aggregate function.
        func: AggFunc,
        /// Label whose matched contents are aggregated.
        of: PatternNodeId,
        /// Name of the element carrying the computed value.
        new_tag: String,
        /// Where to insert it.
        spec: UpdateSpec,
    },
    /// Grouped aggregation (Sec. 4.3's count variant as one operator):
    /// the grouping rewrite emits it where the paper's plan is `Project ∘
    /// Aggregate ∘ GroupBy`. It folds each input row's contribution into
    /// running per-basis-key aggregate state, never building the grouped
    /// member trees, and emits `TAX_group_root { <key>, <new_tag>value
    /// </new_tag> }` per group in first-witness order.
    Rollup {
        /// Input plan.
        input: Box<Plan>,
        /// Grouping pattern (as in `GroupBy`).
        pattern: PatternTree,
        /// Grouping basis.
        basis: Vec<BasisItem>,
        /// The aggregate's pattern, rooted at the input trees (the
        /// subject → aggregated-node path).
        member_pattern: PatternTree,
        /// Label in `member_pattern` whose contents are aggregated.
        of: PatternNodeId,
        /// Aggregate function.
        func: AggFunc,
        /// Name of the element carrying the computed value.
        new_tag: String,
        /// Flat output shape, the final projection pre-applied: no basis
        /// wrapper, and a group whose aggregate is undefined is dropped.
        /// The rewrite always sets it, and the executor refuses a plan
        /// that does not.
        flat: bool,
    },
    /// The grouping lattice (`CUBE BY`): one scan computes the aggregate
    /// at **every** prefix of the basis, emitting per level the flat
    /// rollup shape `TAX_group_root { key…, <new_tag>value</new_tag> }`,
    /// levels coarsest-first.
    Cube {
        /// Input plan (shared by every level).
        input: Box<Plan>,
        /// Grouping pattern containing every dimension.
        pattern: PatternTree,
        /// The full ordered basis; level `k` groups on `basis[..k]`.
        basis: Vec<BasisItem>,
        /// The aggregate's pattern, rooted at the input trees (as in
        /// [`Plan::Rollup`]).
        member_pattern: PatternTree,
        /// Label in `member_pattern` whose contents are aggregated.
        of: PatternNodeId,
        /// Aggregate function.
        func: AggFunc,
        /// Name of the element carrying the computed value.
        new_tag: String,
    },
    /// Root renaming.
    Rename {
        /// Input plan.
        input: Box<Plan>,
        /// The new root tag.
        tag: String,
    },
    /// The RETURN stitching of the naive plan: pair each outer binding
    /// with the join's subjects sharing its key (a full outer join on the
    /// key, fused with the final projection and rename), emitting one
    /// constructed element per outer binding: the bound node, then each
    /// subject's `right_extract` nodes in the join's `order`.
    StitchConstruct {
        /// The outer collection (distinct bindings).
        outer: Box<Plan>,
        /// Pattern extracting the outer key node.
        outer_pattern: PatternTree,
        /// Outer key label (also the `{$a}` emitted node).
        outer_label: PatternNodeId,
        /// The [`Plan::LeftOuterJoinDb`] carrying the per-binding
        /// results; `None` when the RETURN has no nested part.
        inner: Option<Box<Plan>>,
        /// `Some((func, tag))`: emit `<tag>{f(values)}</tag>` computed
        /// over the extracted nodes' contents instead of the nodes
        /// themselves (`count($t)`, `sum($t)`, …).
        agg: Option<(AggFunc, String)>,
        /// The constructed element name (e.g. `authorpubs`).
        tag: String,
    },
}

impl Plan {
    /// Indented, human-readable plan rendering (for tests and EXPLAIN
    /// output).
    pub fn explain(&self) -> String {
        let mut out = String::new();
        self.explain_into(&mut out, 0);
        out
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        match self {
            Plan::SelectDb { pattern, sl } => {
                let _ = writeln!(
                    out,
                    "{pad}SelectDb pattern={} SL={:?}",
                    pattern_summary(pattern),
                    sl.iter().map(|l| format!("${}", l + 1)).collect::<Vec<_>>()
                );
            }
            Plan::Project {
                input,
                pattern,
                pl,
                anchor_root,
            } => {
                let pls: Vec<String> = pl
                    .iter()
                    .map(|p| format!("${}{}", p.label + 1, if p.deep { "*" } else { "" }))
                    .collect();
                let _ = writeln!(
                    out,
                    "{pad}Project pattern={} PL={:?} anchor_root={anchor_root}",
                    pattern_summary(pattern),
                    pls
                );
                input.explain_into(out, depth + 1);
            }
            Plan::DupElim { input, pattern, by } => {
                let _ = writeln!(
                    out,
                    "{pad}DupElim pattern={} by=${}",
                    pattern_summary(pattern),
                    by + 1
                );
                input.explain_into(out, depth + 1);
            }
            Plan::LeftOuterJoinDb {
                left,
                left_label,
                right_pattern,
                right_label,
                right_sl,
                order,
                ..
            } => {
                let ord = order
                    .map(|(l, d)| format!(" order=${} {:?}", l + 1, d))
                    .unwrap_or_default();
                let _ = writeln!(
                    out,
                    "{pad}LeftOuterJoinDb on left.${} = right.${} right={} SL={:?}{ord}",
                    left_label + 1,
                    right_label + 1,
                    pattern_summary(right_pattern),
                    right_sl
                        .iter()
                        .map(|l| format!("${}", l + 1))
                        .collect::<Vec<_>>()
                );
                left.explain_into(out, depth + 1);
            }
            Plan::GroupBy {
                input,
                pattern,
                basis,
                ordering,
            } => {
                let bs = basis_summary(basis);
                let os: Vec<String> = ordering
                    .iter()
                    .map(|o| format!("${} {:?}", o.label + 1, o.direction))
                    .collect();
                let _ = writeln!(
                    out,
                    "{pad}GroupBy pattern={} basis={bs:?} ordering={os:?}",
                    pattern_summary(pattern)
                );
                input.explain_into(out, depth + 1);
            }
            Plan::Aggregate {
                input,
                func,
                of,
                new_tag,
                ..
            } => {
                let _ = writeln!(out, "{pad}Aggregate {func:?}(${}) as <{new_tag}>", of + 1);
                input.explain_into(out, depth + 1);
            }
            Plan::Rollup {
                input,
                pattern,
                basis,
                member_pattern,
                of,
                func,
                new_tag,
                flat,
            } => {
                let bs = basis_summary(basis);
                let _ = writeln!(
                    out,
                    "{pad}Rollup {func:?}(member ${}) as <{new_tag}>{} pattern={} basis={bs:?} member={}",
                    of + 1,
                    if *flat { " flat" } else { "" },
                    pattern_summary(pattern),
                    pattern_summary(member_pattern)
                );
                input.explain_into(out, depth + 1);
            }
            Plan::Cube {
                input,
                pattern,
                basis,
                member_pattern,
                of,
                func,
                new_tag,
            } => {
                let bs = basis_summary(basis);
                let _ = writeln!(
                    out,
                    "{pad}Cube {func:?}(member ${}) as <{new_tag}> levels={} pattern={} basis={bs:?} member={}",
                    of + 1,
                    basis.len(),
                    pattern_summary(pattern),
                    pattern_summary(member_pattern)
                );
                input.explain_into(out, depth + 1);
            }
            Plan::Rename { input, tag } => {
                let _ = writeln!(out, "{pad}Rename to <{tag}>");
                input.explain_into(out, depth + 1);
            }
            Plan::StitchConstruct {
                outer,
                inner,
                outer_label,
                agg,
                tag,
                ..
            } => {
                let agg_s = agg
                    .as_ref()
                    .map(|(f, t)| format!(" agg={f:?}<{t}>"))
                    .unwrap_or_default();
                let _ = writeln!(
                    out,
                    "{pad}StitchConstruct <{tag}> key: outer.${}{agg_s}",
                    outer_label + 1
                );
                outer.explain_into(out, depth + 1);
                if let Some(inner) = inner {
                    inner.explain_into(out, depth + 1);
                }
            }
        }
    }
}

/// A grouping basis as its plan text: `$2.content`.
fn basis_summary(basis: &[BasisItem]) -> Vec<String> {
    let item = |b: &BasisItem| format!("${}.content", b.label + 1);
    basis.iter().map(item).collect()
}

/// One-line pattern rendering: `doc_root -ad-> article -pc-> author`.
pub fn pattern_summary(p: &PatternTree) -> String {
    let mut parts = Vec::new();
    for (id, node) in p.iter() {
        let tag = node.pred.required_tag().unwrap_or("*");
        match node.parent {
            None => parts.push(format!("${}:{tag}", id + 1)),
            Some(parent) => {
                let axis = match node.axis {
                    tax::pattern::Axis::Child => "pc",
                    tax::pattern::Axis::Descendant => "ad",
                };
                parts.push(format!("${}-{axis}->${}:{tag}", parent + 1, id + 1));
            }
        }
    }
    format!("[{}]", parts.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tax::pattern::{Axis, Pred};

    fn sample_pattern() -> PatternTree {
        let mut p = PatternTree::with_root(Pred::tag("doc_root"));
        let art = p.add_child(p.root(), Axis::Descendant, Pred::tag("article"));
        p.add_child(art, Axis::Child, Pred::tag("author"));
        p
    }

    #[test]
    fn summary_renders_edges() {
        let s = pattern_summary(&sample_pattern());
        assert_eq!(s, "[$1:doc_root, $1-ad->$2:article, $2-pc->$3:author]");
    }

    #[test]
    fn explain_renders_nested_plans() {
        let plan = Plan::Rename {
            input: Box::new(Plan::GroupBy {
                input: Box::new(Plan::SelectDb {
                    pattern: sample_pattern(),
                    sl: vec![1],
                }),
                pattern: sample_pattern(),
                basis: vec![BasisItem::content(2)],
                ordering: vec![],
            }),
            tag: "authorpubs".into(),
        };
        let text = plan.explain();
        assert!(text.contains("Rename to <authorpubs>"));
        assert!(text.contains("GroupBy"));
        assert!(text.contains("SelectDb"));
        assert!(text.contains("$3.content"));
        // Indentation increases inward.
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[1].starts_with("  "));
        assert!(lines[2].starts_with("    "));
    }
}
