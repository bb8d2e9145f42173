//! A rule-based plan optimizer.
//!
//! A [`Rule`] inspects a plan node and
//! optionally returns a replacement, and the [`Optimizer`] applies its
//! rules over the whole plan tree to a fixpoint, recording every firing
//! in an [`OptTrace`] (surfaced by `EXPLAIN` / `EXPLAIN ANALYZE` in the
//! `timber` crate).
//!
//! The standard rule set, in order:
//!
//! 1. [`GroupByRewriteRule`] — the paper's Sec. 4.1 grouping rewrite
//!    (join pipeline → `GROUPBY` pipeline; for the Sec. 4.3 count
//!    variant, one [`Plan::Rollup`]). It must run first: detection keys
//!    on the pristine `StitchConstruct`/`LeftOuterJoinDb` shape the naive
//!    translation emits.
//! 2. [`ProjectionPruneRule`] — drops the synthetic `doc_root` pattern
//!    root from a `Project`∘`SelectDb` pair when no downstream list
//!    references it, shrinking every pattern match by one node.
//! 3. [`SelectProjectFuseRule`] — fuses a `Project` directly over a
//!    `SelectDb` with the *same* pattern into one
//!    [`Plan::SelectProject`], so a single pattern match serves both
//!    operators.
//!
//! No rule recognizes an aggregate: the rewrite and the `CUBE BY`
//! translation emit the `Rollup` / `Cube` operator the query means.

use crate::plan::Plan;
use std::fmt::Write;
use tax::ops::aggregate::AggFunc;
use tax::ops::groupby::{BasisItem, Direction, GroupOrder};
use tax::ops::project::ProjectItem;
use tax::pattern::{Axis, PatternNodeId, PatternTree, Pred};
use tax::tags;

/// A plan rewrite rule: inspect one plan node, optionally replace it.
///
/// `apply` must be *local*: it looks at the given node (and its inputs)
/// and returns a semantically equivalent replacement, or `None` when the
/// rule does not apply there. The [`Optimizer`] handles traversal and
/// iteration to fixpoint.
pub trait Rule {
    /// Stable rule name, recorded in the firing trace.
    fn name(&self) -> &'static str;
    /// Try the rule at this plan node.
    fn apply(&self, plan: &Plan) -> Option<Plan>;
}

/// One rule application, in firing order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleFiring {
    /// The rule that fired.
    pub rule: &'static str,
    /// The fixpoint pass (1-based) it fired in.
    pub pass: usize,
}

/// The recorded trace of an [`Optimizer`] run.
#[derive(Debug, Clone, Default)]
pub struct OptTrace {
    /// Every rule firing, in order.
    pub firings: Vec<RuleFiring>,
    /// Number of passes executed (the last one fires nothing).
    pub passes: usize,
}

impl OptTrace {
    /// Did the named rule fire at least once?
    pub fn fired(&self, rule: &str) -> bool {
        self.firings.iter().any(|f| f.rule == rule)
    }

    /// Human-readable trace, one firing per line.
    pub fn render(&self) -> String {
        if self.firings.is_empty() {
            return "(no rules fired)\n".to_owned();
        }
        let mut out = String::new();
        for f in &self.firings {
            let _ = writeln!(out, "pass {}: {}", f.pass, f.rule);
        }
        out
    }
}

/// Applies a rule list over whole plans to a fixpoint.
pub struct Optimizer {
    rules: Vec<Box<dyn Rule>>,
}

/// Bound on fixpoint passes; the standard rules converge in two or
/// three, so hitting this means a rule pair is oscillating.
const MAX_PASSES: usize = 16;
/// Bound on repeated applications of one rule at one node per visit.
const MAX_LOCAL: usize = 8;

impl Optimizer {
    /// The standard rule set (grouping rewrite, projection pruning,
    /// select→project fusion), in the order described at module level.
    pub fn standard() -> Optimizer {
        Optimizer::with_rules(vec![
            Box::new(GroupByRewriteRule),
            Box::new(ProjectionPruneRule),
            Box::new(SelectProjectFuseRule),
        ])
    }

    /// An optimizer over an explicit rule list (applied in order within
    /// each pass).
    pub fn with_rules(rules: Vec<Box<dyn Rule>>) -> Optimizer {
        Optimizer { rules }
    }

    /// Run every rule over the whole plan, repeating until a pass fires
    /// nothing (or the pass bound is hit).
    pub fn optimize(&self, mut plan: Plan) -> (Plan, OptTrace) {
        let mut trace = OptTrace::default();
        for pass in 1..=MAX_PASSES {
            trace.passes = pass;
            let before = trace.firings.len();
            for rule in &self.rules {
                plan = apply_everywhere(rule.as_ref(), plan, pass, &mut trace.firings);
            }
            if trace.firings.len() == before {
                break;
            }
        }
        (plan, trace)
    }
}

/// Convenience: run [`Optimizer::standard`] on a plan.
pub fn optimize(plan: Plan) -> (Plan, OptTrace) {
    Optimizer::standard().optimize(plan)
}

/// Apply one rule top-down over the plan tree: repeatedly at this node
/// (a replacement may enable the rule again), then into the children of
/// whatever the node became.
fn apply_everywhere(
    rule: &dyn Rule,
    mut plan: Plan,
    pass: usize,
    firings: &mut Vec<RuleFiring>,
) -> Plan {
    for _ in 0..MAX_LOCAL {
        match rule.apply(&plan) {
            Some(next) => {
                firings.push(RuleFiring {
                    rule: rule.name(),
                    pass,
                });
                plan = next;
            }
            None => break,
        }
    }
    map_children(plan, &mut |child| {
        apply_everywhere(rule, child, pass, firings)
    })
}

/// Rebuild a plan node with `f` applied to each direct child plan.
fn map_children(plan: Plan, f: &mut impl FnMut(Plan) -> Plan) -> Plan {
    match plan {
        Plan::SelectDb { .. } | Plan::SelectProject { .. } => plan,
        Plan::Project {
            input,
            pattern,
            pl,
            anchor_root,
        } => Plan::Project {
            input: Box::new(f(*input)),
            pattern,
            pl,
            anchor_root,
        },
        Plan::DupElim { input, pattern, by } => Plan::DupElim {
            input: Box::new(f(*input)),
            pattern,
            by,
        },
        Plan::LeftOuterJoinDb {
            left,
            left_pattern,
            left_label,
            right_pattern,
            right_label,
            right_sl,
            right_extract,
            order,
        } => Plan::LeftOuterJoinDb {
            left: Box::new(f(*left)),
            left_pattern,
            left_label,
            right_pattern,
            right_label,
            right_sl,
            right_extract,
            order,
        },
        Plan::GroupBy {
            input,
            pattern,
            basis,
            ordering,
        } => Plan::GroupBy {
            input: Box::new(f(*input)),
            pattern,
            basis,
            ordering,
        },
        Plan::Aggregate {
            input,
            pattern,
            func,
            of,
            new_tag,
            spec,
        } => Plan::Aggregate {
            input: Box::new(f(*input)),
            pattern,
            func,
            of,
            new_tag,
            spec,
        },
        Plan::Rollup {
            input,
            pattern,
            basis,
            member_pattern,
            of,
            func,
            new_tag,
            flat,
        } => Plan::Rollup {
            input: Box::new(f(*input)),
            pattern,
            basis,
            member_pattern,
            of,
            func,
            new_tag,
            flat,
        },
        Plan::Cube {
            input,
            pattern,
            basis,
            member_pattern,
            of,
            func,
            new_tag,
        } => Plan::Cube {
            input: Box::new(f(*input)),
            pattern,
            basis,
            member_pattern,
            of,
            func,
            new_tag,
        },
        Plan::Rename { input, tag } => Plan::Rename {
            input: Box::new(f(*input)),
            tag,
        },
        Plan::StitchConstruct {
            outer,
            outer_pattern,
            outer_label,
            inner,
            agg,
            tag,
        } => Plan::StitchConstruct {
            outer: Box::new(f(*outer)),
            outer_pattern,
            outer_label,
            inner: inner.map(|i| Box::new(f(*i))),
            agg,
            tag,
        },
    }
}

/// The paper's grouping rewrite (Sec. 4.1) as a rule: detect the
/// join-based naive plan shape ([`detect`], Phase 1) and replace it
/// with the `GROUPBY` pipeline ([`build_groupby_plan`], Phase 2).
pub struct GroupByRewriteRule;

impl Rule for GroupByRewriteRule {
    fn name(&self) -> &'static str {
        "groupby-rewrite"
    }

    fn apply(&self, plan: &Plan) -> Option<Plan> {
        detect(plan)
    }
}

// === The grouping rewrite of Sec. 4.1 (Phases 1 and 2) ===
//
// **Phase 1 — detection.** A grouping query is recognized when
//
// 1. a left outer join is applied on the outcome of a previous selection
//    and the database, and
// 2. the left ("outer") pattern tree is a *subset* of the right
//    ("inner") pattern tree under the closure-mark rule (`pc ⊆ ad`, not
//    `ad ⊆ pc`) — see [`tax::pattern::PatternTree::subset_embedding`].
//
// **Phase 2 — rewrite.** The join pipeline is replaced by
//
// 1. a selection + projection producing the collection of bound-subject
//    trees (the articles, Fig. 9);
// 2. the `GROUPBY` operator whose pattern is the subject-rooted subtree
//    of the inner pattern and whose grouping basis is the join value
//    (`$2.content`, Fig. 5b/5c);
// 3. a final projection extracting the RETURN nodes from the group
//    trees (Fig. 5d);
// 4. a rename to the constructed tag.
//
// For the count variant (Sec. 4.3) steps 2–3 and the aggregation between
// them — `Project ∘ Aggregate ∘ GroupBy` — are one `Rollup` over the same
// pattern and basis: it folds each group's aggregate as the members
// arrive and emits the projected tree, building no group tree. The
// literal three-operator plan still runs when built by hand.

/// Phase 1: inspect the plan; on success build the Phase 2 plan.
fn detect(plan: &Plan) -> Option<Plan> {
    let Plan::StitchConstruct {
        outer_pattern,
        outer_label,
        inner: Some(inner),
        agg,
        tag,
        ..
    } = plan
    else {
        return None;
    };
    let Plan::LeftOuterJoinDb {
        left,
        left_pattern,
        left_label,
        right_pattern,
        right_label,
        right_sl,
        right_extract,
        order,
    } = inner.as_ref()
    else {
        return None;
    };

    // Phase 1, step 1: the join's left side must be the outcome of a
    // previous selection over the database.
    if !is_selection_chain(left) {
        return None;
    }
    // (Sanity: the stitch's outer and the join's left agree.)
    if left_label != outer_label || left_pattern.len() != outer_pattern.len() {
        return None;
    }

    // Phase 1, step 2: the outer pattern must be a subset of the inner.
    let mapping = left_pattern.subset_embedding(right_pattern)?;
    let join_node = *right_label;
    // The join value must be the outer bound variable's image.
    if mapping[*left_label] != join_node {
        return None;
    }

    // The grouping subject: the adorned bound variable of the inner FOR
    // (the join's selection list), above the join and RETURN nodes.
    let &[subject] = &right_sl[..] else {
        return None;
    };
    if !right_pattern.is_ancestor(subject, join_node)
        || !right_pattern.is_ancestor(subject, *right_extract)
    {
        return None;
    }
    build_groupby_plan(
        right_pattern,
        subject,
        join_node,
        *right_extract,
        agg.clone(),
        *order,
        tag,
    )
}

/// Is this plan a `SelectDb` possibly wrapped in projections / duplicate
/// eliminations — "the outcome of a previous selection"?
fn is_selection_chain(plan: &Plan) -> bool {
    match plan {
        Plan::SelectDb { .. } | Plan::SelectProject { .. } => true,
        Plan::Project { input, .. } | Plan::DupElim { input, .. } => is_selection_chain(input),
        _ => false,
    }
}

/// Phase 2: the GROUPBY plan, or the rollup for an aggregate. A
/// grouping with both an aggregate and an ordering is declined: the
/// translator never builds one.
fn build_groupby_plan(
    right_pattern: &PatternTree,
    subject: PatternNodeId,
    join_node: PatternNodeId,
    extract: PatternNodeId,
    agg: Option<(AggFunc, String)>,
    order: Option<(PatternNodeId, Direction)>,
    tag: &str,
) -> Option<Plan> {
    if agg.is_some() && order.is_some() {
        return None;
    }
    // Step 1: the initial pattern tree — the bound variable with its path
    // from the document root (Fig. 5a). Selection with SL = subject,
    // projection with PL = subject*.
    let (subject_path, ids) = right_pattern.paths(right_pattern.root(), &[subject])?;
    let subject_in_path = ids[0];
    let input = Box::new(Plan::Project {
        input: Box::new(Plan::SelectDb {
            pattern: subject_path.clone(),
            sl: vec![subject_in_path],
        }),
        pattern: subject_path,
        pl: vec![ProjectItem::deep(subject_in_path)],
        anchor_root: true,
    });

    // Step 2: the GROUPBY input pattern — the subject-rooted subtree of
    // the inner pattern restricted to the join path (Fig. 5b), plus the
    // ordering path when the user requested sorting; grouping basis = the
    // join value's content. The member path leads from the subject to
    // the RETURN node.
    let targets: Vec<PatternNodeId> = std::iter::once(join_node)
        .chain(order.map(|(node, _)| node))
        .collect();
    let (pattern, ids) = right_pattern.paths(subject, &targets)?;
    let basis = vec![BasisItem::content(ids[0])];
    let (member, extract) = right_pattern.paths(subject, &[extract])?;

    let grouped = match agg {
        Some((func, new_tag)) => Plan::Rollup {
            input,
            pattern,
            basis,
            member_pattern: member,
            of: extract[0],
            func,
            new_tag,
            flat: true,
        },
        None => {
            let ordering = order.map(|(_, direction)| GroupOrder {
                label: ids[1],
                direction,
            });
            let group = Plan::GroupBy {
                input,
                pattern,
                basis,
                ordering: ordering.into_iter().collect(),
            };
            // Step 3: the final projection over group trees (Fig. 5d):
            // the root, its key, and each member's RETURN nodes.
            let join_tag = right_pattern.node(join_node).pred.required_tag();
            let mut fp = PatternTree::with_root(Pred::tag(tags::GROUP_ROOT));
            let wrapper = fp.add_child(0, Axis::Child, Pred::tag(tags::GROUPING_BASIS));
            let key = fp.add_child(wrapper, Axis::Child, Pred::tag(join_tag.unwrap_or("*")));
            let subroot = fp.add_child(0, Axis::Child, Pred::tag(tags::GROUP_SUBROOT));
            let out = graft(&mut fp, subroot, &member)[extract[0]];
            Plan::Project {
                input: Box::new(group),
                pattern: fp,
                pl: vec![
                    ProjectItem::shallow(0),
                    ProjectItem::deep(key),
                    ProjectItem::deep(out),
                ],
                anchor_root: true,
            }
        }
    };
    Some(Plan::Rename {
        input: Box::new(grouped),
        tag: tag.to_owned(),
    })
}

/// Copy `sub` under `at` in `into`, its root a `pc` child; returns the
/// ids its nodes got there.
fn graft(into: &mut PatternTree, at: PatternNodeId, sub: &PatternTree) -> Vec<PatternNodeId> {
    let mut ids = Vec::with_capacity(sub.len());
    for (_, node) in sub.iter() {
        let (parent, axis) = match node.parent {
            Some(p) => (ids[p], node.axis),
            None => (at, Axis::Child),
        };
        ids.push(into.add_child(parent, axis, node.pred.clone()));
    }
    ids
}

/// Projection pruning: in a `Project` applied directly over a `SelectDb`
/// with the same pattern, drop the synthetic `doc_root` pattern root when
/// nothing downstream references it.
///
/// Every stored tree sits under the unique synthetic `doc_root` element,
/// so a root pattern node `$1:doc_root` with a single `ad` child
/// constrains nothing: removing it (re-rooting the pattern at the child)
/// yields the same bindings in the same order, and — because `$1` appears
/// in neither the adornment nor the projection list — identical witness
/// and output trees. The rule requires all of:
///
/// * the root predicate is exactly `Tag("doc_root")` (no extra
///   conjuncts),
/// * the root has exactly one child, reached via an `ad` edge,
/// * the root label occurs in neither `sl` nor `pl`,
/// * the projection anchors at tree roots (`anchor_root`), which stays
///   true after re-rooting since witness roots bind the new pattern
///   root.
pub struct ProjectionPruneRule;

/// The synthetic document-root tag (see `timber`'s loader and
/// `translate::DOC_ROOT`).
const DOC_ROOT: &str = "doc_root";

impl Rule for ProjectionPruneRule {
    fn name(&self) -> &'static str {
        "projection-prune"
    }

    fn apply(&self, plan: &Plan) -> Option<Plan> {
        let Plan::Project {
            input,
            pattern,
            pl,
            anchor_root: true,
        } = plan
        else {
            return None;
        };
        let Plan::SelectDb {
            pattern: sel_pattern,
            sl,
        } = input.as_ref()
        else {
            return None;
        };
        if sel_pattern != pattern {
            return None;
        }
        let root = pattern.root();
        if !matches!(&pattern.node(root).pred, Pred::Tag(t) if t == DOC_ROOT) {
            return None;
        }
        let [child] = pattern.node(root).children[..] else {
            return None;
        };
        if pattern.node(child).axis != Axis::Descendant {
            return None;
        }
        if sl.contains(&root) || pl.iter().any(|p| p.label == root) {
            return None;
        }
        let (pruned, mapping) = pattern.subtree_pattern(child);
        let sl = sl.iter().map(|&l| mapping[l]).collect::<Option<Vec<_>>>()?;
        let pl = pl
            .iter()
            .map(|p| {
                Some(ProjectItem {
                    label: mapping[p.label]?,
                    deep: p.deep,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(Plan::Project {
            input: Box::new(Plan::SelectDb {
                pattern: pruned.clone(),
                sl,
            }),
            pattern: pruned,
            pl,
            anchor_root: true,
        })
    }
}

/// Select→project fusion: a `Project` directly over a `SelectDb` with
/// the *same* pattern and root anchoring becomes one
/// [`Plan::SelectProject`]. The fused operator matches the pattern once
/// per database and projects each binding's witness tree immediately —
/// byte-identical to the unfused pair, which re-matches the identical
/// pattern against its own witness trees.
pub struct SelectProjectFuseRule;

impl Rule for SelectProjectFuseRule {
    fn name(&self) -> &'static str {
        "select-project-fuse"
    }

    fn apply(&self, plan: &Plan) -> Option<Plan> {
        let Plan::Project {
            input,
            pattern,
            pl,
            anchor_root: true,
        } = plan
        else {
            return None;
        };
        let Plan::SelectDb {
            pattern: sel_pattern,
            sl,
        } = input.as_ref()
        else {
            return None;
        };
        if sel_pattern != pattern {
            return None;
        }
        Some(Plan::SelectProject {
            pattern: pattern.clone(),
            sl: sl.clone(),
            pl: pl.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_query, translate};
    use tax::pattern::PatternTree;

    const QUERY1: &str = r#"
        FOR $a IN distinct-values(document("bib.xml")//author)
        RETURN <authorpubs>
          {$a}
          { FOR $b IN document("bib.xml")//article
            WHERE $a = $b/author
            RETURN $b/title }
        </authorpubs>
    "#;

    fn naive(query: &str) -> Plan {
        translate(&parse_query(query).unwrap()).unwrap()
    }

    #[test]
    fn standard_rules_fire_on_query1_in_order() {
        let (plan, trace) = optimize(naive(QUERY1));
        assert!(trace.fired("groupby-rewrite"), "{:?}", trace.firings);
        assert!(trace.fired("projection-prune"), "{:?}", trace.firings);
        assert!(trace.fired("select-project-fuse"), "{:?}", trace.firings);
        // The fused plan has no bare SelectDb or Project-over-SelectDb
        // left on the grouping input side.
        let text = plan.explain();
        assert!(text.contains("SelectProject"), "{text}");
        assert!(!text.contains("LeftOuterJoinDb"), "{text}");
    }

    #[test]
    fn fixpoint_terminates_and_trace_renders() {
        let (_, trace) = optimize(naive(QUERY1));
        assert!(trace.passes < MAX_PASSES, "did not converge");
        let rendered = trace.render();
        assert!(rendered.contains("pass 1: groupby-rewrite"), "{rendered}");
    }

    const QUERY_COUNT: &str = r#"
        FOR $a IN distinct-values(document("bib.xml")//author)
        LET $t := document("bib.xml")//article[author = $a]/title
        RETURN <authorpubs> {$a} {count($t)} </authorpubs>
    "#;

    #[test]
    fn count_rewrites_to_a_flat_rollup() {
        // Sec. 4.3's `Project ∘ Aggregate ∘ GroupBy` is emitted as the one
        // operator it means; no rule takes a pipeline apart afterwards.
        let (plan, trace) = optimize(naive(QUERY_COUNT));
        let fired: Vec<&str> = trace.firings.iter().map(|f| f.rule).collect();
        assert_eq!(
            fired,
            ["groupby-rewrite", "projection-prune", "select-project-fuse"]
        );
        let text = plan.explain();
        let lines: Vec<&str> = text.lines().map(str::trim_start).collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert_eq!(lines[0], "Rename to <authorpubs>");
        assert!(
            lines[1].starts_with("Rollup Count(member $2) as <count> flat "),
            "{text}"
        );
        assert!(lines[2].starts_with("SelectProject"), "{text}");
    }

    #[test]
    fn the_rewrite_declines_an_aggregate_with_an_ordering() {
        // `translate` never orders a LET aggregate; a hand-built plan that
        // does keeps its join.
        let mut plan = naive(QUERY_COUNT);
        let Plan::StitchConstruct {
            inner: Some(join), ..
        } = &mut plan
        else {
            panic!("{plan:?}")
        };
        let Plan::LeftOuterJoinDb {
            right_extract,
            order,
            ..
        } = &mut **join
        else {
            panic!("{join:?}")
        };
        *order = Some((*right_extract, Direction::Ascending));
        assert!(GroupByRewriteRule.apply(&plan).is_none());
    }

    const QUERY_CUBE: &str = r#"
        FOR $b IN document("bib.xml")//article
        CUBE BY $b/journal, $b/year, $b/author
        RETURN <pubs> {count($b/title)} </pubs>
    "#;

    #[test]
    fn a_three_dimension_cube_is_one_cube_over_one_scan() {
        let (plan, trace) = optimize(naive(QUERY_CUBE));
        let fired: Vec<&str> = trace.firings.iter().map(|f| f.rule).collect();
        assert_eq!(fired, ["projection-prune", "select-project-fuse"]);
        assert_eq!(
            plan.explain(),
            "Rename to <pubs>\n  \
             Cube Count(member $2) as <count> levels=3 \
             pattern=[$1:article, $1-pc->$2:journal, $1-pc->$3:year, $1-pc->$4:author] \
             basis=[\"$2.content\", \"$3.content\", \"$4.content\"] \
             member=[$1:article, $1-pc->$2:title]\n    \
             SelectProject pattern=[$1:article] SL=[\"$1\"] PL=[\"$1*\"]\n"
        );
    }

    #[test]
    fn a_one_dimension_cube_is_a_one_level_cube() {
        let q = r#"FOR $b IN document("bib.xml")//article CUBE BY $b/journal
                   RETURN <pubs> {count($b/title)} </pubs>"#;
        let (plan, _) = optimize(naive(q));
        let text = plan.explain();
        assert!(
            text.contains("Cube Count(member $2) as <count> levels=1 "),
            "{text}"
        );
        assert!(!text.contains("Rollup"), "{text}");
    }

    #[test]
    fn prune_drops_doc_root_and_remaps_labels() {
        // Project(SelectDb) over [$1:doc_root -ad-> $2:article -pc-> $3:author].
        let mut p = PatternTree::with_root(Pred::tag(DOC_ROOT));
        let art = p.add_child(p.root(), Axis::Descendant, Pred::tag("article"));
        let auth = p.add_child(art, Axis::Child, Pred::tag("author"));
        let plan = Plan::Project {
            input: Box::new(Plan::SelectDb {
                pattern: p.clone(),
                sl: vec![art],
            }),
            pattern: p,
            pl: vec![ProjectItem::deep(auth)],
            anchor_root: true,
        };
        let pruned = ProjectionPruneRule.apply(&plan).expect("rule applies");
        let Plan::Project {
            input, pattern, pl, ..
        } = &pruned
        else {
            panic!("still a Project");
        };
        assert_eq!(pattern.len(), 2, "doc_root dropped");
        assert!(matches!(&pattern.node(pattern.root()).pred, Pred::Tag(t) if t == "article"));
        assert_eq!(pl[0].label, 1, "author label remapped 2 -> 1");
        let Plan::SelectDb { sl, .. } = input.as_ref() else {
            panic!("input not SelectDb");
        };
        assert_eq!(sl, &[0], "article label remapped 1 -> 0");
        // No second application: the new root is not doc_root.
        assert!(ProjectionPruneRule.apply(&pruned).is_none());
    }

    #[test]
    fn prune_refuses_referenced_or_constrained_roots() {
        let mut p = PatternTree::with_root(Pred::tag(DOC_ROOT));
        let art = p.add_child(p.root(), Axis::Descendant, Pred::tag("article"));
        // Root referenced by the projection list: keep it.
        let referencing = Plan::Project {
            input: Box::new(Plan::SelectDb {
                pattern: p.clone(),
                sl: vec![art],
            }),
            pattern: p.clone(),
            pl: vec![ProjectItem::shallow(p.root()), ProjectItem::deep(art)],
            anchor_root: true,
        };
        assert!(ProjectionPruneRule.apply(&referencing).is_none());
        // pc edge to the child: the root constrains depth, keep it.
        let mut pc = PatternTree::with_root(Pred::tag(DOC_ROOT));
        let dbl = pc.add_child(pc.root(), Axis::Child, Pred::tag("dblp"));
        let strict = Plan::Project {
            input: Box::new(Plan::SelectDb {
                pattern: pc.clone(),
                sl: vec![dbl],
            }),
            pattern: pc,
            pl: vec![ProjectItem::deep(dbl)],
            anchor_root: true,
        };
        assert!(ProjectionPruneRule.apply(&strict).is_none());
    }

    #[test]
    fn fuse_requires_identical_patterns() {
        let mut p = PatternTree::with_root(Pred::tag("article"));
        let auth = p.add_child(p.root(), Axis::Child, Pred::tag("author"));
        let fusable = Plan::Project {
            input: Box::new(Plan::SelectDb {
                pattern: p.clone(),
                sl: vec![auth],
            }),
            pattern: p.clone(),
            pl: vec![ProjectItem::deep(auth)],
            anchor_root: true,
        };
        assert!(matches!(
            SelectProjectFuseRule.apply(&fusable),
            Some(Plan::SelectProject { .. })
        ));
        let mut other = p.clone();
        other.add_child(other.root(), Axis::Child, Pred::tag("year"));
        let mismatched = Plan::Project {
            input: Box::new(Plan::SelectDb {
                pattern: other,
                sl: vec![auth],
            }),
            pattern: p,
            pl: vec![ProjectItem::deep(auth)],
            anchor_root: true,
        };
        assert!(SelectProjectFuseRule.apply(&mismatched).is_none());
    }

    #[test]
    fn direct_style_plans_pass_through_untouched() {
        // A plan with no applicable shapes is returned structurally
        // unchanged with an empty trace.
        let p = {
            let mut p = PatternTree::with_root(Pred::tag("article"));
            p.add_child(p.root(), Axis::Child, Pred::tag("author"));
            p
        };
        let plan = Plan::SelectDb {
            pattern: p,
            sl: vec![0],
        };
        let before = plan.explain();
        let (after, trace) = optimize(plan);
        assert_eq!(after.explain(), before);
        assert!(trace.firings.is_empty());
        assert_eq!(trace.passes, 1);
    }

    // === Grouping-rewrite (Sec. 4.1) detection and plan shape ===

    /// Run only the grouping rewrite, asserting it fires.
    fn grouping_rewritten(q: &str) -> Plan {
        let (plan, trace) =
            Optimizer::with_rules(vec![Box::new(GroupByRewriteRule)]).optimize(naive(q));
        assert!(trace.fired("groupby-rewrite"), "rewrite must fire for {q}");
        plan
    }

    const QUERY2: &str = r#"
        FOR $a IN distinct-values(document("bib.xml")//author)
        LET $t := document("bib.xml")//article[author = $a]/title
        RETURN <authorpubs> {$a} {$t} </authorpubs>
    "#;

    #[test]
    fn query1_rewrites_to_groupby() {
        let plan = grouping_rewritten(QUERY1);
        assert!(plan.uses_groupby());
        assert!(!plan.uses_join(), "the join must be eliminated");
        let text = plan.explain();
        assert!(text.contains("Rename to <authorpubs>"), "{text}");
        assert!(text.contains("GroupBy"), "{text}");
        // Only one database selection remains.
        assert_eq!(text.matches("SelectDb").count(), 1, "{text}");
    }

    #[test]
    fn query1_groupby_matches_fig5b() {
        let plan = grouping_rewritten(QUERY1);
        fn find_groupby(p: &Plan) -> Option<&Plan> {
            match p {
                Plan::GroupBy { .. } => Some(p),
                Plan::Project { input, .. }
                | Plan::DupElim { input, .. }
                | Plan::Aggregate { input, .. }
                | Plan::Rename { input, .. } => find_groupby(input),
                _ => None,
            }
        }
        let Some(Plan::GroupBy { pattern, basis, .. }) = find_groupby(&plan) else {
            panic!("no GroupBy found");
        };
        let s = crate::plan::pattern_summary(pattern);
        // Fig. 5b: article -pc-> author.
        assert_eq!(s, "[$1:article, $1-pc->$2:author]");
        assert_eq!(basis.len(), 1);
        assert_eq!(basis[0], tax::ops::groupby::BasisItem::content(1));
    }

    #[test]
    fn query2_same_groupby_as_query1() {
        // Sec. 4.2: after the rewrite, the GROUPBY obtained is identical
        // in the nested and unnested formulations.
        let p1 = grouping_rewritten(QUERY1).explain();
        let p2 = grouping_rewritten(QUERY2).explain();
        assert_eq!(p1, p2);
    }

    #[test]
    fn projection_only_query_is_not_rewritten() {
        let q = r#"
            FOR $a IN distinct-values(document("bib.xml")//author)
            RETURN <row> {$a} </row>
        "#;
        let (_, trace) =
            Optimizer::with_rules(vec![Box::new(GroupByRewriteRule)]).optimize(naive(q));
        assert!(!trace.fired("groupby-rewrite"));
    }

    #[test]
    fn institution_query_rewrites() {
        let q = r#"
            FOR $i IN distinct-values(document("bib.xml")//institution)
            RETURN <instpubs>
              {$i}
              { FOR $b IN document("bib.xml")//article
                WHERE $i = $b/author/institution
                RETURN $b/title }
            </instpubs>
        "#;
        let plan = grouping_rewritten(q);
        let text = plan.explain();
        assert!(text.contains("GroupBy"), "{text}");
        // Basis is the institution ($3 in the grouping pattern
        // article -pc-> author -pc-> institution).
        assert!(text.contains("$3.content"), "{text}");
    }

    #[test]
    fn subset_violation_blocks_rewrite() {
        // Outer binds editors, inner joins on authors: the outer pattern
        // does not embed into the inner pattern, so no rewrite.
        let q = r#"
            FOR $a IN distinct-values(document("bib.xml")//editor)
            RETURN <x>
              {$a}
              { FOR $b IN document("bib.xml")//article
                WHERE $a = $b/author
                RETURN $b/title }
            </x>
        "#;
        let (_, trace) =
            Optimizer::with_rules(vec![Box::new(GroupByRewriteRule)]).optimize(naive(q));
        assert!(
            !trace.fired("groupby-rewrite"),
            "editor is not in the inner pattern; no rewrite"
        );
    }
}
