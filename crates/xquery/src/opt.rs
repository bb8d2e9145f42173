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
//!    (join pipeline → `GROUPBY` pipeline). It must run first:
//!    detection keys on the
//!    pristine `StitchConstruct`/`LeftOuterJoinDb` shape the naive
//!    translation emits.
//! 2. [`CubeFuseRule`] — collapses the `Union` of per-level
//!    `Project ∘ Aggregate ∘ GroupBy` pipelines a `CUBE BY` translation
//!    emits into one [`Plan::Cube`] scan, when every branch passes the
//!    rollup-fusion guards, all branches share one input / pattern /
//!    aggregate, and the bases form the prefix chain of the lattice. It
//!    must run before [`RollupFuseRule`], which would otherwise fuse the
//!    branches individually (the graceful-degradation path when a cube
//!    guard fails).
//! 3. [`RollupFuseRule`] — fuses an `Aggregate` whose only input is a
//!    `GroupBy` (and whose grouped trees are not otherwise consumed)
//!    into one streaming [`Plan::Rollup`], skipping group-tree
//!    materialization entirely. It runs right after the grouping
//!    rewrite so the `Aggregate`∘`GroupBy` pair it keys on is fused
//!    before the projection rules restructure the pipeline below it.
//! 4. [`ProjectionPruneRule`] — drops the synthetic `doc_root` pattern
//!    root from a `Project`∘`SelectDb` pair when no downstream list
//!    references it, shrinking every pattern match by one node.
//! 5. [`SelectProjectFuseRule`] — fuses a `Project` directly over a
//!    `SelectDb` with the *same* pattern into one
//!    [`Plan::SelectProject`], so a single pattern match serves both
//!    operators.

use crate::plan::Plan;
use std::fmt::Write;
use tax::ops::aggregate::{AggFunc, UpdateSpec};
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
    /// The standard rule set (grouping rewrite, cube fusion, rollup
    /// fusion, projection pruning, select→project fusion), in the order
    /// described at module level.
    pub fn standard() -> Optimizer {
        Optimizer::with_rules(vec![
            Box::new(GroupByRewriteRule),
            Box::new(CubeFuseRule),
            Box::new(RollupFuseRule),
            Box::new(ProjectionPruneRule),
            Box::new(SelectProjectFuseRule),
        ])
    }

    /// The standard set *without* [`CubeFuseRule`] and
    /// [`RollupFuseRule`]: grouped plans keep the materialized
    /// `GroupBy → Aggregate` pipeline (and cube plans the `Union` of
    /// per-level pipelines). This is the reference plan the rollup's and
    /// cube's differential tests and the `e2_count_groupby` benchmark
    /// key compare against.
    pub fn materializing() -> Optimizer {
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
        Plan::Union { inputs } => Plan::Union {
            inputs: inputs.into_iter().map(f).collect(),
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
// 3. (count variant) an aggregation inserting the member count;
// 4. a final projection extracting the RETURN nodes from the group
//    trees (Fig. 5d);
// 5. a rename to the constructed tag.

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

/// Phase 2: the GROUPBY plan.
#[allow(clippy::too_many_arguments)]
fn build_groupby_plan(
    right_pattern: &PatternTree,
    subject: PatternNodeId,
    join_node: PatternNodeId,
    extract: PatternNodeId,
    agg: Option<(AggFunc, String)>,
    order: Option<(PatternNodeId, Direction)>,
    tag: &str,
) -> Option<Plan> {
    // Step 1: the initial pattern tree — the bound variable with its path
    // from the document root (Fig. 5a). Selection with SL = subject,
    // projection with PL = subject*.
    let (subject_path, ids) = right_pattern.paths(right_pattern.root(), &[subject])?;
    let subject_in_path = ids[0];
    let input_plan = Plan::Project {
        input: Box::new(Plan::SelectDb {
            pattern: subject_path.clone(),
            sl: vec![subject_in_path],
        }),
        pattern: subject_path,
        pl: vec![ProjectItem::deep(subject_in_path)],
        anchor_root: true,
    };

    // Step 2: the GROUPBY input pattern — the subject-rooted subtree of
    // the inner pattern restricted to the join path (Fig. 5b), plus the
    // ordering path when the user requested sorting; grouping basis = the
    // join value's content.
    let targets: Vec<PatternNodeId> = std::iter::once(join_node)
        .chain(order.map(|(node, _)| node))
        .collect();
    let (gb_pattern, ids) = right_pattern.paths(subject, &targets)?;
    let ordering = order.map(|(_, direction)| GroupOrder {
        label: ids[1],
        direction,
    });
    let group_plan = Plan::GroupBy {
        input: Box::new(input_plan),
        pattern: gb_pattern,
        basis: vec![BasisItem::content(ids[0])],
        ordering: ordering.into_iter().collect(),
    };

    // Step 3/4: the final projection over group trees (Fig. 5d); for the
    // count variant, an aggregation first inserts the member count.
    let subject_tag = right_pattern
        .node(subject)
        .pred
        .required_tag()
        .unwrap_or("*")
        .to_owned();
    let join_tag = right_pattern
        .node(join_node)
        .pred
        .required_tag()
        .unwrap_or("*")
        .to_owned();

    let mut fp = PatternTree::with_root(Pred::tag(tax::tags::GROUP_ROOT));
    let basis = fp.add_child(fp.root(), Axis::Child, Pred::tag(tax::tags::GROUPING_BASIS));
    let key = fp.add_child(basis, Axis::Child, Pred::tag(join_tag));
    let pl = vec![ProjectItem::shallow(fp.root()), ProjectItem::deep(key)];

    let (plan_before_project, fp, pl) = if let Some((func, agg_tag)) = agg {
        // Aggregate over the extracted values within each group:
        // TAX_group_root / subroot / subject / … / extract.
        let mut agg_pattern = PatternTree::with_root(Pred::tag(tax::tags::GROUP_ROOT));
        let subroot = agg_pattern.add_child(
            agg_pattern.root(),
            Axis::Child,
            Pred::tag(tax::tags::GROUP_SUBROOT),
        );
        let member = agg_pattern.add_child(subroot, Axis::Child, Pred::tag(subject_tag));
        let mut prev = member;
        for pid in path_between(right_pattern, subject, extract) {
            prev = agg_pattern.add_child(
                prev,
                right_pattern.node(pid).axis,
                right_pattern.node(pid).pred.clone(),
            );
        }
        let agg_plan = Plan::Aggregate {
            input: Box::new(group_plan),
            pattern: agg_pattern,
            func,
            of: prev,
            new_tag: agg_tag.clone(),
            spec: UpdateSpec::AfterLastChild(0),
        };
        let mut fp = fp;
        let agg_node = fp.add_child(fp.root(), Axis::Child, Pred::tag(agg_tag));
        let mut pl = pl;
        pl.push(ProjectItem::deep(agg_node));
        (agg_plan, fp, pl)
    } else {
        // Extract the RETURN node from inside the group members:
        // subroot -pc-> subject -…-> extract.
        let mut fp = fp;
        let subroot = fp.add_child(fp.root(), Axis::Child, Pred::tag(tax::tags::GROUP_SUBROOT));
        let member = fp.add_child(subroot, Axis::Child, Pred::tag(subject_tag));
        let mut pl = pl;
        let mut prev = member;
        for pid in path_between(right_pattern, subject, extract) {
            prev = fp.add_child(
                prev,
                right_pattern.node(pid).axis,
                right_pattern.node(pid).pred.clone(),
            );
        }
        pl.push(ProjectItem::deep(prev));
        (group_plan, fp, pl)
    };

    Some(Plan::Rename {
        input: Box::new(Plan::Project {
            input: Box::new(plan_before_project),
            pattern: fp,
            pl,
            anchor_root: true,
        }),
        tag: tag.to_owned(),
    })
}

/// Node ids strictly between `from` (exclusive) and `to` (inclusive),
/// walking parent links from `to`.
fn path_between(
    pattern: &PatternTree,
    from: PatternNodeId,
    to: PatternNodeId,
) -> Vec<PatternNodeId> {
    let mut path = vec![to];
    let mut cur = to;
    while let Some(parent) = pattern.node(cur).parent {
        if parent == from {
            path.reverse();
            return path;
        }
        path.push(parent);
        cur = parent;
    }
    // `from` is not an ancestor; return just `to` (callers guard this).
    vec![to]
}

/// Rollup fusion: an `Aggregate` whose only input is a `GroupBy`, with
/// the grouped trees not otherwise consumed, fuses into one streaming
/// [`Plan::Rollup`] that never materializes the group trees.
///
/// The rule keys on the exact pipeline the grouping rewrite emits —
/// `Project ∘ Aggregate ∘ GroupBy` with the `Project` as the pair's sole
/// consumer — and checks everything the substitution's byte-identity
/// argument needs:
///
/// * the consuming projection anchors at tree roots, its pattern root is
///   exactly `Tag(TAX_group_root)`, and every pattern node carries a
///   required tag that is **not** `TAX_group_subroot`, reached by a `pc`
///   edge — so no binding can ever descend into the member subtree,
///   which is the only part of a group tree the rollup omits;
/// * the aggregate pattern is the canonical member walk
///   `TAX_group_root -pc-> TAX_group_subroot -pc-> member …`, its update
///   spec appends at the group root, and the aggregated label lies
///   inside the member subtree — so it re-anchors cleanly at the input
///   trees (inside a group tree, the member label binds exactly the
///   subroot's member children, i.e. the input trees themselves);
/// * the `GroupBy` has no ordering list: members then accumulate in
///   witness arrival order, and the rollup's running folds replay the
///   materialized kernel's value sequence bit for bit (floating-point
///   folds are order-sensitive).
///
/// Undefined aggregates need no special case: the materialized
/// `Aggregate` passes such group trees through without the value child
/// and the projection drops them; the rollup emits the group without the
/// value child and the same projection drops it too.
pub struct RollupFuseRule;

impl Rule for RollupFuseRule {
    fn name(&self) -> &'static str {
        "rollup-fuse"
    }

    fn apply(&self, plan: &Plan) -> Option<Plan> {
        let f = fusable(plan)?;
        let flat = f.basis.len() == 1 && f.projection_is_flat_shape();
        let rollup = Plan::Rollup {
            input: Box::new(f.input.clone()),
            pattern: f.gb_pattern.clone(),
            basis: f.basis.to_vec(),
            member_pattern: f.member_pattern,
            of: f.of,
            func: f.func,
            new_tag: f.new_tag.to_owned(),
            flat,
        };
        Some(if flat {
            rollup
        } else {
            Plan::Project {
                input: Box::new(rollup),
                pattern: f.pattern.clone(),
                pl: f.pl.to_vec(),
                anchor_root: true,
            }
        })
    }
}

/// A `Project ∘ Aggregate ∘ GroupBy` pipeline that passed every guard
/// of the [`RollupFuseRule`] substitution argument, taken apart into
/// what a fused [`Plan::Rollup`] / [`Plan::Cube`] is built from.
struct Fusable<'a> {
    /// The consuming projection.
    pattern: &'a PatternTree,
    pl: &'a [ProjectItem],
    /// The `GroupBy`'s input, pattern and basis.
    input: &'a Plan,
    gb_pattern: &'a PatternTree,
    basis: &'a [BasisItem],
    /// The aggregate, re-anchored at the member trees.
    member_pattern: PatternTree,
    of: PatternNodeId,
    func: tax::ops::aggregate::AggFunc,
    new_tag: &'a str,
}

/// Decompose `plan` as a fusable pipeline, or `None` when its shape or
/// any guard listed on [`RollupFuseRule`] fails.
fn fusable(plan: &Plan) -> Option<Fusable<'_>> {
    let Plan::Project {
        input,
        pattern,
        pl,
        anchor_root: true,
    } = plan
    else {
        return None;
    };
    let Plan::Aggregate {
        input: agg_input,
        pattern: agg_pattern,
        func,
        of,
        new_tag,
        spec,
    } = input.as_ref()
    else {
        return None;
    };
    let Plan::GroupBy {
        input: gb_input,
        pattern: gb_pattern,
        basis,
        ordering,
    } = agg_input.as_ref()
    else {
        return None;
    };
    if !ordering.is_empty() {
        return None;
    }

    // The consumer must be provably blind to the member subtree.
    let proot = pattern.root();
    if !matches!(&pattern.node(proot).pred, Pred::Tag(t) if t == tags::GROUP_ROOT) {
        return None;
    }
    for (id, node) in pattern.iter() {
        let tag = node.pred.required_tag()?;
        if tag == tags::GROUP_SUBROOT {
            return None;
        }
        if id != proot && node.axis != Axis::Child {
            return None;
        }
    }

    // The aggregate must walk root → subroot → member and append its
    // value at the group root.
    let aroot = agg_pattern.root();
    if *spec != UpdateSpec::AfterLastChild(aroot) {
        return None;
    }
    if !matches!(&agg_pattern.node(aroot).pred, Pred::Tag(t) if t == tags::GROUP_ROOT) {
        return None;
    }
    let [subroot] = agg_pattern.node(aroot).children[..] else {
        return None;
    };
    if agg_pattern.node(subroot).axis != Axis::Child
        || !matches!(&agg_pattern.node(subroot).pred, Pred::Tag(t) if t == tags::GROUP_SUBROOT)
    {
        return None;
    }
    let [member] = agg_pattern.node(subroot).children[..] else {
        return None;
    };
    if agg_pattern.node(member).axis != Axis::Child {
        return None;
    }
    let (member_pattern, mapping) = agg_pattern.subtree_pattern(member);
    let of = (*mapping.get(*of)?)?;
    Some(Fusable {
        pattern,
        pl,
        input: gb_input,
        gb_pattern,
        basis,
        member_pattern,
        of,
        func: *func,
        new_tag,
    })
}

impl Fusable<'_> {
    /// True when the consuming projection is exactly the canonical flat
    /// reshape `root { basis-wrapper { key_1 … key_k }, aggregate }` over
    /// the `k` basis items — the shape the fused kernels emit directly,
    /// so the `Project` node can disappear. Requires all of:
    ///
    /// * every basis item is content-valued, so the basis wrapper holds
    ///   exactly the bound key nodes, whose subtrees the kernel copies
    ///   verbatim (identical to the projection's deep copy);
    /// * the pattern is exactly `3 + k` nodes
    ///   `root { wrapper { key_1 … key_k }, agg }` with bare-`Tag`
    ///   predicates: the wrapper is `TAX_grouping_basis`, the key tags
    ///   are the basis nodes' required tags in basis order and pairwise
    ///   distinct (every emitted wrapper holds exactly one child per
    ///   tag, so each key binding exists and is unique), and the
    ///   aggregate tag is `new_tag` (bound iff the aggregate is defined —
    ///   the flat kernel drops undefined groups just as the projection
    ///   drops trees with no aggregate binding);
    /// * the projection list is exactly `[shallow(root), deep(key_1), …,
    ///   deep(key_k), deep(agg)]` — a fresh shallow group root with the
    ///   key subtrees and value element appended in order, which is the
    ///   flat tree.
    fn projection_is_flat_shape(&self) -> bool {
        let (pattern, basis) = (self.pattern, self.basis);
        if basis.is_empty() || basis.iter().any(|b| b.attr.is_some()) {
            return false;
        }
        let Some(key_tags) = basis
            .iter()
            .map(|b| self.gb_pattern.node(b.label).pred.required_tag())
            .collect::<Option<Vec<_>>>()
        else {
            return false;
        };
        for (i, t) in key_tags.iter().enumerate() {
            if key_tags[..i].contains(t) {
                return false;
            }
        }
        if pattern.iter().count() != 3 + basis.len() {
            return false;
        }
        let proot = pattern.root();
        let [wrapper, agg] = pattern.node(proot).children[..] else {
            return false;
        };
        if !matches!(&pattern.node(wrapper).pred, Pred::Tag(t) if t == tags::GROUPING_BASIS) {
            return false;
        }
        if !matches!(&pattern.node(agg).pred, Pred::Tag(t) if t == self.new_tag)
            || !pattern.node(agg).children.is_empty()
        {
            return false;
        }
        let keys = &pattern.node(wrapper).children[..];
        if keys.len() != basis.len() {
            return false;
        }
        for (&key, tag) in keys.iter().zip(&key_tags) {
            if !matches!(&pattern.node(key).pred, Pred::Tag(t) if t == tag)
                || !pattern.node(key).children.is_empty()
            {
                return false;
            }
        }
        let mut expect = vec![ProjectItem::shallow(proot)];
        expect.extend(keys.iter().map(|&k| ProjectItem::deep(k)));
        expect.push(ProjectItem::deep(agg));
        *self.pl == expect
    }
}

/// Cube fusion: the `Union` of per-level `Project ∘ Aggregate ∘ GroupBy`
/// pipelines emitted by a `CUBE BY` translation collapses into one
/// [`Plan::Cube`] scan that accumulates every lattice level at once.
///
/// Per branch the rule re-runs the [`RollupFuseRule`] substitution
/// argument — consumer blind to the member subtree, canonical aggregate
/// walk, unordered `GroupBy` — and additionally requires the consuming
/// projection to be exactly the *multi-key flat* reshape
/// `root { wrapper { key_1 … key_k }, value }` with projection list
/// `[shallow(root), deep(key_1), …, deep(key_k), deep(value)]`, because
/// the cube kernel only emits the flat shape. Across branches it
/// requires:
///
/// * branch `k` (1-based) groups on exactly the first `k` items of the
///   last branch's basis — the prefix chain of the lattice;
/// * every branch shares the same grouping pattern, member pattern,
///   aggregated label, function, and value tag;
/// * every branch consumes the same input plan (compared by rendered
///   plan text, since plans carry no structural equality).
///
/// Under those guards the cube's level-`k` accumulation *is* the flat
/// rollup of branch `k` — same witness stream (identical pattern and
/// input), same prefix keys, same fold order — so the fused output
/// matches the union byte for byte. When any guard fails the rule
/// backs off and [`RollupFuseRule`] fuses the branches individually.
pub struct CubeFuseRule;

impl Rule for CubeFuseRule {
    fn name(&self) -> &'static str {
        "cube-fuse"
    }

    fn apply(&self, plan: &Plan) -> Option<Plan> {
        let Plan::Union { inputs } = plan else {
            return None;
        };
        if inputs.len() < 2 {
            return None;
        }
        // The cube kernel only emits the flat shape, so per branch the
        // flat projection is mandatory, not an optimization.
        let branches: Vec<Fusable<'_>> = inputs
            .iter()
            .map(|b| fusable(b).filter(Fusable::projection_is_flat_shape))
            .collect::<Option<Vec<_>>>()?;
        let full = branches.last()?;
        if full.basis.len() != branches.len() {
            return None;
        }
        let input_text = full.input.explain();
        for (i, b) in branches.iter().enumerate() {
            if b.basis != &full.basis[..i + 1] {
                return None;
            }
            if b.gb_pattern != full.gb_pattern
                || b.member_pattern != full.member_pattern
                || b.of != full.of
                || b.func != full.func
                || b.new_tag != full.new_tag
            {
                return None;
            }
            if i + 1 < branches.len() && b.input.explain() != input_text {
                return None;
            }
        }
        Some(Plan::Cube {
            input: Box::new(full.input.clone()),
            pattern: full.gb_pattern.clone(),
            basis: full.basis.to_vec(),
            member_pattern: full.member_pattern.clone(),
            of: full.of,
            func: full.func,
            new_tag: full.new_tag.to_owned(),
        })
    }
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
    fn rollup_fuse_fires_on_the_count_pipeline() {
        let (plan, trace) = optimize(naive(QUERY_COUNT));
        assert!(trace.fired("groupby-rewrite"), "{:?}", trace.firings);
        assert!(trace.fired("rollup-fuse"), "{:?}", trace.firings);
        let text = plan.explain();
        assert!(text.contains("Rollup Count"), "{text}");
        assert!(!text.contains("GroupBy"), "{text}");
        assert!(!text.contains("Aggregate"), "{text}");
        // Both fire in the first pass, grouping rewrite before fusion.
        let order: Vec<&str> = trace.firings.iter().map(|f| f.rule).collect();
        let gb = order.iter().position(|r| *r == "groupby-rewrite").unwrap();
        let ru = order.iter().position(|r| *r == "rollup-fuse").unwrap();
        assert!(gb < ru, "{order:?}");
    }

    #[test]
    fn rollup_fuse_skips_plans_that_keep_the_group_trees() {
        // QUERY1 groups without aggregating: its projection extracts the
        // member titles through TAX_group_subroot, so the group trees
        // are consumed and fusion must not fire.
        let (plan, trace) = optimize(naive(QUERY1));
        assert!(!trace.fired("rollup-fuse"), "{:?}", trace.firings);
        assert!(plan.explain().contains("GroupBy"));
    }

    #[test]
    fn materializing_optimizer_keeps_aggregate_over_groupby() {
        let (plan, trace) = Optimizer::materializing().optimize(naive(QUERY_COUNT));
        assert!(trace.fired("groupby-rewrite"));
        assert!(!trace.fired("rollup-fuse"));
        let text = plan.explain();
        assert!(text.contains("Aggregate Count"), "{text}");
        assert!(text.contains("GroupBy"), "{text}");
    }

    #[test]
    fn rollup_fuse_refuses_an_ordered_groupby() {
        // Inject an ordering list into the fused pair's GroupBy: the
        // rollup's running floating-point folds are only bit-identical
        // in witness arrival order, so the rule must back off.
        let naive_plan = naive(QUERY_COUNT);
        let (plan, _) =
            Optimizer::with_rules(vec![Box::new(GroupByRewriteRule)]).optimize(naive_plan);
        fn add_ordering(plan: Plan) -> Plan {
            if let Plan::GroupBy {
                input,
                pattern,
                basis,
                ..
            } = plan
            {
                let label = basis[0].label;
                return Plan::GroupBy {
                    input,
                    pattern,
                    basis,
                    ordering: vec![tax::ops::groupby::GroupOrder {
                        label,
                        direction: tax::ops::groupby::Direction::Ascending,
                    }],
                };
            }
            map_children(plan, &mut add_ordering)
        }
        let ordered = add_ordering(plan);
        let (fused, trace) =
            Optimizer::with_rules(vec![Box::new(RollupFuseRule)]).optimize(ordered);
        assert!(!trace.fired("rollup-fuse"), "{:?}", trace.firings);
        assert!(fused.explain().contains("GroupBy"));
    }

    const QUERY_CUBE: &str = r#"
        FOR $b IN document("bib.xml")//article
        CUBE BY $b/journal, $b/year, $b/author
        RETURN <pubs> {count($b/title)} </pubs>
    "#;

    #[test]
    fn cube_fuse_collapses_the_lattice_union() {
        let (plan, trace) = optimize(naive(QUERY_CUBE));
        assert!(trace.fired("cube-fuse"), "{:?}", trace.firings);
        assert!(!trace.fired("rollup-fuse"), "{:?}", trace.firings);
        let text = plan.explain();
        assert!(text.contains("Cube Count"), "{text}");
        assert!(text.contains("levels=3"), "{text}");
        assert!(!text.contains("Union"), "{text}");
        assert!(!text.contains("GroupBy"), "{text}");
        assert!(!text.contains("Aggregate"), "{text}");
        // The shared scan below the cube still gets select/project fused.
        assert!(text.contains("SelectProject"), "{text}");
    }

    #[test]
    fn materializing_optimizer_keeps_the_lattice_union() {
        let (plan, trace) = Optimizer::materializing().optimize(naive(QUERY_CUBE));
        assert!(!trace.fired("cube-fuse"), "{:?}", trace.firings);
        let text = plan.explain();
        assert!(text.contains("Union (3 branches)"), "{text}");
        assert_eq!(text.matches("GroupBy").count(), 3, "{text}");
        assert!(!text.contains("Cube"), "{text}");
    }

    #[test]
    fn cube_fuse_degrades_to_per_branch_rollups_when_a_guard_fails() {
        // Order one branch's GroupBy: cube-fuse must back off entirely,
        // and rollup-fuse then fuses the still-unordered branches — the
        // graceful-degradation path.
        fn order_first_level(plan: Plan) -> Plan {
            if let Plan::GroupBy {
                input,
                pattern,
                basis,
                ordering,
            } = plan
            {
                let ordering = if basis.len() == 1 {
                    vec![tax::ops::groupby::GroupOrder {
                        label: basis[0].label,
                        direction: tax::ops::groupby::Direction::Ascending,
                    }]
                } else {
                    ordering
                };
                return Plan::GroupBy {
                    input,
                    pattern,
                    basis,
                    ordering,
                };
            }
            map_children(plan, &mut order_first_level)
        }
        let (plan, trace) = optimize(order_first_level(naive(QUERY_CUBE)));
        assert!(!trace.fired("cube-fuse"), "{:?}", trace.firings);
        assert!(trace.fired("rollup-fuse"), "{:?}", trace.firings);
        let text = plan.explain();
        assert!(text.contains("Union (3 branches)"), "{text}");
        assert_eq!(text.matches("Rollup Count").count(), 2, "{text}");
        assert_eq!(text.matches("GroupBy").count(), 1, "{text}");
    }

    #[test]
    fn cube_fuse_requires_prefix_bases_and_shared_scans() {
        let Plan::Rename { input, .. } = naive(QUERY_CUBE) else {
            panic!()
        };
        let Plan::Union { inputs } = *input else {
            panic!()
        };
        assert!(CubeFuseRule
            .apply(&Plan::Union {
                inputs: inputs.clone()
            })
            .is_some());
        // Dropping the middle level breaks the prefix chain.
        let gappy = vec![inputs[0].clone(), inputs[2].clone()];
        assert!(CubeFuseRule.apply(&Plan::Union { inputs: gappy }).is_none());
        // A single branch is not a lattice.
        let single = vec![inputs[2].clone()];
        assert!(CubeFuseRule
            .apply(&Plan::Union { inputs: single })
            .is_none());
        // Reordered levels are not a prefix chain either.
        let mut reversed = inputs;
        reversed.reverse();
        assert!(CubeFuseRule
            .apply(&Plan::Union { inputs: reversed })
            .is_none());
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
