//! The optimizer: the paper's grouping rewrite (Sec. 4.1), and nothing
//! else.
//!
//! [`optimize`] looks once at the plan root for the join-based naive
//! plan of a grouping query (Phase 1, `detect`) and, when it finds
//! one, builds the `GROUPBY` plan (Phase 2): one [`Plan::GroupBy`]
//! carrying Fig. 5d's member path, or for the Sec. 4.3 count variant one
//! [`Plan::Rollup`]. Each is the one operator the executor runs.
//! `translate` emits `StitchConstruct` only at the root, so no other node
//! can be a grouping.
//!
//! Nothing else is rewritten. Both subject scans — the rewrite's Fig. 5a
//! input and the `CUBE BY` input — come from one builder in `translate`,
//! which already starts below a `doc_root` root that constrains nothing;
//! and the executor runs a `Project` over a `SelectDb` of its own pattern
//! as one match. The outcome is recorded in an [`OptTrace`] (surfaced by
//! `EXPLAIN` / `EXPLAIN ANALYZE` in the `timber` crate).

use crate::plan::{Levels, Plan};
use crate::translate::subject_scan;
use std::fmt::Write;
use tax::ops::aggregate::AggFunc;
use tax::ops::groupby::{BasisItem, Direction, GroupOrder};
use tax::pattern::{PatternNodeId, PatternTree};

/// The name the grouping rewrite is traced under.
const GROUPBY_REWRITE: &str = "groupby-rewrite";

/// One rule application, in firing order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleFiring {
    /// The rule that fired.
    pub rule: &'static str,
}

/// The recorded trace of an [`optimize`] run.
#[derive(Debug, Clone, Default)]
pub struct OptTrace {
    /// Every rule firing, in order.
    pub firings: Vec<RuleFiring>,
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
            let _ = writeln!(out, "{}", f.rule);
        }
        out
    }
}

/// Apply the grouping rewrite at the plan root, in one pass. A plan it
/// does not recognize is returned unchanged, with no firing.
pub fn optimize(plan: Plan) -> (Plan, OptTrace) {
    let (plan, firings) = match detect(&plan) {
        Some(rewritten) => (
            rewritten,
            vec![RuleFiring {
                rule: GROUPBY_REWRITE,
            }],
        ),
        None => (plan, Vec::new()),
    };
    (plan, OptTrace { firings })
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
//    trees (Fig. 5d) — carried by the `GroupBy` as its member path, the
//    subject → RETURN node path, which it gathers in the same pass;
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
        Plan::SelectDb { .. } => true,
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
    let input = Box::new(subject_scan(subject_path, ids[0]));

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
    let ordering = order.map(|(_, direction)| GroupOrder {
        label: ids[1],
        direction,
    });

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
            levels: Levels::Finest,
        },
        // Step 3 rides on the grouping: each group's row is its key and
        // its members' matches of the member path's RETURN node.
        None => Plan::GroupBy {
            input,
            pattern,
            basis,
            ordering: ordering.into_iter().collect(),
            gather: Some((member, extract[0])),
        },
    };
    Some(Plan::Rename {
        input: Box::new(grouped),
        tag: tag.to_owned(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_query, translate};
    use tax::pattern::{Axis, Pred};

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
    fn query1_traces_exactly_groupby_rewrite() {
        let (plan, trace) = optimize(naive(QUERY1));
        assert_eq!(trace.render(), "groupby-rewrite\n");
        // The rewrite's scan is the `Project ∘ SelectDb` of the articles.
        let text = plan.explain();
        let leaf: Vec<&str> = text.lines().rev().take(2).map(str::trim_start).collect();
        assert_eq!(
            leaf,
            [
                "SelectDb pattern=[$1:article] SL=[\"$1\"]",
                "Project pattern=[$1:article] PL=[\"$1*\"] anchor_root=true",
            ],
            "{text}"
        );
        assert!(!text.contains("LeftOuterJoinDb"), "{text}");
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
        assert_eq!(fired, ["groupby-rewrite"]);
        let text = plan.explain();
        let lines: Vec<&str> = text.lines().map(str::trim_start).collect();
        assert_eq!(lines.len(), 4, "{text}");
        assert_eq!(lines[0], "Rename to <authorpubs>");
        assert!(
            lines[1].starts_with("Rollup Count(member $2) as <count> flat "),
            "{text}"
        );
        assert!(lines[2].starts_with("Project"), "{text}");
        assert!(lines[3].starts_with("SelectDb"), "{text}");
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
        let (plan, trace) = optimize(plan);
        assert!(trace.firings.is_empty());
        assert!(plan.explain().contains("LeftOuterJoinDb"));
    }

    const QUERY_CUBE: &str = r#"
        FOR $b IN document("bib.xml")//article
        CUBE BY $b/journal, $b/year, $b/author
        RETURN <pubs> {count($b/title)} </pubs>
    "#;

    #[test]
    fn a_three_dimension_cube_is_one_cube_over_one_scan() {
        // `translate` builds the cube's plan whole: nothing is rewritten.
        let (plan, trace) = optimize(naive(QUERY_CUBE));
        assert!(trace.firings.is_empty());
        assert_eq!(
            plan.explain(),
            "Rename to <pubs>\n  \
             Cube Count(member $2) as <count> levels=3 \
             pattern=[$1:article, $1-pc->$2:journal, $1-pc->$3:year, $1-pc->$4:author] \
             basis=[\"$2.content\", \"$3.content\", \"$4.content\"] \
             member=[$1:article, $1-pc->$2:title]\n    \
             Project pattern=[$1:article] PL=[\"$1*\"] anchor_root=true\n      \
             SelectDb pattern=[$1:article] SL=[\"$1\"]\n"
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
    }

    // === Grouping-rewrite (Sec. 4.1) detection and plan shape ===

    /// Run the grouping rewrite, asserting it fires.
    fn grouping_rewritten(q: &str) -> Plan {
        let (plan, trace) = optimize(naive(q));
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
        let text = plan.explain();
        assert!(text.contains("Rename to <authorpubs>"), "{text}");
        assert!(text.contains("GroupBy"), "{text}");
        assert!(
            !text.contains("LeftOuterJoinDb"),
            "the join must go: {text}"
        );
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
        let (_, trace) = optimize(naive(q));
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
        let (_, trace) = optimize(naive(q));
        assert!(
            !trace.fired("groupby-rewrite"),
            "editor is not in the inner pattern; no rewrite"
        );
    }
}
