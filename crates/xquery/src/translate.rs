//! The "naive parsing" of Sec. 4.1: FLWR → join-based TAX plan.
//!
//! The outer FOR becomes a pattern tree (a chain down to the bound
//! variable, Fig. 4a), a selection adorned at that variable, a projection
//! keeping each witness tree, and (for `distinct-values`) a duplicate
//! elimination on its content. A nested FLWR (or a `LET` with a variable
//! predicate) becomes a **left outer join** between the outer bindings
//! and the database — the "join-plan" pattern tree of Fig. 4b /
//! Fig. 11b: the right pattern holds the inner FOR's subject (adorned),
//! the join node compared with the outer value, the RETURN node and the
//! ORDER BY node. The RETURN arguments are then stitched back together
//! per outer binding (full outer join + final projection + rename, fused
//! here into [`Plan::StitchConstruct`]), reading the RETURN and ORDER BY
//! nodes off the join.
//!
//! Two deliberate inefficiencies of the naive plan are preserved, because
//! the paper calls them out: the database is selected **multiple times**
//! (the outer selection is re-evaluated as the left side of the join),
//! and the join recomputes a structural relationship that is "already
//! known" in the data.

use crate::ast::*;
use crate::error::{QueryError, Result};
use crate::plan::Plan;
use tax::ops::aggregate::AggFunc;
use tax::ops::groupby::{BasisItem, Direction};
use tax::ops::project::ProjectItem;
use tax::pattern::{Axis, PatternNodeId, PatternTree, Pred};

/// Reserved tag of the synthetic document root (must agree with
/// `xmlstore::document::DOC_ROOT_TAG`).
const DOC_ROOT: &str = "doc_root";

/// Translate a parsed FLWR into the naive TAX plan.
pub fn translate(q: &Flwr) -> Result<Plan> {
    if let Some(cube) = &q.cube_by {
        return translate_cube(q, cube);
    }
    // ---- the outer FOR --------------------------------------------------
    let PathRoot::Document(_) = q.for_clause.source.root else {
        return Err(QueryError::Unsupported(
            "the outer FOR must range over document(…)".into(),
        ));
    };
    if q.for_clause.source.steps.is_empty() {
        return Err(QueryError::Unsupported(
            "the outer FOR path needs at least one step".into(),
        ));
    }
    if q.for_clause
        .source
        .steps
        .iter()
        .any(|s| s.predicate.is_some())
    {
        return Err(QueryError::Unsupported(
            "predicates in the outer FOR path are not supported".into(),
        ));
    }
    if !q.where_clause.is_empty() {
        return Err(QueryError::Unsupported(
            "WHERE on the outer FLWR is not supported (use a nested FLWR)".into(),
        ));
    }
    let (outer_pattern, outer_label) = chain_pattern(&q.for_clause.source.steps);

    // Selection (SL = bound variable), projection (PL = all nodes, `*` on
    // the bound variable), then duplicate elimination for
    // distinct-values.
    let mut pl: Vec<ProjectItem> = Vec::new();
    for (id, _) in outer_pattern.iter() {
        pl.push(if id == outer_label {
            ProjectItem::deep(id)
        } else {
            ProjectItem::shallow(id)
        });
    }
    let mut outer_plan = Plan::Project {
        input: Box::new(Plan::SelectDb {
            pattern: outer_pattern.clone(),
            sl: vec![outer_label],
        }),
        pattern: outer_pattern.clone(),
        pl,
        anchor_root: true,
    };
    if q.for_clause.distinct {
        outer_plan = Plan::DupElim {
            input: Box::new(outer_plan),
            pattern: outer_pattern.clone(),
            by: outer_label,
        };
    }

    // ---- the RETURN clause ----------------------------------------------
    let ReturnExpr::Element(constructor) = &q.return_clause else {
        return Err(QueryError::Unsupported(
            "the outer RETURN must be an element constructor".into(),
        ));
    };
    let outer_var = &q.for_clause.var;

    // Classify the constructor items: `{$a}` plus at most one nested part.
    let mut saw_outer_var = false;
    let mut nested_part: Option<NestedPart<'_>> = None;
    for item in &constructor.items {
        match item {
            ReturnItem::Var(v) if v == outer_var => saw_outer_var = true,
            ReturnItem::Var(v) => match &q.let_clause {
                Some(l) if &l.var == v => {
                    set_nested(&mut nested_part, NestedPart::Let { l, agg: None })?
                }
                _ => return Err(QueryError::UnboundVariable(v.clone())),
            },
            ReturnItem::Agg(func, v, path) => {
                if !path.is_empty() {
                    return Err(QueryError::Unsupported(
                        "aggregates over a path are only supported with CUBE BY".into(),
                    ));
                }
                match &q.let_clause {
                    Some(l) if &l.var == v => {
                        let agg = Some(*func);
                        set_nested(&mut nested_part, NestedPart::Let { l, agg })?
                    }
                    _ => return Err(QueryError::UnboundVariable(v.clone())),
                }
            }
            ReturnItem::Nested(flwr) => set_nested(&mut nested_part, NestedPart::Flwr(flwr))?,
            ReturnItem::VarPath(..) => {
                return Err(QueryError::Unsupported(
                    "path items in the outer RETURN are not supported".into(),
                ))
            }
        }
    }
    if !saw_outer_var {
        return Err(QueryError::Unsupported(
            "the outer RETURN must emit the FOR variable ({$a})".into(),
        ));
    }

    // ---- the nested part: build the join-plan ---------------------------
    let Some(part) = nested_part else {
        // Pure projection query: no join needed.
        return Ok(Plan::StitchConstruct {
            outer: Box::new(outer_plan),
            outer_pattern,
            outer_label,
            inner: None,
            agg: None,
            tag: constructor.tag.clone(),
        });
    };

    let (right, agg) = match part {
        NestedPart::Flwr(nested) => (build_right_from_nested(outer_var, nested)?, None),
        NestedPart::Let { l, agg } => {
            if q.order_by.is_some() {
                return Err(QueryError::Unsupported(
                    "ORDER BY with the LET formulation is not supported".into(),
                ));
            }
            (build_right_from_let(outer_var, l)?, agg)
        }
    };
    let agg: Option<(AggFunc, String)> = agg.map(|f| (agg_func_of(f), f.name().to_owned()));

    let inner = Plan::LeftOuterJoinDb {
        left: Box::new(outer_plan.clone()),
        left_pattern: outer_pattern.clone(),
        left_label: outer_label,
        right_pattern: right.pattern.clone(),
        right_label: right.join,
        right_sl: vec![right.bound],
        right_extract: right.extract,
        order: right.order,
    };

    Ok(Plan::StitchConstruct {
        outer: Box::new(outer_plan),
        outer_pattern,
        outer_label,
        inner: Some(Box::new(inner)),
        agg,
        tag: constructor.tag.clone(),
    })
}

/// Translate a `CUBE BY` query: one [`Plan::Cube`] over the scan of the
/// FOR subjects, grouping on every dimension prefix `basis[..k]` and
/// aggregating the RETURN path. `CUBE BY` has no paper plan "as
/// written", so both plan modes run this one; the reference model
/// defines its bytes.
fn translate_cube(q: &Flwr, cube: &CubeClause) -> Result<Plan> {
    let PathRoot::Document(_) = q.for_clause.source.root else {
        return Err(QueryError::Unsupported(
            "the outer FOR must range over document(…)".into(),
        ));
    };
    let Some(subject_step) = q.for_clause.source.steps.last() else {
        return Err(QueryError::Unsupported(
            "the outer FOR path needs at least one step".into(),
        ));
    };
    if q.for_clause
        .source
        .steps
        .iter()
        .any(|s| s.predicate.is_some())
    {
        return Err(QueryError::Unsupported(
            "predicates in the outer FOR path are not supported".into(),
        ));
    }
    if q.for_clause.distinct {
        return Err(QueryError::Unsupported(
            "distinct-values with CUBE BY is not supported".into(),
        ));
    }
    if q.let_clause.is_some() || !q.where_clause.is_empty() || q.order_by.is_some() {
        return Err(QueryError::Unsupported(
            "CUBE BY supports no LET, WHERE, or ORDER BY".into(),
        ));
    }
    if cube.var != q.for_clause.var {
        return Err(QueryError::UnboundVariable(cube.var.clone()));
    }

    // RETURN: an element constructor holding exactly one aggregate over
    // a path on the FOR variable, e.g. `<pubs>{count($b/title)}</pubs>`.
    let ReturnExpr::Element(constructor) = &q.return_clause else {
        return Err(QueryError::Unsupported(
            "the CUBE BY RETURN must be an element constructor".into(),
        ));
    };
    let [ReturnItem::Agg(func, v, agg_path)] = &constructor.items[..] else {
        return Err(QueryError::Unsupported(
            "the CUBE BY RETURN must hold exactly one aggregate item".into(),
        ));
    };
    if v != &q.for_clause.var {
        return Err(QueryError::UnboundVariable(v.clone()));
    }
    if agg_path.is_empty() {
        return Err(QueryError::Unsupported(
            "the CUBE BY aggregate needs a path, e.g. count($b/title)".into(),
        ));
    }

    // Distinct dimension leaf tags keep an output row's key children
    // apart.
    let mut dim_tags: Vec<&String> = Vec::with_capacity(cube.dims.len());
    for dim in &cube.dims {
        let Some(t) = dim.last() else {
            return Err(QueryError::Unsupported(
                "a CUBE BY dimension needs a path".into(),
            ));
        };
        if dim_tags.contains(&t) {
            return Err(QueryError::Unsupported(format!(
                "CUBE BY dimensions must end in distinct tags (<{t}> repeats)"
            )));
        }
        dim_tags.push(t);
    }

    // The input scan: one deep subject tree per match of the FOR path
    // (exactly the grouping rewrite's input shape).
    let (subject_path, subject_in_path) = chain_pattern(&q.for_clause.source.steps);
    let input = Plan::Project {
        input: Box::new(Plan::SelectDb {
            pattern: subject_path.clone(),
            sl: vec![subject_in_path],
        }),
        pattern: subject_path,
        pl: vec![ProjectItem::deep(subject_in_path)],
        anchor_root: true,
    };

    // The grouping pattern: the subject with every dimension grafted, so
    // a tree participates only when all dimensions are present (cube
    // semantics). The aggregate's pattern: the subject and its path.
    let subject = Pred::tag(subject_step.name.clone());
    let (mut pattern, mut member_pattern) = (
        PatternTree::with_root(subject.clone()),
        PatternTree::with_root(subject),
    );
    let root = pattern.root();
    let basis = cube
        .dims
        .iter()
        .map(|dim| BasisItem::content(add_child_chain(&mut pattern, root, dim)))
        .collect();
    let of = add_child_chain(&mut member_pattern, root, agg_path);
    Ok(Plan::Rename {
        input: Box::new(Plan::Cube {
            input: Box::new(input),
            pattern,
            basis,
            member_pattern,
            of,
            func: agg_func_of(*func),
            new_tag: func.name().to_owned(),
        }),
        tag: constructor.tag.clone(),
    })
}

fn agg_func_of(f: AggName) -> AggFunc {
    match f {
        AggName::Count => AggFunc::Count,
        AggName::Sum => AggFunc::Sum,
        AggName::Min => AggFunc::Min,
        AggName::Max => AggFunc::Max,
        AggName::Avg => AggFunc::Avg,
    }
}

enum NestedPart<'a> {
    Flwr(&'a Flwr),
    Let {
        l: &'a LetClause,
        agg: Option<AggName>,
    },
}

fn set_nested<'a>(slot: &mut Option<NestedPart<'a>>, part: NestedPart<'a>) -> Result<()> {
    if slot.is_some() {
        return Err(QueryError::Unsupported(
            "at most one nested part per RETURN is supported".into(),
        ));
    }
    *slot = Some(part);
    Ok(())
}

/// The right ("inner") side of the join plan.
pub(crate) struct RightSide {
    /// The pattern over the database.
    pub pattern: PatternTree,
    /// The bound FOR/LET subject (e.g. the article) — adorned in the
    /// join's SL.
    pub bound: PatternNodeId,
    /// The join node compared against the outer value (e.g. the author).
    pub join: PatternNodeId,
    /// The node the nested RETURN extracts (e.g. the title).
    pub extract: PatternNodeId,
    /// The ORDER BY node and direction, if sorting was requested.
    pub order: Option<(PatternNodeId, Direction)>,
}

/// Join-plan right side from a nested FLWR:
/// `FOR $b IN document(…)//article WHERE $a = $b/author RETURN $b/title`.
fn build_right_from_nested(outer_var: &str, nested: &Flwr) -> Result<RightSide> {
    let PathRoot::Document(_) = nested.for_clause.source.root else {
        return Err(QueryError::Unsupported(
            "the nested FOR must range over document(…)".into(),
        ));
    };
    if nested.for_clause.distinct {
        return Err(QueryError::Unsupported(
            "distinct-values on the nested FOR is not supported".into(),
        ));
    }
    if nested.let_clause.is_some() {
        return Err(QueryError::Unsupported(
            "LET inside the nested FLWR is not supported".into(),
        ));
    }
    if nested
        .for_clause
        .source
        .steps
        .iter()
        .any(|s| s.predicate.is_some())
    {
        return Err(QueryError::Unsupported(
            "predicates in the nested FOR path are not supported".into(),
        ));
    }
    let (mut pattern, bound) = chain_pattern(&nested.for_clause.source.steps);

    // WHERE $a = $b/relpath (either orientation).
    if nested.where_clause.len() != 1 {
        return Err(QueryError::Unsupported(
            "the nested FLWR needs exactly one WHERE comparison".into(),
        ));
    }
    let cmp = &nested.where_clause[0];
    let join_path = match (&cmp.left, &cmp.right) {
        (Operand::Var(a), Operand::VarPath(b, path))
        | (Operand::VarPath(b, path), Operand::Var(a))
            if a == outer_var && b == &nested.for_clause.var =>
        {
            path
        }
        _ => return Err(QueryError::Unsupported(
            "the nested WHERE must compare the outer variable with a path on the nested variable"
                .into(),
        )),
    };
    let join = add_child_chain(&mut pattern, bound, join_path);

    // RETURN $b/relpath2.
    let ReturnExpr::Path(v, ret_path) = &nested.return_clause else {
        return Err(QueryError::Unsupported(
            "the nested RETURN must be a path on the nested variable".into(),
        ));
    };
    if v != &nested.for_clause.var {
        return Err(QueryError::UnboundVariable(v.clone()));
    }
    let extract = add_child_chain(&mut pattern, bound, ret_path);

    // ORDER BY $b/path [ASCENDING|DESCENDING] — Sec. 4.1: "The ordering
    // list will be generated … only if sorting was requested by the
    // user."
    let order = match &nested.order_by {
        None => None,
        Some(ob) => {
            if ob.var != nested.for_clause.var {
                return Err(QueryError::Unsupported(
                    "ORDER BY must sort on a path of the nested FOR variable".into(),
                ));
            }
            let node = if *ob.path == *ret_path {
                extract
            } else {
                add_child_chain(&mut pattern, bound, &ob.path)
            };
            let dir = if ob.descending {
                Direction::Descending
            } else {
                Direction::Ascending
            };
            Some((node, dir))
        }
    };
    Ok(RightSide {
        pattern,
        bound,
        join,
        extract,
        order,
    })
}

/// Join-plan right side from a LET clause:
/// `LET $t := document(…)//article[author = $a]/title`.
fn build_right_from_let(outer_var: &str, l: &LetClause) -> Result<RightSide> {
    let PathRoot::Document(_) = l.source.root else {
        return Err(QueryError::Unsupported(
            "the LET path must start at document(…)".into(),
        ));
    };
    // Exactly one step carries the `[relpath = $outer]` predicate; the
    // predicated step is the bound subject, the remaining steps lead to
    // the extracted node.
    let mut pred_step = None;
    for (i, step) in l.source.steps.iter().enumerate() {
        if let Some(pred) = &step.predicate {
            if pred_step.is_some() {
                return Err(QueryError::Unsupported(
                    "only one predicated step is supported in LET".into(),
                ));
            }
            pred_step = Some((i, pred));
        }
    }
    let Some((subject_idx, step_pred)) = pred_step else {
        return Err(QueryError::Unsupported(
            "the LET path needs a [child = $var] predicate to correlate with the FOR".into(),
        ));
    };
    if subject_idx + 1 != l.source.steps.len() - 1 {
        return Err(QueryError::Unsupported(
            "the LET path must be …//subject[path = $var]/extracted".into(),
        ));
    }
    let (mut pattern, bound) = chain_pattern(&l.source.steps[..subject_idx + 1]);
    match &step_pred.rhs {
        Operand::Var(v) if v == outer_var => {}
        _ => {
            return Err(QueryError::Unsupported(
                "the LET predicate must compare against the outer FOR variable".into(),
            ))
        }
    }
    let join = add_child_chain(&mut pattern, bound, &step_pred.path);
    let last_step = &l.source.steps[l.source.steps.len() - 1];
    let extract = pattern.add_child(
        bound,
        axis_of(last_step.axis),
        Pred::tag(last_step.name.clone()),
    );
    Ok(RightSide {
        pattern,
        bound,
        join,
        extract,
        order: None,
    })
}

/// Build `doc_root` + the step chain; returns the pattern and the last
/// node.
fn chain_pattern(steps: &[Step]) -> (PatternTree, PatternNodeId) {
    let mut p = PatternTree::with_root(Pred::tag(DOC_ROOT));
    let mut cur = p.root();
    for step in steps {
        cur = p.add_child(cur, axis_of(step.axis), Pred::tag(step.name.clone()));
    }
    (p, cur)
}

/// Append a `/a/b/c` chain of pc edges under `from`; returns the last
/// node.
fn add_child_chain(
    pattern: &mut PatternTree,
    from: PatternNodeId,
    names: &[String],
) -> PatternNodeId {
    let mut cur = from;
    for name in names {
        cur = pattern.add_child(cur, Axis::Child, Pred::tag(name.clone()));
    }
    cur
}

fn axis_of(a: StepAxis) -> Axis {
    match a {
        StepAxis::Child => Axis::Child,
        StepAxis::Descendant => Axis::Descendant,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_query;

    const QUERY1: &str = r#"
        FOR $a IN distinct-values(document("bib.xml")//author)
        RETURN <authorpubs>
          {$a}
          { FOR $b IN document("bib.xml")//article
            WHERE $a = $b/author
            RETURN $b/title }
        </authorpubs>
    "#;

    const QUERY2: &str = r#"
        FOR $a IN distinct-values(document("bib.xml")//author)
        LET $t := document("bib.xml")//article[author = $a]/title
        RETURN <authorpubs> {$a} {$t} </authorpubs>
    "#;

    #[test]
    fn query1_naive_plan_shape() {
        let plan = translate(&parse_query(QUERY1).unwrap()).unwrap();
        assert!(plan.uses_join(), "naive plan must use the left outer join");
        assert!(!plan.uses_groupby());
        let text = plan.explain();
        assert!(text.contains("StitchConstruct <authorpubs>"), "{text}");
        assert!(text.contains("DupElim"), "{text}");
        assert!(text.contains("LeftOuterJoinDb"), "{text}");
        // The outer selection appears twice (the paper's "multiple
        // selections over the database").
        assert_eq!(text.matches("SelectDb").count(), 2, "{text}");
    }

    #[test]
    fn query1_join_plan_pattern_matches_fig4b() {
        let plan = translate(&parse_query(QUERY1).unwrap()).unwrap();
        let Plan::StitchConstruct {
            inner: Some(inner), ..
        } = &plan
        else {
            panic!()
        };
        let Plan::LeftOuterJoinDb {
            right_pattern,
            right_label,
            right_sl,
            ..
        } = inner.as_ref()
        else {
            panic!()
        };
        let s = crate::plan::pattern_summary(right_pattern);
        // doc_root -ad-> article; article -pc-> author; article -pc-> title.
        assert_eq!(
            s,
            "[$1:doc_root, $1-ad->$2:article, $2-pc->$3:author, $2-pc->$4:title]"
        );
        assert_eq!(*right_label, 2); // the author node
        assert_eq!(right_sl, &vec![1]); // SL: $5 (the article) in paper numbering
    }

    #[test]
    fn query2_let_form_translates() {
        let plan = translate(&parse_query(QUERY2).unwrap()).unwrap();
        assert!(plan.uses_join());
        let Plan::StitchConstruct {
            inner: Some(inner),
            agg,
            ..
        } = &plan
        else {
            panic!()
        };
        assert!(agg.is_none());
        let Plan::LeftOuterJoinDb { right_pattern, .. } = inner.as_ref() else {
            panic!()
        };
        let s = crate::plan::pattern_summary(right_pattern);
        assert_eq!(
            s,
            "[$1:doc_root, $1-ad->$2:article, $2-pc->$3:author, $2-pc->$4:title]"
        );
    }

    #[test]
    fn count_variant_sets_count_tag() {
        let q = r#"
            FOR $a IN distinct-values(document("bib.xml")//author)
            LET $t := document("bib.xml")//article[author = $a]/title
            RETURN <authorpubs> {$a} {count($t)} </authorpubs>
        "#;
        let plan = translate(&parse_query(q).unwrap()).unwrap();
        let Plan::StitchConstruct { agg, .. } = &plan else {
            panic!()
        };
        assert_eq!(agg.as_ref().map(|(_, t)| t.as_str()), Some("count"));
    }

    #[test]
    fn projection_only_query() {
        let q = r#"
            FOR $a IN distinct-values(document("bib.xml")//author)
            RETURN <row> {$a} </row>
        "#;
        let plan = translate(&parse_query(q).unwrap()).unwrap();
        assert!(!plan.uses_join());
        let Plan::StitchConstruct { inner, .. } = &plan else {
            panic!()
        };
        assert!(inner.is_none());
    }

    #[test]
    fn institution_query_multi_step_join_path() {
        let q = r#"
            FOR $i IN distinct-values(document("bib.xml")//institution)
            RETURN <instpubs>
              {$i}
              { FOR $b IN document("bib.xml")//article
                WHERE $i = $b/author/institution
                RETURN $b/title }
            </instpubs>
        "#;
        let plan = translate(&parse_query(q).unwrap()).unwrap();
        let Plan::StitchConstruct {
            inner: Some(inner), ..
        } = &plan
        else {
            panic!()
        };
        let Plan::LeftOuterJoinDb {
            right_pattern,
            right_label,
            ..
        } = inner.as_ref()
        else {
            panic!()
        };
        assert_eq!(
            right_pattern.node(*right_label).pred.required_tag(),
            Some("institution")
        );
    }

    #[test]
    fn unsupported_shapes_error_cleanly() {
        // Outer WHERE.
        let e = translate(
            &parse_query(r#"FOR $a IN document("b")//x WHERE $a = "1" RETURN <t>{$a}</t>"#)
                .unwrap(),
        );
        assert!(matches!(e, Err(QueryError::Unsupported(_))));
        // RETURN without the outer var.
        let e = translate(&parse_query(r#"FOR $a IN document("b")//x RETURN <t></t>"#).unwrap());
        assert!(matches!(e, Err(QueryError::Unsupported(_))));
        // Unbound variable in RETURN.
        let e = translate(
            &parse_query(r#"FOR $a IN document("b")//x RETURN <t>{$a}{$z}</t>"#).unwrap(),
        );
        assert!(matches!(e, Err(QueryError::UnboundVariable(_))));
    }

    const QUERY_CUBE: &str = r#"
        FOR $b IN document("bib.xml")//article
        CUBE BY $b/journal, $b/year, $b/author
        RETURN <pubs> {count($b/title)} </pubs>
    "#;

    #[test]
    fn cube_translates_to_one_cube_over_the_subject_scan() {
        let plan = translate(&parse_query(QUERY_CUBE).unwrap()).unwrap();
        let Plan::Rename { input, tag } = &plan else {
            panic!("outer node must rename to the constructor tag")
        };
        assert_eq!(tag, "pubs");
        let Plan::Cube {
            input,
            pattern,
            basis,
            member_pattern,
            of,
            ..
        } = input.as_ref()
        else {
            panic!("a cube translates to one Cube: {plan:?}")
        };
        assert_eq!(
            crate::plan::pattern_summary(pattern),
            "[$1:article, $1-pc->$2:journal, $1-pc->$3:year, $1-pc->$4:author]"
        );
        let labels: Vec<usize> = basis.iter().map(|b| b.label).collect();
        assert_eq!(labels, [1, 2, 3], "one level per dimension prefix");
        assert_eq!(
            crate::plan::pattern_summary(member_pattern),
            "[$1:article, $1-pc->$2:title]"
        );
        assert_eq!(*of, 1);
        // The input is the subject scan, as the grouping rewrite's.
        assert!(matches!(
            input.as_ref(),
            Plan::Project { input, .. } if matches!(input.as_ref(), Plan::SelectDb { .. })
        ));
    }

    #[test]
    fn cube_rejects_unsupported_shapes() {
        for (q, needle) in [
            (
                r#"FOR $b IN distinct-values(document("bib.xml")//article)
                   CUBE BY $b/journal RETURN <p>{count($b/title)}</p>"#,
                "distinct-values",
            ),
            (
                r#"FOR $b IN document("bib.xml")//article CUBE BY $b/journal
                   WHERE $b = "x" RETURN <p>{count($b/title)}</p>"#,
                "LET, WHERE, or ORDER BY",
            ),
            (
                r#"FOR $b IN document("bib.xml")//article
                   CUBE BY $b/year, $b/old/year RETURN <p>{count($b/title)}</p>"#,
                "distinct tags",
            ),
            (
                r#"FOR $b IN document("bib.xml")//article
                   CUBE BY $b/journal RETURN <p>{count($b)}</p>"#,
                "needs a path",
            ),
            (
                r#"FOR $b IN document("bib.xml")//article
                   CUBE BY $b/journal RETURN <p>{$b}{count($b/title)}</p>"#,
                "exactly one aggregate",
            ),
        ] {
            let err = translate(&parse_query(q).unwrap()).unwrap_err();
            assert!(err.to_string().contains(needle), "{q}: {err}");
        }
    }

    #[test]
    fn aggregate_paths_without_cube_by_are_rejected() {
        let q = parse_query(
            r#"FOR $a IN distinct-values(document("b")//author)
               LET $t := document("b")//article[author = $a]/title
               RETURN <r> {$a} {count($t/x)} </r>"#,
        )
        .unwrap();
        let err = translate(&q).unwrap_err();
        assert!(err.to_string().contains("CUBE BY"), "{err}");
    }
}
