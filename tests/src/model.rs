//! The oracle: the query *as written*, evaluated by its own nested
//! loops over parsed DOMs.
//!
//! [`eval`] interprets the XQuery AST directly — FOR [distinct-values] /
//! CUBE BY / LET / WHERE `=` / ORDER BY / RETURN — with document-order
//! path walks and linear scans. It knows nothing of pattern trees,
//! plans, rewrite rules, stores, symbols, batches or threads, and must
//! never import them (CI greps for it): every faster path in the engine
//! is differentially tested against the bytes this file returns.
//!
//! What it defines: the serialized result, one constructed element per
//! line, exactly as `QueryResult::to_xml_on` must produce it. What it
//! deliberately does not: EXPLAIN text, metrics, error messages.
//!
//! The data model is the paper's (Sec. 2): a node has a tag and a
//! *content*; an element's content is its text when it has no element
//! children and is absent otherwise. `=`, `distinct-values` and grouping
//! keys compare contents as strings; an absent content equals nothing in
//! a comparison and is one key of its own in `distinct-values` and in a
//! grouping key. Whitespace-only text is not stored.

use std::cmp::Ordering;
use xmlparse::serialize::element_to_string;
use xmlparse::{parse_document, Element, XmlNode};
use xquery::ast::{
    AggName, CubeClause, Flwr, Operand, PathExpr, PathRoot, ReturnExpr, ReturnItem, StepAxis,
};

/// A query (or document) the model cannot evaluate. A calling test must
/// fail on it — never skip.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unsupported(pub String);

type Result<T> = std::result::Result<T, Unsupported>;
type Seq<'d> = Vec<&'d Element>;
/// The contents of a node sequence, absent ones included.
type Values = Vec<Option<String>>;

/// Variable bindings, innermost last.
#[derive(Clone, Default)]
struct Env<'q, 'd>(Vec<(&'q str, Seq<'d>)>);

impl<'q, 'd> Env<'q, 'd> {
    fn with(&self, var: &'q str, seq: Seq<'d>) -> Self {
        let mut env = self.clone();
        env.0.push((var, seq));
        env
    }

    fn get(&self, var: &str) -> Result<&Seq<'d>> {
        let bound = self.0.iter().rev().find(|(v, _)| *v == var);
        bound
            .map(|(_, seq)| seq)
            .ok_or_else(|| Unsupported(format!("unbound variable ${var}")))
    }
}

/// Evaluate `query` over the database holding `docs` (in insertion
/// order, under one synthetic root) and serialize the result.
pub fn eval(docs: &[&str], query: &str) -> Result<String> {
    let q = xquery::parse_query(query).map_err(|e| Unsupported(e.to_string()))?;
    let mut root = Element::new("doc_root");
    for doc in docs {
        let parsed = parse_document(doc).map_err(|e| Unsupported(e.to_string()))?;
        root.children
            .push(XmlNode::Element(stored_form(parsed.into_root())));
    }
    let mut out = String::new();
    for e in flwr(&root, &q, &Env::default())? {
        out.push_str(&element_to_string(&e));
        out.push('\n');
    }
    Ok(out)
}

/// What loading keeps of an element: no comments, no whitespace-only
/// text.
fn stored_form(mut e: Element) -> Element {
    let text_only = e.child_elements().next().is_none();
    if text_only && e.text().trim().is_empty() {
        e.children.clear();
    }
    e.children.retain(|c| match c {
        XmlNode::Text(t) => text_only || !t.trim().is_empty(),
        XmlNode::Element(_) => true,
        XmlNode::Comment(_) => false,
    });
    for c in &mut e.children {
        if let XmlNode::Element(child) = c {
            *child = stored_form(std::mem::take(child));
        }
    }
    e
}

/// The content of a node (see the module docs).
fn content(e: &Element) -> Option<String> {
    let text_only = e.child_elements().next().is_none();
    Some(e.text()).filter(|t| text_only && !t.is_empty())
}

/// `from/a/b/c`: child steps only, document order.
fn children<'d>(from: &[&'d Element], names: &[String]) -> Seq<'d> {
    let mut cur = from.to_vec();
    for name in names {
        let named = |e: &&'d Element| e.child_elements().filter(|c| c.name == *name);
        cur = cur.iter().flat_map(named).collect();
    }
    cur
}

fn path<'d>(root: &'d Element, p: &PathExpr, env: &Env<'_, 'd>) -> Result<Seq<'d>> {
    let mut cur: Seq<'d> = match &p.root {
        PathRoot::Document(_) => vec![root],
        PathRoot::Var(v) => env.get(v)?.clone(),
    };
    for step in &p.steps {
        let mut next: Seq<'d> = Vec::new();
        for e in cur {
            let candidates: Seq<'d> = match step.axis {
                StepAxis::Child => e.child_elements().filter(|c| c.name == step.name).collect(),
                StepAxis::Descendant => e
                    .descendants()
                    .skip(1)
                    .filter(|d| d.name == step.name)
                    .collect(),
            };
            for c in candidates {
                let keep = match &step.predicate {
                    None => true,
                    Some(pred) => {
                        let rhs = operand(&pred.rhs, env)?;
                        exists_equal(&contents(&children(&[c], &pred.path)), &rhs)
                    }
                };
                if keep && !next.iter().any(|n| std::ptr::eq(*n, c)) {
                    next.push(c);
                }
            }
        }
        cur = next;
    }
    Ok(cur)
}

fn contents(seq: &[&Element]) -> Values {
    seq.iter().map(|e| content(e)).collect()
}

fn operand(op: &Operand, env: &Env<'_, '_>) -> Result<Values> {
    Ok(match op {
        Operand::Literal(s) => vec![Some(s.clone())],
        Operand::Var(v) => contents(env.get(v)?),
        Operand::VarPath(v, p) => contents(&children(env.get(v)?, p)),
    })
}

/// XQuery's general comparison: some pair of values is equal.
fn exists_equal(left: &[Option<String>], right: &[Option<String>]) -> bool {
    left.iter()
        .flatten()
        .any(|l| right.iter().flatten().any(|r| l == r))
}

/// Numeric when both sides are numbers, else by string; absent first.
fn compare_keys(a: &Option<String>, b: &Option<String>) -> Ordering {
    match (a, b) {
        (Some(x), Some(y)) => match (x.trim().parse::<f64>(), y.trim().parse::<f64>()) {
            (Ok(m), Ok(n)) => m.partial_cmp(&n).unwrap_or(Ordering::Equal),
            _ => x.cmp(y),
        },
        _ => a.is_some().cmp(&b.is_some()),
    }
}

fn flwr<'q, 'd>(root: &'d Element, q: &'q Flwr, env: &Env<'q, 'd>) -> Result<Vec<Element>> {
    if let Some(cube) = &q.cube_by {
        return cube_by(root, q, cube, env);
    }
    let mut bound = path(root, &q.for_clause.source, env)?;
    if q.for_clause.distinct {
        let mut seen: Values = Vec::new();
        bound.retain(|e| {
            let fresh = !seen.contains(&content(e));
            if fresh {
                seen.push(content(e));
            }
            fresh
        });
    }
    let mut rows: Vec<(Option<String>, Vec<Element>)> = Vec::new();
    for b in bound {
        let mut env = env.with(&q.for_clause.var, vec![b]);
        if let Some(l) = &q.let_clause {
            let seq = path(root, &l.source, &env)?;
            env = env.with(&l.var, seq);
        }
        let mut keep = true;
        for c in &q.where_clause {
            keep &= exists_equal(&operand(&c.left, &env)?, &operand(&c.right, &env)?);
        }
        if !keep {
            continue;
        }
        let key = match &q.order_by {
            Some(o) => children(env.get(&o.var)?, &o.path)
                .first()
                .and_then(|e| content(e)),
            None => None,
        };
        rows.push((key, returned(root, &q.return_clause, &env)?));
    }
    if let Some(o) = &q.order_by {
        // `sort_by` is stable: ties keep binding order.
        rows.sort_by(|a, b| {
            let (a, b) = if o.descending { (b, a) } else { (a, b) };
            compare_keys(&a.0, &b.0)
        });
    }
    Ok(rows.into_iter().flat_map(|(_, out)| out).collect())
}

fn copies(seq: &[&Element]) -> Vec<Element> {
    seq.iter().map(|e| (*e).clone()).collect()
}

fn returned<'q, 'd>(
    root: &'d Element,
    r: &'q ReturnExpr,
    env: &Env<'q, 'd>,
) -> Result<Vec<Element>> {
    Ok(match r {
        ReturnExpr::Var(v) => copies(env.get(v)?),
        ReturnExpr::Path(v, p) => copies(&children(env.get(v)?, p)),
        ReturnExpr::Element(c) => {
            let mut e = Element::new(&c.tag);
            for item in &c.items {
                let produced = match item {
                    ReturnItem::Var(v) => copies(env.get(v)?),
                    ReturnItem::VarPath(v, p) => copies(&children(env.get(v)?, p)),
                    ReturnItem::Agg(f, v, p) => aggregate(*f, &children(env.get(v)?, p))
                        .into_iter()
                        .collect(),
                    ReturnItem::Nested(inner) => flwr(root, inner, env)?,
                };
                e.children
                    .extend(produced.into_iter().map(XmlNode::Element));
            }
            vec![e]
        }
    })
}

/// `<f>value</f>`, or nothing where the aggregate is undefined (min,
/// max, avg over no numeric value). `count` counts nodes; the others
/// fold the numeric contents in sequence order and ignore the rest.
fn aggregate(f: AggName, seq: &[&Element]) -> Option<Element> {
    let nums: Vec<f64> = contents(seq)
        .iter()
        .flatten()
        .filter_map(|t| t.trim().parse().ok())
        .collect();
    let sum = nums.iter().fold(0.0, |acc, n| acc + n);
    let value = match f {
        AggName::Count => Some(seq.len() as f64),
        AggName::Sum => Some(sum),
        AggName::Min => nums.iter().copied().reduce(f64::min),
        AggName::Max => nums.iter().copied().reduce(f64::max),
        AggName::Avg => Some(sum / nums.len() as f64).filter(|_| !nums.is_empty()),
    };
    value.map(|v| Element::new(f.name()).with_text(number(v)))
}

/// Whole numbers print as integers (`2002`), fractions in full
/// (`1998.3333333333333`).
fn number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// `CUBE BY $b/d1, …, $b/dL RETURN <t>{f($b/p)}</t>`: for every prefix
/// length k, coarsest first, one `<t>` per distinct (d1..dk) key in
/// first-occurrence order, holding the first occurrence's key nodes and
/// `f` over the `p` nodes of the group's members. A binding is a member
/// of every group one of its dimension combinations keys — once — and
/// of none when some dimension is missing. `CUBE BY` is this repo's
/// extension, and it returns a row only for a group that has something
/// to aggregate: some `p` node among its members, and for min, max and
/// avg a numeric one.
fn cube_by<'q, 'd>(
    root: &'d Element,
    q: &'q Flwr,
    cube: &'q CubeClause,
    env: &Env<'q, 'd>,
) -> Result<Vec<Element>> {
    let var = &q.for_clause.var;
    let bare = !q.for_clause.distinct && q.let_clause.is_none() && q.order_by.is_none();
    let (tag, func, of) = match &q.return_clause {
        ReturnExpr::Element(c) if bare && q.where_clause.is_empty() && cube.var == *var => {
            match &c.items[..] {
                [ReturnItem::Agg(f, v, p)] if v == var => (&c.tag, *f, p),
                _ => return Err(Unsupported("CUBE BY returns one aggregate".into())),
            }
        }
        _ => {
            return Err(Unsupported(
                "CUBE BY: FOR, CUBE BY, RETURN <t>…</t> only".into(),
            ))
        }
    };
    let subjects = path(root, &q.for_clause.source, env)?;
    let mut combos: Vec<(usize, Seq<'d>)> = Vec::new();
    for (i, s) in subjects.iter().enumerate() {
        let mut of_subject: Vec<Seq<'d>> = vec![Vec::new()];
        for dim in &cube.dims {
            let nodes = children(&[s], dim);
            of_subject = of_subject
                .iter()
                .flat_map(|c| nodes.iter().map(|n| [&c[..], &[*n]].concat()))
                .collect();
        }
        combos.extend(of_subject.into_iter().map(|c| (i, c)));
    }
    let mut out = Vec::new();
    for k in 1..=cube.dims.len() {
        // (key, first occurrence's key nodes, member subjects)
        let mut groups: Vec<(Values, &[&Element], Vec<usize>)> = Vec::new();
        for (i, combo) in &combos {
            let key = contents(&combo[..k]);
            match groups.iter_mut().find(|g| g.0 == key) {
                Some(g) if g.2.contains(i) => {}
                Some(g) => g.2.push(*i),
                None => groups.push((key, &combo[..k], vec![*i])),
            }
        }
        for (_, key_nodes, members) in groups {
            let members: Seq<'d> = members.iter().map(|&i| subjects[i]).collect();
            let of_members = children(&members, of);
            let Some(value) = aggregate(func, &of_members).filter(|_| !of_members.is_empty())
            else {
                continue;
            };
            let mut e = Element::new(tag);
            let kids = copies(key_nodes).into_iter().chain([value]);
            e.children.extend(kids.map(XmlNode::Element));
            out.push(e);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FIG6_DB, QUERY1, QUERY2, QUERY_COUNT};

    /// `f` over the `<y>` of the `<p>`s each distinct `<a>` appears in.
    fn agg(xml: &str, f: &str) -> String {
        let q = format!(
            r#"FOR $a IN distinct-values(document("b")//a)
               LET $y := document("b")//p[a = $a]/y RETURN <r> {{$a}} {{{f}($y)}} </r>"#
        );
        eval(&[xml], &q).unwrap()
    }

    #[test]
    fn reproduces_the_hand_written_figure_6_bytes() {
        let titles = "\
<authorpubs><author>Jack</author><title>Querying XML</title><title>XML and the Web</title></authorpubs>\n\
<authorpubs><author>John</author><title>Querying XML</title><title>Hack HTML</title></authorpubs>\n\
<authorpubs><author>Jill</author><title>XML and the Web</title></authorpubs>\n";
        assert_eq!(eval(&[FIG6_DB], QUERY1).unwrap(), titles);
        assert_eq!(eval(&[FIG6_DB], QUERY2).unwrap(), titles);
        let counts = "\
<authorpubs><author>Jack</author><count>2</count></authorpubs>\n\
<authorpubs><author>John</author><count>2</count></authorpubs>\n\
<authorpubs><author>Jill</author><count>1</count></authorpubs>\n";
        assert_eq!(eval(&[FIG6_DB], QUERY_COUNT).unwrap(), counts);
    }

    #[test]
    fn aggregates_render_as_the_examples_do() {
        let xml = "<b><p><a>Jack</a><y>2001</y></p><p><a>Jack</a><y>1999</y></p>\
                   <p><a>Jack</a><y>1995</y></p><p><a>Jill</a><y>2002</y></p><p><a>Al</a></p></b>";
        let row = |f: &str, n: usize| agg(xml, f).lines().nth(n).unwrap().to_owned();
        assert_eq!(
            row("avg", 0),
            "<r><a>Jack</a><avg>1998.3333333333333</avg></r>"
        );
        assert_eq!(row("avg", 1), "<r><a>Jill</a><avg>2002</avg></r>");
        assert_eq!(row("sum", 0), "<r><a>Jack</a><sum>5995</sum></r>");
        assert_eq!(row("min", 0), "<r><a>Jack</a><min>1995</min></r>");
        // Nothing numeric to fold: max is undefined, count and sum are 0.
        assert_eq!(row("max", 2), "<r><a>Al</a></r>");
        assert_eq!(row("count", 2), "<r><a>Al</a><count>0</count></r>");
    }

    #[test]
    fn ragged_input_follows_the_query_as_written() {
        // Two documents. A duplicate author counts its article once; an
        // author with element content has no content and equals nothing.
        let a = "<b><p><a>Jo</a><a>Jo</a><y>1</y></p><p><a>Al</a><y>2</y></p></b>";
        let b = "<b><p><a><n>Jo</n></a><y>3</y></p></b>";
        let q = r#"FOR $a IN distinct-values(document("b")//a) RETURN <r> {$a}
                   { FOR $p IN document("b")//p WHERE $p/a = $a RETURN $p/y } </r>"#;
        let want = "<r><a>Jo</a><y>1</y></r>\n<r><a>Al</a><y>2</y></r>\n<r><a><n>Jo</n></a></r>\n";
        assert_eq!(eval(&[a, b], q).unwrap(), want);
    }

    #[test]
    fn order_by_is_stable_and_cube_by_walks_the_prefixes() {
        let xml =
            "<b><p><j>J</j><a>X</a><t>b</t><y>2</y></p><p><j>J</j><a>X</a><t>a</t><y>10</y></p>\
                   <p><j>J</j><a>Y</a><t>c</t><y>2</y></p><p><j>K</j><t>d</t></p></b>";
        let q = r#"FOR $x IN distinct-values(document("b")//j) RETURN <r> {$x}
                   { FOR $p IN document("b")//p WHERE $x = $p/j
                     ORDER BY $p/y DESCENDING RETURN $p/t } </r>"#;
        // Numeric order (10 > 2); the two 2s keep document order.
        let want = "<r><j>J</j><t>a</t><t>b</t><t>c</t></r>\n<r><j>K</j><t>d</t></r>\n";
        assert_eq!(eval(&[xml], q).unwrap(), want);
        // K's article lacks a dimension: it is in no group.
        let cube = r#"FOR $p IN document("b")//p CUBE BY $p/j, $p/a RETURN <c> {sum($p/y)} </c>"#;
        let want = "<c><j>J</j><sum>14</sum></c>\n<c><j>J</j><a>X</a><sum>12</sum></c>\n\
                    <c><j>J</j><a>Y</a><sum>2</sum></c>\n";
        assert_eq!(eval(&[xml], cube).unwrap(), want);
    }

    #[test]
    fn what_it_cannot_evaluate_is_an_error() {
        assert!(eval(&["<b/>"], "FOR $a IN").is_err());
        assert!(eval(&["<b>"], QUERY1).is_err());
        let unbound = r#"FOR $a IN document("b")//x RETURN <r> {$z} </r>"#;
        assert!(eval(&["<b><x/></b>"], unbound).is_err());
    }
}
