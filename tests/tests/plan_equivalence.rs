//! Property-based equivalence: on randomly generated bibliographic
//! databases, the naive join plan and the rewritten GROUPBY plan must
//! both produce what the query as written evaluates to (the reference
//! model), for all three query forms — and so must the paper's literal
//! count plan, which the rewrite emits as one `Rollup`. This is the
//! correctness core of the rewrite (Sec. 4.1/4.2) — together with its
//! precondition, pinned below on the one input shape where the rewrite
//! and the query part.

use smallrand::prop::{check, Gen};
use std::fmt::Write as _;
use tax::ops::aggregate::{AggFunc, UpdateSpec};
use tax::ops::groupby::BasisItem;
use tax::ops::project::ProjectItem;
use tax::pattern::{Axis, PatternTree, Pred};
use tax::tags;
use timber::{OutKind, PlanMetrics, PlanMode, TimberDb, TimberError};
use timber_integration_tests::{
    assert_matches_model, bibliography, expected, fig6_db, run, Shape, FIG6_DB, QUERY1, QUERY2,
    QUERY_COUNT,
};
use xmlstore::StoreOptions;
use xquery::Plan;

#[test]
fn both_plans_equal_the_model_on_random_bibliographies() {
    check(
        "both_plans_equal_the_model_on_random_bibliographies",
        48,
        |g| {
            let shape = [Shape::Plain, Shape::Ragged][g.usize_in(0, 1)];
            let xml = bibliography(g, shape);
            let db = TimberDb::load_xml(&xml, &StoreOptions::in_memory()).unwrap();
            for query in [QUERY1, QUERY2, QUERY_COUNT] {
                assert_matches_model(&db, &xml, query, "plan equivalence");
            }
            let literal = db.run_plan(&literal_count_plan(), true).unwrap();
            assert_eq!(
                literal.to_xml_on(db.store()).unwrap(),
                expected(&xml, QUERY_COUNT),
                "literal count plan on {xml}"
            );
        },
    );
}

/// Attributes ride along: the engine groups on content alone, and both
/// plans write a node's attributes out as the model does. Articles carry
/// `key` and `mdate`, some authors an `id` (Jack once with one, once
/// without), and titles a `lang` and an escaped `&`.
#[test]
fn attributes_flow_through_both_plans_as_in_the_model() {
    let xml = r#"<bib>
        <article key="journals/tods/A1" mdate="2002-01-03">
            <author id="a1">Jack</author><author>Jill</author>
            <title lang="en">Querying XML &amp; SQL</title>
        </article>
        <article key="journals/tods/A2" mdate="2001-11-30">
            <author>Jack</author><author id="a3">John</author>
            <title lang="de">XML and the Web</title>
        </article>
        <article key="conf/webdb/A3" mdate="2002-02-14">
            <author id="a2">Jill</author>
            <title lang="en">Hack HTML &amp; CSS</title>
        </article>
    </bib>"#;
    let db = TimberDb::load_xml(xml, &StoreOptions::in_memory()).unwrap();
    for query in [QUERY1, QUERY2, QUERY_COUNT] {
        assert_matches_model(&db, xml, query, "attributes");
    }
    // The case is only worth its name if the output holds them.
    let out = expected(xml, QUERY1);
    assert!(out.contains(r#"<author id="a1">Jack</author>"#), "{out}");
    assert!(
        out.contains(r#"<title lang="en">Querying XML &amp; SQL</title>"#),
        "{out}"
    );
}

/// The paper's count plan as written (Sec. 4.1, count variant Sec. 4.3),
/// built by hand for [`QUERY_COUNT`]: the scan of the articles, `GROUPBY`
/// on the author (Fig. 5b/5c), the title count appended to each group,
/// the final projection (Fig. 5d) and the rename. The rewrite emits the
/// middle three as one `Rollup`.
fn literal_count_plan() -> Plan {
    let tag = |t: &str| Pred::tag(t);
    let mut grouping = PatternTree::with_root(tag("article"));
    let author = grouping.add_child(0, Axis::Child, tag("author"));
    let mut members = PatternTree::with_root(tag(tags::GROUP_ROOT));
    let subroot = members.add_child(0, Axis::Child, tag(tags::GROUP_SUBROOT));
    let article = members.add_child(subroot, Axis::Child, tag("article"));
    let title = members.add_child(article, Axis::Child, tag("title"));
    let mut out = PatternTree::with_root(tag(tags::GROUP_ROOT));
    let basis = out.add_child(0, Axis::Child, tag(tags::GROUPING_BASIS));
    let key = out.add_child(basis, Axis::Child, tag("author"));
    let count = out.add_child(0, Axis::Child, tag("count"));
    let group = Plan::GroupBy {
        input: Box::new(scan(PatternTree::with_root(tag("article")))),
        pattern: grouping,
        basis: vec![BasisItem::content(author)],
        ordering: vec![],
        gather: None,
    };
    let aggregate = Plan::Aggregate {
        input: Box::new(group),
        pattern: members,
        func: AggFunc::Count,
        of: title,
        new_tag: "count".into(),
        spec: UpdateSpec::AfterLastChild(0),
    };
    Plan::Rename {
        input: Box::new(Plan::Project {
            input: Box::new(aggregate),
            pattern: out,
            pl: vec![
                ProjectItem::shallow(0),
                ProjectItem::deep(key),
                ProjectItem::deep(count),
            ],
            anchor_root: true,
        }),
        tag: "authorpubs".into(),
    }
}

#[test]
fn the_papers_literal_count_plan_equals_the_model_on_fig6() {
    // Every operator of the literal plan runs over rows — `GroupBy`'s
    // groups, the count `Aggregate` appends to each, the projection of
    // key and count — and serves the bytes the rewrite's `Rollup` serves.
    let db = fig6_db();
    let result = db.run_plan(&literal_count_plan(), true).unwrap();
    let want = expected(FIG6_DB, QUERY_COUNT);
    assert_eq!(result.to_xml_on(db.store()).unwrap(), want);
    assert_eq!(run(&db, QUERY_COUNT, PlanMode::GroupByRewrite), want);
    let text = result.metrics.unwrap().render();
    let ops: Vec<&str> = text
        .lines()
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    let literal = [
        "Rename",
        "Project",
        "Aggregate",
        "GroupBy",
        "Project",
        "SelectDb",
    ];
    assert_eq!(ops, literal, "{text}");
}

/// The grouping sink of a rewritten plan, `Rename` over `GroupBy` or
/// `Rollup`.
fn sink_of(plan: &mut Plan) -> &mut Plan {
    match plan {
        Plan::Rename { input, .. } => input,
        other => panic!("not a rewritten plan: {other:?}"),
    }
}

/// `plan` with its grouping sink's input, the subject scan, replaced.
fn with_leaf(plan: &Plan, leaf: Plan) -> Plan {
    let mut plan = plan.clone();
    match sink_of(&mut plan) {
        Plan::Rollup { input, .. } | Plan::GroupBy { input, .. } => **input = leaf,
        other => panic!("no grouping sink: {other:?}"),
    }
    plan
}

/// The `[$1*]` scan of `pattern`: one stored row per match.
fn scan(pattern: PatternTree) -> Plan {
    Plan::Project {
        input: Box::new(Plan::SelectDb {
            pattern: pattern.clone(),
            sl: vec![pattern.root()],
        }),
        pl: vec![ProjectItem::deep(pattern.root())],
        pattern,
        anchor_root: true,
    }
}

/// `article -pc-> author`.
fn authored() -> PatternTree {
    let mut p = PatternTree::with_root(Pred::tag("article"));
    p.add_child(p.root(), Axis::Child, Pred::tag("author"));
    p
}

#[test]
fn repeated_stored_rows_group_like_a_document_that_repeats_the_articles() {
    // The XQuery subset cannot put a predicate on the outer scan, so a
    // scan that hands a grouping sink the same stored row more than once
    // is built by hand — and the model answers for it on the document
    // with the articles physically repeated the same way: `article[author]`
    // with `PL=[$1*]` emits an article once per author (equal rows,
    // adjacent). The count query is the one to ask: a rollup counts per
    // row, whereas the titles query's final `Project` writes a node that
    // several rows of one stored article reach once (physical.rs pins
    // that plan's bytes).
    check("repeated stored rows equal the model", 32, |g| {
        let xml = bibliography(g, Shape::Plain);
        let body = &xml["<bib>".len()..xml.len() - "</bib>".len()];
        let per_author: String = body
            .split_inclusive("</article>")
            .map(|a| a.repeat(a.matches("<author>").count()))
            .collect();
        let repeated = format!("<bib>{per_author}</bib>");
        let db = TimberDb::load_xml(&xml, &StoreOptions::in_memory()).unwrap();
        let (plan, _) = db.compile(QUERY_COUNT, PlanMode::GroupByRewrite).unwrap();
        let result = db
            .run_plan(&with_leaf(&plan, scan(authored())), true)
            .unwrap();
        assert_eq!(
            result.to_xml_on(db.store()).unwrap(),
            expected(&repeated, QUERY_COUNT),
            "on {xml}"
        );
        // The rows reached the sink as stored rows.
        let mut m = result.metrics.as_ref().unwrap();
        while m.shards.is_none() {
            m = &m.children[0];
        }
        let fed = m.children[0].out_kind;
        assert!(fed.is_none() || fed == Some(OutKind::Stored), "{fed:?}");
    });
}

#[test]
fn the_rewrite_drops_an_author_no_titled_article_carries() {
    // The GROUPBY plan reaches authors only through the articles its
    // final projection matches, title included (TAX projection keeps a
    // tree only where the whole pattern embeds). The query as written —
    // and the direct plan's left outer join — keep Jane with nothing
    // nested. DESIGN.md, *Oracle*, records the divergence; the random
    // shapes hold the precondition (every author has a titled article).
    let xml = "<bib>\
        <article><author>Jane</author></article>\
        <article><author>Jack</author><title>T</title></article>\
    </bib>";
    let jack = "<authorpubs><author>Jack</author><title>T</title></authorpubs>\n";
    let jack_count = "<authorpubs><author>Jack</author><count>1</count></authorpubs>\n";
    let db = TimberDb::load_xml(xml, &StoreOptions::in_memory()).unwrap();
    for (query, jane, jack) in [
        (
            QUERY1,
            "<authorpubs><author>Jane</author></authorpubs>\n",
            jack,
        ),
        (
            QUERY2,
            "<authorpubs><author>Jane</author></authorpubs>\n",
            jack,
        ),
        (
            QUERY_COUNT,
            "<authorpubs><author>Jane</author><count>0</count></authorpubs>\n",
            jack_count,
        ),
    ] {
        let want = expected(xml, query);
        assert_eq!(want, format!("{jane}{jack}"));
        assert_eq!(run(&db, query, PlanMode::Direct), want);
        assert_eq!(run(&db, query, PlanMode::GroupByRewrite), jack);
    }
}

#[test]
fn nested_articles_part_the_rewrite_from_the_query() {
    // An article inside an article, and one inside a `<section>`. The
    // query binds `$b/author` at `$b` only; the rewrite's grouping
    // witnesses are unanchored (TAX semantics), so the outer article
    // also joins Jill's group through the inner one's author. DESIGN.md,
    // *Oracle*, 4: the direct plan equals the model, the rewrite is
    // pinned to its bytes — which also hold the gather on nested rows,
    // where a node two members reach is written once.
    let xml = "<bib><article><author>Jack</author><title>Outer</title>\
        <article><author>Jack</author><author>Jill</author><title>Inner</title></article></article>\
        <section><article><author>Jill</author><title>Sec</title></article></section></bib>";
    let titles =
        "<authorpubs><author>Jack</author><title>Outer</title><title>Inner</title></authorpubs>\n\
        <authorpubs><author>Jill</author><title>Inner</title><title>Sec</title></authorpubs>\n";
    let rewritten = "<authorpubs><author>Jack</author><title>Outer</title><title>Inner</title></authorpubs>\n\
        <authorpubs><author>Jill</author><title>Outer</title><title>Inner</title><title>Sec</title></authorpubs>\n";
    let count = |jill: u32| {
        format!(
            "<authorpubs><author>Jack</author><count>2</count></authorpubs>\n\
             <authorpubs><author>Jill</author><count>{jill}</count></authorpubs>\n"
        )
    };
    let db = TimberDb::load_xml(xml, &StoreOptions::in_memory()).unwrap();
    for (query, model, grouped) in [
        (QUERY1, titles.to_owned(), rewritten.to_owned()),
        (QUERY2, titles.to_owned(), rewritten.to_owned()),
        (QUERY_COUNT, count(2), count(3)),
    ] {
        assert_eq!(expected(xml, query), model);
        assert_eq!(run(&db, query, PlanMode::Direct), model, "{query}");
        assert_eq!(
            run(&db, query, PlanMode::GroupByRewrite),
            grouped,
            "{query}"
        );
    }
}

/// The three query forms over the subject `//doc_root`. The store's only
/// `doc_root` is its synthetic root, which has no `doc_root` above it, so
/// the query as written finds no subject.
const DOC_ROOT_SUBJECTS: [&str; 3] = [
    r#"FOR $a IN distinct-values(document("bib.xml")//author)
       RETURN <authorpubs> {$a}
         { FOR $b IN document("bib.xml")//doc_root
           WHERE $a = $b/bib/article/author
           RETURN $b/bib/article/title }
       </authorpubs>"#,
    r#"FOR $a IN distinct-values(document("bib.xml")//author)
       LET $t := document("bib.xml")//doc_root[bib/article/author = $a]/bib
       RETURN <authorpubs> {$a} {count($t)} </authorpubs>"#,
    r#"FOR $b IN document("bib.xml")//doc_root CUBE BY $b/bib
       RETURN <p>{count($b/bib)}</p>"#,
];

/// `model` minus the rows DESIGN.md, *Oracle*, 1 says the GROUPBY plan
/// drops: an author no subject joins, nesting nothing or counting zero.
fn joined_rows(model: &str) -> String {
    let joined = |row: &&str| row.matches("</").count() > 2 && !row.contains("<count>0</count>");
    model
        .lines()
        .filter(joined)
        .map(|row| format!("{row}\n"))
        .collect()
}

#[test]
fn a_doc_root_subject_binds_no_stored_node_in_either_plan() {
    // The subject scan must not start below a `doc_root` pattern root
    // whose child is `doc_root` itself: the scan would then bind the
    // store root, and the GROUPBY plan would group every article under
    // it. Both plans must find no subject, as the model does.
    let hold = |xml: &str| {
        let db = TimberDb::load_xml(xml, &StoreOptions::in_memory()).unwrap();
        for (i, query) in DOC_ROOT_SUBJECTS.iter().enumerate() {
            let want = expected(xml, query);
            let cell = format!("{query} on {xml}");
            assert_eq!(run(&db, query, PlanMode::Direct), want, "{cell}");
            let grouped = match i {
                2 => want,
                _ => joined_rows(&want),
            };
            assert_eq!(grouped, "", "{cell}");
            let got = run(&db, query, PlanMode::GroupByRewrite);
            assert_eq!(got, grouped, "{cell}");
        }
    };
    hold(FIG6_DB);
    check("a doc_root subject binds no stored node", 1, |g| {
        hold(&bibliography(g, Shape::Plain))
    });
}

/// Query 1's shape returning `$b/<ret>`, the inner FLWR ordered by
/// `order` (empty for none).
fn nested(ret: &str, order: &str) -> String {
    format!(
        r#"FOR $a IN distinct-values(document("bib.xml")//author)
        RETURN <x> {{$a}} {{ FOR $b IN document("bib.xml")//article
          WHERE $a = $b/author {order} RETURN $b/{ret} }} </x>"#
    )
}

#[test]
fn returning_the_join_tag_keeps_the_key_and_the_members_node_apart() {
    // `RETURN $b/author` returns the author a group is keyed by among
    // each article's authors: in the GROUPBY plan the key and the first
    // member's author are one stored node and two output nodes. The
    // final projection once aliased a stored node to whatever reference
    // of the group tree targeted it, and dropped the member's.
    let xml = "<bib>\
        <article><title>T1</title><author>A</author><author>B</author></article>\
        <article><title>T2</title><author>A</author></article>\
        <article><title>T3</title><author>B</author></article>\
    </bib>";
    let want = "<x><author>A</author><author>A</author><author>B</author><author>A</author></x>\n\
        <x><author>B</author><author>A</author><author>B</author><author>B</author></x>\n";
    let query = nested("author", "");
    assert_eq!(expected(xml, &query), want);
    let db = TimberDb::load_xml(xml, &StoreOptions::in_memory()).unwrap();
    for mode in [PlanMode::Direct, PlanMode::GroupByRewrite] {
        assert_eq!(run(&db, &query, mode), want, "{mode:?}");
    }
}

#[test]
fn ordering_by_a_repeated_path_keeps_an_articles_titles_together() {
    // An article sorts by its first title and returns its titles
    // together, in both plans: the direct plan's stitch orders a row's
    // parts by the row's first witness, as a group orders a member.
    let xml = "<bib>\
        <article><author>A</author><title>B</title><title>Z</title></article>\
        <article><author>A</author><title>M</title></article>\
    </bib>";
    let query = nested("title", "ORDER BY $b/title");
    let want = "<x><author>A</author><title>B</title><title>Z</title><title>M</title></x>\n";
    assert_eq!(expected(xml, &query), want);
    let db = TimberDb::load_xml(xml, &StoreOptions::in_memory()).unwrap();
    for mode in [PlanMode::Direct, PlanMode::GroupByRewrite] {
        assert_eq!(run(&db, &query, mode), want, "{mode:?}");
    }
}

/// Articles of 1–3 authors drawn with repetition, 0–2 titles (one
/// sometimes holding a nested `<title>`) and one `<year>` of three:
/// multi-title, untitled and nested-title articles, and ORDER BY ties.
fn gather_bibliography(g: &mut Gen) -> String {
    let mut s = String::from("<bib>");
    for n in 0..g.usize_in(0, 10) {
        s.push_str("<article>");
        for _ in 0..g.usize_in(1, 3) {
            let _ = write!(
                s,
                "<author>{}</author>",
                g.pick(&["Jack", "Jill", "John", "Jane"])
            );
        }
        for t in 0..*g.pick(&[0, 1, 1, 2]) {
            let _ = match g.ratio(1, 4) {
                true => write!(s, "<title>T{n}.{t}<title>Inner {n}</title></title>"),
                false => write!(s, "<title>T{n}.{t}</title>"),
            };
        }
        let _ = write!(s, "<year>{}</year></article>", 1999 + g.usize_in(0, 2));
    }
    s + "</bib>"
}

/// The titles plan with the `GroupBy`'s member edge made `-ad->`:
/// `$b//title`.
fn descendant_extract(plan: &Plan) -> Plan {
    let mut plan = plan.clone();
    let Plan::GroupBy {
        gather: Some((member, extract)),
        ..
    } = sink_of(&mut plan)
    else {
        panic!("not the titles plan")
    };
    assert_eq!(member.len(), 2, "{member:?}");
    let mut p = PatternTree::with_root(Pred::tag("article"));
    *extract = p.add_child(p.root(), Axis::Descendant, Pred::tag("title"));
    *member = p;
    plan
}

#[test]
fn a_hand_built_fig5d_projection_over_a_groupby_is_refused_typed() {
    // The paper's Phase 2 plan as two operators: Fig. 5d's final
    // projection over a `GroupBy` that emits its groups. The gather runs
    // only as the `GroupBy`'s own member path, so this plan is a typed
    // refusal — no panic, no bytes — and the store answers next.
    let db = fig6_db();
    let (mut plan, _) = db.compile(QUERY1, PlanMode::GroupByRewrite).unwrap();
    let Plan::Rename { input, .. } = &mut plan else {
        panic!("{plan:?}")
    };
    let Plan::GroupBy { gather, .. } = &mut **input else {
        panic!("{input:?}")
    };
    *gather = None;
    let tag = |t: &str| Pred::tag(t);
    let mut p = PatternTree::with_root(tag(tags::GROUP_ROOT));
    let basis = p.add_child(p.root(), Axis::Child, tag(tags::GROUPING_BASIS));
    let key = p.add_child(basis, Axis::Child, tag("author"));
    let subroot = p.add_child(p.root(), Axis::Child, tag(tags::GROUP_SUBROOT));
    let member = p.add_child(subroot, Axis::Child, tag("article"));
    let title = p.add_child(member, Axis::Child, tag("title"));
    let groups = std::mem::replace(&mut **input, scan(authored()));
    **input = Plan::Project {
        input: Box::new(groups),
        pattern: p,
        pl: vec![
            ProjectItem::shallow(0),
            ProjectItem::deep(key),
            ProjectItem::deep(title),
        ],
        anchor_root: true,
    };
    match db.run_plan(&plan, true) {
        Err(TimberError::Algebra(tax::Error::Unsupported(_))) => {}
        Err(e) => panic!("expected a typed refusal, got {e:?}"),
        Ok(r) => panic!("the plan served {:?}", r.to_xml_on(db.store())),
    }
    let want = expected(FIG6_DB, QUERY1);
    assert_eq!(run(&db, QUERY1, PlanMode::GroupByRewrite), want);
}

/// Every metrics node of the plan whose operator starts with `op`.
fn metrics_of<'m>(m: &'m PlanMetrics, op: &str, out: &mut Vec<&'m PlanMetrics>) {
    if m.op.starts_with(op) {
        out.push(m);
    }
    for child in &m.children {
        metrics_of(child, op, out);
    }
}

#[test]
fn the_group_projection_equals_the_model_on_random_bibliographies() {
    // `GroupBy` and the final projection run as one sink, which gathers
    // each output row from its group's members' extracts of the member
    // path, a node repeated rows reach written once. Every way must
    // serve the query as written, minus what DESIGN.md,
    // *Oracle*, 1 states the rewrite drops: an author none of whose
    // articles carries the returned path; the direct plan serves it whole.
    // Ordered by `$b/title`, which an article may lack, the grouped plan's
    // rows come in the order of each author's first titled article
    // (*Oracle*, 2); each row is still the query's.
    check(
        "the_group_projection_equals_the_model_on_random_bibliographies",
        24,
        |g| {
            let xml = gather_bibliography(g);
            let db = TimberDb::load_xml(&xml, &StoreOptions::in_memory()).unwrap();
            let titles = nested("title", "");
            let queries = [
                titles.clone(),
                nested("title", "ORDER BY $b/title"),
                nested("title", "ORDER BY $b/title DESCENDING"),
                nested("title", "ORDER BY $b/year"),
                nested("author", ""),
                nested("year", ""),
            ];
            let grouped = |model: &str| -> String {
                let kept = model.lines().filter(|row| row.matches("</").count() > 2);
                kept.map(|row| format!("{row}\n")).collect()
            };
            let rows = |out: &str| -> Vec<String> {
                let mut rows: Vec<String> = out.lines().map(str::to_owned).collect();
                rows.sort_unstable();
                rows
            };
            let (plan, _) = db.compile(&titles, PlanMode::GroupByRewrite).unwrap();
            let hand_built = [
                // A title nested in a title lies inside the outer one's
                // subtree: `$b//title` serves `$b/title`'s bytes here.
                descendant_extract(&plan),
                // An article once per author: rows that are not a
                // disjoint scope list.
                with_leaf(&plan, scan(authored())),
            ];
            for query in &queries {
                let want = expected(&xml, query);
                let cell = format!("{query} on {xml}");
                assert_eq!(run(&db, query, PlanMode::Direct), want, "{cell}");
                let got = run(&db, query, PlanMode::GroupByRewrite);
                match query.contains("ORDER BY $b/title") {
                    true => assert_eq!(rows(&got), rows(&grouped(&want)), "{cell}"),
                    false => assert_eq!(got, grouped(&want), "{cell}"),
                }
            }
            // The LET forms reach the join's unmatched path here: an
            // author whose articles are all untitled joins nothing, and
            // the direct plan must still emit the author alone, or
            // with `<count>0</count>`. The rewrite drops that author
            // (*Oracle*, 1), so these cells hold the direct plan only.
            for query in [QUERY2, QUERY_COUNT] {
                let want = expected(&xml, query);
                let cell = format!("{query} on {xml}");
                assert_eq!(run(&db, query, PlanMode::Direct), want, "{cell}");
            }
            let want = grouped(&expected(&xml, &titles));
            for plan in &hand_built {
                let r = db.run_plan(plan, true).unwrap();
                let got = r.to_xml_on(db.store()).unwrap();
                assert_eq!(got, want, "{plan:?} on {xml}");
            }
            // The rewrite's plan runs the pair as that one sink: it emits
            // rows and times its own stages, and no `GroupBy` runs alone.
            let r = db.query(&titles, PlanMode::GroupByRewrite).unwrap();
            let mut sinks = Vec::new();
            metrics_of(r.metrics.as_ref().unwrap(), "GroupBy", &mut sinks);
            let [sink] = sinks[..] else {
                panic!("{sinks:?}")
            };
            assert!(sink.op.starts_with("GroupBy → Project "), "{}", sink.op);
            let rows = (!r.is_empty()).then_some(OutKind::Rows);
            assert_eq!(sink.out_kind, rows, "{}", sink.op);
            assert!(sink.shards.is_some(), "{}", sink.op);
        },
    );
}

#[test]
fn nested_and_let_forms_agree() {
    check("nested_and_let_forms_agree", 48, |g| {
        // Sec. 4.2: the nested and unnested formulations are equivalent
        // — in both plans, and as written.
        let xml = bibliography(g, Shape::Plain);
        assert_eq!(expected(&xml, QUERY1), expected(&xml, QUERY2));
        let db = TimberDb::load_xml(&xml, &StoreOptions::in_memory()).unwrap();
        for mode in [PlanMode::Direct, PlanMode::GroupByRewrite] {
            let nested = db.query(QUERY1, mode).unwrap();
            let let_form = db.query(QUERY2, mode).unwrap();
            assert_eq!(
                nested.to_xml_on(db.store()).unwrap(),
                let_form.to_xml_on(db.store()).unwrap()
            );
        }
    });
}

#[test]
fn counts_match_title_multiplicity() {
    check("counts_match_title_multiplicity", 48, |g| {
        // count($t) must equal the number of titles the titles-query
        // returns for the same author.
        let xml = bibliography(g, Shape::Plain);
        let db = TimberDb::load_xml(&xml, &StoreOptions::in_memory()).unwrap();
        let titles = db.query(QUERY1, PlanMode::GroupByRewrite).unwrap();
        let counts = db.query(QUERY_COUNT, PlanMode::GroupByRewrite).unwrap();
        let t_xml = titles.to_xml_on(db.store()).unwrap();
        let c_xml = counts.to_xml_on(db.store()).unwrap();
        let mut title_counts = std::collections::HashMap::new();
        for line in t_xml.lines() {
            let author = extract(line, "author");
            title_counts.insert(author, line.matches("<title>").count());
        }
        for line in c_xml.lines() {
            let author = extract(line, "author");
            let count: usize = extract(line, "count").parse().unwrap();
            assert_eq!(
                title_counts.get(&author).copied().unwrap_or(0),
                count,
                "author {author}"
            );
        }
    });
}

fn extract(line: &str, tag: &str) -> String {
    let open = format!("<{tag}>");
    let close = format!("</{tag}>");
    let a = line.find(&open).map(|i| i + open.len()).unwrap_or(0);
    let b = line.find(&close).unwrap_or(line.len());
    line[a..b].to_owned()
}
