//! Property-based equivalence: on randomly generated bibliographic
//! databases, the naive join plan and the rewritten GROUPBY plan must
//! both produce what the query as written evaluates to (the reference
//! model), for all three query forms. This is the correctness core of
//! the rewrite (Sec. 4.1/4.2) — together with its precondition, pinned
//! below on the one input shape where the rewrite and the query part.

use smallrand::prop::check;
use tax::ops::project::ProjectItem;
use tax::pattern::{Axis, PatternTree, Pred};
use timber::{OutKind, PlanMode, TimberDb};
use timber_integration_tests::{
    assert_matches_model, bibliography, expected, run, thread_matrix, Shape, QUERY1, QUERY2,
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
            let mut db = TimberDb::load_xml(&xml, &StoreOptions::in_memory()).unwrap();
            for query in [QUERY1, QUERY2, QUERY_COUNT] {
                assert_matches_model(&mut db, &xml, query, 256, "plan equivalence");
            }
        },
    );
}

/// `plan` (a chain of one-input operators) with its scan leaf replaced.
fn with_leaf(plan: &Plan, leaf: Plan) -> Plan {
    let mut plan = plan.clone();
    let mut at = &mut plan;
    loop {
        match at {
            Plan::Rename { input, .. } | Plan::Rollup { input, .. } => at = &mut **input,
            scan => {
                *scan = leaf;
                return plan;
            }
        }
    }
}

#[test]
fn repeated_stored_rows_group_like_a_document_that_repeats_the_articles() {
    // The XQuery subset cannot put a predicate on the outer scan, so the
    // scans that hand a grouping sink the same stored row more than once
    // are built by hand — and the model answers for them on the document
    // with the articles physically repeated the same way: `article[author]`
    // with `PL=[$1*]` emits an article once per author (equal rows,
    // adjacent), and a `Union` of two article scans emits every article
    // twice (the second pass out of document order). The count query is
    // the one to ask: a rollup counts per row, whereas the titles query's
    // final `Project` merges several references to one stored article
    // into one (physical.rs holds that plan to its tree-building twin).
    check("repeated stored rows equal the model", 32, |g| {
        let xml = bibliography(g, Shape::Plain);
        let body = &xml["<bib>".len()..xml.len() - "</bib>".len()];
        let articles: Vec<&str> = body.split_inclusive("</article>").collect();
        let per_author: String = articles
            .iter()
            .map(|a| a.repeat(a.matches("<author>").count()))
            .collect();
        let twice = body.repeat(2);

        let mut authored = PatternTree::with_root(Pred::tag("article"));
        authored.add_child(authored.root(), Axis::Child, Pred::tag("author"));
        let scan = |pattern: PatternTree| Plan::SelectProject {
            sl: vec![pattern.root()],
            pl: vec![ProjectItem::deep(pattern.root())],
            pattern,
        };
        let every = PatternTree::with_root(Pred::tag("article"));
        let cases = [
            (scan(authored), format!("<bib>{per_author}</bib>")),
            (
                Plan::Union {
                    inputs: vec![scan(every.clone()), scan(every)],
                },
                format!("<bib>{twice}</bib>"),
            ),
        ];
        let mut db = TimberDb::load_xml(&xml, &StoreOptions::in_memory()).unwrap();
        for threads in thread_matrix(&[1, 4]) {
            db.set_threads(threads);
            for (leaf, repeated) in &cases {
                let (plan, _) = db.compile(QUERY_COUNT, PlanMode::GroupByRewrite).unwrap();
                let result = db.run_plan(&with_leaf(&plan, leaf.clone()), true).unwrap();
                assert_eq!(
                    result.to_xml_on(db.store()).unwrap(),
                    expected(repeated, QUERY_COUNT),
                    "threads={threads} {leaf:?} on {xml}"
                );
                // The rows reached the sink as stored rows.
                let mut m = result.metrics.as_ref().unwrap();
                while m.shards.is_none() {
                    m = &m.children[0];
                }
                let fed = m.children[0].out_kind;
                assert!(fed.is_none() || fed == Some(OutKind::Stored), "{fed:?}");
            }
        }
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
    let mut db = TimberDb::load_xml(xml, &StoreOptions::in_memory()).unwrap();
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
        assert_eq!(run(&mut db, query, PlanMode::Direct, 256), want);
        assert_eq!(run(&mut db, query, PlanMode::GroupByRewrite, 256), jack);
    }
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
