//! Golden EXPLAIN snapshots: the full `TimberDb::explain` text — direct
//! plan, optimized plan, and the optimizer's rule-firing trace — pinned
//! for the corpus queries. Any change to the translator, a rewrite
//! rule, or plan rendering shows up as a readable diff here.

use timber::{PlanMode, TimberDb};
use timber_integration_tests::{fig6_db, QUERY1, QUERY2, QUERY_COUNT};
use xmlstore::StoreOptions;

const QUERY_PROJECT: &str = r#"
    FOR $a IN distinct-values(document("bib.xml")//author)
    RETURN <row> {$a} </row>
"#;

/// A metrics line's `stages=` field with its numbers masked, as no
/// test compares a `time=`: `w:#/c:#/f:#/b:#us`, or `p:#/b:#us`.
fn masked_stages(line: &str) -> String {
    let field = line.split(" stages=").nth(1).unwrap_or_default();
    let field = field.split(' ').next().unwrap_or_default();
    let mut out = String::new();
    for c in field.chars() {
        match c {
            '0'..='9' if out.ends_with('#') => {}
            '0'..='9' => out.push('#'),
            c => out.push(c),
        }
    }
    out
}

#[test]
fn query1_explain_snapshot() {
    let expected = "\
== direct plan ==
StitchConstruct <authorpubs> key: outer.$2
  DupElim pattern=[$1:doc_root, $1-ad->$2:author] by=$2
    Project pattern=[$1:doc_root, $1-ad->$2:author] PL=[\"$1\", \"$2*\"] anchor_root=true
      SelectDb pattern=[$1:doc_root, $1-ad->$2:author] SL=[\"$2\"]
  LeftOuterJoinDb on left.$2 = right.$3 right=[$1:doc_root, $1-ad->$2:article, $2-pc->$3:author, $2-pc->$4:title] SL=[\"$2\"]
    DupElim pattern=[$1:doc_root, $1-ad->$2:author] by=$2
      Project pattern=[$1:doc_root, $1-ad->$2:author] PL=[\"$1\", \"$2*\"] anchor_root=true
        SelectDb pattern=[$1:doc_root, $1-ad->$2:author] SL=[\"$2\"]

== optimized plan ==
Rename to <authorpubs>
  Project pattern=[$1:TAX_group_root, $1-pc->$2:TAX_grouping_basis, $2-pc->$3:author, $1-pc->$4:TAX_group_subroot, $4-pc->$5:article, $5-pc->$6:title] PL=[\"$1\", \"$3*\", \"$6*\"] anchor_root=true
    GroupBy pattern=[$1:article, $1-pc->$2:author] basis=[\"$2.content\"] ordering=[]
      Project pattern=[$1:article] PL=[\"$1*\"] anchor_root=true
        SelectDb pattern=[$1:article] SL=[\"$1\"]

== rewrite trace ==
groupby-rewrite
";
    assert_eq!(fig6_db().explain(QUERY1).unwrap(), expected);
}

#[test]
fn count_query_explain_snapshot() {
    let expected = "\
== direct plan ==
StitchConstruct <authorpubs> key: outer.$2 agg=Count<count>
  DupElim pattern=[$1:doc_root, $1-ad->$2:author] by=$2
    Project pattern=[$1:doc_root, $1-ad->$2:author] PL=[\"$1\", \"$2*\"] anchor_root=true
      SelectDb pattern=[$1:doc_root, $1-ad->$2:author] SL=[\"$2\"]
  LeftOuterJoinDb on left.$2 = right.$3 right=[$1:doc_root, $1-ad->$2:article, $2-pc->$3:author, $2-pc->$4:title] SL=[\"$2\"]
    DupElim pattern=[$1:doc_root, $1-ad->$2:author] by=$2
      Project pattern=[$1:doc_root, $1-ad->$2:author] PL=[\"$1\", \"$2*\"] anchor_root=true
        SelectDb pattern=[$1:doc_root, $1-ad->$2:author] SL=[\"$2\"]

== optimized plan ==
Rename to <authorpubs>
  Rollup Count(member $2) as <count> flat pattern=[$1:article, $1-pc->$2:author] basis=[\"$2.content\"] member=[$1:article, $1-pc->$2:title]
    Project pattern=[$1:article] PL=[\"$1*\"] anchor_root=true
      SelectDb pattern=[$1:article] SL=[\"$1\"]

== rewrite trace ==
groupby-rewrite
";
    assert_eq!(fig6_db().explain(QUERY_COUNT).unwrap(), expected);
}

#[test]
fn projection_only_explain_snapshot() {
    // No grouping, no join: nothing is rewritten, and the optimized plan
    // is the direct one.
    let expected = "\
== direct plan ==
StitchConstruct <row> key: outer.$2
  DupElim pattern=[$1:doc_root, $1-ad->$2:author] by=$2
    Project pattern=[$1:doc_root, $1-ad->$2:author] PL=[\"$1\", \"$2*\"] anchor_root=true
      SelectDb pattern=[$1:doc_root, $1-ad->$2:author] SL=[\"$2\"]

== optimized plan ==
(no rewrite rules fired; same as direct)

== rewrite trace ==
(no rules fired)
";
    assert_eq!(fig6_db().explain(QUERY_PROJECT).unwrap(), expected);
}

#[test]
fn explain_analyze_structural_snapshot() {
    // Timings vary run to run; pin the structure: section headers, one
    // metrics line per plan operator, and the counters each line must
    // carry.
    let db = fig6_db();
    let a = db
        .explain_analyze(QUERY1, PlanMode::GroupByRewrite)
        .unwrap();
    let text = a.render();
    assert!(text.starts_with("== plan (GroupByRewrite mode, groupby rewrite fired) ==\n"));
    assert!(text.contains("== rewrite trace ==\ngroupby-rewrite\n"));
    assert!(text.contains("== execution (physical) ==\n"));
    let metric_lines: Vec<&str> = text.lines().filter(|l| l.contains(" | in=")).collect();
    assert_eq!(metric_lines.len(), 4, "{text}");
    for line in &metric_lines {
        for field in ["out=", "time=", "vec=", "vecfb="] {
            assert!(line.contains(field), "{line}");
        }
        assert!(
            !line.contains("pages=") && !line.contains("disk_reads="),
            "{line}"
        );
    }
    // Each line says what its rows were: the selection hands its match
    // rows to the projection over it, which hands the grouping sink
    // stored rows; Fig. 5d's projection and its `GroupBy` run as that
    // one sink, which writes one row per result, cloning none: no
    // operator builds a tree.
    let field = |l: &str, name: &str, end: &str| -> String {
        let rest = l.split(name).nth(1).unwrap();
        rest.split(end).next().unwrap().to_owned()
    };
    let outs: Vec<String> = metric_lines
        .iter()
        .map(|l| field(l, " out=", " time="))
        .collect();
    assert_eq!(
        outs,
        ["3 rows", "3 rows", "3 stored", "3 matches"],
        "{text}"
    );
    let sink = metric_lines[1];
    assert!(
        sink.trim_start().starts_with("GroupBy → Project pattern="),
        "{sink}"
    );
    // The grouping sink times its own stages: the one pass and the build.
    assert_eq!(masked_stages(sink), "p:#/b:#us", "{text}");
    for l in [metric_lines[0], metric_lines[2], metric_lines[3]] {
        assert!(!l.contains("stages="), "{l}");
    }
    assert_eq!(a.result.len(), 3);
    // One lane, nothing to name: the summary is just the two counts.
    let summary = text.lines().find(|l| l.ends_with(" scalar-fallback rows"));
    let words: Vec<&str> = summary.expect(&text).split(' ').collect();
    let is_count = |w: &str| w.parse::<u64>().is_ok();
    assert!(
        matches!(words[..], [n, "vectorized", "rows,", m, "scalar-fallback", "rows"]
            if is_count(n) && is_count(m)),
        "{text}"
    );
    let last = text.trim_end().lines().last().unwrap_or_default();
    assert!(last.starts_with("3 rows in "), "{text}");
}

#[test]
fn grouped_plans_stay_inside_clone_and_io_budget() {
    // The clone budget of the symbol-clean data path: the grouped plans
    // answer tag tests, grouping keys, and counts from the columnar
    // label region and build no tree, so the clone total the benchmark
    // reads is 0. A page read shows up in `page_free.rs`.
    let db = fig6_db();
    for (query, mode) in [
        (QUERY1, PlanMode::GroupByRewrite),
        (QUERY_COUNT, PlanMode::GroupByRewrite),
    ] {
        let a = db.explain_analyze(query, mode).unwrap();
        let m = &a.metrics;
        assert_eq!(
            m.total_tree_clones(),
            0,
            "grouped plan deep-cloned trees for {query:?}:\n{}",
            m.render()
        );
    }
    // The whole op — query plus streamed output — asks for a data page
    // only to fetch values it writes, and for each such heap page once
    // however many values lie on it: the Fig. 6 store has one.
    for query in [QUERY1, QUERY_COUNT] {
        db.reset_io_stats();
        let r = db.query(query, PlanMode::GroupByRewrite).unwrap();
        assert_eq!(db.io_stats().page_requests(), 0, "plan of {query:?}");
        let xml = r.to_xml_on(db.store()).unwrap();
        let stored_values = xml.matches("<author>").count() + xml.matches("<title>").count();
        assert!(stored_values >= 3, "{xml}");
        assert_eq!(
            db.io_stats().page_requests(),
            1,
            "output of {query:?}:\n{xml}"
        );
    }
    // The fused count plan must run on the columnar kernels: the
    // stored-row walk reads each article's rows off the tag/level
    // columns and notes them. A plan silently dropping to the scalar row
    // loop would zero this.
    let a = db
        .explain_analyze(QUERY_COUNT, PlanMode::GroupByRewrite)
        .unwrap();
    assert!(
        a.metrics.total_vec_rows() > 0,
        "count plan ran no vectorized kernel rows:\n{}",
        a.metrics.render()
    );
}

#[test]
fn direct_plans_build_no_tree_below_the_stitch() {
    // The direct plan keys its duplicate eliminations, join and stitch on
    // content symbols read off the label columns, as the grouped plans
    // key their groups, and below the stitch it builds no tree: the
    // scans hand on their match rows, the projections and duplicate
    // eliminations pass them on, and the join emits its pairs as groups.
    let db = fig6_db();
    for query in [QUERY1, QUERY2, QUERY_COUNT] {
        let text = db
            .explain_analyze(query, PlanMode::Direct)
            .unwrap()
            .render();
        let lines: Vec<&str> = text.lines().filter(|l| l.contains(" | in=")).collect();
        assert_eq!(lines.len(), 8, "{text}");
        assert!(lines[0].starts_with("StitchConstruct"), "{text}");
        assert!(lines[0].contains(" out=3 rows "), "{text}");
        let kinds: Vec<&str> = lines[1..]
            .iter()
            .map(|l| l.split(" out=").nth(1).unwrap().split(' ').nth(1).unwrap())
            .collect();
        let scan = ["matches"; 3];
        assert_eq!(
            kinds,
            [&scan[..], &["groups"], &scan[..]].concat(),
            "{text}"
        );
    }
}

#[test]
fn explain_analyze_rollup_operator_line() {
    // The count plan runs a Rollup blocking sink; its metrics line must
    // report trees in (articles scanned), groups out, and its stage
    // times, like the other grouping sinks.
    let db = fig6_db();
    let a = db
        .explain_analyze(QUERY_COUNT, PlanMode::GroupByRewrite)
        .unwrap();
    let text = a.render();
    let rollup_line = text
        .lines()
        .find(|l| l.trim_start().starts_with("Rollup Count") && l.contains(" | in="))
        .unwrap_or_else(|| panic!("no Rollup metrics line in:\n{text}"));
    // Figure 6: 3 articles in, 3 author groups out.
    assert!(rollup_line.contains("in=3"), "{rollup_line}");
    assert!(rollup_line.contains("out=3"), "{rollup_line}");
    // A query runs on the calling thread: no partition count, no skew.
    assert!(
        !text.contains("parts=") && !text.contains("skew="),
        "{text}"
    );
    // One pass over the rows, then the build.
    assert_eq!(masked_stages(rollup_line), "p:#/b:#us", "{rollup_line}");
    // The pass reads each article's subtree once — its authors and title
    // bucketed together — and nothing else: 3 + 3 + 2 label rows. A
    // second walk per row would read 16.
    assert!(rollup_line.contains(" vec=8 vecfb=0 "), "{rollup_line}");
    // No GroupBy or Aggregate operator executed.
    assert!(!text.contains("\n  GroupBy"), "{text}");
    assert!(!text.contains("Aggregate Count"), "{text}");
}

#[test]
fn explain_analyze_groupby_gather_line() {
    // Query 1's `GroupBy` and Fig. 5d's projection over it run as one
    // sink: one metrics line, its stage times the pass and the build.
    let db = fig6_db();
    for query in [QUERY1, QUERY2] {
        let a = db.explain_analyze(query, PlanMode::GroupByRewrite).unwrap();
        let text = a.render();
        let lines: Vec<&str> = text.lines().filter(|l| l.contains(" | in=")).collect();
        let sinks: Vec<&&str> = lines.iter().filter(|l| l.contains(" stages=")).collect();
        assert_eq!(sinks.len(), 1, "{text}");
        let sink = sinks[0].trim_start();
        assert!(
            sink.starts_with("GroupBy → Project pattern=[$1:article"),
            "{text}"
        );
        // Figure 6: 3 articles in, 3 author rows out.
        assert!(sink.contains(" in=3 out=3 rows "), "{sink}");
        assert_eq!(masked_stages(sink), "p:#/b:#us", "{sink}");
        // The pass reads each article's subtree once — its authors and
        // titles bucketed together — and nothing else: 3 + 3 + 2 label
        // rows. A second walk per row (the witness table, then the
        // gather's match) would read 16.
        assert!(sink.contains(" vec=8 vecfb=0 "), "{sink}");
        assert_eq!(a.metrics.total_vec_rows(), 8, "{text}");
        // No operator line is the `GroupBy` alone, or a `Project` over
        // it.
        let alone = |l: &&str| l.trim_start().starts_with("GroupBy pattern=");
        assert!(!lines.iter().any(alone), "{text}");
        assert_eq!(lines.iter().filter(|l| l.contains("GroupBy")).count(), 1);
    }
}

#[test]
fn explain_analyze_cube_operator_line() {
    // The lattice is the rollup's fold over every prefix level: its line
    // carries the same stage times, the pass and the build. Both modes run the one `Cube`, and
    // the scan under it — a projection over a selection — hands it stored
    // rows, so no line copies a tree.
    let db = TimberDb::load_xml(
        "<bib><article><journal>J</journal><author>X</author><pages>3</pages></article>\
         <article><journal>J</journal><author>Y</author><pages>4</pages></article></bib>",
        &StoreOptions::in_memory(),
    )
    .unwrap();
    let query = r#"FOR $b IN document("bib.xml")//article CUBE BY $b/journal, $b/author
                   RETURN <pubs> {sum($b/pages)} </pubs>"#;
    for mode in [PlanMode::Direct, PlanMode::GroupByRewrite] {
        let text = db.explain_analyze(query, mode).unwrap().render();
        let lines: Vec<&str> = text.lines().filter(|l| l.contains(" | in=")).collect();
        let cube = lines
            .iter()
            .position(|l| l.trim_start().starts_with("Cube"))
            .unwrap_or_else(|| panic!("no Cube metrics line in:\n{text}"));
        assert_eq!(masked_stages(lines[cube]), "p:#/b:#us", "{text}");
        assert!(
            lines[cube + 1].contains(" out=2 stored "),
            "{mode:?}: {text}"
        );
    }
}
