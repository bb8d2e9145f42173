//! Differential suite for the grouping lattice: a `CUBE BY` query
//! translates to the one-scan lattice `Plan::Rollup` in both plan modes, and its
//! serialized output must be the bytes the reference model evaluates the
//! query to: for every aggregate function, on random ragged
//! bibliographies where an author's name sits at varying depths, and
//! under seeded fault schedules (correct-or-typed-error).

use datagen::{DblpConfig, DblpGenerator};
use smallrand::prop::check;
use timber::{PlanMode, TimberDb};
use timber_integration_tests::{bibliography, expected, run, Shape};
use xmlstore::{FaultConfig, StoreOptions};

/// The lattice query: all prefix levels of journal → year → author,
/// aggregating the articles' `<pages>` values with `func`.
fn cube_query(func: &str) -> String {
    format!(
        r#"
        FOR $b IN document("bib.xml")//article
        CUBE BY $b/journal, $b/year, $b/author
        RETURN <pubs> {{{func}($b/pages)}} </pubs>
    "#
    )
}

/// Every aggregate the lattice accumulator folds.
const FUNCS: [&str; 5] = ["count", "sum", "min", "max", "avg"];

/// Articles with full dimension columns and numeric `<pages>`; the
/// two-author article exercises the multi-valued basis at the author
/// level, and the article without `<pages>` leaves one (journal, year)
/// group with nothing to aggregate while its parent has.
const CUBE_DB: &str = "<bib>\
    <article><journal>TODS</journal><year>1999</year><author>Jack</author><pages>30</pages><title>A</title></article>\
    <article><journal>TODS</journal><year>2001</year><author>Jill</author><author>Jack</author><title>B</title></article>\
    <article><journal>WebDB</journal><year>2001</year><author>John</author><pages>7.5</pages><title>C</title></article>\
    <article><journal>TODS</journal><year>1999</year><author>John</author><pages>19</pages><title>D</title></article>\
</bib>";

#[test]
fn every_cube_query_fuses_to_one_scan() {
    // All prefix levels come from one `Cube` over one scan of the
    // articles: one plan, the same in both modes.
    let db = TimberDb::load_xml(CUBE_DB, &StoreOptions::in_memory()).unwrap();
    for func in FUNCS {
        let query = cube_query(func);
        let (plan, _) = db.compile(&query, PlanMode::Direct).unwrap();
        let text = plan.explain();
        let ops: Vec<&str> = text.lines().map(|l| l.trim_start()).collect();
        assert!(
            ops[1].starts_with("Cube ") && ops[1].contains(" levels=3 "),
            "{text}"
        );
        assert_eq!(
            ops[2..],
            [
                "Project pattern=[$1:article] PL=[\"$1*\"] anchor_root=true",
                "SelectDb pattern=[$1:article] SL=[\"$1\"]",
            ],
            "{text}"
        );
        let (grouped, rewritten) = db.compile(&query, PlanMode::GroupByRewrite).unwrap();
        assert!(!rewritten);
        assert_eq!(grouped.explain(), text);
    }
}

/// Both modes of `query` over `xml` against the model.
fn assert_cube_matches_model(db: &TimberDb, xml: &str, query: &str) {
    let want = expected(xml, query);
    for mode in [PlanMode::GroupByRewrite, PlanMode::Direct] {
        let got = run(db, query, mode);
        assert_eq!(got, want, "{mode:?} query: {query} on {xml}");
    }
}

#[test]
fn cube_matches_the_model_across_batches() {
    let db = TimberDb::load_xml(CUBE_DB, &StoreOptions::in_memory()).unwrap();
    for func in FUNCS {
        assert_cube_matches_model(&db, CUBE_DB, &cube_query(func));
    }
}

#[test]
fn single_dimension_cube_rides_the_fused_rollup_path() {
    // A one-dimension lattice is a plain rollup: its one level runs the
    // rollup's fold over the flat shape.
    let db = TimberDb::load_xml(CUBE_DB, &StoreOptions::in_memory()).unwrap();
    let query = r#"
        FOR $b IN document("bib.xml")//article
        CUBE BY $b/journal
        RETURN <pubs> {count($b/pages)} </pubs>
    "#;
    let (plan, _) = db.compile(query, PlanMode::GroupByRewrite).unwrap();
    assert!(plan.explain().contains(" levels=1 "), "{}", plan.explain());
    let fused = run(&db, query, PlanMode::GroupByRewrite);
    assert_eq!(fused, expected(CUBE_DB, query));
    assert_eq!(run(&db, query, PlanMode::Direct), fused);
}

#[test]
fn cube_matches_the_model_on_random_ragged_bibliographies() {
    check(
        "cube_matches_the_model_on_random_ragged_bibliographies",
        20,
        |g| {
            let xml = bibliography(g, Shape::Cube);
            let db = TimberDb::load_xml(&xml, &StoreOptions::in_memory()).unwrap();
            for func in FUNCS {
                assert_cube_matches_model(&db, &xml, &cube_query(func));
            }
        },
    );
}

fn fault_seeds() -> Vec<u64> {
    match std::env::var("CRASH_SEEDS") {
        Ok(s) => s.split(',').filter_map(|t| t.trim().parse().ok()).collect(),
        Err(_) => vec![1, 2, 3],
    }
}

#[test]
fn cube_under_fault_schedules_is_correct_or_typed_error() {
    // On-disk ragged bibliography with a tiny pool so populating the
    // lattice's output does real physical I/O the schedules can hit. Contract: the
    // byte-identical fault-free answer, or a clean typed error — never a
    // panic, never a silently wrong level.
    let xml = DblpGenerator::new(DblpConfig::sized(400).with_ragged_authors()).generate_xml();
    let opts = StoreOptions {
        on_disk: true,
        // One frame, emptied when a schedule is armed: the plan reads
        // no page, and output population reads each heap page of the
        // result once — a dozen physical reads a query, so the
        // schedules fire often enough to hit some of them.
        pool_pages: 1,
        ..StoreOptions::in_memory()
    };
    let db = TimberDb::load_xml(&xml, &opts).unwrap();
    let query = cube_query("count");
    let reference = {
        let r = db.query(&query, PlanMode::GroupByRewrite).unwrap();
        r.to_xml_on(db.store()).unwrap()
    };
    assert_eq!(reference, expected(&xml, &query));
    let mut injected = 0u64;
    for seed in fault_seeds() {
        for schedule in [
            FaultConfig::seeded(seed).with_read_error(0.2),
            FaultConfig::seeded(seed).with_read_flip(0.2),
        ] {
            db.set_faults(Some(schedule)).unwrap();
            match db.query(&query, PlanMode::GroupByRewrite) {
                Ok(result) => match result.to_xml_on(db.store()) {
                    Ok(out) => assert_eq!(out, reference, "seed={seed}: silent corruption"),
                    Err(e) => {
                        let _ = e.to_string();
                    }
                },
                Err(e) => {
                    let _ = e.to_string();
                }
            }
            injected += db.fault_stats().unwrap().total();
            db.set_faults(None).unwrap();
        }
    }
    assert!(injected > 0, "schedules must actually inject faults");
    // Disarmed, the lattice answers perfectly again.
    let r = db.query(&query, PlanMode::GroupByRewrite).unwrap();
    assert_eq!(r.to_xml_on(db.store()).unwrap(), reference);
}
