//! Differential suite for the grouping lattice: under
//! `PlanMode::GroupByRewrite` a `CUBE BY` query fuses into the one-scan
//! `Plan::Cube`, and its serialized output — minus the per-level
//! `TAX_cube_level` markers — must be byte-identical to the composed
//! per-level rollup plans the materialized mode keeps
//! (`PlanMode::GroupByMaterialized`) — for every aggregate function,
//! across the thread/batch CI matrix (`TIMBER_TEST_THREADS` /
//! `TIMBER_TEST_BATCH`), on random ragged bibliographies where an
//! author's name sits at varying depths, and under seeded fault
//! schedules (correct-or-typed-error).

use datagen::{DblpConfig, DblpGenerator};
use smallrand::prop::{check, Gen};
use tax::ops::cube::strip_level_markers;
use timber::{PlanMode, TimberDb};
use timber_integration_tests::{batch_matrix, reference_run, run, thread_matrix};
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
/// group's Min/Max/Avg undefined while its parent stays defined.
const CUBE_DB: &str = "<bib>\
    <article><journal>TODS</journal><year>1999</year><author>Jack</author><pages>30</pages><title>A</title></article>\
    <article><journal>TODS</journal><year>2001</year><author>Jill</author><author>Jack</author><title>B</title></article>\
    <article><journal>WebDB</journal><year>2001</year><author>John</author><pages>7.5</pages><title>C</title></article>\
    <article><journal>TODS</journal><year>1999</year><author>John</author><pages>19</pages><title>D</title></article>\
</bib>";

#[test]
fn every_cube_query_fuses_to_one_scan() {
    let db = TimberDb::load_xml(CUBE_DB, &StoreOptions::in_memory()).unwrap();
    for func in FUNCS {
        let query = cube_query(func);
        let (plan, _, trace) = db.compile_traced(&query, PlanMode::GroupByRewrite).unwrap();
        assert!(trace.fired("cube-fuse"), "{func}: {}", trace.render());
        let text = plan.explain();
        assert!(text.contains("Cube"), "{text}");
        assert!(!text.contains("Union"), "{text}");
        assert!(!text.contains("GroupBy"), "{text}");
        // The materialized mode keeps the composed per-level union.
        let (plan, _, trace) = db
            .compile_traced(&query, PlanMode::GroupByMaterialized)
            .unwrap();
        assert!(!trace.fired("cube-fuse"), "{func}");
        let text = plan.explain();
        assert!(text.contains("Union (3 branches)"), "{text}");
        assert!(!text.contains("Cube"), "{text}");
    }
}

#[test]
fn cube_matches_composed_across_threads_and_batches() {
    let mut db = TimberDb::load_xml(CUBE_DB, &StoreOptions::in_memory()).unwrap();
    for threads in thread_matrix(&[1, 4]) {
        db.set_threads(threads);
        for func in FUNCS {
            let query = cube_query(func);
            let reference = run(&mut db, &query, PlanMode::GroupByMaterialized, 256);
            for batch in batch_matrix(&[16, 256]) {
                let fused = run(&mut db, &query, PlanMode::GroupByRewrite, batch);
                assert!(fused.contains("TAX_cube_level"), "{fused}");
                assert_eq!(
                    strip_level_markers(&fused),
                    reference,
                    "threads={threads} batch={batch} func={func}"
                );
            }
        }
    }
}

#[test]
fn one_batch_serial_run_agrees_with_batched_cube() {
    let mut db = TimberDb::load_xml(CUBE_DB, &StoreOptions::in_memory()).unwrap();
    for func in FUNCS {
        let query = cube_query(func);
        let expected = reference_run(&mut db, &query, PlanMode::GroupByRewrite);
        for batch in batch_matrix(&[1, 3, 256]) {
            let got = run(&mut db, &query, PlanMode::GroupByRewrite, batch);
            assert_eq!(expected, got, "batch={batch} func={func}");
        }
    }
}

#[test]
fn single_dimension_cube_rides_the_fused_rollup_path() {
    // A one-dimension lattice is a plain rollup: the translator emits a
    // union of one branch, cube-fuse declines it, and rollup-fuse fuses
    // the branch — so `CUBE BY $b/journal` exercises the existing fused
    // path and needs no level markers to agree with the composed plan.
    let mut db = TimberDb::load_xml(CUBE_DB, &StoreOptions::in_memory()).unwrap();
    let query = r#"
        FOR $b IN document("bib.xml")//article
        CUBE BY $b/journal
        RETURN <pubs> {count($b/pages)} </pubs>
    "#;
    let (plan, _, trace) = db.compile_traced(query, PlanMode::GroupByRewrite).unwrap();
    assert!(!trace.fired("cube-fuse"), "{}", trace.render());
    assert!(trace.fired("rollup-fuse"), "{}", trace.render());
    assert!(plan.explain().contains("Rollup"), "{}", plan.explain());
    let reference = run(&mut db, query, PlanMode::GroupByMaterialized, 256);
    let fused = run(&mut db, query, PlanMode::GroupByRewrite, 16);
    assert!(!fused.contains("TAX_cube_level"), "{fused}");
    assert_eq!(fused, reference);
}

/// Random ragged bibliographies: journals/years/authors drawn from small
/// pools so levels collide, authors sometimes nested (`<name>`, or
/// `<name><full>`) so the basis key node varies in shape, and `<pages>`
/// sometimes missing, fractional, or non-numeric so per-level aggregate
/// definedness varies.
fn ragged_bibliography(g: &mut Gen) -> String {
    const JOURNALS: [&str; 3] = ["TODS", "WebDB", "SIGMOD"];
    const AUTHORS: [&str; 4] = ["Jack", "Jill", "John", "Jane"];
    let articles = g.usize_in(0, 9);
    let mut s = String::from("<bib>");
    for n in 0..articles {
        s.push_str("<article>");
        s.push_str(&format!(
            "<journal>{}</journal>",
            JOURNALS[g.usize_in(0, JOURNALS.len() - 1)]
        ));
        s.push_str(&format!("<year>{}</year>", 1999 + g.usize_in(0, 2)));
        let k = g.usize_in(1, 2);
        let mut picked = Vec::new();
        while picked.len() < k {
            let i = g.usize_in(0, AUTHORS.len() - 1);
            if !picked.contains(&i) {
                picked.push(i);
            }
        }
        picked.sort_unstable();
        for &i in &picked {
            match g.usize_in(0, 3) {
                0 => s.push_str(&format!("<author><name>{}</name></author>", AUTHORS[i])),
                1 => s.push_str(&format!(
                    "<author><name><full>{}</full></name></author>",
                    AUTHORS[i]
                )),
                _ => s.push_str(&format!("<author>{}</author>", AUTHORS[i])),
            }
        }
        match g.usize_in(0, 4) {
            0 => {} // no pages at all
            1 => s.push_str(&format!(
                "<pages>{}.{}</pages>",
                g.usize_in(1, 40),
                g.usize_in(0, 99)
            )),
            2 => s.push_str("<pages>not-a-number</pages>"),
            _ => s.push_str(&format!("<pages>{}</pages>", g.usize_in(1, 900))),
        }
        s.push_str(&format!("<title>Title {n}</title>"));
        s.push_str("</article>");
    }
    s.push_str("</bib>");
    s
}

#[test]
fn cube_matches_composed_on_random_ragged_bibliographies() {
    check(
        "cube_matches_composed_on_random_ragged_bibliographies",
        20,
        |g| {
            let xml = ragged_bibliography(g);
            let mut db = TimberDb::load_xml(&xml, &StoreOptions::in_memory()).unwrap();
            db.set_threads([1, 4][g.usize_in(0, 1)]);
            let batch = [1, 16, 256][g.usize_in(0, 2)];
            for func in FUNCS {
                let query = cube_query(func);
                let reference = run(&mut db, &query, PlanMode::GroupByMaterialized, 256);
                let fused = run(&mut db, &query, PlanMode::GroupByRewrite, batch);
                assert_eq!(
                    strip_level_markers(&fused),
                    reference,
                    "batch={batch} func={func} on {xml}"
                );
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
    // On-disk ragged bibliography with a tiny pool so the lattice scan
    // does real physical I/O the schedules can hit. Contract: the
    // byte-identical fault-free answer, or a clean typed error — never a
    // panic, never a silently wrong level.
    let xml = DblpGenerator::new(DblpConfig::sized(80).with_ragged_authors()).generate_xml();
    let opts = StoreOptions {
        on_disk: true,
        // One frame: a record fetch and its heap look-up evict each
        // other. (Two frames only thrashed while the pool was striped
        // one frame per lock; behind one lock they serve this query
        // from ~17 reads, too few for a 2 % schedule to hit.)
        pool_pages: 1,
        ..StoreOptions::in_memory()
    };
    let db = TimberDb::load_xml(&xml, &opts).unwrap();
    let query = cube_query("count");
    let reference = {
        let r = db.query(&query, PlanMode::GroupByRewrite).unwrap();
        r.to_xml_on(db.store()).unwrap()
    };
    let mut injected = 0u64;
    for seed in fault_seeds() {
        for schedule in [
            FaultConfig::seeded(seed).with_read_error(0.02),
            FaultConfig::seeded(seed).with_read_flip(0.02),
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
