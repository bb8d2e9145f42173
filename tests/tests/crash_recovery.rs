//! Crash-recovery suite: GROUPBY and aggregate queries under injected
//! storage faults.
//!
//! The contract this suite enforces, for every fault schedule: a query
//! returns either (a) the byte-identical answer of a fault-free run —
//! transient faults absorbed by the retry path — or (b) a clean typed
//! [`timber::TimberError`]. Never a panic, never a silently wrong
//! answer.
//!
//! Query evaluation itself never writes pages (loads are the only
//! writers), so write-path faults are driven end-to-end here through
//! [`DiskManager`] page churn, with the query-level tests asserting the
//! complementary invariant: a write-fault schedule cannot perturb a
//! read-only workload.
//!
//! Schedules are deterministic (seeded via the in-tree `smallrand`), so
//! CI runs are reproducible. The seed set defaults to {1, 2, 3} and can
//! be overridden with the `CRASH_SEEDS` environment variable
//! (comma-separated), which is how the CI fault-injection job pins its
//! matrix.

use datagen::{DblpConfig, DblpGenerator};
use timber::{PlanMode, TimberDb};
use timber_integration_tests::{expected, QUERY2};
use xmlstore::storage::DiskManager;
use xmlstore::{
    FaultConfig, FaultInjector, FaultStats, PageId, StoreError, StoreOptions, PAGE_HEADER_SIZE,
    PAGE_SIZE,
};

/// The paper's grouping query: authors with the titles they wrote.
const QUERY_TITLES: &str = r#"
    FOR $a IN distinct-values(document("bib.xml")//author)
    RETURN <authorpubs>
      {$a}
      { FOR $b IN document("bib.xml")//article
        WHERE $a = $b/author
        RETURN $b/title }
    </authorpubs>
"#;

/// An aggregate query (COUNT per group).
const QUERY_COUNT: &str = r#"
    FOR $a IN distinct-values(document("bib.xml")//author)
    LET $t := document("bib.xml")//article[author = $a]/title
    RETURN <authorpubs> {$a} {count($t)} </authorpubs>
"#;

fn seeds() -> Vec<u64> {
    match std::env::var("CRASH_SEEDS") {
        Ok(s) => s.split(',').filter_map(|t| t.trim().parse().ok()).collect(),
        Err(_) => vec![1, 2, 3],
    }
}

/// Every (query, plan) combination the suite drives, in a fixed order
/// shared with [`reference`].
fn workload() -> Vec<(&'static str, PlanMode)> {
    [QUERY_TITLES, QUERY_COUNT]
        .iter()
        .flat_map(|&q| [PlanMode::Direct, PlanMode::GroupByRewrite].map(|m| (q, m)))
        .collect()
}

/// A small on-disk database with a pool far smaller than the data, so
/// queries do real physical I/O that fault schedules can corrupt.
fn db(articles: usize, pool_pages: usize) -> TimberDb {
    let xml = DblpGenerator::new(DblpConfig::sized(articles)).generate_xml();
    let opts = StoreOptions {
        on_disk: true,
        pool_pages,
        ..StoreOptions::in_memory()
    };
    TimberDb::load_xml(&xml, &opts).unwrap()
}

/// Fault-free reference answers for the whole workload.
fn reference(db: &TimberDb) -> Vec<String> {
    workload()
        .iter()
        .map(|&(q, m)| {
            let r = db.query(q, m).unwrap();
            r.to_xml_on(db.store()).unwrap()
        })
        .collect()
}

/// Run the workload with `schedule` armed; every outcome must be the
/// reference answer or a typed error, and once the schedule is disarmed
/// the database must answer perfectly again (queries never write, so no
/// schedule can inflict permanent damage on a read-only workload).
/// Returns the injector's counters as observed just before disarming.
fn drive(db: &TimberDb, reference: &[String], schedule: FaultConfig, label: &str) -> FaultStats {
    db.set_faults(Some(schedule)).unwrap();
    let mut ok = 0usize;
    let mut failed = 0usize;
    for (qi, (query, mode)) in workload().into_iter().enumerate() {
        match db.query(query, mode) {
            Ok(result) => {
                // A result that survived injected faults must be the
                // right one — anything else is silent corruption.
                match result.to_xml_on(db.store()) {
                    Ok(xml) => {
                        assert_eq!(xml, reference[qi], "{label}: silent corruption");
                        ok += 1;
                    }
                    Err(e) => {
                        let _ = e.to_string();
                        failed += 1;
                    }
                }
            }
            Err(e) => {
                // Typed error: fine. Force the Display path too, so a
                // panicking formatter would be caught here.
                let _ = e.to_string();
                failed += 1;
            }
        }
    }
    assert_eq!(ok + failed, 4, "{label}: every query must finish");
    let stats = db.fault_stats().unwrap();
    db.set_faults(None).unwrap();
    for (qi, (query, mode)) in workload().into_iter().enumerate() {
        let r = db.query(query, mode).unwrap();
        assert_eq!(
            r.to_xml_on(db.store()).unwrap(),
            reference[qi],
            "{label}: store must recover after disarming"
        );
    }
    stats
}

#[test]
fn transient_read_errors_are_absorbed_or_typed() {
    // A two-page pool under a dozen heap pages: both plans read no page
    // and serializing a result reads each heap page it touches once, so
    // every page the output needs is a physical read the schedule can hit.
    let db = db(400, 2);
    let reference = reference(&db);
    let mut injected = 0u64;
    let retries_before = db.store().io_stats().buffer.retries;
    for seed in seeds() {
        // Low error rate: the retry path absorbs almost everything.
        let schedule = FaultConfig::seeded(seed).with_read_error(0.1);
        injected += drive(&db, &reference, schedule, &format!("read_err seed={seed}")).total();
    }
    assert!(injected > 0, "schedules must actually inject read errors");
    assert!(
        db.store().io_stats().buffer.retries > retries_before,
        "absorbed transients must show up in the retry counter"
    );
}

#[test]
fn read_bit_flips_are_caught_or_healed() {
    let db = db(400, 2);
    let reference = reference(&db);
    let mut injected = 0u64;
    for seed in seeds() {
        let schedule = FaultConfig::seeded(seed).with_read_flip(0.1);
        injected += drive(&db, &reference, schedule, &format!("read_flip seed={seed}")).total();
    }
    assert!(injected > 0, "schedules must actually inject bit flips");
}

#[test]
fn mixed_schedule_with_predicates() {
    for seed in seeds() {
        let db = db(400, 3);
        let reference = reference(&db);
        // Everything at once, starting after the first 50 operations,
        // parsed from a CLI-style spec string (the same syntax
        // `reproduce --faults` takes).
        let spec = format!("seed={seed},read_err=0.01,flip=0.01,write_err=0.01,after=50");
        let schedule: FaultConfig = spec.parse().unwrap();
        drive(&db, &reference, schedule, &format!("mixed seed={seed}"));
    }
}

#[test]
fn write_fault_schedules_cannot_perturb_queries() {
    // Query evaluation never writes a page, so a pure write-fault
    // schedule must leave the whole workload byte-identical.
    let db = db(40, 4);
    let reference = reference(&db);
    for seed in seeds() {
        let schedule = FaultConfig::seeded(seed)
            .with_write_flip(0.5)
            .with_torn_write(0.5)
            .with_write_error(0.5);
        let stats = drive(
            &db,
            &reference,
            schedule,
            &format!("write-only seed={seed}"),
        );
        assert_eq!(
            stats.total(),
            0,
            "read-only workload must never trip write faults"
        );
    }
}

/// Deterministic page image: generation `tag` of page `p` under `seed`.
fn fill(image: &mut [u8; PAGE_SIZE], seed: u64, p: u32, tag: u8) {
    for (i, b) in image.iter_mut().enumerate() {
        *b = (seed as u8) ^ (p as u8) ^ tag ^ (i as u8);
    }
}

/// Drive write faults end-to-end through the disk layer: seed pages with
/// generation A, rewrite them as generation B under `schedule`, then
/// verify every page reads back as exactly one generation or fails
/// typed. A torn or bit-flipped write must never read back as a silent
/// blend. Returns how many pages were caught corrupted.
fn write_churn(seed: u64, schedule: FaultConfig, label: &str) -> usize {
    const NPAGES: u32 = 32;
    let mut dm = DiskManager::temp_file().unwrap();
    let mut image = [0u8; PAGE_SIZE];
    for p in 0..NPAGES {
        let pid = dm.allocate(1).unwrap();
        fill(&mut image, seed, p, 0xA5);
        dm.write_page(pid, &image).unwrap();
    }
    dm.set_fault_injector(Some(FaultInjector::new(schedule)));
    let mut write_failed = vec![false; NPAGES as usize];
    for p in 0..NPAGES {
        fill(&mut image, seed, p, 0x5A);
        match dm.write_page(PageId(p), &image) {
            Ok(()) => {}
            Err(StoreError::Io(_)) => write_failed[p as usize] = true,
            Err(other) => panic!("{label}: write fault must surface as I/O error, got {other:?}"),
        }
    }
    dm.set_fault_injector(None);
    let mut caught = 0usize;
    let mut out = [0u8; PAGE_SIZE];
    let mut expected = [0u8; PAGE_SIZE];
    for p in 0..NPAGES {
        match dm.read_page(PageId(p), &mut out) {
            Ok(()) => {
                // The page verified, so it must be exactly one
                // generation: the old one if its rewrite failed cleanly,
                // the new one otherwise.
                let tag = if write_failed[p as usize] { 0xA5 } else { 0x5A };
                fill(&mut expected, seed, p, tag);
                assert_eq!(
                    out[PAGE_HEADER_SIZE..],
                    expected[PAGE_HEADER_SIZE..],
                    "{label}: page {p} verified but holds a blended image"
                );
            }
            Err(StoreError::Corruption { page, .. }) => {
                assert_eq!(page, p, "{label}: corruption reported on the wrong page");
                caught += 1;
            }
            Err(other) => panic!("{label}: unexpected error reading page {p}: {other:?}"),
        }
    }
    caught
}

#[test]
fn persistent_write_flips_never_corrupt_silently() {
    let mut caught = 0usize;
    for seed in seeds() {
        let schedule = FaultConfig::seeded(seed).with_write_flip(0.2);
        caught += write_churn(seed, schedule, &format!("write_flip seed={seed}"));
    }
    assert!(
        caught > 0,
        "write flips must be caught by read-back verification"
    );
}

#[test]
fn torn_writes_never_corrupt_silently() {
    let mut caught = 0usize;
    for seed in seeds() {
        let schedule = FaultConfig::seeded(seed).with_torn_write(0.2);
        caught += write_churn(seed, schedule, &format!("torn seed={seed}"));
    }
    assert!(
        caught > 0,
        "torn writes must be caught by read-back verification"
    );
}

#[test]
fn poked_corruption_is_typed_then_recoverable() {
    let db = db(40, 4);
    let reference = reference(&db);
    // Physically corrupt one byte of page 0 (a heap page) behind the
    // store's back.
    db.clear_buffer_pool().unwrap();
    db.store().poke_page_byte(0, 100, 0x40).unwrap();
    let mut saw_error = false;
    for (query, mode) in workload() {
        match db.query(query, mode).and_then(|r| r.to_xml_on(db.store())) {
            Ok(_) => {}
            Err(e) => {
                saw_error = true;
                assert!(
                    e.to_string().contains("checksum"),
                    "expected a corruption error, got: {e}"
                );
            }
        }
    }
    assert!(saw_error, "results touching page 0 must fail typed");
    // Undo the damage: everything works again.
    db.store().poke_page_byte(0, 100, 0x40).unwrap();
    db.clear_buffer_pool().unwrap();
    for (qi, (query, mode)) in workload().into_iter().enumerate() {
        let r = db.query(query, mode).unwrap();
        assert_eq!(r.to_xml_on(db.store()).unwrap(), reference[qi]);
    }
}

#[test]
fn sinks_correct_or_typed_error_under_faults() {
    // An on-disk store with a two-page pool, so populating the output of
    // every sink — GroupBy, the left outer join, the stitch — does real
    // page I/O that the armed schedule can fail: every outcome must be
    // the model's answer or a typed error, never a panic or a silently
    // wrong result.
    let corpus = [QUERY_TITLES, QUERY2, QUERY_COUNT];
    let xml = DblpGenerator::new(DblpConfig::sized(60)).generate_xml();
    let opts = StoreOptions {
        on_disk: true,
        pool_pages: 2,
        ..StoreOptions::in_memory()
    };
    let db = TimberDb::load_xml(&xml, &opts).unwrap();
    let reference: Vec<String> = corpus.iter().map(|q| expected(&xml, q)).collect();
    let mut injected = 0u64;
    for seed in [7u64, 11, 13] {
        let schedule = FaultConfig::seeded(seed)
            .with_read_error(0.02)
            .with_read_flip(0.01);
        db.set_faults(Some(schedule)).unwrap();
        for (qi, query) in corpus.iter().enumerate() {
            // Serialization itself may also hit a fault.
            let out = db
                .query(query, PlanMode::GroupByRewrite)
                .and_then(|r| r.to_xml_on(db.store()));
            if let Ok(xml) = out {
                assert_eq!(xml, reference[qi], "seed={seed} query #{qi}");
            }
        }
        injected += db.fault_stats().unwrap().total();
        db.set_faults(None).unwrap();
        // Disarmed, the sinks answer perfectly again.
        for (qi, query) in corpus.iter().enumerate() {
            let r = db.query(query, PlanMode::GroupByRewrite).unwrap();
            assert_eq!(
                r.to_xml_on(db.store()).unwrap(),
                reference[qi],
                "post-disarm seed={seed} query #{qi}"
            );
        }
    }
    assert!(injected > 0, "schedules must actually inject faults");
}

#[test]
fn schedules_are_deterministic_across_runs() {
    for seed in seeds() {
        let outcome = || -> (Vec<bool>, u64) {
            // Working set well above the pool: the workload thrashes, so
            // the schedule sees a long stream of physical reads.
            let db = db(1200, 2);
            let schedule = FaultConfig::seeded(seed)
                .with_read_error(0.25)
                .with_read_flip(0.25);
            db.set_faults(Some(schedule)).unwrap();
            let oks: Vec<bool> = [PlanMode::Direct, PlanMode::GroupByRewrite]
                .map(|m| {
                    let result = db.query(QUERY_TITLES, m);
                    result.and_then(|r| r.to_xml_on(db.store())).is_ok()
                })
                .to_vec();
            let injected = db.fault_stats().unwrap().total();
            (oks, injected)
        };
        let a = outcome();
        let b = outcome();
        assert_eq!(a, b, "seed {seed} must replay identically");
        assert!(a.1 > 0, "seed {seed}: schedule must actually inject");
    }
}
