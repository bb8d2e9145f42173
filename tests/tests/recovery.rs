//! Crash-recovery harness over the durable write path.
//!
//! For every seed in `CRASH_SEEDS` (default `{1, 2, 3}`): run a scripted
//! mutation workload (inserts, deletes, replaces, checkpoints) against a
//! durable store — first fault-free to learn how many write-class
//! operations (`W`) the script performs, then again with a `crash=N`
//! schedule (N drawn from `1..=W`) that kills the store mid-write.
//! Reopen the page file, let recovery replay the log, and assert the
//! store holds exactly the documents whose commit records reached the
//! log. "Exactly" is checked the strong way: the paper's full grouping
//! query suite (Q1, Q2, Q-count under both plans) runs against the
//! recovered store and is byte-diffed against a never-crashed oracle
//! built from the same committed operations.
//!
//! Recovery itself writes no page and is deterministic: opening the
//! crashed store leaves its page file byte-identical, and two opens of
//! copies of it report the same recovery and leave the same bytes.

use datagen::{DblpConfig, DblpGenerator};
use smallrand::{RngExt, SeedableRng, StdRng};
use timber::{PlanMode, TimberDb, TimberError};
use timber_integration_tests::{QUERY1, QUERY2, QUERY_COUNT};
use xmlstore::{wal_path_for, FaultConfig, NodeId, RecoveryInfo, StoreError, StoreOptions};

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

fn seeds() -> Vec<u64> {
    match std::env::var("CRASH_SEEDS") {
        Ok(s) => s.split(',').filter_map(|t| t.trim().parse().ok()).collect(),
        Err(_) => vec![1, 2, 3],
    }
}

/// Fresh page/log paths in the system temp dir.
fn temp_paths(tag: &str) -> (PathBuf, PathBuf) {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let page = std::env::temp_dir().join(format!(
        "timber_recovery_{}_{tag}_{n}.pages",
        std::process::id()
    ));
    let wal = wal_path_for(&page);
    let _ = std::fs::remove_file(&page);
    let _ = std::fs::remove_file(&wal);
    (page, wal)
}

fn durable_opts(page: &Path) -> StoreOptions {
    StoreOptions {
        pool_pages: 32,
        ..StoreOptions::in_memory()
    }
    .with_path(page)
    .with_durable()
}

/// One scripted mutation. Document payloads are synthetic DBLP sized by
/// `articles`, so different steps insert genuinely different documents.
#[derive(Clone, Copy, Debug)]
enum Step {
    Insert {
        articles: usize,
    },
    /// Delete the `k`-th live document (mod the live count).
    Delete {
        k: usize,
    },
    /// Replace the `k`-th live document with a fresh one.
    Replace {
        k: usize,
        articles: usize,
    },
    Checkpoint,
}

/// The fixed workload every seed runs: grows, shrinks, reuses freed
/// pages, and checkpoints mid-stream so the crash can land in any phase.
const SCRIPT: &[Step] = &[
    Step::Insert { articles: 10 },
    Step::Insert { articles: 6 },
    Step::Checkpoint,
    Step::Delete { k: 0 },
    Step::Insert { articles: 8 },
    Step::Replace { k: 0, articles: 5 },
    Step::Insert { articles: 4 },
    Step::Checkpoint,
    Step::Delete { k: 1 },
    Step::Insert { articles: 7 },
];

fn doc_xml(articles: usize) -> String {
    DblpGenerator::new(DblpConfig::sized(articles)).generate_xml()
}

/// Apply the script until done or the injected crash fires. Returns the
/// committed model: the XML of every live document, in insertion order —
/// exactly what must survive a reopen. A step only enters the model if
/// its operation returned `Ok` (commit durable).
fn run_script(db: &mut TimberDb) -> Vec<String> {
    let mut alive: Vec<String> = Vec::new();
    for step in SCRIPT {
        let r: Result<(), TimberError> = match *step {
            Step::Insert { articles } => {
                let xml = doc_xml(articles);
                db.insert_xml(&xml).map(|_| alive.push(xml))
            }
            Step::Delete { k } if !alive.is_empty() => {
                let k = k % alive.len();
                let doc = db.documents()[k].0;
                db.delete_document(doc).map(|()| {
                    alive.remove(k);
                })
            }
            Step::Replace { k, articles } if !alive.is_empty() => {
                let k = k % alive.len();
                let doc = db.documents()[k].0;
                let xml = doc_xml(articles);
                db.replace_xml(doc, &xml).map(|_| {
                    // Replace = delete + insert: the fresh document goes
                    // to the end of insertion order.
                    alive.remove(k);
                    alive.push(xml);
                })
            }
            Step::Delete { .. } | Step::Replace { .. } => continue,
            Step::Checkpoint => db.checkpoint(),
        };
        match r {
            Ok(()) => {}
            Err(TimberError::Store(StoreError::SimulatedCrash)) => break,
            Err(e) => panic!("unexpected workload error: {e}"),
        }
    }
    alive
}

/// The query suite both stores answer: Q1/Q2/Q-count under both plans.
fn suite(db: &TimberDb) -> Vec<String> {
    let mut out = Vec::new();
    for q in [QUERY1, QUERY2, QUERY_COUNT] {
        for mode in [PlanMode::Direct, PlanMode::GroupByRewrite] {
            let r = db.query(q, mode).unwrap();
            out.push(r.to_xml_on(db.store()).unwrap());
        }
    }
    out
}

/// Never-crashed oracle: a fresh store holding exactly `alive`, inserted
/// in the same order. Labels, index and query answers depend only on the
/// live documents, so this is the ground truth for the recovered store.
fn oracle(alive: &[String]) -> TimberDb {
    let db = TimberDb::create(&StoreOptions::in_memory()).unwrap();
    for xml in alive {
        db.insert_xml(xml).unwrap();
    }
    db
}

/// Every row with content holds the same text in both of its copies: the
/// name of the symbol its node record carries (which `open` reads) and the
/// value on the heap (which output reads).
fn assert_both_copies_agree(db: &TimberDb, label: &str) {
    let store = db.store();
    let rows: Vec<NodeId> = (0..store.node_count())
        .map(NodeId)
        .filter(|&id| store.content_sym(id).is_some())
        .collect();
    let values = store.values(&rows).unwrap();
    for (i, &id) in rows.iter().enumerate() {
        let name = store.dict().resolve(store.content_sym(id).unwrap());
        assert_eq!(values.get(i), Some(&*name), "{label}: row {id:?}");
    }
}

/// Size the crash schedule: run the script fault-free (injector armed
/// but firing nothing) and count write-class operations.
fn count_write_ops(seed: u64) -> u64 {
    let (page, wal_p) = temp_paths("dryrun");
    let mut db = TimberDb::create(&durable_opts(&page)).unwrap();
    db.set_faults(Some(FaultConfig::seeded(seed))).unwrap();
    let alive = run_script(&mut db);
    assert_eq!(alive.len(), 3, "fault-free script must complete");
    let w = db.fault_stats().unwrap().write_ops;
    drop(db);
    let _ = std::fs::remove_file(&page);
    let _ = std::fs::remove_file(&wal_p);
    w
}

/// Open a copy of the store at `page` (page file and log) under the
/// suffix `tag`: what recovery reports, and the page and log bytes it
/// leaves.
fn open_copy(page: &Path, tag: &str) -> (RecoveryInfo, Vec<u8>, Vec<u8>) {
    let copy = page.with_extension(format!("pages.{tag}"));
    std::fs::copy(page, &copy).unwrap();
    std::fs::copy(wal_path_for(page), wal_path_for(&copy)).unwrap();
    let info = TimberDb::open(&durable_opts(&copy))
        .unwrap()
        .recovery_info()
        .unwrap();
    let pages = std::fs::read(&copy).unwrap();
    let log = std::fs::read(wal_path_for(&copy)).unwrap();
    let _ = std::fs::remove_file(&copy);
    let _ = std::fs::remove_file(wal_path_for(&copy));
    (info, pages, log)
}

/// The full cycle for one `(seed, crash point)`: crash mid-script,
/// check that recovery of the crashed store is deterministic, reopen,
/// check that recovery wrote no page, byte-diff the grouping suite
/// against the oracle, and keep mutating afterwards.
fn crash_recover_verify(seed: u64, crash_at: u64) {
    let label = format!("seed={seed},crash={crash_at}");
    let (page, wal_p) = temp_paths("crash");
    let opts = durable_opts(&page);

    let mut db = TimberDb::create(&opts).unwrap();
    db.set_faults(Some(FaultConfig::seeded(seed).with_crash_after(crash_at)))
        .unwrap();
    let alive = run_script(&mut db);
    let crashed = db.fault_stats().unwrap().crashes == 1;
    assert!(crashed, "{label}: the schedule must actually crash");
    drop(db);

    // Determinism: two opens of copies of the crashed store report the
    // same recovery and leave the same page and log bytes.
    assert_eq!(
        open_copy(&page, "a"),
        open_copy(&page, "b"),
        "{label}: recovery must be deterministic"
    );

    // Recovery: exactly the committed documents survive, and the page
    // file is as the crash left it.
    let crashed_pages = std::fs::read(&page).unwrap();
    let recovered = TimberDb::open(&opts).unwrap();
    assert!(
        std::fs::read(&page).unwrap() == crashed_pages,
        "{label}: recovery wrote the page file"
    );
    let info = recovered.recovery_info().unwrap();
    assert_eq!(
        recovered.documents().len(),
        alive.len(),
        "{label}: recovered {info:?}, expected docs {:?}",
        alive.iter().map(String::len).collect::<Vec<_>>(),
    );
    let reference = oracle(&alive);
    assert_eq!(
        recovered
            .documents()
            .iter()
            .map(|&(_, n)| n)
            .collect::<Vec<_>>(),
        reference
            .documents()
            .iter()
            .map(|&(_, n)| n)
            .collect::<Vec<_>>(),
        "{label}: node counts per document diverge"
    );
    assert_eq!(
        suite(&recovered),
        suite(&reference),
        "{label}: grouping suite diverges from the never-crashed oracle"
    );

    // The recovered store accepts new transactions.
    recovered.insert_xml(&doc_xml(3)).unwrap();
    assert_eq!(recovered.documents().len(), alive.len() + 1);
    drop(recovered);

    // A second reopen (recovery over the post-recovery checkpoint) sees
    // the same state — recovery is stable under repetition.
    let again = TimberDb::open(&opts).unwrap();
    assert_eq!(again.documents().len(), alive.len() + 1);
    drop(again);
    let _ = std::fs::remove_file(&page);
    let _ = std::fs::remove_file(&wal_p);
}

#[test]
fn fault_free_workload_survives_reopen_byte_identically() {
    let (page, wal_p) = temp_paths("clean");
    let opts = durable_opts(&page);
    let mut db = TimberDb::create(&opts).unwrap();
    let alive = run_script(&mut db);
    assert_eq!(alive.len(), 3);
    drop(db);
    let reopened = TimberDb::open(&opts).unwrap();
    // The two commits after the script's last checkpoint.
    let info = RecoveryInfo {
        committed: 2,
        ..RecoveryInfo::default()
    };
    assert_eq!(reopened.recovery_info(), Some(info));
    assert_eq!(reopened.documents().len(), 3);
    assert_both_copies_agree(&reopened, "clean reopen");
    assert_eq!(suite(&reopened), suite(&oracle(&alive)));
    drop(reopened);
    let _ = std::fs::remove_file(&page);
    let _ = std::fs::remove_file(&wal_p);
}

#[test]
fn crash_at_first_write_recovers_to_empty_store() {
    for seed in seeds() {
        let (page, wal_p) = temp_paths("first");
        let opts = durable_opts(&page);
        let mut db = TimberDb::create(&opts).unwrap();
        db.set_faults(Some(FaultConfig::seeded(seed).with_crash_after(1)))
            .unwrap();
        let alive = run_script(&mut db);
        assert!(
            alive.is_empty(),
            "nothing can commit before the first write"
        );
        drop(db);
        let recovered = TimberDb::open(&opts).unwrap();
        assert!(recovered.documents().is_empty(), "seed={seed}");
        drop(recovered);
        let _ = std::fs::remove_file(&page);
        let _ = std::fs::remove_file(&wal_p);
    }
}

#[test]
fn seeded_crash_points_recover_exactly_the_committed_documents() {
    for seed in seeds() {
        let w = count_write_ops(seed);
        assert!(w > 4, "the script must do real write work, saw {w}");
        // Three crash points per seed: the middle of the script (drawn
        // seeded, so CI reruns are identical), the very last write, and
        // one drawn from the first half.
        let mut rng = StdRng::seed_from_u64(seed);
        let mid = rng.random_range(2..w);
        let early = rng.random_range(1..=w / 2);
        for crash_at in [early, mid, w] {
            crash_recover_verify(seed, crash_at);
        }
    }
}

// ---- the delta chain -----------------------------------------------------
//
// A commit record carries what the edit changed — the dictionary suffix
// interned since the last durable record and one or two document-table
// entries — so recovery folds a chain of deltas over the checkpoint's
// snapshot. The chain below puts everything that can sit between two
// links into the tail after a checkpoint.

#[derive(Clone, Copy)]
enum Link {
    Insert(usize),
    /// An insert whose log write fails (`write_err=1.0`): nothing
    /// commits, but the symbols its loader interned stay in memory and
    /// ride with the next commit that lands.
    FailedInsert(usize),
    Replace(usize),
    Delete,
    /// A query whose constructed tag no document holds: it is interned
    /// between two commits and rides with the later one.
    Query,
    Checkpoint,
}

/// After the load that opens every run. The crash schedules arm at
/// `CHAIN[TAIL]` and again after the failed insert (arming replaces the
/// injector, so one schedule cannot span it).
const CHAIN: &[Link] = &[
    Link::Insert(6),
    Link::Checkpoint,
    Link::Insert(5),
    Link::FailedInsert(9),
    Link::Replace(4),
    Link::Query,
    Link::Delete,
    Link::Insert(3),
];
const TAIL: usize = 2;
const AFTER_FAILURE: usize = 4;
const PROBE_TAG: &str = "chainprobe";

struct ChainRun {
    /// Commits and checkpoints that returned `Ok`.
    durable_events: usize,
    /// Write-class operations the armed schedule counted.
    write_ops: u64,
}

/// Run the chain on `db`. `arm` installs a fault schedule just before
/// `CHAIN[at]`; the run ends at an injected crash, or — for the oracle —
/// once `stop_after` durable events are done, before whatever follows
/// the last of them can intern anything.
fn run_chain(
    db: &TimberDb,
    arm: Option<(usize, FaultConfig)>,
    stop_after: Option<usize>,
) -> ChainRun {
    let log_down: FaultConfig = "seed=1,write_err=1.0,pages=4294967295-4294967295"
        .parse()
        .unwrap();
    let probe = format!(
        r#"FOR $a IN distinct-values(document("bib.xml")//author)
           RETURN <{PROBE_TAG}> {{$a}} </{PROBE_TAG}>"#
    );
    let ops = |db: &TimberDb, seen: u64| db.fault_stats().map_or(seen, |f| f.write_ops);
    let mut run = ChainRun {
        durable_events: 0,
        write_ops: 0,
    };
    for (i, link) in CHAIN.iter().enumerate() {
        if stop_after == Some(run.durable_events) {
            break;
        }
        if let Some((_, schedule)) = arm.as_ref().filter(|(at, _)| *at == i) {
            db.set_faults(Some(schedule.clone())).unwrap();
        }
        let oldest = db.documents()[0].0;
        let syms = db.store().dict().len();
        let done: Result<(), TimberError> = match *link {
            Link::Insert(articles) => db.insert_xml(&link_xml(articles)).map(drop),
            Link::Replace(articles) => db.replace_xml(oldest, &link_xml(articles)).map(drop),
            Link::Delete => db.delete_document(oldest),
            Link::Checkpoint => db.checkpoint(),
            Link::FailedInsert(articles) => {
                run.write_ops = ops(db, run.write_ops);
                db.set_faults(Some(log_down.clone())).unwrap();
                let err = db.insert_xml(&link_xml(articles)).unwrap_err();
                assert!(
                    matches!(&err, TimberError::Store(e) if e.is_transient()),
                    "{err}"
                );
                db.set_faults(None).unwrap();
                assert!(db.store().dict().len() > syms, "its symbols stay interned");
                continue;
            }
            Link::Query => {
                db.query(&probe, PlanMode::Direct).unwrap();
                assert!(db.store().dict().get(PROBE_TAG).is_some());
                assert!(db.store().dict().len() > syms, "the query interned its tag");
                continue;
            }
        };
        match done {
            Ok(()) => run.durable_events += 1,
            Err(TimberError::Store(StoreError::SimulatedCrash)) => break,
            Err(e) => panic!("unexpected chain error: {e}"),
        }
    }
    run.write_ops = ops(db, run.write_ops);
    run
}

/// A document of its own seed, so every link brings titles (and a few
/// authors) no earlier link interned.
fn link_xml(articles: usize) -> String {
    DblpGenerator::new(DblpConfig::sized(articles).with_seed(articles as u64)).generate_xml()
}

fn chain_db(opts: &StoreOptions) -> TimberDb {
    TimberDb::load_xml(&link_xml(10), opts).unwrap()
}

fn count_bytes(db: &TimberDb) -> String {
    let r = db.query(QUERY_COUNT, PlanMode::GroupByRewrite).unwrap();
    r.to_xml_on(db.store()).unwrap()
}

fn remove_files(paths: &[&Path]) {
    for p in paths {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn recovery_folds_the_delta_chain_at_every_crash_point_of_the_tail() {
    for at in [TAIL, AFTER_FAILURE] {
        // Size this schedule: the armed segment's write-class ops.
        let (page, wal_p) = temp_paths("chain_dry");
        let dry = run_chain(
            &chain_db(&durable_opts(&page)),
            Some((at, FaultConfig::seeded(7))),
            None,
        );
        assert_eq!(dry.durable_events, 6, "the fault-free chain completes");
        remove_files(&[&page, &wal_p]);
        let w = dry.write_ops;
        assert!(w >= 3, "arming at link {at} saw {w} write ops");

        for crash_at in 1..=w {
            let label = format!("armed at link {at}, crash={crash_at}");
            let (page, wal_p) = temp_paths("chain");
            let opts = durable_opts(&page);
            let db = chain_db(&opts);
            let schedule = FaultConfig::seeded(7).with_crash_after(crash_at);
            let crashed = run_chain(&db, Some((at, schedule)), None);
            assert_eq!(db.fault_stats().unwrap().crashes, 1, "{label}");
            drop(db);

            // The oracle never crashes: the same chain, stopped after
            // the last commit the crashed run saw acknowledged.
            let (opage, owal) = temp_paths("chain_oracle");
            let oracle = chain_db(&durable_opts(&opage));
            run_chain(&oracle, None, Some(crashed.durable_events));

            let recovered = TimberDb::open(&opts).unwrap();
            let (got, want) = (recovered.store().dict(), oracle.store().dict());
            assert_eq!(got.len(), want.len(), "{label}: dictionary length");
            for i in 0..want.len() as u32 {
                let sym = xmlstore::Sym(i);
                assert_eq!(got.resolve(sym), want.resolve(sym), "{label}: symbol {i}");
            }
            assert_eq!(recovered.documents(), oracle.documents(), "{label}");
            assert_both_copies_agree(&recovered, &label);
            assert_eq!(count_bytes(&recovered), count_bytes(&oracle), "{label}");
            drop((recovered, oracle));
            remove_files(&[&page, &wal_p, &opage, &owal]);
        }
    }
}

#[test]
fn a_failed_commit_never_reaches_the_fold() {
    // Two frames: an insert over reused pages writes and syncs them
    // before its commit record is even written. Page writes do not
    // touch the log, so the one log write is the commit's: when it
    // fails, nothing of the transaction is durable, and nothing of the
    // `Commit` may stay in the log — otherwise a later write lands a
    // delta the writer never applied. Even seeds fail a document
    // whose names are all durable (a landed delta would add a phantom
    // entry over released pages), odd seeds one that interns new names
    // (the next commit would log the same `dict_from` twice).
    let log_only = |cfg: FaultConfig| cfg.with_pages(u32::MAX, u32::MAX);
    for seed in 0..40u64 {
        let label = format!("seed {seed}");
        let reused = link_xml(if seed % 2 == 0 { 300 } else { 280 });
        let run = |db: &TimberDb, faults: FaultConfig| {
            let big = db.insert_xml(&link_xml(300)).unwrap();
            db.delete_document(big).unwrap();
            let before = db.wal_stats().unwrap();
            db.set_faults(Some(log_only(faults))).unwrap();
            let landed = db.insert_xml(&reused).is_ok();
            // Disarming empties the pool, which writes nothing.
            db.set_faults(None).unwrap();
            let flushed = db.wal_stats().unwrap().flushes - before.flushes;
            db.insert_xml(&link_xml(3)).unwrap();
            (landed, flushed)
        };
        let (page, wal_p) = temp_paths("prefix");
        let opts = durable_opts(&page).with_pool_pages(2);
        let db = chain_db(&opts);
        let (landed, flushed) = run(&db, FaultConfig::seeded(seed).with_write_error(0.6));
        assert_eq!(
            flushed,
            u64::from(landed),
            "{label}: only the commit flushes"
        );
        drop(db);

        // The oracle fails the same insert before any of it is durable.
        let (opage, owal) = temp_paths("prefix_oracle");
        let oracle = chain_db(&durable_opts(&opage).with_pool_pages(2));
        let p = if landed { 0.0 } else { 1.0 };
        let (olanded, _) = run(&oracle, FaultConfig::seeded(seed).with_write_error(p));
        assert_eq!(olanded, landed, "{label}");

        let recovered = TimberDb::open(&opts).unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(recovered.documents(), oracle.documents(), "{label}");
        let (got, want) = (recovered.store().dict(), oracle.store().dict());
        assert_eq!(got.len(), want.len(), "{label}: dictionary length");
        assert_eq!(count_bytes(&recovered), count_bytes(&oracle), "{label}");
        drop((recovered, oracle));
        remove_files(&[&page, &wal_p, &opage, &owal]);
    }
}
