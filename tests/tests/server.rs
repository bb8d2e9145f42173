//! The timberd concurrency and recovery gauntlet.
//!
//! Everything here drives the server through real TCP connections over
//! the `timber-client` wire protocol, and validates responses the
//! strong way: byte-diffed against a *serial oracle* — an embedded,
//! never-concurrent `TimberDb` holding exactly the document set the
//! reader observed.
//!
//! - The 4-writer × 8-reader stress run: readers pin session snapshots
//!   and issue grouped queries while writers insert/delete/replace;
//!   every reader response must be byte-identical to the serial
//!   oracle's answer for the observed document set, and pinned sessions
//!   must be stable (same bytes twice) no matter what commits land.
//! - A property test for snapshot isolation itself (embedded handles,
//!   no sockets): concurrent readers racing an interleaved mutation
//!   workload must observe exactly a committed document set, never a
//!   mix of pre- and post-commit state.
//! - The crash gauntlet: a seeded `crash=N` fault schedule kills the
//!   server mid-commit; the store reopens through crash recovery, a
//!   fresh server binds, and its responses must match the oracle built
//!   from only the committed operations.
//! - EXPLAIN ANALYZE over the wire must still report the columnar fast
//!   path: no scalar-fallback row in a grouped plan on a pinned snapshot.
//! - The two retired mode bytes get the typed `unknown mode byte` reply
//!   and leave the connection serving.
//! - A predicate on the nested FOR path is a typed error, embedded and
//!   over the wire, and the server keeps serving.
//! - `STATS` reports the pool's resident frames beside its capacity: none
//!   on a fresh server, and after a read no more than it asked for.
//! - A session that pins a snapshot and never releases it holds only the
//!   pages of the documents it saw: `STATS` `pages=` stops growing while
//!   another connection churns documents, and after the session
//!   disconnects the next commits reuse what it held.

use datagen::{DblpConfig, DblpGenerator};
use smallrand::{RngExt, SeedableRng, StdRng};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use timber::{PlanMode, TimberDb, TimberError};
use timber_client::{Client, ClientError, Mode};
use timber_integration_tests::{deep_flwr, deep_xml, QUERY_COUNT};
use timberd::{Server, ServerHandle};
use xmlstore::{wal_path_for, FaultConfig, StoreOptions};
use xquery::QueryError;

/// Author pool shared by the synthetic documents, small enough that
/// grouped queries always find shared keys.
const AUTHORS: &[&str] = &["Jack", "Jill", "John", "Jane", "Joan"];

/// A small bib document with `n` articles; `tag` makes titles unique
/// across the run so replaced documents are observably different.
fn bib(tag: u64, n: usize, rng: &mut StdRng) -> String {
    let mut xml = String::from("<bib>");
    for i in 0..n {
        let a1 = AUTHORS[rng.random_range(0..AUTHORS.len())];
        let a2 = AUTHORS[rng.random_range(0..AUTHORS.len())];
        xml.push_str(&format!(
            "<article><title>T{tag}_{i}</title><author>{a1}</author><author>{a2}</author></article>"
        ));
    }
    xml.push_str("</bib>");
    xml
}

/// Boot an in-memory server.
fn boot_mem() -> (ServerHandle, SocketAddr) {
    let db = TimberDb::create(&StoreOptions::in_memory()).unwrap();
    let handle = Server::bind("127.0.0.1:0", Arc::new(db))
        .unwrap()
        .spawn()
        .unwrap();
    let addr = handle.local_addr();
    (handle, addr)
}

/// The serial oracle: an embedded store holding exactly `ids` (in id
/// order — insertion order and id order coincide, ids are never
/// reused), answering `QUERY_COUNT` under the grouped plan.
fn oracle_answer(ids: &[u64], corpus: &HashMap<u64, String>) -> String {
    let db = TimberDb::create(&StoreOptions::in_memory()).unwrap();
    for id in ids {
        db.insert_xml(&corpus[id]).unwrap();
    }
    let r = db.query(QUERY_COUNT, PlanMode::GroupByRewrite).unwrap();
    r.to_xml_on(db.store()).unwrap()
}

/// One reader observation: the document set the pinned session showed,
/// and the query bytes the server returned for it.
struct Observation {
    ids: Vec<u64>,
    answer: String,
}

/// The acceptance stress run: 4 writer connections × 8 reader
/// connections over loopback. Readers pin a session snapshot, read the
/// visible document set, query it twice (stability), and release;
/// writers churn their own documents. Every response is later
/// byte-diffed against the serial oracle for the observed set.
#[test]
fn four_writers_eight_readers_match_the_serial_oracle() {
    const WRITERS: usize = 4;
    const READERS: usize = 8;
    const WRITER_OPS: usize = 12;
    const READER_PINS: usize = 8;

    let (handle, addr) = boot_mem();
    // Every document any writer ever committed, by id. Ids are unique
    // for the store's lifetime, so this map is append-only ground truth.
    let corpus: Arc<Mutex<HashMap<u64, String>>> = Arc::new(Mutex::new(HashMap::new()));

    let mut threads = Vec::new();
    for w in 0..WRITERS {
        let corpus = Arc::clone(&corpus);
        threads.push(std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(1000 + w as u64);
            let mut c = Client::connect(addr).unwrap();
            let mut mine: Vec<u64> = Vec::new();
            for op in 0..WRITER_OPS {
                let tag = (w * WRITER_OPS + op) as u64;
                let roll = rng.random_range(0..10u32);
                if roll < 5 || mine.is_empty() {
                    let xml = bib(tag, rng.random_range(2..5), &mut rng);
                    let id = c.insert_xml(&xml).unwrap();
                    corpus.lock().unwrap().insert(id, xml);
                    mine.push(id);
                } else if roll < 8 {
                    let victim = mine.remove(rng.random_range(0..mine.len()));
                    let xml = bib(tag, rng.random_range(2..5), &mut rng);
                    let id = c.replace_xml(victim, &xml).unwrap();
                    corpus.lock().unwrap().insert(id, xml);
                    mine.push(id);
                } else {
                    let victim = mine.remove(rng.random_range(0..mine.len()));
                    c.delete(victim).unwrap();
                }
            }
        }));
    }

    let mut reader_threads = Vec::new();
    for r in 0..READERS {
        reader_threads.push(std::thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            let mut seen = Vec::new();
            for _ in 0..READER_PINS {
                c.snapshot().unwrap();
                let docs = c.docs().unwrap();
                let ids: Vec<u64> = docs.iter().map(|&(id, _)| id).collect();
                let answer = c.query(QUERY_COUNT, Mode::Grouped).unwrap();
                // Stability inside the pin: the same bytes again, and
                // the same document set, regardless of live commits.
                assert_eq!(
                    c.query(QUERY_COUNT, Mode::Grouped).unwrap(),
                    answer,
                    "reader {r}: pinned session answered differently twice"
                );
                assert_eq!(
                    c.docs()
                        .unwrap()
                        .iter()
                        .map(|&(id, _)| id)
                        .collect::<Vec<_>>(),
                    ids,
                    "reader {r}: pinned session's document set drifted"
                );
                c.release().unwrap();
                seen.push(Observation { ids, answer });
            }
            seen
        }));
    }

    for t in threads {
        t.join().unwrap();
    }
    let mut observations = Vec::new();
    for t in reader_threads {
        observations.extend(t.join().unwrap());
    }
    handle.shutdown();

    let corpus = corpus.lock().unwrap();
    // Ids are assigned in commit order, so the observed (insertion-
    // ordered) set must always be ascending — a mixed or torn snapshot
    // would violate this too.
    let mut cache: HashMap<Vec<u64>, String> = HashMap::new();
    assert_eq!(observations.len(), READERS * READER_PINS);
    for obs in &observations {
        assert!(obs.ids.windows(2).all(|w| w[0] < w[1]), "{:?}", obs.ids);
        let expected = cache
            .entry(obs.ids.clone())
            .or_insert_with(|| oracle_answer(&obs.ids, &corpus));
        assert_eq!(
            &obs.answer, expected,
            "server bytes diverge from the serial oracle for {:?}",
            obs.ids
        );
    }
}

/// Snapshot isolation, property-tested at the embedded level: readers
/// racing a mutation workload must observe exactly a committed document
/// set — never a mix. The writer records every committed state; every
/// reader-observed state must appear in that ledger verbatim.
#[test]
fn concurrent_snapshots_see_committed_states_never_a_mix() {
    for seed in 0..4u64 {
        let db = Arc::new(TimberDb::create(&StoreOptions::in_memory()).unwrap());
        // The ledger of committed document-id sets, in commit order.
        let ledger: Arc<Mutex<Vec<Vec<u64>>>> = Arc::new(Mutex::new(Vec::new()));
        ledger.lock().unwrap().push(Vec::new());
        let corpus: Arc<Mutex<HashMap<u64, String>>> = Arc::new(Mutex::new(HashMap::new()));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

        let writer = {
            let db = Arc::clone(&db);
            let ledger = Arc::clone(&ledger);
            let corpus = Arc::clone(&corpus);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut live: Vec<u64> = Vec::new();
                for op in 0..40 {
                    let roll = rng.random_range(0..10u32);
                    if roll < 5 || live.is_empty() {
                        let xml = bib(op, rng.random_range(1..4), &mut rng);
                        let id = db.insert_xml(&xml).unwrap();
                        corpus.lock().unwrap().insert(id, xml);
                        live.push(id);
                    } else if roll < 8 {
                        let victim = live.remove(rng.random_range(0..live.len()));
                        let xml = bib(op, rng.random_range(1..4), &mut rng);
                        let id = db.replace_xml(victim, &xml).unwrap();
                        corpus.lock().unwrap().insert(id, xml);
                        live.push(id);
                    } else {
                        let victim = live.remove(rng.random_range(0..live.len()));
                        db.delete_document(victim).unwrap();
                    }
                    live.sort_unstable();
                    ledger.lock().unwrap().push(live.clone());
                }
                stop.store(true, Ordering::SeqCst);
            })
        };

        let readers: Vec<_> = (0..3)
            .map(|_| {
                let db = Arc::clone(&db);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut seen: Vec<(Vec<u64>, Vec<u32>)> = Vec::new();
                    while !stop.load(Ordering::SeqCst) {
                        let snap = db.snapshot();
                        let docs = snap.documents();
                        let ids: Vec<u64> = docs.iter().map(|&(id, _)| id).collect();
                        let nodes: Vec<u32> = docs.iter().map(|&(_, n)| n).collect();
                        // The pin holds while commits land: reading the
                        // same snapshot again must be identical.
                        assert_eq!(snap.documents(), docs, "snapshot drifted under its pin");
                        seen.push((ids, nodes));
                    }
                    seen
                })
            })
            .collect();

        writer.join().unwrap();
        let ledger = ledger.lock().unwrap();
        let corpus = corpus.lock().unwrap();
        // A spinning reader observes each committed state many times;
        // the reference store for a state is built once.
        let mut expected: HashMap<Vec<u64>, Vec<u32>> = HashMap::new();
        for r in readers {
            for (ids, nodes) in r.join().unwrap() {
                assert!(
                    ledger.contains(&ids),
                    "seed {seed}: observed document set {ids:?} is not any committed state"
                );
                // And the snapshot's per-document node counts must match
                // the corpus documents — contents, not just ids.
                let expect = expected.entry(ids.clone()).or_insert_with(|| {
                    let reference = TimberDb::create(&StoreOptions::in_memory()).unwrap();
                    for id in &ids {
                        reference.insert_xml(&corpus[id]).unwrap();
                    }
                    reference.documents().iter().map(|&(_, n)| n).collect()
                });
                assert_eq!(
                    &nodes, expect,
                    "seed {seed}: node counts diverge for {ids:?}"
                );
            }
        }
    }
}

fn temp_paths(tag: &str) -> (PathBuf, PathBuf) {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let page = std::env::temp_dir().join(format!(
        "timberd_crash_{}_{tag}_{n}.pages",
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

fn seeds() -> Vec<u64> {
    match std::env::var("CRASH_SEEDS") {
        Ok(s) => s.split(',').filter_map(|t| t.trim().parse().ok()).collect(),
        Err(_) => vec![1, 2],
    }
}

/// The scripted wire workload for the crash gauntlet. Returns the XML of
/// every document whose commit survived, in insertion order, stopping at
/// the injected crash.
fn run_wire_script(c: &mut Client, seed: u64) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut alive: Vec<(u64, String)> = Vec::new();
    for op in 0..14u64 {
        let crashed = match rng.random_range(0..10u32) {
            0..=4 => {
                let xml = bib(op, rng.random_range(2..6), &mut rng);
                match c.insert_xml(&xml) {
                    Ok(id) => {
                        alive.push((id, xml));
                        false
                    }
                    Err(e) => is_crash(&e),
                }
            }
            5 | 6 if !alive.is_empty() => {
                let k = rng.random_range(0..alive.len());
                let xml = bib(op, rng.random_range(2..6), &mut rng);
                match c.replace_xml(alive[k].0, &xml) {
                    Ok(id) => {
                        alive.remove(k);
                        alive.push((id, xml));
                        false
                    }
                    Err(e) => is_crash(&e),
                }
            }
            7 if !alive.is_empty() => {
                let k = rng.random_range(0..alive.len());
                match c.delete(alive[k].0) {
                    Ok(()) => {
                        alive.remove(k);
                        false
                    }
                    Err(e) => is_crash(&e),
                }
            }
            _ => match c.checkpoint() {
                Ok(()) => false,
                Err(e) => is_crash(&e),
            },
        };
        if crashed {
            break;
        }
    }
    alive.into_iter().map(|(_, xml)| xml).collect()
}

/// A server error is only acceptable in the crash gauntlet if it *is*
/// the injected crash (every operation after the kill point reports it).
fn is_crash(e: &ClientError) -> bool {
    match e {
        ClientError::Server(msg) if msg.contains("simulated crash") => true,
        other => panic!("unexpected client error: {other}"),
    }
}

/// Kill timberd mid-commit with a seeded fault schedule, reopen the
/// store through recovery, bind a fresh server, and require the served
/// bytes to match the serial oracle of the committed operations.
#[test]
fn server_crash_mid_commit_recovers_and_serves_oracle_bytes() {
    for seed in seeds() {
        // Dry run: count write-class operations so the crash point can
        // land anywhere in the real run.
        let (page, wal_p) = temp_paths("dry");
        let db = Arc::new(TimberDb::create(&durable_opts(&page)).unwrap());
        db.set_faults(Some(FaultConfig::seeded(seed))).unwrap();
        let handle = Server::bind("127.0.0.1:0", Arc::clone(&db))
            .unwrap()
            .spawn()
            .unwrap();
        let mut c = Client::connect(handle.local_addr()).unwrap();
        let full = run_wire_script(&mut c, seed);
        assert!(
            !full.is_empty(),
            "seed {seed}: dry run must commit documents"
        );
        let writes = db.fault_stats().unwrap().write_ops;
        assert!(writes > 4, "seed {seed}: script must do real write work");
        drop(c);
        handle.shutdown();
        drop(db);
        let _ = std::fs::remove_file(&page);
        let _ = std::fs::remove_file(&wal_p);

        let mut rng = StdRng::seed_from_u64(seed ^ 0xD1E);
        let crash_at = rng.random_range(1..=writes);

        // The real run: same script, with the kill switch armed.
        let (page, wal_p) = temp_paths("crash");
        let opts = durable_opts(&page);
        let db = Arc::new(TimberDb::create(&opts).unwrap());
        db.set_faults(Some(FaultConfig::seeded(seed).with_crash_after(crash_at)))
            .unwrap();
        let handle = Server::bind("127.0.0.1:0", Arc::clone(&db))
            .unwrap()
            .spawn()
            .unwrap();
        let mut c = Client::connect(handle.local_addr()).unwrap();
        let alive = run_wire_script(&mut c, seed);
        assert_eq!(
            db.fault_stats().unwrap().crashes,
            1,
            "seed {seed}: the schedule must actually crash (crash_at={crash_at})"
        );
        drop(c);
        handle.shutdown();
        drop(db);

        // Restart: recovery folds the log, a fresh server binds.
        let recovered = TimberDb::open(&opts).unwrap();
        assert!(recovered.recovery_info().is_some());
        let handle = Server::bind("127.0.0.1:0", Arc::new(recovered))
            .unwrap()
            .spawn()
            .unwrap();
        let mut c = Client::connect(handle.local_addr()).unwrap();
        assert_eq!(
            c.docs().unwrap().len(),
            alive.len(),
            "seed {seed}, crash_at {crash_at}: wrong number of recovered documents"
        );
        let served = c.query(QUERY_COUNT, Mode::Grouped).unwrap();
        let reference = TimberDb::create(&StoreOptions::in_memory()).unwrap();
        for xml in &alive {
            reference.insert_xml(xml).unwrap();
        }
        let expected = reference
            .query(QUERY_COUNT, PlanMode::GroupByRewrite)
            .unwrap()
            .to_xml_on(reference.store())
            .unwrap();
        assert_eq!(
            served, expected,
            "seed {seed}, crash_at {crash_at}: restarted server diverges from the oracle"
        );
        // And the restarted server keeps accepting transactions.
        let extra = c
            .insert_xml("<bib><article><title>post</title><author>Jack</author></article></bib>")
            .unwrap();
        assert_eq!(c.docs().unwrap().len(), alive.len() + 1);
        c.delete(extra).unwrap();
        drop(c);
        handle.shutdown();
        let _ = std::fs::remove_file(&page);
        let _ = std::fs::remove_file(&wal_p);
    }
}

/// The acceptance criterion on the read fast path: EXPLAIN ANALYZE over
/// the wire, on a pinned session snapshot, must still report the
/// columnar grouped plan, with no row dropping to a scalar fallback.
/// That it reads no page is `page_free.rs`'s to check.
#[test]
fn explain_analyze_over_the_server_reports_no_fallback_rows() {
    let (handle, addr) = boot_mem();
    let mut c = Client::connect(addr).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    c.insert_xml(&bib(1, 30, &mut rng)).unwrap();
    c.insert_xml(&bib(2, 30, &mut rng)).unwrap();
    c.snapshot().unwrap();
    let report = c.explain(QUERY_COUNT, Mode::Grouped).unwrap();
    assert!(
        report.contains("groupby rewrite fired"),
        "not the grouped plan:\n{report}"
    );
    let lines: Vec<&str> = report.lines().filter(|l| l.contains(" | in=")).collect();
    assert!(!lines.is_empty(), "no operator line:\n{report}");
    for line in lines {
        assert!(
            line.contains(" vecfb=0"),
            "scalar-fallback rows over the server path: {line}"
        );
    }
    c.release().unwrap();
    drop(c);
    handle.shutdown();
}

/// Mode bytes 2 and 3 named plan modes once. A client that still sends
/// them gets the typed error every unknown byte gets — for QUERY and for
/// EXPLAIN — and the same connection then answers a grouped query.
#[test]
fn retired_mode_bytes_get_the_typed_error_and_the_connection_keeps_serving() {
    use timber_client::proto::{read_frame, write_frame, Opcode, STATUS_ERR, STATUS_OK};
    let (handle, addr) = boot_mem();
    let mut c = Client::connect(addr).unwrap();
    c.insert_xml(&bib(1, 12, &mut StdRng::seed_from_u64(3)))
        .unwrap();
    let want = c.query(QUERY_COUNT, Mode::Grouped).unwrap();

    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    let mut call = |op: Opcode, mode: u8| {
        let mut frame = vec![op as u8, mode];
        frame.extend_from_slice(QUERY_COUNT.as_bytes());
        write_frame(&mut raw, &frame).unwrap();
        let reply = read_frame(&mut raw)
            .unwrap()
            .expect("the connection stays open");
        (reply[0], String::from_utf8(reply[1..].to_vec()).unwrap())
    };
    for op in [Opcode::Query, Opcode::Explain] {
        for mode in [2u8, 3] {
            let (status, message) = call(op, mode);
            assert_eq!(status, STATUS_ERR, "{op:?} mode {mode}: {message}");
            assert_eq!(message, format!("unknown mode byte {mode}"));
        }
    }
    assert_eq!(call(Opcode::Query, Mode::Grouped as u8), (STATUS_OK, want));
    drop((c, raw));
    handle.shutdown();
}

/// Hostile depth over the wire: a 100 000-deep `INSERT` and a deeply
/// nested FLWR `QUERY` each get `STATUS_ERR` naming the limit — not a
/// stack overflow on the connection thread, which would abort the whole
/// server — and the same server then answers a normal query.
#[test]
fn deep_inputs_get_the_typed_error_and_the_server_keeps_serving() {
    let (handle, addr) = boot_mem();
    let mut c = Client::connect(addr).unwrap();
    c.insert_xml(&bib(1, 12, &mut StdRng::seed_from_u64(5)))
        .unwrap();
    let want = c.query(QUERY_COUNT, Mode::Grouped).unwrap();

    let mut hostile = Client::connect(addr).unwrap();
    match hostile.insert_xml(&deep_xml(100_000)) {
        Err(ClientError::Server(m)) => assert!(m.contains("deeper than"), "{m}"),
        other => panic!("deep INSERT: {other:?}"),
    }
    for mode in [Mode::Direct, Mode::Grouped] {
        match hostile.query(&deep_flwr(10_000), mode) {
            Err(ClientError::Server(m)) => assert!(m.contains("deeper than"), "{m}"),
            other => panic!("deep QUERY: {other:?}"),
        }
    }
    assert_eq!(hostile.docs().unwrap().len(), 1);
    assert_eq!(c.query(QUERY_COUNT, Mode::Grouped).unwrap(), want);
    drop((c, hostile));
    handle.shutdown();
}

/// The Query 1 shape with a predicate on the nested FOR path.
fn nested_for_with(pred: &str) -> String {
    format!(
        r#"FOR $a IN distinct-values(document("bib.xml")//author)
           RETURN <authorpubs> {{$a}}
             {{ FOR $b IN document("bib.xml")//article{pred}
                WHERE $a = $b/author RETURN $b/title }}
           </authorpubs>"#
    )
}

/// The translator used to build the nested FOR's pattern without its
/// step predicates, so both forms answered as if unfiltered (the 2001
/// article's title came back for `[year = "1999"]`). Both are now
/// `Unsupported`, in both plan modes, embedded and over the wire.
#[test]
fn nested_for_predicates_are_a_typed_error_and_the_server_keeps_serving() {
    let queries = [r#"[year = "1999"]"#, "[author = $a]"].map(nested_for_with);
    let xml = "<bib>\
        <article><title>Old</title><author>Jack</author><year>1999</year></article>\
        <article><title>New</title><author>Jack</author><year>2001</year></article>\
    </bib>";
    let db = TimberDb::load_xml(xml, &StoreOptions::in_memory()).unwrap();
    for query in &queries {
        for mode in [PlanMode::Direct, PlanMode::GroupByRewrite] {
            match db.query(query, mode) {
                Err(TimberError::Query(QueryError::Unsupported(m))) => {
                    assert!(m.contains("nested FOR"), "{m}")
                }
                other => panic!("{mode:?}: {:?}", other.map(|r| r.len())),
            }
        }
    }

    let (handle, addr) = boot_mem();
    let mut c = Client::connect(addr).unwrap();
    c.insert_xml(xml).unwrap();
    let want = c.query(QUERY_COUNT, Mode::Grouped).unwrap();
    for query in &queries {
        for mode in [Mode::Direct, Mode::Grouped] {
            match c.query(query, mode) {
                Err(ClientError::Server(m)) => assert!(m.contains("nested FOR"), "{m}"),
                other => panic!("{mode:?}: {other:?}"),
            }
        }
    }
    assert_eq!(c.query(QUERY_COUNT, Mode::Grouped).unwrap(), want);
    drop(c);
    handle.shutdown();
}

/// The `name=` field of the first line of a `STATS` reply.
fn stats_field(stats: &str, name: &str) -> u64 {
    let field = stats
        .lines()
        .next()
        .and_then(|line| line.split(' ').find_map(|f| f.strip_prefix(name)))
        .unwrap_or_else(|| panic!("no {name} in {stats}"));
    field.parse().unwrap()
}

/// The pool allocates a frame on first fault, and `STATS` says how many
/// it holds: a fresh server over a loaded store holds none, and one
/// `QUERY_COUNT` read leaves no more frames than pages it asked for.
#[test]
fn stats_report_resident_pool_frames_up_to_the_pages_read() {
    let xml = DblpGenerator::new(DblpConfig::sized(300)).generate_xml();
    let db = TimberDb::load_xml(&xml, &StoreOptions::in_memory()).unwrap();
    let handle = Server::bind("127.0.0.1:0", Arc::new(db))
        .unwrap()
        .spawn()
        .unwrap();
    let mut c = Client::connect(handle.local_addr()).unwrap();
    let fresh = c.stats().unwrap();
    assert_eq!(stats_field(&fresh, "pool_resident="), 0, "{fresh}");
    assert_eq!(stats_field(&fresh, "pool_capacity="), 1024, "{fresh}");

    c.query(QUERY_COUNT, Mode::Grouped).unwrap();
    let after = c.stats().unwrap();
    let read = stats_field(&after, "page_requests=") - stats_field(&fresh, "page_requests=");
    let resident = stats_field(&after, "pool_resident=");
    assert!(resident > 0, "{after}");
    assert!(
        resident <= read,
        "{resident} frames for {read} page requests"
    );
    drop(c);
    handle.shutdown();
}

/// A session that sends `SNAPSHOT` and never `RELEASE` holds the pages
/// of the documents it saw, and of no document committed after it:
/// while it sits on a deleted document, another connection inserts and
/// deletes a document fifty times and the file stops growing after the
/// first round. Once the session disconnects, the next commit frees the
/// deleted document's pages, and a further round lands on them.
#[test]
fn a_stuck_pin_holds_only_the_pages_of_the_documents_it_saw() {
    let db = Arc::new(TimberDb::create(&StoreOptions::in_memory()).unwrap());
    let handle = Server::bind("127.0.0.1:0", Arc::clone(&db))
        .unwrap()
        .spawn()
        .unwrap();
    let mut rng = StdRng::seed_from_u64(47);
    let (seen_xml, churn_xml) = (bib(0, 50, &mut rng), bib(1, 50, &mut rng));
    let mut writer = Client::connect(handle.local_addr()).unwrap();
    let seen_doc = writer.insert_xml(&seen_xml).unwrap();
    let mut stuck = Client::connect(handle.local_addr()).unwrap();
    stuck.snapshot().unwrap();
    let seen = stuck.docs().unwrap();
    writer.delete(seen_doc).unwrap();
    let mut pages = Vec::new();
    for _ in 0..50 {
        let doc = writer.insert_xml(&churn_xml).unwrap();
        writer.delete(doc).unwrap();
        pages.push(stats_field(&writer.stats().unwrap(), "pages="));
    }
    assert_eq!(stuck.docs().unwrap(), seen, "the pinned session drifted");
    assert!(pages.iter().all(|&p| p == pages[0]), "{pages:?}");

    // The test, the accept loop and the writer's connection hold the
    // database once the stuck session's thread has ended.
    drop(stuck);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while Arc::strong_count(&db) > 3 {
        assert!(
            std::time::Instant::now() < deadline,
            "the session never ended"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    // Two documents of the deleted one's shape: the first commit frees
    // its pages, and with the last churned copy's they hold both.
    writer.insert_xml(&seen_xml).unwrap();
    writer.insert_xml(&seen_xml).unwrap();
    let after = stats_field(&writer.stats().unwrap(), "pages=");
    assert_eq!(after, pages[0], "the freed pages were not reused");
    drop(writer);
    handle.shutdown();
}
