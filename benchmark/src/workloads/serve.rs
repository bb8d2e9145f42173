//! `serve`: `timberd` in-process on loopback over a durable store, one
//! reader connection and one writer connection, both closed loops.

use super::{query_xml, text, timed_setup, Ctx, Phase, Res};
use crate::calibrate::Calibrator;
use crate::inputs;
use crate::stats::{median, percentile, tail_percentile, Report};
use crate::sys;
use crate::trace::{Recorder, Span};
use std::collections::{HashMap, VecDeque};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use timber::{PlanMode, TimberDb};
use timber_bench::QUERY_COUNT;
use timber_client::{Client, Mode};
use timberd::{Server, ServerHandle};
use xmlstore::{StoreOptions, PAGE_SIZE};

/// Documents loaded before the run; the live set stays at this ± 1.
const PRELOAD_DOCS: usize = 200;
const DOC_ARTICLES: usize = 100;
/// Distinct documents the writer cycles through.
const WRITE_DOCS: usize = 32;
const POOL_PAGES: usize = 4096;
/// The writer's fixed pause between a reply and its next request.
const THINK: Duration = Duration::from_millis(50);
const CHECKPOINT_EVERY: usize = 64;
/// Every this-many-th read pins a snapshot and is kept for verification.
const KEEP_EVERY: usize = 50;
/// Kept reads checked against a rebuilt oracle, evenly spaced.
const VERIFY_KEPT: usize = 2;

struct Served {
    db: Arc<TimberDb>,
    server: Option<ServerHandle>,
    addr: SocketAddr,
    docs: Vec<String>,
    /// `(document id, index into docs)` for the preloaded documents.
    preloaded: Vec<(u64, usize)>,
    page: PathBuf,
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

fn setup(ctx: &Ctx) -> Res<Served> {
    let docs = inputs::documents(ctx.seed, PRELOAD_DOCS + WRITE_DOCS, DOC_ARTICLES);
    let page = ctx.dir.join("serve.pages");
    sys::remove_store(&page);
    let opts = StoreOptions::default()
        .with_path(&page)
        .with_pool_pages(POOL_PAGES)
        .with_durable();
    let db = TimberDb::create(&opts).map_err(text)?;
    let mut preloaded = Vec::with_capacity(PRELOAD_DOCS);
    for (k, xml) in docs.iter().take(PRELOAD_DOCS).enumerate() {
        preloaded.push((db.insert_xml(xml).map_err(text)?, k));
    }
    db.checkpoint().map_err(text)?;
    let db = Arc::new(db);
    let server = Server::bind("127.0.0.1:0", Arc::clone(&db))
        .and_then(Server::spawn)
        .map_err(text)?;
    let addr = server.local_addr();
    let served = Served {
        db,
        server: Some(server),
        addr,
        docs,
        preloaded,
        page,
    };
    let mut warm = Client::connect(addr).map_err(text)?;
    for _ in 0..3 {
        warm.query(QUERY_COUNT, Mode::Grouped).map_err(text)?;
    }
    Ok(served)
}

/// Time one client call. Under a recorder it is a span and its
/// milliseconds are raw; otherwise they are scaled to the reference host.
fn call<T>(
    rec: &mut Option<Recorder>,
    cal: &mut Calibrator,
    name: &'static str,
    op: u64,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    cal.refresh();
    let t0 = Instant::now();
    let (out, factor) = match rec {
        Some(r) => (r.time(name, op, f), 1.0),
        None => (f(), cal.factor()),
    };
    (out, t0.elapsed().as_secs_f64() * 1e3 * factor)
}

/// A pinned read: the documents it saw and the bytes it got.
type Kept = (Vec<(u64, u32)>, String);

#[derive(Default)]
struct ReadLog {
    ms: Vec<f64>,
    malformed: usize,
    kept: Vec<Kept>,
    /// Reads per second of the whole loop, kept ones included; scaled
    /// like the latencies.
    per_s: f64,
}

fn reader(addr: SocketAddr, until: Instant, rec: &mut Option<Recorder>) -> Res<ReadLog> {
    let mut client = Client::connect(addr).map_err(text)?;
    let mut log = ReadLog::default();
    let mut cal = Calibrator::new();
    let stretch = cal.begin();
    let mut i = 0u64;
    while Instant::now() < until {
        i += 1;
        if i % KEEP_EVERY as u64 == 0 {
            client.snapshot().map_err(text)?;
            let docs = client.docs().map_err(text)?;
            let xml = client.query(QUERY_COUNT, Mode::Grouped).map_err(text)?;
            client.release().map_err(text)?;
            log.kept.push((docs, xml));
        } else {
            let (xml, ms) = call(rec, &mut cal, "read", i, || {
                client.query(QUERY_COUNT, Mode::Grouped)
            });
            let xml = xml.map_err(text)?;
            // Unpinned reads race the writer, so their bytes have no
            // known oracle; they must at least be a whole result.
            if !(xml.starts_with("<authorpubs>") && xml.ends_with("</authorpubs>\n")) {
                log.malformed += 1;
            }
            log.ms.push(ms);
        }
    }
    log.per_s = (log.ms.len() + log.kept.len()) as f64 / cal.scaled_seconds(&stretch);
    Ok(log)
}

#[derive(Default)]
struct WriteLog {
    insert_ms: Vec<f64>,
    replace_ms: Vec<f64>,
    delete_ms: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    /// `(document id, index into docs)` of every document written.
    assigned: Vec<(u64, usize)>,
    user_bytes: u64,
    wall_s: f64,
}

impl WriteLog {
    fn writes(&self) -> Vec<f64> {
        [&self.insert_ms[..], &self.replace_ms, &self.delete_ms].concat()
    }
}

/// insert → replace its oldest own document → delete it, with a fixed
/// think time before each, so the store stays the size it was loaded at.
fn writer(served: &Served, until: Instant, rec: &mut Option<Recorder>) -> Res<WriteLog> {
    let mut client = Client::connect(served.addr).map_err(text)?;
    let mut log = WriteLog::default();
    let mut own: VecDeque<u64> = VecDeque::new();
    let mut cal = Calibrator::new();
    let t0 = Instant::now();
    let mut n = 0usize;
    while Instant::now() < until {
        std::thread::sleep(THINK);
        let op = n as u64;
        let k = PRELOAD_DOCS + n % WRITE_DOCS;
        let xml = &served.docs[k];
        match (n % 3, own.pop_front()) {
            (1, Some(victim)) => {
                let (id, ms) = call(rec, &mut cal, "replace", op, || {
                    client.replace_xml(victim, xml)
                });
                let id = id.map_err(text)?;
                own.push_back(id);
                log.assigned.push((id, k));
                log.user_bytes += xml.len() as u64;
                log.replace_ms.push(ms);
            }
            (2, Some(victim)) => {
                let (r, ms) = call(rec, &mut cal, "delete", op, || client.delete(victim));
                r.map_err(text)?;
                log.delete_ms.push(ms);
            }
            (_, oldest) => {
                if let Some(oldest) = oldest {
                    own.push_front(oldest);
                }
                let (id, ms) = call(rec, &mut cal, "insert", op, || client.insert_xml(xml));
                let id = id.map_err(text)?;
                own.push_back(id);
                log.assigned.push((id, k));
                log.user_bytes += xml.len() as u64;
                log.insert_ms.push(ms);
            }
        }
        n += 1;
        if n % CHECKPOINT_EVERY == 0 {
            let (r, ms) = call(rec, &mut cal, "checkpoint", op, || client.checkpoint());
            r.map_err(text)?;
            log.checkpoint_ms.push(ms);
        }
    }
    log.wall_s = t0.elapsed().as_secs_f64();
    Ok(log)
}

/// Reader and writer side by side until `seconds` have passed.
fn both(
    served: &Served,
    seconds: f64,
    recs: Option<(Recorder, Recorder)>,
) -> Res<(ReadLog, WriteLog, Vec<Span>)> {
    let until = Instant::now() + Duration::from_secs_f64(seconds);
    let (mut read_rec, mut write_rec) = match recs {
        Some((r, w)) => (Some(r), Some(w)),
        None => (None, None),
    };
    let (reads, writes) = std::thread::scope(|s| {
        let r = s.spawn(|| reader(served.addr, until, &mut read_rec));
        let w = s.spawn(|| writer(served, until, &mut write_rec));
        (r.join(), w.join())
    });
    let reads = reads.map_err(|_| "the reader thread panicked")??;
    let writes = writes.map_err(|_| "the writer thread panicked")??;
    let mut spans = Vec::new();
    if let (Some(mut r), Some(w)) = (read_rec, write_rec) {
        r.merge(w);
        spans = r.spans().to_vec();
    }
    Ok((reads, writes, spans))
}

/// The embedded, serial answer for a store holding `visible`, in order.
fn oracle(docs: &[String], doc_of: &HashMap<u64, usize>, visible: &[(u64, u32)]) -> Res<String> {
    let db = TimberDb::create(&StoreOptions::in_memory()).map_err(text)?;
    for (id, _) in visible {
        let k = doc_of
            .get(id)
            .ok_or_else(|| format!("a read saw document {id}, which nobody wrote"))?;
        db.insert_xml(&docs[*k]).map_err(text)?;
    }
    embedded_read(&db).map(|(xml, _)| xml)
}

/// What the server does for a read, without the server.
fn embedded_read(db: &TimberDb) -> Res<(String, f64)> {
    query_xml(&db.snapshot(), QUERY_COUNT, PlanMode::GroupByRewrite)
}

/// Which of `served.docs` every document id ever assigned holds.
fn doc_index(served: &Served, writes: &WriteLog) -> HashMap<u64, usize> {
    served
        .preloaded
        .iter()
        .chain(&writes.assigned)
        .copied()
        .collect()
}

/// Check the kept pinned reads and the final state against the oracle.
fn verify(served: &Served, reads: &ReadLog, writes: &WriteLog, report: &mut Report) -> Res<()> {
    let doc_of = doc_index(served, writes);
    report.attempted += reads.ms.len() as u64;
    report.failed += reads.malformed as u64;
    let step = reads.kept.len().div_ceil(VERIFY_KEPT).max(1);
    for (i, (docs, xml)) in reads.kept.iter().enumerate().step_by(step) {
        let want = oracle(&served.docs, &doc_of, docs)?;
        report.attempt(Report::same_bytes(&format!("pinned read {i}"), xml, &want));
    }
    // Quiesced: both loops have ended, so the live state is the final one.
    let mut client = Client::connect(served.addr).map_err(text)?;
    let docs = client.docs().map_err(text)?;
    let xml = client.query(QUERY_COUNT, Mode::Grouped).map_err(text)?;
    let want = oracle(&served.docs, &doc_of, &docs)?;
    report.attempt(Report::same_bytes("final state", &xml, &want));
    let live = docs.len();
    if live.abs_diff(PRELOAD_DOCS) > 1 {
        report.attempt(Err(format!(
            "{live} live documents, not {PRELOAD_DOCS} ± 1"
        )));
    }
    Ok(())
}

/// WAL bytes appended plus page-file bytes written, so far.
fn bytes_written(db: &TimberDb) -> f64 {
    let wal = db.wal_stats().map_or(0, |w| w.appended_bytes);
    (wal + db.io_stats().disk.writes * PAGE_SIZE as u64) as f64
}

pub fn run(ctx: &Ctx, report: &mut Report) -> Res<()> {
    let served = timed_setup(ctx, report, || setup(ctx))?;
    let store = served.db.store();
    println!(
        "serve: {PRELOAD_DOCS} documents x {DOC_ARTICLES} articles, {} nodes, {} pages, pool {POOL_PAGES} pages, \
         1 reader + 1 writer connection (closed loops), writer think time {} ms, checkpoint every {CHECKPOINT_EVERY} writes, \
         fdatasync on group commit and checkpoint",
        store.node_count(),
        store.total_pages(),
        THINK.as_millis(),
    );
    if ctx.traced {
        return traced(ctx, &served, report);
    }
    let phase = Phase::start();
    let written0 = bytes_written(&served.db);
    let (reads, writes, _) = both(&served, ctx.seconds, None)?;
    let written = bytes_written(&served.db) - written0;
    phase.finish(ctx, report);
    verify(&served, &reads, &writes, report)?;

    let tail = report.set_latency("op_p50_ms", "op_tail_ms", 95.0, &reads.ms);
    println!("op_tail_ms is p{tail} of {} reads", reads.ms.len());
    let all_writes = writes.writes();
    report.set("alt_p50_ms", median(&all_writes), all_writes.len());
    let total_reads = reads.ms.len() + reads.kept.len();
    report.set("ops_per_s", reads.per_s, total_reads);
    report.set(
        "write_amp",
        written / writes.user_bytes.max(1) as f64,
        all_writes.len(),
    );

    served.db.checkpoint().map_err(text)?;
    let doc_of = doc_index(&served, &writes);
    let live_bytes: usize = served
        .db
        .documents()
        .iter()
        .filter_map(|(id, _)| doc_of.get(id))
        .map(|&k| served.docs[k].len())
        .sum();
    let on_disk =
        sys::file_len(&served.page) + sys::file_len(&xmlstore::wal_path_for(&served.page));
    report.set("space_amp", on_disk as f64 / live_bytes.max(1) as f64, 1);
    Ok(())
}

const SOLO_READS: usize = 20;

fn traced(ctx: &Ctx, served: &Served, report: &mut Report) -> Res<()> {
    let origin = Instant::now();
    let mut phase = Phase::start();
    let db = &served.db;

    // Reads with the writer idle: plain, traced, and the same read
    // without the wire, in turn, so all three see the same host.
    let mut read_rec = Some(Recorder::new(origin));
    let mut client = Client::connect(served.addr).map_err(text)?;
    let (mut plain_ms, mut traced_ms, mut response_len) = (Vec::new(), Vec::new(), 0);
    let mut embedded_ms = Vec::new();
    for i in 0..SOLO_READS as u64 {
        let t0 = Instant::now();
        let xml = client.query(QUERY_COUNT, Mode::Grouped).map_err(text)?;
        plain_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        response_len = xml.len();
        let (xml, ms) = call(&mut read_rec, &mut phase.cal, "read.solo", i, || {
            client.query(QUERY_COUNT, Mode::Grouped)
        });
        xml.map_err(text)?;
        traced_ms.push(ms);
        embedded_ms.push(embedded_read(db)?.1);
    }
    let solo_p50 = median(&plain_ms);
    report.set("timberd.read_solo_ms", solo_p50, SOLO_READS);
    report.set("trace.op_ms", median(&traced_ms), SOLO_READS);
    report.set("trace.self_sum_ms", median(&traced_ms), SOLO_READS);
    report.set(
        "trace_overhead_ratio",
        median(&traced_ms) / solo_p50,
        SOLO_READS,
    );

    report.set(
        "timberd.wire_overhead_ms",
        solo_p50 - median(&embedded_ms),
        SOLO_READS,
    );

    // Snapshot pin and framing on their own, in batches: one is too short to time.
    const BATCH: usize = 100;
    let mut pin_us = Vec::new();
    let mut frame_us = Vec::new();
    let payload = vec![b'x'; response_len + 1];
    for _ in 0..10 {
        let t0 = Instant::now();
        for _ in 0..BATCH {
            std::hint::black_box(db.snapshot());
        }
        pin_us.push(t0.elapsed().as_secs_f64() * 1e6 / BATCH as f64);
        let t0 = Instant::now();
        for _ in 0..BATCH {
            let mut wire = Vec::with_capacity(payload.len() + 4);
            timber_client::write_frame(&mut wire, &payload).map_err(text)?;
            std::hint::black_box(timber_client::read_frame(&mut wire.as_slice()).map_err(text)?);
        }
        frame_us.push(t0.elapsed().as_secs_f64() * 1e6 / BATCH as f64);
    }
    report.set("timber.pin_us", median(&pin_us), 10 * BATCH);
    report.set("timber-client.frame_us", median(&frame_us), 10 * BATCH);
    report.set("xmlparse.out_bytes", response_len as f64, 1);

    // Both loops, every client call a span.
    let wal0 = db.wal_stats().unwrap_or_default();
    let pages0 = db.io_stats().disk.writes;
    let recs = read_rec.take().zip(Some(Recorder::new(origin)));
    let (reads, writes, spans) = both(served, ctx.seconds * 0.6, recs)?;
    let wal = db.wal_stats().unwrap_or_default();
    let page_bytes = (db.io_stats().disk.writes - pages0) * PAGE_SIZE as u64;
    verify(served, &reads, &writes, report)?;

    report.set(
        "timberd.read_under_write_ratio",
        median(&reads.ms) / solo_p50,
        reads.ms.len(),
    );
    report.set(
        "timberd.insert_ms",
        median(&writes.insert_ms),
        writes.insert_ms.len(),
    );
    report.set(
        "timberd.replace_ms",
        median(&writes.replace_ms),
        writes.replace_ms.len(),
    );
    report.set(
        "timberd.delete_ms",
        median(&writes.delete_ms),
        writes.delete_ms.len(),
    );
    report.set(
        "timberd.checkpoint_ms",
        median(&writes.checkpoint_ms),
        writes.checkpoint_ms.len(),
    );
    let all = writes.writes();
    let p = tail_percentile(all.len(), 95.0);
    println!("timberd.write_tail_ms is p{p} of {} writes", all.len());
    report.set("timberd.write_tail_ms", percentile(&all, p), all.len());
    report.set(
        "timberd.writes_per_s",
        all.len() as f64 / writes.wall_s,
        all.len(),
    );
    // Writes include the think time's commits only: checkpoints are apart.
    let commits = all.len().max(1) as f64;
    report.set(
        "xmlstore.wal_bytes_per_commit",
        (wal.appended_bytes - wal0.appended_bytes) as f64 / commits,
        all.len(),
    );
    report.set(
        "xmlstore.wal_flushes_per_commit",
        (wal.flushes - wal0.flushes) as f64 / commits,
        all.len(),
    );
    report.set(
        "xmlstore.page_bytes_per_user_byte",
        page_bytes as f64 / writes.user_bytes.max(1) as f64,
        all.len(),
    );

    // The slowest read that overlapped a checkpoint.
    let checkpoints: Vec<&Span> = spans.iter().filter(|s| s.name == "checkpoint").collect();
    let stalled = spans
        .iter()
        .filter(|s| s.name == "read")
        .filter(|r| {
            checkpoints
                .iter()
                .any(|c| r.start_ns < c.end_ns && c.start_ns < r.end_ns)
        })
        .map(|r| r.duration_ns() as f64 / 1e6);
    let stalled: Vec<f64> = stalled.collect();
    report.set(
        "timberd.read_max_during_checkpoint_ms",
        stalled.iter().copied().fold(0.0, f64::max),
        stalled.len(),
    );

    let store = db.store();
    report.set("xmlstore.nodes", store.node_count() as f64, 1);
    report.set("xmlstore.pages", store.total_pages() as f64, 1);
    report.set("xmlstore.dict_syms", store.dict().len() as f64, 1);
    phase.finish(ctx, report);
    report.spans = spans;
    Ok(())
}
