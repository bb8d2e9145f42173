//! `ingest`: a seed-fixed script of commits on a fresh durable store,
//! a kill in the middle of the last commit, then ARIES recovery.
//!
//! Commit cost grows with the store, so a run is a whole number of
//! rounds, each the same script on a fresh store; timings pool or take
//! the median over rounds, counts must agree between rounds.

use super::{query_xml, text, timed_setup, Ctx, Phase, Res};
use crate::calibrate::Calibrator;
use crate::inputs::{self, Step};
use crate::stats::{median, Report};
use crate::sys;
use crate::trace::{covered_ms, self_ms_by_name, Recorder};
use std::path::PathBuf;
use std::time::Instant;
use timber::{PlanMode, TimberDb};
use timber_bench::QUERY_COUNT;
use xmlstore::{FaultConfig, RecoveryInfo, StoreOptions, PAGE_SIZE};

const COMMITS: usize = 320;
const DOC_ARTICLES: usize = 200;
/// Distinct pre-generated documents the script draws from.
const DOCS: usize = 24;
const CHECKPOINT_EVERY: usize = 50;
const POOL_PAGES: usize = 4096;
/// Commits at each end of a round that `commit_first50` / `last50` take.
const EDGE: usize = 50;

struct Inputs {
    docs: Vec<String>,
    script: Vec<Step>,
    opts: StoreOptions,
    page: PathBuf,
    /// Write-class operations into the last commit at which the kill lands.
    crash_after: u64,
}

fn setup(ctx: &Ctx) -> Res<Inputs> {
    let page = ctx.dir.join("ingest.pages");
    let inp = Inputs {
        docs: inputs::documents(ctx.seed, DOCS, DOC_ARTICLES),
        script: inputs::ingest_script(ctx.seed, COMMITS, DOCS, CHECKPOINT_EVERY),
        opts: StoreOptions::default()
            .with_path(&page)
            .with_pool_pages(POOL_PAGES)
            .with_durable(),
        page,
        crash_after: 1 + inputs::derive(ctx.seed, 0xdead) % 3,
    };
    // Warm-up: the script up to its first checkpoint, on a store that is
    // thrown away, so the first round meets a file system already used.
    sys::remove_store(&inp.page);
    let db = TimberDb::create(&inp.opts).map_err(text)?;
    let mut model = Model::new();
    for &step in inp.script.iter().take(CHECKPOINT_EVERY + 1) {
        apply(&db, step, &inp, &mut model, &mut None, 0)?;
    }
    Ok(inp)
}

/// What one round measured.
struct Round {
    commit_ms: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    /// Seconds from the first commit to the last acknowledged one before
    /// the kill was armed, checkpoints included, calibration spins not.
    script_s: f64,
    /// XML bytes of the commits in `script_s`.
    user_bytes: u64,
    wal_bytes: u64,
    wal_flushes: u64,
    page_bytes: u64,
    recover_s: f64,
    recovery: RecoveryInfo,
    /// Page file plus log after a final checkpoint.
    disk_bytes: u64,
    live_bytes: u64,
    reopen_clean_s: f64,
    sizes: (u32, u32, usize),
}

/// The acknowledged state: live documents, oldest first, as
/// `(document id, index into docs)`.
type Model = Vec<(u64, usize)>;

/// Apply one step. Traced, a commit is taken apart into parse and the
/// store call; untraced it is the one public call a user would make.
fn apply(
    db: &TimberDb,
    step: Step,
    inp: &Inputs,
    model: &mut Model,
    rec: &mut Option<Recorder>,
    op: u64,
) -> Res<()> {
    let parse = |rec: &mut Recorder, xml: &str| {
        rec.time("xmlparse.parse", op, || xmlparse::parse_document(xml))
            .map_err(text)
    };
    match step {
        Step::Insert { doc } => {
            let xml = &inp.docs[doc];
            let id = match rec {
                Some(rec) => {
                    let parsed = parse(rec, xml)?;
                    rec.time("xmlstore.insert", op, || db.insert_document(&parsed))
                }
                None => db.insert_xml(xml),
            };
            model.push((id.map_err(text)?, doc));
        }
        Step::Replace { victim, doc } => {
            let xml = &inp.docs[doc];
            let old = model[victim].0;
            let id = match rec {
                Some(rec) => {
                    let parsed = parse(rec, xml)?;
                    rec.time("xmlstore.replace", op, || {
                        db.store().replace_document(old, &parsed)
                    })
                    .map_err(text)
                }
                None => db.replace_xml(old, xml).map_err(text),
            };
            let id = id?;
            model.remove(victim);
            model.push((id, doc));
        }
        Step::Delete { victim } => {
            let old = model[victim].0;
            match rec {
                Some(rec) => rec.time("xmlstore.delete", op, || db.delete_document(old)),
                None => db.delete_document(old),
            }
            .map_err(text)?;
            model.remove(victim);
        }
        Step::Checkpoint => match rec {
            Some(rec) => rec.time("xmlstore.checkpoint", op, || db.checkpoint()),
            None => db.checkpoint(),
        }
        .map_err(text)?,
    }
    Ok(())
}

fn count_bytes(db: &TimberDb) -> Res<String> {
    query_xml(db, QUERY_COUNT, PlanMode::GroupByRewrite).map(|(xml, _)| xml)
}

/// The never-crashed store holding exactly the acknowledged commits.
fn oracle(inp: &Inputs, model: &Model) -> Res<String> {
    let db = TimberDb::create(&StoreOptions::in_memory()).map_err(text)?;
    for &(_, doc) in model {
        db.insert_xml(&inp.docs[doc]).map_err(text)?;
    }
    count_bytes(&db)
}

/// One round: script, kill, recovery, check. Times are scaled to the
/// reference host when a calibrator is given, raw otherwise. `expected`
/// caches the oracle's bytes per acknowledged state across rounds.
fn round(
    inp: &Inputs,
    rec: &mut Option<Recorder>,
    mut cal: Option<&mut Calibrator>,
    expected: &mut Option<(Model, String)>,
    report: &mut Report,
) -> Res<Round> {
    sys::remove_store(&inp.page);
    let db = TimberDb::create(&inp.opts).map_err(text)?;
    let mut model = Model::new();
    let (mut commit_ms, mut checkpoint_ms) = (Vec::new(), Vec::new());
    let last_commit = inp.script.iter().rposition(Step::is_commit).unwrap_or(0);
    let factor = |cal: &mut Option<&mut Calibrator>| {
        cal.as_mut().map_or(1.0, |c| {
            c.refresh();
            c.factor()
        })
    };
    let t0 = Instant::now();
    let stretch = cal.as_ref().map(|c| c.begin());
    let mut user_bytes = 0u64;
    for (i, &step) in inp.script[..last_commit].iter().enumerate() {
        let scale = factor(&mut cal);
        let t = Instant::now();
        let name = if step.is_commit() {
            "op"
        } else {
            "op.checkpoint"
        };
        let root = rec.as_mut().map(|r| r.enter(name, i as u64));
        apply(&db, step, inp, &mut model, rec, i as u64)?;
        if let (Some(r), Some(root)) = (rec.as_mut(), root) {
            r.exit(root);
        }
        let ms = t.elapsed().as_secs_f64() * 1e3 * scale;
        match step {
            Step::Checkpoint => checkpoint_ms.push(ms),
            Step::Insert { doc } | Step::Replace { doc, .. } => {
                user_bytes += inp.docs[doc].len() as u64;
                commit_ms.push(ms);
            }
            Step::Delete { .. } => commit_ms.push(ms),
        }
    }
    let script_s = match (&cal, &stretch) {
        (Some(c), Some(stretch)) => c.scaled_seconds(stretch),
        _ => t0.elapsed().as_secs_f64(),
    };
    report.attempted += commit_ms.len() as u64;
    let wal = db.wal_stats().unwrap_or_default();
    let page_bytes = db.io_stats().disk.writes * PAGE_SIZE as u64;

    // The kill: armed, the store dies `crash_after` writes into whatever
    // commits next. A commit it lets through is acknowledged and counts.
    db.set_faults(Some(
        FaultConfig::seeded(0).with_crash_after(inp.crash_after),
    ))
    .map_err(text)?;
    let mut killed = false;
    for extra in 0..8 {
        let step = if extra == 0 {
            inp.script[last_commit]
        } else {
            Step::Insert { doc: extra % DOCS }
        };
        if apply(&db, step, inp, &mut model, &mut None, 0).is_err() {
            killed = db.store().crashed();
            break;
        }
    }
    if !killed {
        return Err("the crash schedule never fired".to_owned());
    }
    drop(db);

    let scale = factor(&mut cal);
    let t = Instant::now();
    let db = TimberDb::open(&inp.opts).map_err(text)?;
    let recover_s = t.elapsed().as_secs_f64() * scale;
    let recovery = db
        .recovery_info()
        .ok_or("reopening a killed store ran no recovery")?;

    // Durability of every acknowledgement: same documents, same bytes.
    let got_ids: Vec<u64> = db.documents().iter().map(|d| d.0).collect();
    let want_ids: Vec<u64> = model.iter().map(|m| m.0).collect();
    report.attempt(if got_ids == want_ids {
        Ok(())
    } else {
        Err(format!(
            "recovered {} documents, {} were acknowledged",
            got_ids.len(),
            want_ids.len()
        ))
    });
    if expected.as_ref().map(|e| &e.0) != Some(&model) {
        *expected = Some((model.clone(), oracle(inp, &model)?));
    }
    let want = expected.as_ref().map_or("", |e| e.1.as_str());
    report.attempt(Report::same_bytes(
        "grouped count after recovery",
        &count_bytes(&db)?,
        want,
    ));

    db.checkpoint().map_err(text)?;
    let disk_bytes = sys::file_len(&inp.page) + sys::file_len(&xmlstore::wal_path_for(&inp.page));
    let store = db.store();
    let sizes = (store.node_count(), store.total_pages(), store.dict().len());
    drop(db);
    let t = Instant::now();
    drop(TimberDb::open(&inp.opts).map_err(text)?);
    let reopen_clean_s = t.elapsed().as_secs_f64();

    Ok(Round {
        commit_ms,
        checkpoint_ms,
        script_s,
        user_bytes,
        wal_bytes: wal.appended_bytes,
        wal_flushes: wal.flushes,
        page_bytes,
        recover_s,
        recovery,
        disk_bytes,
        live_bytes: model
            .iter()
            .map(|&(_, doc)| inp.docs[doc].len() as u64)
            .sum(),
        reopen_clean_s,
        sizes,
    })
}

impl Round {
    fn write_amp(&self) -> f64 {
        (self.wal_bytes + self.page_bytes) as f64 / self.user_bytes as f64
    }

    fn space_amp(&self) -> f64 {
        self.disk_bytes as f64 / self.live_bytes as f64
    }
}

pub fn run(ctx: &Ctx, report: &mut Report) -> Res<()> {
    let inp = timed_setup(ctx, report, || setup(ctx))?;
    println!(
        "ingest: rounds of {COMMITS} commits (80 % insert of a {DOC_ARTICLES}-article document, 10 % replace, 10 % delete) \
         on a fresh durable store, pool {POOL_PAGES} pages, checkpoint every {CHECKPOINT_EVERY} commits, \
         kill {} writes into the last commit, 1 client thread, fdatasync on group commit and checkpoint",
        inp.crash_after
    );
    let mut phase = Phase::start();
    let mut rec = ctx.traced.then(|| Recorder::new(Instant::now()));
    let mut expected = None;
    let mut plain: Vec<Round> = Vec::new();
    let mut traced: Vec<Round> = Vec::new();
    // Whole rounds only; the next one starts while it still fits.
    let mut longest = 0.0f64;
    while plain.is_empty() || phase.elapsed() + longest <= ctx.seconds {
        let t = Instant::now();
        // Per-layer times are raw, so the traced pass does not scale.
        let cal = (!ctx.traced).then_some(&mut phase.cal);
        plain.push(round(&inp, &mut None, cal, &mut expected, report)?);
        if ctx.traced {
            phase.cal.refresh();
            traced.push(round(&inp, &mut rec, None, &mut expected, report)?);
        }
        longest = longest.max(t.elapsed().as_secs_f64());
    }
    phase.finish(ctx, report);

    // Counts repeat exactly from round to round, or something is wrong.
    let first = &plain[0];
    for (i, r) in plain.iter().enumerate().skip(1) {
        let same = r.write_amp() == first.write_amp()
            && r.space_amp() == first.space_amp()
            && r.recovery == first.recovery;
        report.attempt(if same {
            Ok(())
        } else {
            Err(format!(
                "round {i} wrote or recovered differently from round 0"
            ))
        });
    }
    let rounds = plain.len();
    let over = |get: &dyn Fn(&Round) -> f64| median(&plain.iter().map(get).collect::<Vec<_>>());
    let pooled: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.commit_ms.iter().copied())
        .collect();
    let mb_per_s = over(&|r| r.user_bytes as f64 / 1e6 / r.script_s);
    println!(
        "{rounds} rounds, {} commits pooled, {:.3} MB of XML per round, {mb_per_s:.3} MB/s",
        pooled.len(),
        first.user_bytes as f64 / 1e6
    );

    if !ctx.traced {
        let tail = report.set_latency("op_p50_ms", "op_tail_ms", 90.0, &pooled);
        println!("op_tail_ms is p{tail} of {} commits", pooled.len());
        report.set("alt_p50_ms", over(&|r| r.recover_s * 1e3), rounds);
        report.set(
            "ops_per_s",
            over(&|r| r.commit_ms.len() as f64 / r.script_s),
            rounds,
        );
        report.set("write_amp", first.write_amp(), rounds);
        report.set("space_amp", first.space_amp(), rounds);
        return Ok(());
    }

    let rec = rec.ok_or("the traced pass has a recorder")?;
    let own = self_ms_by_name(rec.spans());
    let own_p50 = |name: &str| own.get(name).map_or((0.0, 0), |v| (median(v), v.len()));
    let (parse_ms, n_parse) = own_p50("xmlparse.parse");
    let (insert_ms, n_insert) = own_p50("xmlstore.insert");
    report.set("xmlparse.parse_ms", parse_ms, n_parse);
    report.set("xmlstore.insert_ms", insert_ms, n_insert);
    let commits = first.commit_ms.len() as f64;
    report.set(
        "xmlstore.wal_bytes_per_commit",
        first.wal_bytes as f64 / commits,
        rounds,
    );
    report.set(
        "xmlstore.wal_flushes_per_commit",
        first.wal_flushes as f64 / commits,
        rounds,
    );
    report.set(
        "xmlstore.page_bytes_per_user_byte",
        first.page_bytes as f64 / first.user_bytes as f64,
        rounds,
    );
    let head = over(&|r| median(&r.commit_ms[..EDGE]));
    let tail = over(&|r| median(&r.commit_ms[r.commit_ms.len() - EDGE..]));
    report.set("xmlstore.commit_first50_ms", head, rounds * EDGE);
    report.set("xmlstore.commit_last50_ms", tail, rounds * EDGE);
    report.set("xmlstore.commit_growth", tail / head, rounds);
    let checkpoints: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.checkpoint_ms.iter().copied())
        .collect();
    report.set(
        "xmlstore.checkpoint_ms",
        median(&checkpoints),
        checkpoints.len(),
    );
    report.set(
        "xmlstore.recover_redone",
        first.recovery.redone as f64,
        rounds,
    );
    report.set(
        "xmlstore.recover_undone",
        first.recovery.undone as f64,
        rounds,
    );
    report.set(
        "xmlstore.recover_committed",
        first.recovery.committed as f64,
        rounds,
    );
    report.set(
        "xmlstore.recover_losers",
        first.recovery.losers as f64,
        rounds,
    );
    report.set("xmlstore.recover_s", over(&|r| r.recover_s), rounds);
    report.set(
        "xmlstore.reopen_clean_s",
        over(&|r| r.reopen_clean_s),
        rounds,
    );
    report.set("xmlstore.ingest_mb_per_s", mb_per_s, rounds);
    report.set("xmlstore.nodes", first.sizes.0 as f64, 1);
    report.set("xmlstore.pages", first.sizes.1 as f64, 1);
    report.set("xmlstore.dict_syms", first.sizes.2 as f64, 1);

    let traced_pooled: Vec<f64> = traced
        .iter()
        .flat_map(|r| r.commit_ms.iter().copied())
        .collect();
    report.set("trace.op_ms", median(&traced_pooled), traced_pooled.len());
    let covered = covered_ms(rec.spans(), "op");
    report.set("trace.self_sum_ms", median(&covered), covered.len());
    report.set(
        "trace_overhead_ratio",
        median(&traced_pooled) / median(&pooled),
        traced_pooled.len(),
    );
    report.spans = rec.spans().to_vec();
    Ok(())
}
