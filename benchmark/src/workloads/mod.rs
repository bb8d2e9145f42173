//! The four workloads. Each sets up from the seed, measures for about
//! `seconds`, checks every output, and fills a [`Report`].

mod ingest;
mod query;
mod serve;

use crate::calibrate::Calibrator;
use crate::stats::{median, Report};
use crate::sys;
use std::path::Path;
use std::time::Instant;
use timber::{PlanMode, TimberDb};

/// What one run is given.
pub struct Ctx<'a> {
    pub seed: u64,
    /// How long the measured phase lasts.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end.
    pub traced: bool,
    /// Scratch directory for page files and logs.
    pub dir: &'a Path,
}

pub type Res<T> = Result<T, String>;

/// Any error of the crates under test, as text.
pub fn text<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// Run the named workload.
pub fn run(name: &str, ctx: &Ctx) -> Res<Report> {
    let mut report = Report::default();
    match name {
        "titles" => query::run(&query::TITLES, ctx, &mut report)?,
        "count" => query::run(&query::COUNT, ctx, &mut report)?,
        "serve" => serve::run(ctx, &mut report)?,
        "ingest" => ingest::run(ctx, &mut report)?,
        other => return Err(format!("unknown workload '{other}'")),
    }
    Ok(report)
}

/// Query text in, result bytes out, and the raw milliseconds between.
fn query_xml(db: &TimberDb, query: &str, mode: PlanMode) -> Res<(String, f64)> {
    let t0 = Instant::now();
    let result = db.query(query, mode).map_err(text)?;
    let xml = result.to_xml_on(db.store()).map_err(text)?;
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    Ok((xml, ms))
}

/// Set-ups per untraced run; `setup_s` is their median. The last one's
/// product is what the run measures.
const SETUPS: usize = 3;

/// Run `setup` [`SETUPS`] times (once when traced), record `setup_s`,
/// and hand back the last product.
fn timed_setup<T>(ctx: &Ctx, report: &mut Report, mut setup: impl FnMut() -> Res<T>) -> Res<T> {
    let rounds = if ctx.traced { 1 } else { SETUPS };
    let mut secs = Vec::with_capacity(rounds);
    let mut product = None;
    let mut cal = Calibrator::new();
    for _ in 0..rounds {
        // The previous product goes first: two stores never share a path.
        drop(product.take());
        cal.refresh();
        let stretch = cal.begin();
        product = Some(setup()?);
        cal.refresh();
        secs.push(cal.scaled_seconds(&stretch));
    }
    if !ctx.traced {
        report.set("setup_s", median(&secs), secs.len());
    }
    product.ok_or_else(|| "no set-up ran".to_owned())
}

/// CPU and wall clock of the measured phase, the memory peak in it, and
/// the host's speed through it.
struct Phase {
    started: Instant,
    cpu0: f64,
    cal: Calibrator,
}

impl Phase {
    fn start() -> Phase {
        sys::reset_peak_rss();
        Phase {
            started: Instant::now(),
            cpu0: sys::cpu_seconds(),
            cal: Calibrator::new(),
        }
    }

    fn elapsed(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Record `peak_rss_mb` (untraced) or the `process.*` pair (traced).
    fn finish(&self, ctx: &Ctx, report: &mut Report) {
        if ctx.traced {
            let cpu = sys::cpu_seconds() - self.cpu0;
            report.set("process.cpu_s", cpu, 1);
            report.set("process.cpu_util", cpu / self.elapsed().max(1e-9), 1);
            report.set("host.nproc", sys::nproc() as f64, 1);
            report.set("host.spin_ms", self.cal.typical_spin_ms(), 1);
        } else {
            report.set("peak_rss_mb", sys::peak_rss_mb(), 1);
            println!(
                "calibration spin {:.4} ms (median): times are scaled to a host where it takes {} ms",
                self.cal.typical_spin_ms(),
                crate::calibrate::REFERENCE_MS
            );
        }
    }
}

/// Latencies of a closed loop, scaled to the reference host.
struct Timed {
    ms: Vec<f64>,
    /// Ops per second of the whole loop, checks and drops between ops
    /// included, calibration spins excluded; scaled.
    per_s: f64,
}

/// Run `op` until it has run `min_ops` times and `budget_s` has passed.
/// `op` returns its raw milliseconds.
fn closed_loop(
    cal: &mut Calibrator,
    min_ops: usize,
    budget_s: f64,
    mut op: impl FnMut() -> Res<f64>,
) -> Res<Timed> {
    let t0 = Instant::now();
    let stretch = cal.begin();
    let mut ms = Vec::new();
    while ms.len() < min_ops || t0.elapsed().as_secs_f64() < budget_s {
        cal.refresh();
        ms.push(op()? * cal.factor());
    }
    Ok(Timed {
        per_s: ms.len() as f64 / cal.scaled_seconds(&stretch),
        ms,
    })
}
