//! Shared harness for the experiment reproductions.
//!
//! The paper's two measurements (Sec. 6) compare a *direct* evaluation of
//! the group-by-author query against the *GROUPBY* plan over the DBLP
//! Journals set (4.6 M nodes, ~100 MB, 8 KB pages, 32 MB buffer pool):
//!
//! | run | direct | GROUPBY | ratio |
//! |---|---|---|---|
//! | E1 titles | 323.966 s | 178.607 s | ≈1.81× |
//! | E2 count  | 155.564 s | 23.033 s  | ≈6.75× |
//!
//! Absolute times are not reproducible (their testbed was a 550 MHz
//! Pentium III running Shore), so the harness reports the *shape*: who
//! wins, by what factor, and how the factor moves with scale and buffer
//! pool size. Every run reports wall-clock time plus page/disk traffic.

#![forbid(unsafe_code)]

pub mod replicated;

use datagen::{DblpConfig, DblpGenerator};
use std::time::Duration;
use timber::{PlanMode, TimberDb};
use xmlstore::{IoStats, StoreOptions};

/// Query 1 (titles output) — the paper's running example.
pub const QUERY_TITLES: &str = r#"
    FOR $a IN distinct-values(document("bib.xml")//author)
    RETURN <authorpubs>
      {$a}
      { FOR $b IN document("bib.xml")//article
        WHERE $a = $b/author
        RETURN $b/title }
    </authorpubs>
"#;

/// Query 2 — the unnested LET formulation (Sec. 4.2).
pub const QUERY_TITLES_LET: &str = r#"
    FOR $a IN distinct-values(document("bib.xml")//author)
    LET $t := document("bib.xml")//article[author = $a]/title
    RETURN <authorpubs> {$a} {$t} </authorpubs>
"#;

/// The count variant (second experiment of Sec. 6).
pub const QUERY_COUNT: &str = r#"
    FOR $a IN distinct-values(document("bib.xml")//author)
    LET $t := document("bib.xml")//article[author = $a]/title
    RETURN <authorpubs> {$a} {count($t)} </authorpubs>
"#;

/// The XOLAP lattice query the shell's `.cube` runs: all prefix levels
/// of journal → year → author, computed by one lattice `Plan::Rollup` scan.
pub const QUERY_CUBE: &str = r#"
    FOR $b IN document("bib.xml")//article
    CUBE BY $b/journal, $b/year, $b/author
    RETURN <pubs> {count($b/title)} </pubs>
"#;

/// Paper-reported seconds for E1/E2 (direct, groupby).
pub const PAPER_E1: (f64, f64) = (323.966, 178.607);
/// Paper-reported seconds for E2.
pub const PAPER_E2: (f64, f64) = (155.564, 23.033);

/// Build a synthetic-DBLP database.
///
/// `pool_pages` defaults to the paper's 32 MB of 8 KB pages when `None`;
/// the store goes to a real temp file when `on_disk`.
pub fn build_db(articles: usize, pool_pages: Option<usize>, on_disk: bool) -> TimberDb {
    let xml = DblpGenerator::new(DblpConfig::sized(articles)).generate_xml();
    let mut opts = StoreOptions {
        on_disk,
        ..StoreOptions::default()
    };
    if let Some(pages) = pool_pages {
        opts = opts.with_pool_pages(pages);
    }
    if !on_disk {
        opts.pool_pages = opts.pool_pages.max(64);
    }
    TimberDb::load_xml(&xml, &opts).expect("load synthetic DBLP")
}

/// One measured run.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Wall-clock time including output materialization.
    pub elapsed: Duration,
    /// Page and disk traffic of the run.
    pub io: IoStats,
    /// Number of output trees (groups / authors).
    pub output_trees: usize,
    /// Serialized output size in bytes.
    pub output_bytes: usize,
    /// Whether the GROUPBY rewrite produced the plan.
    pub rewritten: bool,
}

/// Evaluate `query` under `mode`, cold buffer pool, materializing the
/// full output (as the paper's runs do).
///
/// Panics on evaluation errors — use [`try_measure`] when a fault
/// schedule is armed and typed errors are expected outcomes.
pub fn measure(db: &TimberDb, query: &str, mode: PlanMode) -> RunStats {
    try_measure(db, query, mode).expect("fault-free measurement")
}

/// Fallible [`measure`]: identical run protocol, but injected storage
/// faults surface as the typed [`timber::TimberError`] instead of a
/// panic, so fault-schedule replays can report per-run outcomes.
pub fn try_measure(db: &TimberDb, query: &str, mode: PlanMode) -> timber::Result<RunStats> {
    db.clear_buffer_pool()?;
    db.reset_io_stats();
    let start = std::time::Instant::now();
    let result = db.query(query, mode)?;
    let xml = result.to_xml_on(db.store())?;
    let elapsed = start.elapsed();
    Ok(RunStats {
        elapsed,
        io: db.io_stats(),
        output_trees: result.len(),
        output_bytes: xml.len(),
        rewritten: result.rewritten,
    })
}

/// Direct-over-groupby slowdown factor.
pub fn speedup(direct: &RunStats, grouped: &RunStats) -> f64 {
    direct.elapsed.as_secs_f64() / grouped.elapsed.as_secs_f64().max(1e-9)
}

/// Render one comparison row.
pub fn format_row(label: &str, direct: &RunStats, grouped: &RunStats) -> String {
    format!(
        "{label:<22} direct {:>9.3}s ({:>9} pages, {:>8} disk) | groupby {:>9.3}s ({:>9} pages, {:>8} disk) | speedup {:>5.2}x",
        direct.elapsed.as_secs_f64(),
        direct.io.page_requests(),
        direct.io.disk.reads,
        grouped.elapsed.as_secs_f64(),
        grouped.io.page_requests(),
        grouped.io.disk.reads,
        speedup(direct, grouped),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_smoke() {
        let db = build_db(200, Some(128), false);
        let d = measure(&db, QUERY_TITLES, PlanMode::Direct);
        let g = measure(&db, QUERY_TITLES, PlanMode::GroupByRewrite);
        assert!(!d.rewritten);
        assert!(g.rewritten);
        assert_eq!(d.output_trees, g.output_trees);
        assert!(d.output_trees > 10);
        assert!(speedup(&d, &g) > 0.0);
        let row = format_row("smoke", &d, &g);
        assert!(row.contains("speedup"));
    }

    #[test]
    fn outputs_identical_across_plans() {
        let db = build_db(150, None, false);
        for q in [QUERY_TITLES, QUERY_TITLES_LET, QUERY_COUNT] {
            let d = db.query(q, PlanMode::Direct).unwrap();
            let g = db.query(q, PlanMode::GroupByRewrite).unwrap();
            assert_eq!(
                d.to_xml_on(db.store()).unwrap(),
                g.to_xml_on(db.store()).unwrap()
            );
        }
    }

    #[test]
    fn try_measure_surfaces_injected_faults() {
        // A certain-failure schedule: every physical read errors, retries
        // included, so the run must end in a typed error, not a panic.
        let db = build_db(200, Some(4), true);
        let schedule: xmlstore::FaultConfig = "seed=1,read_err=1.0".parse().unwrap();
        db.set_faults(Some(schedule)).unwrap();
        assert!(try_measure(&db, QUERY_COUNT, PlanMode::GroupByRewrite).is_err());
        db.set_faults(None).unwrap();
        assert!(try_measure(&db, QUERY_COUNT, PlanMode::GroupByRewrite).is_ok());
    }

    #[test]
    fn both_plans_read_only_their_output_pages() {
        // Neither plan reads a value before output, and both write the
        // same nodes: a cold run of each asks for the same name pages.
        let db = build_db(400, Some(256), false);
        let d = measure(&db, QUERY_COUNT, PlanMode::Direct);
        let g = measure(&db, QUERY_COUNT, PlanMode::GroupByRewrite);
        assert!(g.io.page_requests() > 0);
        assert_eq!(d.io.page_requests(), g.io.page_requests());
    }
}
