//! TIMBER-style engine facade: load documents, run XQuery through either
//! evaluation plan, observe I/O.
//!
//! This crate ties the reproduction together the way Fig. 12 of
//! *Grouping in XML* draws the system: the query parser (`xquery`)
//! produces a TAX algebra expression; the optimizer applies the grouping
//! rewrite when the query is a grouping; the executor ([`physical`]) runs the plan as a
//! pipeline of TAX operator kernels (`tax`) over the paged store
//! (`xmlstore`).
//!
//! There are two [`PlanMode`]s — the paper's comparison, direct vs
//! GROUPBY — and one executor. Any other plan (one built by hand, such as
//! the paper's literal `Project ∘ Aggregate ∘ GroupBy` count plan) is
//! handed to [`TimberDb::run_plan`]. What either mode must return is
//! defined outside this crate, by the reference model the integration
//! tests compare against (`tests/src/model.rs`).
//!
//! # Example
//!
//! ```
//! use timber::{PlanMode, TimberDb};
//! use xmlstore::StoreOptions;
//!
//! let xml = "<bib>\
//!   <article><title>Q</title><author>Jack</author><author>Jill</author></article>\
//!   <article><title>R</title><author>Jack</author></article></bib>";
//! let db = TimberDb::load_xml(xml, &StoreOptions::in_memory()).unwrap();
//! let q = r#"
//!     FOR $a IN distinct-values(document("bib.xml")//author)
//!     RETURN <authorpubs>
//!       {$a}
//!       { FOR $b IN document("bib.xml")//article
//!         WHERE $a = $b/author
//!         RETURN $b/title }
//!     </authorpubs>"#;
//! let direct = db.query(q, PlanMode::Direct).unwrap();
//! let grouped = db.query(q, PlanMode::GroupByRewrite).unwrap();
//! assert_eq!(
//!     direct.to_xml_on(db.store()).unwrap(),
//!     grouped.to_xml_on(db.store()).unwrap(),
//! );
//! assert!(grouped.rewritten);
//! ```

#![forbid(unsafe_code)]

pub mod error;
pub mod metrics;
pub mod physical;
pub mod result;
#[cfg(test)]
mod stitch;

pub use error::{Result, TimberError};
pub use metrics::{OutKind, PlanMetrics};
pub use result::QueryResult;

use std::fmt::Write as _;
use xmlstore::{
    DocId, DocumentStore, FaultConfig, FaultStats, IoStats, RecoveryInfo, StoreOptions, WalStats,
};
use xquery::opt::OptTrace;
use xquery::Plan;

/// Which of the paper's two evaluation plans to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanMode {
    /// The naive join-based plan — the paper's "direct execution of the
    /// XQuery as written". No rewrite rules run.
    Direct,
    /// The GROUPBY plan: the naive plan with the paper's grouping rewrite
    /// applied (the naive plan itself when the query is no grouping). A
    /// grouped aggregate runs as the streaming `Rollup`.
    GroupByRewrite,
}

/// A loaded database plus the query pipeline.
pub struct TimberDb {
    store: DocumentStore,
}

impl TimberDb {
    /// Parse and load an XML document.
    pub fn load_xml(xml: &str, opts: &StoreOptions) -> Result<Self> {
        Ok(TimberDb {
            store: DocumentStore::from_xml(xml, opts)?,
        })
    }

    /// Load an already parsed document.
    pub fn load_document(doc: &xmlparse::Document, opts: &StoreOptions) -> Result<Self> {
        Ok(TimberDb {
            store: DocumentStore::load(doc, opts)?,
        })
    }

    /// Create an empty database. With [`StoreOptions::with_durable`] and
    /// a path, every mutation is logged to a write-ahead log next to the
    /// page file and survives crashes.
    pub fn create(opts: &StoreOptions) -> Result<Self> {
        Ok(TimberDb {
            store: DocumentStore::create(opts)?,
        })
    }

    /// Reopen a durable database from its page file, running crash
    /// recovery over the log first: the committed metadata deltas are
    /// folded over the checkpoint. Only documents whose commit record
    /// reached the log survive; the pages of a commit that did not land
    /// are free in the recovered store. [`TimberDb::recovery_info`]
    /// reports what recovery did.
    pub fn open(opts: &StoreOptions) -> Result<Self> {
        Ok(TimberDb {
            store: DocumentStore::open(opts)?,
        })
    }

    /// Parse and insert a document under the shared `doc_root`, as one
    /// logged transaction. Returns the new document's id.
    ///
    /// Mutations take `&self`: writers serialize on the store's internal
    /// commit lock while concurrent readers keep querying the previous
    /// committed snapshot.
    pub fn insert_xml(&self, xml: &str) -> Result<DocId> {
        Ok(self.store.insert_xml(xml)?)
    }

    /// Insert an already parsed document.
    pub fn insert_document(&self, doc: &xmlparse::Document) -> Result<DocId> {
        Ok(self.store.insert_document(doc)?)
    }

    /// Delete a document and reclaim its pages.
    pub fn delete_document(&self, doc: DocId) -> Result<()> {
        Ok(self.store.delete_document(doc)?)
    }

    /// Replace a document's content atomically, as one logged
    /// transaction: recovery either keeps the old document or installs
    /// the replacement, never neither. Returns the replacement's id.
    pub fn replace_xml(&self, doc: DocId, xml: &str) -> Result<DocId> {
        let parsed = xmlparse::parse_document(xml).map_err(xmlstore::StoreError::from)?;
        Ok(self.store.replace_document(doc, &parsed)?)
    }

    /// Sync the page file and truncate the log to a fresh checkpoint
    /// record.
    pub fn checkpoint(&self) -> Result<()> {
        Ok(self.store.checkpoint()?)
    }

    /// A read-only handle pinned to the current committed snapshot:
    /// queries on it keep answering from that state no matter how many
    /// transactions commit afterwards, and never block behind writers.
    /// Dropping the handle releases the snapshot (and eventually the
    /// pages it was holding in limbo).
    pub fn snapshot(&self) -> TimberDb {
        TimberDb {
            store: self.store.snapshot(),
        }
    }

    /// The commit epoch this handle reads at.
    pub fn epoch(&self) -> u64 {
        self.store.epoch()
    }

    /// The stored documents as `(doc_id, node_count)`, in insertion
    /// order.
    pub fn documents(&self) -> Vec<(DocId, u32)> {
        self.store.documents()
    }

    /// Write-ahead-log counters, when the store is durable.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.store.wal_stats()
    }

    /// What crash recovery did when this database was opened; `None`
    /// for freshly created or bulk-loaded databases.
    pub fn recovery_info(&self) -> Option<RecoveryInfo> {
        self.store.recovery_info()
    }

    /// The underlying store (statistics, direct access).
    pub fn store(&self) -> &DocumentStore {
        &self.store
    }

    /// Does nothing: a query runs on the calling thread, and
    /// concurrency is between queries.
    #[deprecated(note = "queries run on the calling thread")]
    pub fn set_threads(&mut self, _: usize) {}

    /// Compile a query to a logical plan under the given mode. Returns
    /// the plan and whether the grouping rewrite fired.
    pub fn compile(&self, query: &str, mode: PlanMode) -> Result<(Plan, bool)> {
        let (plan, rewritten, _) = self.compile_traced(query, mode)?;
        Ok((plan, rewritten))
    }

    /// [`TimberDb::compile`] plus the optimizer's trace. `Direct` mode
    /// runs no rewrite (empty trace); `GroupByRewrite` runs
    /// [`xquery::opt::optimize`]. The `rewritten` flag reports whether
    /// the GROUPBY rewrite fired.
    pub fn compile_traced(&self, query: &str, mode: PlanMode) -> Result<(Plan, bool, OptTrace)> {
        let ast = xquery::parse_query(query)?;
        let naive = xquery::translate(&ast)?;
        Ok(match mode {
            PlanMode::Direct => (naive, false, OptTrace::default()),
            PlanMode::GroupByRewrite => {
                let (plan, trace) = xquery::opt::optimize(naive);
                let rewritten = trace.fired("groupby-rewrite");
                (plan, rewritten, trace)
            }
        })
    }

    /// Parse, plan, and evaluate a query.
    pub fn query(&self, query: &str, mode: PlanMode) -> Result<QueryResult> {
        let (plan, rewritten) = self.compile(query, mode)?;
        self.run_plan(&plan, rewritten)
    }

    /// Evaluate an already compiled plan. The whole execution runs
    /// against one pinned snapshot, so a plan never observes a commit
    /// that lands mid-query. A plan whose root emits anything but
    /// one-level rows is refused.
    pub fn run_plan(&self, plan: &Plan, rewritten: bool) -> Result<QueryResult> {
        let store = self.store.snapshot();
        let start = std::time::Instant::now();
        let (out, metrics) = physical::evaluate(&store, plan)?;
        let physical::Batch::Rows(output) = out else {
            let refused = "a plan's root emits one-level rows".into();
            return Err(tax::Error::Unsupported(refused).into());
        };
        Ok(QueryResult {
            output,
            rewritten,
            elapsed: start.elapsed(),
            metrics: Some(metrics),
        })
    }

    /// Render both plans for a query plus the optimizer's rule-firing
    /// trace — `EXPLAIN`.
    pub fn explain(&self, query: &str) -> Result<String> {
        let ast = xquery::parse_query(query)?;
        let naive = xquery::translate(&ast)?;
        let (opt, trace) = xquery::opt::optimize(naive.clone());
        let mut out = String::from("== direct plan ==\n");
        out.push_str(&naive.explain());
        out.push_str("\n== optimized plan ==\n");
        if trace.firings.is_empty() {
            out.push_str("(no rewrite rules fired; same as direct)\n");
        } else {
            out.push_str(&opt.explain());
        }
        out.push_str("\n== rewrite trace ==\n");
        out.push_str(&trace.render());
        Ok(out)
    }

    /// Compile and execute a query, returning the plan, the rule trace,
    /// the per-operator metrics tree, and the result — `EXPLAIN ANALYZE`.
    pub fn explain_analyze(&self, query: &str, mode: PlanMode) -> Result<ExplainAnalysis> {
        let (plan, rewritten, trace) = self.compile_traced(query, mode)?;
        let result = self.run_plan(&plan, rewritten)?;
        let metrics = result.metrics.clone().unwrap_or_default();
        Ok(ExplainAnalysis {
            mode,
            rewritten,
            plan,
            trace,
            metrics,
            result,
        })
    }

    /// Current I/O counters of the store. They are store-wide: every
    /// handle on the store adds to them. A plan reads no page, so they
    /// count output population, loads and writes.
    pub fn io_stats(&self) -> IoStats {
        self.store.io_stats()
    }

    /// Zero the I/O counters.
    pub fn reset_io_stats(&self) {
        self.store.reset_io_stats()
    }

    /// Drop all cached pages (cold-start measurements).
    pub fn clear_buffer_pool(&self) -> Result<()> {
        Ok(self.store.clear_buffer_pool()?)
    }

    /// Arm (or with `None` disarm) a deterministic fault schedule on the
    /// store's disk. With a schedule armed, queries either return correct
    /// results, absorb transient faults via retry, or fail with a typed
    /// [`TimberError`] — never a panic, never silent corruption.
    pub fn set_faults(&self, config: Option<FaultConfig>) -> Result<()> {
        Ok(self.store.inject_faults(config)?)
    }

    /// Counters from the armed fault schedule, if any.
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.store.fault_stats()
    }
}

/// The payload of `EXPLAIN ANALYZE`: the executed plan, how it was
/// optimized, what every operator did, and the result itself.
pub struct ExplainAnalysis {
    /// The plan mode the query was compiled under.
    pub mode: PlanMode,
    /// Whether the GROUPBY rewrite produced the executed plan.
    pub rewritten: bool,
    /// The executed logical plan.
    pub plan: Plan,
    /// The optimizer's rule-firing trace.
    pub trace: OptTrace,
    /// Per-operator execution metrics, mirroring the plan shape.
    pub metrics: PlanMetrics,
    /// The query result (also carries the metrics).
    pub result: QueryResult,
}

impl ExplainAnalysis {
    /// Human-readable report: plan, rule trace, per-operator metrics,
    /// and result totals.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let fired = if self.rewritten {
            ", groupby rewrite fired"
        } else {
            ""
        };
        let _ = writeln!(out, "== plan ({:?} mode{fired}) ==", self.mode);
        out.push_str(&self.plan.explain());
        out.push_str("\n== rewrite trace ==\n");
        out.push_str(&self.trace.render());
        out.push_str("\n== execution (physical) ==\n");
        out.push_str(&self.metrics.render());
        let _ = writeln!(
            out,
            "\n{} vectorized rows, {} scalar-fallback rows",
            self.metrics.total_vec_rows(),
            self.metrics.total_vec_fallback(),
        );
        let _ = writeln!(
            out,
            "\n{} rows in {:.3?}",
            self.result.len(),
            self.result.elapsed,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "<bib>\
        <article><title>Querying XML</title><author>Jack</author><author>John</author></article>\
        <article><title>XML and the Web</title><author>Jill</author><author>Jack</author></article>\
        <article><title>Hack HTML</title><author>John</author></article>\
    </bib>";

    const QUERY1: &str = r#"
        FOR $a IN distinct-values(document("bib.xml")//author)
        RETURN <authorpubs>
          {$a}
          { FOR $b IN document("bib.xml")//article
            WHERE $a = $b/author
            RETURN $b/title }
        </authorpubs>
    "#;

    fn db() -> TimberDb {
        TimberDb::load_xml(SAMPLE, &StoreOptions::in_memory()).unwrap()
    }

    #[test]
    fn query1_direct_output() {
        let db = db();
        let r = db.query(QUERY1, PlanMode::Direct).unwrap();
        assert!(!r.rewritten);
        let xml = r.to_xml_on(db.store()).unwrap();
        // Jack authored two articles.
        assert!(
            xml.contains("<authorpubs><author>Jack</author><title>Querying XML</title><title>XML and the Web</title></authorpubs>"),
            "{xml}"
        );
        assert_eq!(r.len(), 3); // Jack, John, Jill
    }

    #[test]
    fn query1_rewritten_output_identical() {
        let db = db();
        let direct = db.query(QUERY1, PlanMode::Direct).unwrap();
        let grouped = db.query(QUERY1, PlanMode::GroupByRewrite).unwrap();
        assert!(grouped.rewritten);
        assert_eq!(
            direct.to_xml_on(db.store()).unwrap(),
            grouped.to_xml_on(db.store()).unwrap()
        );
    }

    #[test]
    fn count_plans_agree_and_read_no_page() {
        // Keys, joins and counts are symbols in both plans: on a quiet
        // store, neither moves the page counters before the output is
        // written.
        let db = db();
        let before = db.io_stats();
        let direct = db.query(QUERY_COUNT, PlanMode::Direct).unwrap();
        let grouped = db.query(QUERY_COUNT, PlanMode::GroupByRewrite).unwrap();
        assert_eq!(db.io_stats(), before);
        assert_eq!(
            direct.to_xml_on(db.store()).unwrap(),
            grouped.to_xml_on(db.store()).unwrap()
        );
    }

    const QUERY_COUNT: &str = r#"
        FOR $a IN distinct-values(document("bib.xml")//author)
        LET $t := document("bib.xml")//article[author = $a]/title
        RETURN <authorpubs> {$a} {count($t)} </authorpubs>
    "#;

    const QUERY_CUBE: &str = r#"
        FOR $b IN document("bib.xml")//article
        CUBE BY $b/journal, $b/year, $b/author
        RETURN <pubs> {count($b/title)} </pubs>
    "#;

    fn cube_db() -> TimberDb {
        let xml = "<bib>\
            <article><title>Querying XML</title><journal>TODS</journal><year>1999</year>\
                <author>Jack</author><author>John</author></article>\
            <article><title>XML and the Web</title><journal>TODS</journal><year>2001</year>\
                <author>Jill</author><author>Jack</author></article>\
            <article><title>Hack HTML</title><journal>WebDB</journal><year>2001</year>\
                <author>John</author></article>\
        </bib>";
        TimberDb::load_xml(xml, &StoreOptions::in_memory()).unwrap()
    }

    #[test]
    fn explain_renders_both_plans() {
        let db = db();
        let text = db.explain(QUERY1).unwrap();
        assert!(text.contains("direct plan"));
        assert!(text.contains("LeftOuterJoinDb"));
        assert!(text.contains("GroupBy"));
        assert!(text.contains("rewrite trace"));
        assert!(text.contains("groupby-rewrite"));
    }

    #[test]
    fn every_run_records_metrics_and_matches_the_one_batch_serial_run() {
        // `physical::execute` runs every operator once, whatever batch
        // size it is passed: its rows write a handle's bytes.
        let db = db();
        for query in [QUERY1, QUERY_COUNT] {
            for mode in [PlanMode::Direct, PlanMode::GroupByRewrite] {
                let (plan, rewritten) = db.compile(query, mode).unwrap();
                let run = db.run_plan(&plan, rewritten).unwrap();
                assert!(run.metrics.is_some());
                let (out, _) = physical::execute(db.store(), &plan, &tax::ExecOptions, 1).unwrap();
                let physical::Batch::Rows(rows) = out else {
                    panic!("{mode:?}: {out:?}")
                };
                let mut want = String::new();
                tax::output::write_xml_lines(db.store(), &rows, &mut want).unwrap();
                assert_eq!(
                    run.to_xml_on(db.store()).unwrap(),
                    want,
                    "{mode:?}: {query}"
                );
            }
        }
    }

    #[test]
    fn explain_analyze_reports_per_operator_metrics() {
        let db = db();
        let a = db
            .explain_analyze(QUERY1, PlanMode::GroupByRewrite)
            .unwrap();
        assert!(a.rewritten);
        assert_eq!(a.metrics.trees_out, a.result.len());
        assert!(a.metrics.node_count() >= 4);
        let text = a.render();
        assert!(text.contains("== rewrite trace =="));
        assert!(text.contains("groupby-rewrite"));
        assert!(text.contains("== execution (physical) =="));
        // Every operator line carries the counters.
        for line in text.lines().filter(|l| l.contains(" | in=")) {
            assert!(line.contains("out="), "{line}");
            assert!(line.contains("time="), "{line}");
            assert!(line.contains("vec="), "{line}");
        }
        // The grouping sink reports its stage times, and so does the cube.
        assert!(
            text.lines()
                .any(|l| l.contains("GroupBy") && l.contains(" stages=")),
            "{text}"
        );
        let db = cube_db();
        let text = db
            .explain_analyze(QUERY_CUBE, PlanMode::GroupByRewrite)
            .unwrap()
            .render();
        assert!(
            text.lines()
                .any(|l| l.contains("Cube") && l.contains(" stages=")),
            "{text}"
        );
    }

    #[test]
    fn a_concurrent_reset_leaves_query_bytes_alone() {
        // One handle zeroes the store-wide counters while another
        // queries and writes its output: every run still writes the
        // solo bytes.
        use std::time::{Duration, Instant};
        let db = db();
        let want = db.query(QUERY1, PlanMode::Direct).unwrap();
        let want = want.to_xml_on(db.store()).unwrap();
        let until = Instant::now() + Duration::from_millis(500);
        std::thread::scope(|scope| {
            let resetter = db.snapshot();
            scope.spawn(move || {
                while Instant::now() < until {
                    resetter.reset_io_stats();
                }
            });
            while Instant::now() < until {
                for mode in [PlanMode::Direct, PlanMode::GroupByRewrite] {
                    let r = db.query(QUERY1, mode).unwrap();
                    assert_eq!(r.to_xml_on(db.store()).unwrap(), want, "{mode:?}");
                }
            }
        });
    }

    #[test]
    fn durable_db_mutates_queries_and_recovers() {
        let page =
            std::env::temp_dir().join(format!("timber_durable_test_{}.pages", std::process::id()));
        let wal = xmlstore::wal_path_for(&page);
        let _ = std::fs::remove_file(&page);
        let _ = std::fs::remove_file(&wal);
        let opts = StoreOptions::in_memory().with_path(&page).with_durable();
        let expected = {
            let db = TimberDb::create(&opts).unwrap();
            let d1 = db.insert_xml(SAMPLE).unwrap();
            let extra = db
                .insert_xml(
                    "<bib><article><title>Gone</title><author>Nobody</author></article></bib>",
                )
                .unwrap();
            db.delete_document(extra).unwrap();
            let d2 = db
                .replace_xml(d1, SAMPLE.replace("Hack HTML", "Fix HTML").as_str())
                .unwrap();
            assert_ne!(d1, d2);
            db.checkpoint().unwrap();
            assert_eq!(db.documents().len(), 1);
            assert!(db.wal_stats().unwrap().flushes >= 3);
            let r = db.query(QUERY1, PlanMode::GroupByRewrite).unwrap();
            r.to_xml_on(db.store()).unwrap()
        };
        assert!(expected.contains("Fix HTML"), "{expected}");
        // Reopen: recovery replays the log, queries answer identically.
        let db = TimberDb::open(&opts).unwrap();
        assert!(db.recovery_info().is_some());
        assert_eq!(db.documents().len(), 1);
        let r = db.query(QUERY1, PlanMode::GroupByRewrite).unwrap();
        assert_eq!(r.to_xml_on(db.store()).unwrap(), expected);
        let _ = std::fs::remove_file(&page);
        let _ = std::fs::remove_file(&wal);
    }

    #[test]
    fn replace_serves_the_same_bytes_as_delete_then_insert() {
        let other = "<bib><article><title>Kept</title><author>Jill</author></article></bib>";
        let new = SAMPLE.replace("Hack HTML", "Fix HTML");
        let by_replace = TimberDb::create(&StoreOptions::in_memory().with_durable()).unwrap();
        let by_two_edits = TimberDb::create(&StoreOptions::in_memory().with_durable()).unwrap();
        for db in [&by_replace, &by_two_edits] {
            db.insert_xml(other).unwrap();
        }
        let old = by_replace.insert_xml(SAMPLE).unwrap();
        by_replace.replace_xml(old, &new).unwrap();
        let old = by_two_edits.insert_xml(SAMPLE).unwrap();
        by_two_edits.delete_document(old).unwrap();
        by_two_edits.insert_xml(&new).unwrap();
        for mode in [PlanMode::Direct, PlanMode::GroupByRewrite] {
            let [a, b] = [&by_replace, &by_two_edits].map(|db| {
                let r = db.query(QUERY_COUNT, mode).unwrap();
                r.to_xml_on(db.store()).unwrap()
            });
            assert!(a.contains("<authorpubs>"), "{a}");
            assert_eq!(a, b, "{mode:?}");
        }
        assert_eq!(by_replace.documents(), by_two_edits.documents());
    }

    #[test]
    fn every_load_path_refuses_the_reserved_root_tag_and_changes_nothing() {
        // A stored `doc_root` would put a second `doc_root` above the
        // articles it holds: `doc_root -ad-> author` would bind each
        // author below it twice.
        let reserved = "<bib><doc_root><article><title>T</title><author>A</author></article>\
            </doc_root><article><title>U</title><author>A</author></article></bib>";
        let refused = |r: Result<DocId>| match r {
            Err(TimberError::Store(xmlstore::StoreError::ReservedTag { tag })) => tag,
            other => panic!("{other:?}"),
        };
        let loaded = TimberDb::load_xml(reserved, &StoreOptions::in_memory()).map(|_| 0);
        assert_eq!(refused(loaded), "doc_root");
        let db = TimberDb::create(&StoreOptions::in_memory().with_durable()).unwrap();
        let doc = db.insert_xml(SAMPLE).unwrap();
        let state = |db: &TimberDb| {
            let r = db.query(QUERY1, PlanMode::Direct).unwrap();
            (db.documents(), db.epoch(), r.to_xml_on(db.store()).unwrap())
        };
        let before = state(&db);
        assert_eq!(refused(db.insert_xml(reserved)), "doc_root");
        assert_eq!(refused(db.replace_xml(doc, reserved)), "doc_root");
        assert_eq!(state(&db), before);
    }

    #[test]
    fn projection_only_queries_run_the_direct_plan_in_both_modes() {
        let db = db();
        let q = r#"
            FOR $a IN distinct-values(document("bib.xml")//author)
            RETURN <row> {$a} </row>
        "#;
        let (direct_plan, _) = db.compile(q, PlanMode::Direct).unwrap();
        let (plan, rewritten, trace) = db.compile_traced(q, PlanMode::GroupByRewrite).unwrap();
        assert!(!rewritten, "no groupby in a projection-only query");
        assert!(trace.firings.is_empty(), "{}", trace.render());
        assert_eq!(plan.explain(), direct_plan.explain());
        let direct = db.query(q, PlanMode::Direct).unwrap();
        let grouped = db.query(q, PlanMode::GroupByRewrite).unwrap();
        assert_eq!(
            direct.to_xml_on(db.store()).unwrap(),
            grouped.to_xml_on(db.store()).unwrap()
        );
    }
}
