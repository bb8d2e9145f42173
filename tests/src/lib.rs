//! Shared fixtures for the integration tests.

use timber::{PlanMode, TimberDb};
use xmlstore::StoreOptions;

/// The sample database of Figure 6: three articles, overlapping authors.
pub const FIG6_DB: &str = "<bib>\
    <article><author>Jack</author><author>John</author><title>Querying XML</title></article>\
    <article><author>Jill</author><author>Jack</author><title>XML and the Web</title></article>\
    <article><author>John</author><title>Hack HTML</title></article>\
</bib>";

/// Query 1 of the paper.
pub const QUERY1: &str = r#"
    FOR $a IN distinct-values(document("bib.xml")//author)
    RETURN <authorpubs>
      {$a}
      { FOR $b IN document("bib.xml")//article
        WHERE $a = $b/author
        RETURN $b/title }
    </authorpubs>
"#;

/// Query 2 (the unnested LET formulation of Sec. 4.2).
pub const QUERY2: &str = r#"
    FOR $a IN distinct-values(document("bib.xml")//author)
    LET $t := document("bib.xml")//article[author = $a]/title
    RETURN <authorpubs> {$a} {$t} </authorpubs>
"#;

/// The Sec. 6 count variant.
pub const QUERY_COUNT: &str = r#"
    FOR $a IN distinct-values(document("bib.xml")//author)
    LET $t := document("bib.xml")//article[author = $a]/title
    RETURN <authorpubs> {$a} {count($t)} </authorpubs>
"#;

/// Load the Figure 6 database.
pub fn fig6_db() -> TimberDb {
    TimberDb::load_xml(FIG6_DB, &StoreOptions::in_memory()).expect("load fig6")
}

/// Serialized output of `query` under `mode` at the given batch size
/// (and the handle's current thread count).
pub fn run(db: &mut TimberDb, query: &str, mode: PlanMode, batch: usize) -> String {
    db.set_batch_size(batch);
    let r = db.query(query, mode).expect("query evaluates");
    r.to_xml_on(db.store()).expect("result serializes")
}

/// The differential suites' reference bytes: the executor in its
/// degenerate configuration — one thread, one batch — so no shard
/// routing, order-restoring merge or batch boundary can have shaped
/// them. The handle's thread and batch settings are restored.
pub fn reference_run(db: &mut TimberDb, query: &str, mode: PlanMode) -> String {
    let (threads, batch) = (db.threads(), db.batch_size());
    db.set_threads(1);
    let out = run(db, query, mode, usize::MAX);
    db.set_threads(threads);
    db.set_batch_size(batch);
    out
}

/// Parse a comma-separated list of positive integers from `var`, falling
/// back to `default` when the variable is unset, empty, or malformed.
/// This is how CI plumbs its `{threads} × {batch}` matrix into the
/// differential suite without recompiling.
fn env_matrix(var: &str, default: &[usize]) -> Vec<usize> {
    match std::env::var(var) {
        Ok(s) if !s.trim().is_empty() => {
            let parsed: Option<Vec<usize>> = s
                .split(',')
                .map(|p| p.trim().parse::<usize>().ok().filter(|&n| n > 0))
                .collect();
            match parsed {
                Some(v) if !v.is_empty() => v,
                _ => default.to_vec(),
            }
        }
        _ => default.to_vec(),
    }
}

/// Thread counts the differential tests sweep: `TIMBER_TEST_THREADS`
/// (e.g. `"1,4"`) or the given default.
pub fn thread_matrix(default: &[usize]) -> Vec<usize> {
    env_matrix("TIMBER_TEST_THREADS", default)
}

/// Batch sizes the differential tests sweep: `TIMBER_TEST_BATCH`
/// (e.g. `"16,256"`) or the given default.
pub fn batch_matrix(default: &[usize]) -> Vec<usize> {
    env_matrix("TIMBER_TEST_BATCH", default)
}
