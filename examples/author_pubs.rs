//! The paper's running workload at realistic scale: a synthetic DBLP
//! bibliography, the group-by-author query in its three forms (nested,
//! LET, count), timings, and I/O counters for both plans.
//!
//! ```text
//! cargo run --release -p timber-examples --bin author_pubs -- [articles]
//! ```

#![forbid(unsafe_code)]

use datagen::{DblpConfig, DblpGenerator};
use timber::{PlanMode, TimberDb};
use xmlstore::StoreOptions;

const QUERIES: &[(&str, &str)] = &[
    (
        "Query 1 (nested FLWR)",
        r#"
        FOR $a IN distinct-values(document("bib.xml")//author)
        RETURN <authorpubs>
          {$a}
          { FOR $b IN document("bib.xml")//article
            WHERE $a = $b/author
            RETURN $b/title }
        </authorpubs>
    "#,
    ),
    (
        "Query 2 (LET form)",
        r#"
        FOR $a IN distinct-values(document("bib.xml")//author)
        LET $t := document("bib.xml")//article[author = $a]/title
        RETURN <authorpubs> {$a} {$t} </authorpubs>
    "#,
    ),
    (
        "count variant",
        r#"
        FOR $a IN distinct-values(document("bib.xml")//author)
        LET $t := document("bib.xml")//article[author = $a]/title
        RETURN <authorpubs> {$a} {count($t)} </authorpubs>
    "#,
    ),
];

fn main() {
    let articles: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(10_000);

    println!("generating synthetic DBLP with {articles} articles…");
    let xml = DblpGenerator::new(DblpConfig::sized(articles)).generate_xml();
    let db = TimberDb::load_xml(&xml, &StoreOptions::default()).expect("load");
    println!(
        "loaded: {} stored nodes, {:.1} MB on disk, 32 MB buffer pool\n",
        db.store().node_count(),
        db.store().size_bytes() as f64 / (1024.0 * 1024.0)
    );

    for (name, query) in QUERIES {
        println!("-- {name} --");
        let mut sample = String::new();
        for (mode_name, mode) in [
            ("direct ", PlanMode::Direct),
            ("groupby", PlanMode::GroupByRewrite),
        ] {
            db.clear_buffer_pool().expect("clear");
            db.reset_io_stats();
            let t0 = std::time::Instant::now();
            let result = db.query(query, mode).expect("query");
            let xml_out = result.to_xml_on(db.store()).expect("serialize");
            let dt = t0.elapsed();
            let io = db.io_stats(); // evaluation + output population
            println!(
                "  {mode_name}: {:>8.3}s  {:>9} page requests  {:>8} disk reads  {} authors",
                dt.as_secs_f64(),
                io.page_requests(),
                io.disk.reads,
                result.len()
            );
            sample = xml_out.lines().next().unwrap_or("").to_owned();
        }
        println!("  first row: {sample}\n");
    }
}
