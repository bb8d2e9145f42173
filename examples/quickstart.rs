//! Quickstart: load a small bibliography, run the paper's Query 1 under
//! both evaluation plans, and show that the GROUPBY rewrite produces the
//! same answer from a very different plan.
//!
//! ```text
//! cargo run -p timber-examples --bin quickstart
//! ```

#![forbid(unsafe_code)]

use timber::{PlanMode, TimberDb};
use xmlstore::StoreOptions;

const BIB: &str = r#"<bib>
    <article>
        <title>Querying XML</title>
        <author>Jack</author>
        <author>John</author>
        <year>1999</year>
    </article>
    <article>
        <title>XML and the Web</title>
        <author>Jill</author>
        <author>Jack</author>
        <year>2001</year>
    </article>
    <article>
        <title>Hack HTML</title>
        <author>John</author>
        <year>1998</year>
    </article>
</bib>"#;

/// Query 1 of the paper (after XQuery use case 1.1.9.4 Q4): for each
/// author, the titles of their articles.
const QUERY1: &str = r#"
    FOR $a IN distinct-values(document("bib.xml")//author)
    RETURN <authorpubs>
      {$a}
      { FOR $b IN document("bib.xml")//article
        WHERE $a = $b/author
        RETURN $b/title }
    </authorpubs>
"#;

fn main() {
    let db = TimberDb::load_xml(BIB, &StoreOptions::in_memory()).expect("load");
    println!(
        "loaded {} stored nodes on {} pages\n",
        db.store().node_count(),
        db.store().total_pages()
    );

    println!("{}", db.explain(QUERY1).expect("explain"));

    for (name, mode) in [
        ("direct (naive join plan)", PlanMode::Direct),
        ("GROUPBY (rewritten plan)", PlanMode::GroupByRewrite),
    ] {
        // The plan reads no page; the output's values are fetched as it
        // is written, so the store's counters are read after that.
        db.reset_io_stats();
        let result = db.query(QUERY1, mode).expect("query");
        let xml = result.to_xml_on(db.store()).expect("serialize");
        println!(
            "== {name}: {} result rows, {} page requests (query and output) ==",
            result.len(),
            db.io_stats().page_requests()
        );
        print!("{xml}");
        println!();
    }
}
