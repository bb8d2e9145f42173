//! Shared fixtures for the integration tests: the oracle ([`model`] — the
//! query as written over parsed DOMs, independent of everything it
//! checks), the helpers that hold a served result against it, the one
//! random-bibliography generator, the paper's corpus queries and the
//! Fig. 6 database, and the deeply nested inputs.

#![forbid(unsafe_code)]

pub mod model;

use smallrand::prop::Gen;
use std::fmt::Write as _;
use timber::{PlanMode, TimberDb};
use xmlstore::StoreOptions;

/// The sample database of Figure 6: three articles, overlapping authors.
pub const FIG6_DB: &str = "<bib>\
    <article><author>Jack</author><author>John</author><title>Querying XML</title></article>\
    <article><author>Jill</author><author>Jack</author><title>XML and the Web</title></article>\
    <article><author>John</author><title>Hack HTML</title></article>\
</bib>";

/// The paper's corpus queries, one copy each, shared with the bench
/// harness: Query 1 (`QUERY1`), the unnested LET formulation of Sec. 4.2
/// (`QUERY2`) and the Sec. 6 count variant (`QUERY_COUNT`).
pub use timber_bench::{QUERY_COUNT, QUERY_TITLES as QUERY1, QUERY_TITLES_LET as QUERY2};

/// Load the Figure 6 database.
pub fn fig6_db() -> TimberDb {
    TimberDb::load_xml(FIG6_DB, &StoreOptions::in_memory()).expect("load fig6")
}

/// Serialized output of `query` under `mode`, run through
/// [`TimberDb::query`], the entry point `timberd` serves.
pub fn run(db: &TimberDb, query: &str, mode: PlanMode) -> String {
    let r = db.query(query, mode).expect("query evaluates");
    r.to_xml_on(db.store()).expect("result serializes")
}

/// The oracle's bytes for `query` over one document. A query the model
/// cannot evaluate fails the calling test.
pub fn expected(xml: &str, query: &str) -> String {
    model::eval(&[xml], query).expect("the reference model evaluates the query")
}

/// Serve `query` in both plan modes, and hold each against the oracle.
pub fn assert_matches_model(db: &TimberDb, xml: &str, query: &str, what: &str) {
    let want = expected(xml, query);
    for mode in [PlanMode::Direct, PlanMode::GroupByRewrite] {
        let got = run(db, query, mode);
        assert_eq!(got, want, "{what}: {mode:?} query: {query} on {xml}");
    }
}

/// What a random bibliography looks like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// 1–3 distinct authors from a pool of five and exactly one title
    /// per article: shared authorship and repeated names are frequent.
    Plain,
    /// 0–3 authors drawn with repetition, the title and the year each
    /// sometimes missing: empty articles, duplicate authors, untitled and
    /// undated articles. Every author still has one titled and one dated
    /// article (an article with both appended last where none came up),
    /// which is the GROUPBY rewrite's precondition for `$b/title` and
    /// `$b/year` — DESIGN.md, *Oracle*.
    Ragged,
    /// [`Shape::Plain`] plus a fractional `<year>` per article, for the
    /// numeric aggregates.
    Years,
    /// Journal / year / 1–2 authors from small pools so lattice levels
    /// collide; an author's name sometimes nested (`<name>`,
    /// `<name><full>`) so the key node varies in shape; `<pages>`
    /// missing, fractional, non-numeric or whole.
    Cube,
}

/// 1..=`max` distinct names from `pool`, in pool order.
fn distinct_names(g: &mut Gen, pool: &[&'static str], max: usize) -> Vec<&'static str> {
    let k = g.usize_in(1, max);
    let mut picked: Vec<usize> = Vec::new();
    while picked.len() < k {
        let i = g.usize_in(0, pool.len() - 1);
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    picked.sort_unstable();
    picked.into_iter().map(|i| pool[i]).collect()
}

/// A random bibliography of the given shape — the one generator every
/// differential suite draws from.
pub fn bibliography(g: &mut Gen, shape: Shape) -> String {
    const POOL: [&str; 5] = ["Jack", "Jill", "John", "Jane", "Joan"];
    const JOURNALS: [&str; 3] = ["TODS", "WebDB", "SIGMOD"];
    let mut s = String::from("<bib>");
    // Ragged only: every author drawn, those with a titled article and
    // those with a dated one.
    let (mut drawn, mut titled, mut dated): (Vec<&str>, Vec<&str>, Vec<&str>) =
        (Vec::new(), Vec::new(), Vec::new());
    for n in 0..g.usize_in(0, 11) {
        s.push_str("<article>");
        let (mut has_title, mut has_year) = (true, false);
        match shape {
            Shape::Plain | Shape::Years => {
                for a in distinct_names(g, &POOL, 3) {
                    let _ = write!(s, "<author>{a}</author>");
                }
            }
            Shape::Ragged => {
                let names = g.vec(0, 3, |g| *g.pick(&POOL));
                has_title = g.ratio(4, 5);
                has_year = g.ratio(4, 5);
                for a in names {
                    let _ = write!(s, "<author>{a}</author>");
                    drawn.push(a);
                    if has_title {
                        titled.push(a);
                    }
                    if has_year {
                        dated.push(a);
                    }
                }
            }
            Shape::Cube => {
                let _ = write!(s, "<journal>{}</journal>", g.pick(&JOURNALS));
                let _ = write!(s, "<year>{}</year>", 1999 + g.usize_in(0, 2));
                for a in distinct_names(g, &POOL[..4], 2) {
                    let _ = match g.usize_in(0, 3) {
                        0 => write!(s, "<author><name>{a}</name></author>"),
                        1 => write!(s, "<author><name><full>{a}</full></name></author>"),
                        _ => write!(s, "<author>{a}</author>"),
                    };
                }
                let (whole, cents) = (g.usize_in(1, 40), g.usize_in(0, 99));
                let _ = match g.usize_in(0, 4) {
                    0 => Ok(()), // no pages at all
                    1 => write!(s, "<pages>{whole}.{cents}</pages>"),
                    2 => write!(s, "<pages>not-a-number</pages>"),
                    _ => write!(s, "<pages>{}</pages>", whole * cents),
                };
            }
        }
        if has_title {
            let _ = write!(s, "<title>Title {n}</title>");
        }
        if has_year {
            let _ = write!(s, "<year>{}</year>", 1999 + n % 3);
        }
        if shape == Shape::Years {
            let (year, cents) = (1970 + g.usize_in(0, 32), g.usize_in(0, 99));
            let _ = write!(s, "<year>{year}.{cents}</year>");
        }
        s.push_str("</article>");
    }
    for a in POOL
        .iter()
        .filter(|a| drawn.contains(a) && !(titled.contains(a) && dated.contains(a)))
    {
        let _ = write!(
            s,
            "<article><author>{a}</author><title>Only {a}</title><year>2000</year></article>"
        );
    }
    s.push_str("</bib>");
    s
}

/// `depth` nested `<a>` elements around one text node.
pub fn deep_xml(depth: usize) -> String {
    format!("{}x{}", "<a>".repeat(depth), "</a>".repeat(depth))
}

/// `depth` FLWR expressions over `bib.xml`, each nested in its parent's
/// RETURN constructor.
pub fn deep_flwr(depth: usize) -> String {
    let flwr = r#"FOR $a IN document("bib.xml")//author RETURN "#;
    let open = format!("{flwr}<r> {{ ");
    let close = " } </r>";
    format!(
        "{}{flwr}$a{}",
        open.repeat(depth - 1),
        close.repeat(depth - 1)
    )
}
