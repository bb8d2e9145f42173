//! The load path builds no DOM: `insert_xml` has the parser drive the
//! store's loader directly, and `insert_document` replays a parsed DOM
//! through the same loader. Both must store the same bytes, and a
//! document that fails part-way must leave the store as it found it.
//! What a load stores: each document's node run of its rows' columns,
//! and each name once for the whole store, on its name pages.

use datagen::{DblpConfig, DblpGenerator};
use smallrand::prop::{check, Gen};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use timber::TimberDb;
use timber_integration_tests::{run, QUERY1, QUERY2, QUERY_COUNT};
use xmlparse::parser::MAX_DEPTH;
use xmlparse::{Element, XmlNode};
use xmlstore::{
    wal_path_for, DocumentStore, NodeId, NodeKind, StoreError, StoreOptions, PAGE_DATA_SIZE,
};

/// A fresh page-file path in the system temp dir (its log beside it).
fn temp_page(tag: &str, n: u64) -> PathBuf {
    let page = std::env::temp_dir().join(format!(
        "streamed_load_{}_{tag}_{n}.pages",
        std::process::id()
    ));
    remove_store(&page);
    page
}

fn remove_store(page: &Path) {
    let _ = std::fs::remove_file(page);
    let _ = std::fs::remove_file(wal_path_for(page));
}

/// Character data pieces: plain, entity and character references,
/// non-ASCII, and whitespace only.
const TEXT: [&str; 12] = [
    "Jack",
    "a b",
    "&amp;",
    "&lt;x&gt;",
    "&#65;&#x42;",
    "&quot;q&apos;",
    "é",
    "1999",
    " ",
    "\n  ",
    "\t",
    "x&#x20;",
];
fn text(g: &mut Gen) -> &'static str {
    TEXT[g.usize_in(0, TEXT.len() - 1)]
}

const NAMES: [&str; 5] = ["a", "title", "author", "x-y", "p.q"];
const ATTRS: [&str; 3] = ["year", "id", "k"];

/// A random element at nesting `depth`. Below `spine` it has one child
/// that continues the spine, so some documents nest to [`MAX_DEPTH`].
fn element(g: &mut Gen, out: &mut String, depth: usize, spine: usize) {
    let name = *g.pick(&NAMES);
    let _ = write!(out, "<{name}");
    let mut attrs: Vec<&str> = Vec::new();
    for _ in 0..g.usize_in(0, 2) {
        let a = *g.pick(&ATTRS);
        if !attrs.contains(&a) {
            attrs.push(a);
            let _ = write!(out, " {a}=\"{}\"", text(g));
        }
    }
    if depth >= spine && g.ratio(1, 6) {
        out.push_str("/>");
        return;
    }
    out.push('>');
    let children = g.usize_in(0, if depth > 4 { 2 } else { 5 });
    let spine_at = (depth < spine).then(|| g.usize_in(0, children));
    for i in 0..=children {
        if spine_at == Some(i) {
            element(g, out, depth + 1, spine);
        }
        if i == children {
            break;
        }
        match g.usize_in(0, 6) {
            0 | 1 => out.push_str(text(g)),
            2 => out.push_str("<!-- c -->"),
            3 => {
                let cdata = *g.pick(&["<raw> & ]", "", " ", "x"]);
                let _ = write!(out, "<![CDATA[{cdata}]]>");
            }
            4 => out.push_str("<?pi data?>"),
            _ if depth + 1 < MAX_DEPTH && depth < spine.max(6) => element(g, out, depth + 1, 0),
            _ => out.push_str(text(g)),
        }
    }
    let _ = write!(out, "</{name}>");
}

/// A random document: sometimes with a prolog, sometimes nested to
/// the parser's depth limit.
fn random_doc(g: &mut Gen) -> String {
    let mut xml = String::new();
    if g.bool() {
        xml.push_str("<?xml version=\"1.0\"?>\n<!-- prolog -->\n");
    }
    let spine = if g.ratio(1, 8) { MAX_DEPTH } else { 0 };
    element(g, &mut xml, 1, spine);
    xml
}

/// Every record and every value of `s`, in id order.
fn rows(s: &DocumentStore) -> Vec<(xmlstore::NodeRecord, Option<String>)> {
    (0..s.node_count())
        .map(|id| {
            let id = NodeId(id);
            (s.record(id).unwrap(), s.content(id).unwrap())
        })
        .collect()
}

/// The tree the store keeps of `e`: comments dropped, a text-only
/// element's text merged into one value, and whitespace-only text gone.
fn stored_form(e: &Element) -> Element {
    let mut out = Element::new(e.name.clone());
    out.attributes = e.attributes.clone();
    if e.children.iter().any(|c| matches!(c, XmlNode::Element(_))) {
        for c in &e.children {
            match c {
                XmlNode::Element(c) => out.children.push(XmlNode::Element(stored_form(c))),
                XmlNode::Text(t) if !t.trim().is_empty() => {
                    out.children.push(XmlNode::Text(t.clone()))
                }
                _ => {}
            }
        }
    } else if !e.text().trim().is_empty() {
        out.children.push(XmlNode::Text(e.text()));
    }
    out
}

#[test]
fn streamed_and_dom_loads_store_the_same_bytes() {
    let mut case = 0u64;
    check("streamed_and_dom_loads_store_the_same_bytes", 96, |g| {
        case += 1;
        let docs = g.vec(1, 3, random_doc);
        let (streamed, built) = (temp_page("stream", case), temp_page("dom", case));
        {
            let s = DocumentStore::create(&StoreOptions::default().with_path(&streamed)).unwrap();
            let d = DocumentStore::create(&StoreOptions::default().with_path(&built)).unwrap();
            for xml in &docs {
                let parsed = xmlparse::parse_document(xml).unwrap();
                assert_eq!(
                    s.insert_xml(xml).unwrap(),
                    d.insert_document(&parsed).unwrap(),
                    "{xml}"
                );
                // Both share the loader, so also hold the stored tree
                // against the DOM itself.
                let root = *s.children(NodeId(0)).unwrap().last().unwrap();
                let stored = s.materialize(root).unwrap();
                assert_eq!(stored, stored_form(parsed.root()), "{xml}");
            }
            assert_eq!(rows(&s), rows(&d), "{docs:?}");
            assert_eq!(s.documents(), d.documents());
        }
        let bytes = |p: &Path| std::fs::read(p).unwrap();
        assert!(
            bytes(&streamed) == bytes(&built),
            "page files differ: {docs:?}"
        );
        remove_store(&streamed);
        remove_store(&built);
    });
}

/// One row the store keeps: tag, kind, level and value.
type ModelRow = (String, NodeKind, u16, Option<String>);

/// The rows the store keeps of `e`, a tree in its [`stored_form`] at
/// `level`, in row order: the element (with its own text if it has no
/// element child), its attributes, then its children's rows.
fn model_rows(e: &Element, level: u16, out: &mut Vec<ModelRow>) {
    let value = |v: &str| (!v.is_empty()).then(|| v.to_owned());
    let elements = e.children.iter().any(|c| matches!(c, XmlNode::Element(_)));
    let own = if elements { None } else { value(&e.text()) };
    out.push((e.name.clone(), NodeKind::Element, level, own));
    for (name, v) in &e.attributes {
        out.push((format!("@{name}"), NodeKind::Attribute, level + 1, value(v)));
    }
    for c in e.children.iter().filter(|_| elements) {
        match c {
            XmlNode::Element(c) => model_rows(c, level + 1, out),
            XmlNode::Text(t) => out.push(("#text".into(), NodeKind::Text, level + 1, value(t))),
            _ => {}
        }
    }
}

/// The rows the store keeps of the document `xml`.
fn model_of(xml: &str) -> Vec<ModelRow> {
    let parsed = xmlparse::parse_document(xml).unwrap();
    let mut rows = Vec::new();
    model_rows(&stored_form(parsed.root()), 1, &mut rows);
    rows
}

/// Each document of `s` holds `docs[k]`'s values, in order, and the
/// store holds each distinct one once: rows with one content symbol, in
/// any document, share one location, distinct symbols' bytes lie apart,
/// and each symbol's name is its rows' value. Returns how many symbols
/// rows of two different documents share.
fn assert_stored_once(s: &DocumentStore, docs: &[String]) -> usize {
    use std::collections::{BTreeMap, BTreeSet};
    // Per symbol: its one location, and the documents its rows are in.
    let mut placed = BTreeMap::new();
    let mut id = 1;
    for (xml, (_, rows)) in docs.iter().zip(s.documents()) {
        let want: Vec<Option<String>> = model_of(xml).into_iter().map(|r| r.3).collect();
        assert_eq!(want.len(), rows as usize, "{xml}");
        for (k, value) in want.iter().enumerate() {
            let row = NodeId(id + k as u32);
            assert_eq!(&s.content(row).unwrap(), value, "row {k} of {xml}");
            let rec = s.record(row).unwrap();
            let Some(sym) = s.content_sym(row) else {
                assert!(!rec.content.is_some(), "row {k} of {xml}");
                continue;
            };
            assert_eq!(Some(&*s.dict().resolve(sym)), value.as_deref());
            let (loc, in_docs) = placed.entry(sym).or_insert((rec.content, BTreeSet::new()));
            assert_eq!(*loc, rec.content, "row {k} of {xml}");
            in_docs.insert(xml.as_str());
        }
        id += rows;
    }
    // A run's pages are consecutive, so a name's bytes are one span of
    // page × PAGE_DATA_SIZE + offset.
    let mut spans: Vec<(usize, usize)> = (placed.values())
        .map(|(loc, _)| {
            (
                loc.page as usize * PAGE_DATA_SIZE + loc.off as usize,
                loc.len as usize,
            )
        })
        .collect();
    spans.sort_unstable();
    assert!(
        spans.windows(2).all(|w| w[0].0 + w[0].1 <= w[1].0),
        "{docs:?}"
    );
    placed
        .values()
        .filter(|(_, in_docs)| in_docs.len() > 1)
        .count()
}

/// The node run of the document `xml`: the bytes of its header (an
/// 8-byte count and an 8-byte entry per (tag, kind) pair), and its pages
/// — the header and eight bytes a row, the index column padded to 4
/// bytes.
fn node_run(xml: &str) -> (usize, u32) {
    let model = model_of(xml);
    let pairs: std::collections::BTreeSet<(&str, u8)> =
        model.iter().map(|r| (r.0.as_str(), r.1 as u8)).collect();
    let rows = model.len();
    let header = 8 + 8 * pairs.len();
    let run = header + (2 * rows).next_multiple_of(4) + 6 * rows;
    (header, run.div_ceil(PAGE_DATA_SIZE) as u32)
}

#[test]
fn each_distinct_name_is_stored_once_per_store() {
    // The generator draws every value from one small pool, so values
    // repeat across attributes, `#text` leaves and text-only elements,
    // within a document and across documents. Each document goes in
    // twice: the copy finds every name paged.
    let (mut case, mut shared) = (0u64, 0);
    check("each_distinct_name_is_stored_once_per_store", 48, |g| {
        case += 1;
        let docs = g.vec(1, 4, random_doc);
        let page = temp_page("once", case);
        let opts = StoreOptions::default().with_path(&page).with_durable();
        let s = DocumentStore::create(&opts).unwrap();
        let mut stored = Vec::new();
        for xml in &docs {
            let (syms, names) = (s.dict().len(), s.name_pages());
            s.insert_xml(xml).unwrap();
            // The names no page held, in one run as long as they need.
            let bytes: usize = (s.dict().names_from(syms).iter()).map(|n| n.len()).sum();
            let run = (s.name_pages() - names) as usize;
            assert_eq!(run, bytes.div_ceil(PAGE_DATA_SIZE), "{xml}");
            // The same document again writes exactly its node run.
            let (syms, names, writes) = (s.dict().len(), s.name_pages(), s.io_stats().disk.writes);
            s.insert_xml(xml).unwrap();
            assert_eq!((s.dict().len(), s.name_pages()), (syms, names), "{xml}");
            let written = s.io_stats().disk.writes - writes;
            assert_eq!(written, u64::from(node_run(xml).1), "{xml}");
            stored.extend([xml.clone(), xml.clone()]);
        }
        shared += assert_stored_once(&s, &stored);
        let pages = (s.total_pages(), s.name_pages());
        drop(s);
        let s = DocumentStore::open(&opts).unwrap();
        assert_eq!((s.total_pages(), s.name_pages()), pages);
        assert_stored_once(&s, &stored);
        drop(s);
        remove_store(&page);
    });
    assert!(shared > 0, "no value was shared by two documents");
}

#[test]
fn churn_keeps_the_file_to_live_node_runs_and_paged_names() {
    // 1 000 seeded inserts, replaces, deletes and checkpoints over 24
    // documents of their own seeds, on a durable store. Once every
    // document has been seen its names are all paged, and no later edit
    // pages one again. The file never shrinks, so it is held to the most
    // node pages that were ever live at once: it never holds more than
    // those, the name pages and two more runs of the largest document (a
    // removed run the predecessor still holds, and the slack of the
    // free list). Reopened, it answers as a fresh load of the live
    // documents.
    let docs: Vec<String> = (0..24u64)
        .map(|k| {
            let articles = 2 + (k as usize * 7) % 40;
            DblpGenerator::new(DblpConfig::sized(articles).with_seed(k)).generate_xml()
        })
        .collect();
    let node_pages: Vec<u32> = docs.iter().map(|xml| node_run(xml).1).collect();
    let largest = node_pages.iter().copied().max().unwrap();
    let page = temp_page("churn", 0);
    let opts = StoreOptions::default()
        .with_path(&page)
        .with_durable()
        .with_pool_pages(64);
    let db = TimberDb::create(&opts).unwrap();
    let mut g = Gen::new(52);
    let (mut live, mut seen) = (Vec::<(u64, usize)>::new(), vec![false; docs.len()]);
    let (mut names_once_all_seen, mut peak) = (None, 0);
    for step in 0..1_000 {
        let doc = g.usize_in(0, docs.len() - 1);
        let victim = (!live.is_empty()).then(|| g.usize_in(0, live.len() - 1));
        match (g.usize_in(0, 9), victim) {
            (0..=4, _) | (_, None) => {
                live.push((db.insert_xml(&docs[doc]).unwrap(), doc));
                seen[doc] = true;
            }
            // A replacement goes to the end of the document order.
            (5 | 6, Some(k)) => {
                let (old, _) = live.remove(k);
                live.push((db.replace_xml(old, &docs[doc]).unwrap(), doc));
                seen[doc] = true;
            }
            (7 | 8, Some(k)) => db.delete_document(live.remove(k).0).unwrap(),
            _ => db.checkpoint().unwrap(),
        }
        let s = db.store();
        let names = (s.dict().len(), s.name_pages());
        if seen.iter().all(|&d| d) {
            let first = *names_once_all_seen.get_or_insert(names);
            assert_eq!(names, first, "step {step}: a name was paged twice");
        }
        peak = peak.max(live.iter().map(|&(_, d)| node_pages[d]).sum());
        let bound = peak + s.name_pages() + 2 * largest;
        assert!(
            s.total_pages() <= bound,
            "step {step}: {} pages > {bound}",
            s.total_pages()
        );
    }
    assert!(
        names_once_all_seen.is_some(),
        "a document was never inserted"
    );
    drop(db);

    let reopened = TimberDb::open(&opts).unwrap();
    let ids: Vec<u64> = reopened.documents().iter().map(|d| d.0).collect();
    assert_eq!(ids, live.iter().map(|d| d.0).collect::<Vec<_>>());
    let fresh = TimberDb::create(&StoreOptions::in_memory()).unwrap();
    for &(_, doc) in &live {
        fresh.insert_xml(&docs[doc]).unwrap();
    }
    for query in [QUERY1, QUERY2, QUERY_COUNT] {
        for mode in [timber::PlanMode::Direct, timber::PlanMode::GroupByRewrite] {
            let (got, want) = (run(&reopened, query, mode), run(&fresh, query, mode));
            assert_eq!(got, want, "{mode:?}: {query}");
        }
    }
    drop(reopened);
    remove_store(&page);
}

/// A document whose node run spans pages: random elements under one
/// root until it holds well over the 1 023 rows a page holds, or more
/// distinct element names than a page of the (tag, kind) table holds.
fn big_doc(g: &mut Gen) -> String {
    let mut xml = String::from("<big>");
    if g.bool() {
        while xml.len() < 30_000 {
            element(g, &mut xml, 2, 0);
        }
    } else {
        for i in 0..g.usize_in(1_000, 1_100) {
            let _ = write!(xml, "<t{i} k=\"{}\">{}</t{i}>", text(g), text(g));
        }
    }
    xml.push_str("</big>");
    xml
}

/// Each document of `s`, in order, holds exactly the rows of its model
/// (`docs[k]`'s): every row's tag, kind, level and content.
fn assert_rows_are_the_model(s: &DocumentStore, docs: &[String]) {
    let mut id = 1;
    for (xml, (_, rows)) in docs.iter().zip(s.documents()) {
        let want = model_of(xml);
        assert_eq!(want.len(), rows as usize);
        for (k, (tag, kind, level, value)) in want.into_iter().enumerate() {
            let row = NodeId(id + k as u32);
            let rec = s.record(row).unwrap();
            let got = (&*s.tag_name(rec.tag), rec.kind, rec.level);
            assert_eq!(got, (tag.as_str(), kind, level), "row {k}");
            assert_eq!(s.content(row).unwrap(), value, "row {k}");
        }
        id += rows;
    }
}

#[test]
fn each_node_run_is_its_rows_columns() {
    // Attributes, mixed content, runs longer than a page and (tag, kind)
    // tables wider than a page. Each run is as many pages as
    // [`node_run`] says.
    let (mut case, mut long_runs, mut wide_tables) = (0u64, 0, 0);
    check("each_node_run_is_its_rows_columns", 24, |g| {
        case += 1;
        let docs = g.vec(1, 3, |g| {
            if g.ratio(1, 3) {
                big_doc(g)
            } else {
                random_doc(g)
            }
        });
        let page = temp_page("columns", case);
        let opts = StoreOptions::default().with_path(&page).with_durable();
        let s = DocumentStore::create(&opts).unwrap();
        for xml in &docs {
            let (pages, names) = (s.total_pages(), s.name_pages());
            s.insert_xml(xml).unwrap();
            let node_pages = (s.total_pages() - pages) - (s.name_pages() - names);
            let (header, run) = node_run(xml);
            assert_eq!(node_pages, run, "{xml}");
            long_runs += usize::from(node_pages > 1);
            wide_tables += usize::from(header > PAGE_DATA_SIZE);
        }
        assert_rows_are_the_model(&s, &docs);
        let pages = s.total_pages();
        drop(s);
        let s = DocumentStore::open(&opts).unwrap();
        assert_eq!(s.total_pages(), pages);
        assert_rows_are_the_model(&s, &docs);
        drop(s);
        remove_store(&page);
    });
    assert!(
        long_runs > 0 && wide_tables > 0,
        "{long_runs} long, {wide_tables} wide"
    );
}

#[test]
fn a_document_with_more_pairs_than_a_row_can_name_is_refused() {
    // A root and `n - 1` distinct empty elements: `n` (tag, kind) pairs.
    let doc = |n: usize| {
        let mut xml = String::from("<r>");
        for i in 1..n {
            let _ = write!(xml, "<t{i}/>");
        }
        xml + "</r>"
    };
    let page = temp_page("pairs", 0);
    let opts = StoreOptions::default().with_path(&page).with_durable();
    let s = DocumentStore::create(&opts).unwrap();
    s.insert_xml(SMALL).unwrap();
    let log = || std::fs::metadata(wal_path_for(&page)).unwrap().len();
    let before = (s.documents(), s.total_pages(), log());
    let err = s.insert_xml(&doc(65_537)).unwrap_err();
    assert!(
        matches!(err, StoreError::TooManyTags { limit: 65_536 }),
        "{err}"
    );
    assert_eq!((s.documents(), s.total_pages(), log()), before);
    // The limit itself is taken, and reopens.
    s.insert_xml(&doc(65_536)).unwrap();
    drop(s);
    let s = DocumentStore::open(&opts).unwrap();
    assert_eq!(s.documents().len(), 2);
    assert_eq!(s.documents()[1].1, 65_536);
    drop(s);
    remove_store(&page);
}

/// A small document.
const SMALL: &str = "<bib><article><title>T</title></article></bib>";

#[test]
fn a_reserved_root_before_a_syntax_error_is_the_syntax_error() {
    // The loader meets `doc_root` first; the parse error still wins, as
    // it does when the whole document is parsed before loading.
    let s = DocumentStore::create(&StoreOptions::in_memory()).unwrap();
    for xml in [
        "<doc_root><a>x</a><b></a></doc_root>",
        "<bib><doc_root/><a>x</a><b>",
        "<bib><a><doc_root>y</doc_root></a>&bogus;</bib>",
    ] {
        let dom = StoreError::from(xmlparse::parse_document(xml).unwrap_err());
        let streamed = s.insert_xml(xml).unwrap_err();
        assert!(
            matches!(streamed, StoreError::Parse(_)),
            "{xml}: {streamed}"
        );
        assert_eq!(streamed.to_string(), dom.to_string(), "{xml}");
    }
    // Without a syntax error, both paths refuse the reserved tag.
    let xml = "<bib><doc_root/></bib>";
    let parsed = xmlparse::parse_document(xml).unwrap();
    for err in [
        s.insert_xml(xml).unwrap_err(),
        s.insert_document(&parsed).unwrap_err(),
    ] {
        assert!(matches!(err, StoreError::ReservedTag { .. }), "{err}");
    }
    assert!(s.documents().is_empty());
}

/// Everything a failed edit must leave as it was; files by length and
/// hash, so a failure prints short.
#[derive(Debug, PartialEq)]
struct Observed {
    documents: Vec<(u64, u32)>,
    total_pages: u32,
    page_bytes: (usize, u64),
    log_bytes: (usize, u64),
    queries: Vec<String>,
}

fn file_hash(path: &Path) -> (usize, u64) {
    use std::hash::{Hash, Hasher};
    let bytes = std::fs::read(path).unwrap();
    let mut h = std::collections::hash_map::DefaultHasher::new();
    bytes.hash(&mut h);
    (bytes.len(), h.finish())
}

fn observe(db: &TimberDb, page: &Path) -> Observed {
    Observed {
        documents: db.documents(),
        total_pages: db.store().total_pages(),
        page_bytes: file_hash(page),
        log_bytes: file_hash(&wal_path_for(page)),
        queries: [QUERY1, QUERY2, QUERY_COUNT]
            .iter()
            .flat_map(|q| {
                [timber::PlanMode::Direct, timber::PlanMode::GroupByRewrite]
                    .map(|mode| run(db, q, mode))
            })
            .collect(),
    }
}

#[test]
fn a_document_that_fails_late_changes_nothing() {
    // Thousands of elements are loaded before the failure: a syntax
    // error at the very end, or a reserved tag deep inside the last
    // article (a store error the loader meets mid-document).
    let mut body = String::from("<bib>");
    for i in 0..2_000 {
        let _ = write!(
            body,
            "<article year=\"{}\"><title>Late {i}</title><author>New{}</author></article>",
            1990 + i % 13,
            i % 97
        );
    }
    let bad = [
        ("syntax", format!("{body}</bib><trailing/>")),
        ("unclosed", body.clone()),
        (
            "reserved",
            format!("{body}<article><note><doc_root/></note></article></bib>"),
        ),
    ];
    let page = temp_page("late", 0);
    let opts = StoreOptions::default()
        .with_path(&page)
        .with_durable()
        .with_pool_pages(64);
    let db = TimberDb::create(&opts).unwrap();
    let kept = db.insert_xml(timber_integration_tests::FIG6_DB).unwrap();
    let before = observe(&db, &page);
    for (what, xml) in &bad {
        assert!(db.insert_xml(xml).is_err(), "{what}");
        assert_eq!(observe(&db, &page), before, "insert: {what}");
        assert!(db.replace_xml(kept, xml).is_err(), "{what}");
        assert_eq!(observe(&db, &page), before, "replace: {what}");
    }
    // The store still takes a good document, and survives a reopen.
    db.insert_xml(&format!("{body}</bib>")).unwrap();
    let after = observe(&db, &page);
    drop(db);
    // `open` installs a fresh checkpoint log; all else must match.
    let db = TimberDb::open(&opts).unwrap();
    let reopened = Observed {
        log_bytes: after.log_bytes,
        ..observe(&db, &page)
    };
    assert_eq!(reopened, after);
    drop(db);
    remove_store(&page);
}
