//! Output parity: the streamed text of a result (`QueryResult::to_xml_on`,
//! `write_xml_lines`) is byte for byte the serialized DOM of the same
//! result (`elements_on`, `materialize_all`, `DocumentStore::materialize`
//! + `element_to_string`).
//!
//! Both routes consume one walk over the label columns, so agreeing with
//! each other is not enough: the corpus results are also held against
//! the reference model, and the handcrafted and random documents
//! against an oracle that never touches the store — the XML text the
//! document was loaded from, and DOM elements assembled from its parse.

use datagen::{DblpConfig, DblpGenerator};
use smallrand::prop::{check, Gen};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use tax::batch::{Batch, Matches};
use tax::matching::match_db;
use tax::ops::{aggregate, groupby, AggFunc, BasisItem, UpdateSpec};
use tax::output::{materialize_all, write_xml_lines};
use tax::pattern::{Axis, PatternTree, Pred};
use tax::tags::{GROUPING_BASIS, GROUP_ROOT, GROUP_SUBROOT};
use timber::{PlanMode, QueryResult, TimberDb, TimberError};
use timber_integration_tests::{expected, fig6_db, FIG6_DB, QUERY1, QUERY2, QUERY_COUNT};
use xmlparse::serialize::element_to_string;
use xmlparse::{parse_document, Element, XmlNode};
use xmlstore::{DocumentStore, FaultConfig, NodeEntry, NodeId, NodeKind, StoreOptions};

const QUERY_PROJECT: &str = r#"
    FOR $a IN distinct-values(document("bib.xml")//author)
    RETURN <row> {$a} </row>
"#;

const CORPUS: [&str; 4] = [QUERY1, QUERY2, QUERY_COUNT, QUERY_PROJECT];

/// The DOM route: materialize every tree, serialize each element.
fn dom_route(r: &QueryResult, store: &DocumentStore) -> String {
    let mut out = String::new();
    for e in r.elements_on(store).unwrap() {
        out.push_str(&element_to_string(&e));
        out.push('\n');
    }
    out
}

fn assert_corpus_parity(db: &TimberDb, xml: &str, what: &str) {
    for query in CORPUS {
        let want = expected(xml, query);
        for mode in [PlanMode::Direct, PlanMode::GroupByRewrite] {
            let r = db.query(query, mode).unwrap();
            let label = format!("{what} {mode:?} query: {query}");
            assert_eq!(r.to_xml_on(db.store()).unwrap(), want, "streamed: {label}");
            assert_eq!(dom_route(&r, db.store()), want, "DOM route: {label}");
        }
    }
}

#[test]
fn streamed_and_dom_routes_equal_the_model_on_corpus() {
    assert_corpus_parity(&fig6_db(), FIG6_DB, "fig6");
    let xml = DblpGenerator::new(DblpConfig::sized(200)).generate_xml();
    let dblp = TimberDb::load_xml(&xml, &StoreOptions::in_memory()).unwrap();
    assert_corpus_parity(&dblp, &xml, "dblp-200");
}

/// Attributes holding `"` `&` `<`, mixed content, empty elements, a
/// text-only element with attributes, nesting, non-ASCII text.
const HANDCRAFTED: &str = "<doc v=\"1\">\
    <p k=\"say &quot;hi&quot; &amp; &lt;go&gt;\" l=\"\">only text &amp; more</p>\
    <mixed>lead <b>bold</b> mid &lt;x&gt; <i/> tail</mixed>\
    <empty/>\
    <attrs a=\"1\" b=\"2\"/>\
    <deep><d1><d2 z=\"&lt;\">Donn\u{e9}es \u{21a6} \u{6771}\u{4eac}</d2><d2/></d1>after</deep>\
</doc>";

fn store_of(xml: &str) -> DocumentStore {
    DocumentStore::from_xml(xml, &StoreOptions::in_memory()).unwrap()
}

/// The streamed route: `batch` written, one row a line.
fn streamed(batch: &Batch, store: &DocumentStore) -> String {
    let mut out = String::new();
    write_xml_lines(store, batch, &mut out).unwrap();
    out
}

/// `batch` holds `want` by both routes: its text is theirs serialized,
/// one a line, and its DOM elements are they.
fn assert_parity(store: &DocumentStore, batch: &Batch, want: &[Element], what: &str) {
    let text: String = want.iter().map(|e| element_to_string(e) + "\n").collect();
    assert_eq!(streamed(batch, store), text, "{what}");
    assert_eq!(materialize_all(store, batch).unwrap(), want, "{what}");
}

/// The stored element rows in document order, with the parsed element
/// each one was loaded from. Ids are derived from the DOM alone, the way
/// loading assigns them: an element, its attributes, then its children
/// (text is a row of its own only beside element siblings).
fn element_rows<'a>(root: &'a Element, store: &DocumentStore) -> Vec<(NodeEntry, &'a Element)> {
    fn walk<'a>(e: &'a Element, next: &mut u32, out: &mut Vec<(u32, &'a Element)>) {
        out.push((*next, e));
        *next += 1 + e.attributes.len() as u32;
        let mixed = e.child_elements().next().is_some();
        for c in &e.children {
            match c {
                XmlNode::Element(c) => walk(c, next, out),
                XmlNode::Text(_) if mixed => *next += 1,
                _ => {}
            }
        }
    }
    let mut ids = Vec::new();
    walk(root, &mut 1, &mut ids);
    let cols = store.columns();
    ids.into_iter()
        .map(|(id, e)| {
            assert_eq!(cols.kind[id as usize], NodeKind::Element);
            assert_eq!(
                &*store.tag_name(xmlstore::TagId(cols.tag[id as usize])),
                e.name
            );
            (cols.entry(NodeId(id)), e)
        })
        .collect()
}

/// What a shallow reference to `e` shows of it: name, attributes, and
/// the text of a text-only element.
fn shallow_of(e: &Element) -> Element {
    let mut out = Element::new(&e.name);
    out.attributes = e.attributes.clone();
    if e.child_elements().next().is_none() && !e.text().is_empty() {
        out.children.push(XmlNode::Text(e.text()));
    }
    out
}

/// The shallow reference to each element of `rows`: each name's
/// unadorned selection, which binds every element of that name in
/// document order.
fn assert_shallow_parity(store: &DocumentStore, rows: &[(NodeEntry, &Element)]) {
    let mut names: Vec<&str> = rows.iter().map(|(_, e)| e.name.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    for name in names {
        let p = PatternTree::with_root(Pred::tag(name));
        let shallow = Batch::Matches(Matches::select(store, &p, &[]).unwrap());
        let named = rows.iter().filter(|(_, e)| e.name == name);
        let want: Vec<Element> = named.map(|(_, e)| shallow_of(e)).collect();
        assert_parity(store, &shallow, &want, name);
    }
}

#[test]
fn handcrafted_document_streams_back_to_its_source_text() {
    let store = store_of(HANDCRAFTED);
    let parsed = parse_document(HANDCRAFTED).unwrap();
    // The whole document, deep: the text it was loaded from.
    let root = store.columns().entry(NodeId(1));
    let whole = |node| Batch::Stored(vec![node]);
    assert_eq!(streamed(&whole(root), &store), format!("{HANDCRAFTED}\n"));
    assert_eq!(store.materialize(NodeId(1)).unwrap(), *parsed.root());
    assert_eq!(
        streamed(&whole(store.root()), &store),
        format!("<doc_root>{HANDCRAFTED}</doc_root>\n")
    );
    // Every element on its own, deep and shallow, both routes.
    let rows = element_rows(parsed.root(), &store);
    let deep = Batch::Stored(rows.iter().map(|(entry, _)| *entry).collect());
    let elements: Vec<Element> = rows.iter().map(|(_, e)| (*e).clone()).collect();
    assert_parity(&store, &deep, &elements, "deep");
    for (entry, e) in &rows {
        assert_eq!(store.materialize(entry.id).unwrap(), **e);
    }
    assert_shallow_parity(&store, &rows);
    // An attribute or text row reported on its own is an element named
    // after the row, holding its value.
    let cols = store.columns();
    let attr = (0..cols.len()).find(|&i| cols.kind[i] == NodeKind::Attribute);
    let attr = cols.entry(NodeId(attr.unwrap() as u32));
    assert_eq!(streamed(&whole(attr), &store), "<@v>1</@v>\n");
}

#[test]
fn witness_and_group_trees_stream_like_their_dom() {
    let store = store_of(HANDCRAFTED);
    let parsed = parse_document(HANDCRAFTED).unwrap();
    let rows = element_rows(parsed.root(), &store);
    let by_name = |name: &str| rows.iter().find(|(_, e)| e.name == name).unwrap().1;

    // A shallow doc holding a deep attrs and a shallow p: the witness
    // tree of `doc -pc-> {attrs, p}` adorned at attrs.
    let mut p = PatternTree::with_root(Pred::tag("doc"));
    let attrs = p.add_child(0, Axis::Child, Pred::tag("attrs"));
    p.add_child(0, Axis::Child, Pred::tag("p"));
    let witness = Batch::Matches(Matches::select(&store, &p, &[attrs]).unwrap());
    let want = shallow_of(by_name("doc"))
        .with_child(by_name("attrs").clone())
        .with_child(shallow_of(by_name("p")));
    assert_parity(&store, &witness, &[want], "witness");

    // A group with no basis item: an empty constructed element, and the
    // two d2 elements whole, the first with attributes and non-ASCII
    // text.
    let d2: Vec<_> = rows.iter().filter(|(_, e)| e.name == "d2").collect();
    let stored = Batch::Stored(d2.iter().map(|(entry, _)| *entry).collect());
    let (group, _) = groupby(
        &store,
        &stored,
        &PatternTree::with_root(Pred::tag("d2")),
        &[],
        &[],
    )
    .unwrap();
    let mut members = Element::new(GROUP_SUBROOT);
    members.children = d2
        .iter()
        .map(|(_, e)| XmlNode::Element((*e).clone()))
        .collect();
    let want = Element::new(GROUP_ROOT)
        .with_child(Element::new(GROUPING_BASIS))
        .with_child(members);
    assert_parity(&store, &group, &[want], "group");
}

const NAMES: [&str; 5] = ["a", "b", "row", "x-y", "T_1"];
const VALUES: [&str; 8] = [
    "x",
    "1 < 2",
    "a & b",
    "say \"hi\"",
    "  padded  ",
    "<>",
    "\u{e9}\u{21a6}\u{6771}",
    "it's",
];

/// A random small element: empty, text-only, element-only or mixed.
fn random_element(g: &mut Gen, depth: usize) -> Element {
    let mut e = Element::new(*g.pick(&NAMES));
    for name in ["k", "id", "q"] {
        if g.ratio(1, 4) {
            let value = if g.ratio(1, 6) { "" } else { *g.pick(&VALUES) };
            e.attributes.push((name.to_owned(), value.to_owned()));
        }
    }
    let shape = if depth == 0 {
        g.usize_in(0, 1)
    } else {
        g.usize_in(0, 3)
    };
    match shape {
        0 => {}
        1 => e
            .children
            .push(XmlNode::Text((*g.pick(&VALUES)).to_owned())),
        _ => {
            let mixed = shape == 3;
            for _ in 0..g.usize_in(1, 3) {
                if mixed && g.bool() {
                    e.children
                        .push(XmlNode::Text((*g.pick(&VALUES)).to_owned()));
                }
                e.children
                    .push(XmlNode::Element(random_element(g, depth - 1)));
            }
            if mixed && g.bool() {
                e.children
                    .push(XmlNode::Text((*g.pick(&VALUES)).to_owned()));
            }
        }
    }
    e
}

/// A random two-node selection over `store` — `NAME -pc-> NAME` or
/// `NAME -ad-> NAME`, each node adorned or not — and the DOM of each of
/// its witness trees, read off the binding table and the elements
/// `rows` were loaded from.
fn random_witnesses(
    g: &mut Gen,
    store: &DocumentStore,
    rows: &[(NodeEntry, &Element)],
) -> (Batch, Vec<Element>) {
    let mut p = PatternTree::with_root(Pred::tag(*g.pick(&NAMES)));
    let axis = if g.bool() {
        Axis::Child
    } else {
        Axis::Descendant
    };
    p.add_child(0, axis, Pred::tag(*g.pick(&NAMES)));
    let sl: Vec<usize> = (0..2).filter(|_| g.bool()).collect();
    let element: HashMap<NodeId, &Element> = rows.iter().map(|(n, e)| (n.id, *e)).collect();
    let shown = |node: NodeEntry, label: usize| {
        let e = element[&node.id];
        if sl.contains(&label) {
            e.clone()
        } else {
            shallow_of(e)
        }
    };
    let table = match_db(store, &p).unwrap();
    let want = table
        .rows()
        .map(|row| shown(row[0], 0).with_child(shown(row[1], 1)))
        .collect();
    (
        Batch::Matches(Matches::select(store, &p, &sl).unwrap()),
        want,
    )
}

#[test]
fn random_documents_and_trees_stream_like_their_dom() {
    check(
        "random_documents_and_trees_stream_like_their_dom",
        96,
        |g| {
            let doc = random_element(g, 3);
            let xml = element_to_string(&doc);
            let store = store_of(&xml);
            let parsed = parse_document(&xml).unwrap();
            let root = store.columns().entry(NodeId(1));
            assert_eq!(streamed(&Batch::Stored(vec![root]), &store), xml + "\n");
            assert_eq!(store.materialize(NodeId(1)).unwrap(), *parsed.root());

            let rows = element_rows(parsed.root(), &store);
            assert_shallow_parity(&store, &rows);
            for _ in 0..3 {
                let (witnesses, want) = random_witnesses(g, &store, &rows);
                assert_parity(&store, &witnesses, &want, "witnesses");
            }
        },
    );
}

/// An on-disk database of `articles` DBLP articles behind a pool of
/// `pool_pages` frames, and the XML it was loaded from.
fn disk_db(articles: usize, pool_pages: usize) -> TimberDb {
    let xml = DblpGenerator::new(DblpConfig::sized(articles)).generate_xml();
    let opts = StoreOptions {
        on_disk: true,
        pool_pages,
        ..StoreOptions::in_memory()
    };
    TimberDb::load_xml(&xml, &opts).unwrap()
}

#[test]
fn a_read_fault_mid_output_is_a_typed_error() {
    // One frame, on disk: every name page the output touches is a
    // physical read.
    let db = disk_db(400, 1);
    let r = db.query(QUERY1, PlanMode::GroupByRewrite).unwrap();
    db.clear_buffer_pool().unwrap();
    let before = db.io_stats().disk.reads;
    let reference = r.to_xml_on(db.store()).unwrap();
    let reads = db.io_stats().disk.reads - before;
    assert!(r.len() > 2 && reads > 2, "{reads} reads");

    // Half the pages of the result's one chunk come in, then every read
    // fails for good: the chunk fails as a whole — the store's error,
    // through `tax`, and not a byte of text.
    let schedule = FaultConfig::seeded(5)
        .with_read_error(1.0)
        .with_after_ops(reads / 2);
    db.set_faults(Some(schedule)).unwrap();
    match r.to_xml_on(db.store()) {
        Err(TimberError::Algebra(e)) => assert!(!e.to_string().is_empty()),
        Err(other) => panic!("expected the store's error through tax, got {other}"),
        Ok(text) => panic!("{} bytes came back from a failing store", text.len()),
    }
    // The rows written through `write_xml_lines` fail typed too, and the
    // failing chunk appends nothing to the buffer.
    let mut partial = String::from("kept");
    match write_xml_lines(db.store(), &r.output, &mut partial) {
        Err(tax::Error::Store(e)) => assert!(!e.to_string().is_empty()),
        other => panic!("expected the store's error, got {other:?}"),
    }
    assert_eq!(partial, "kept");
    assert!(r.elements_on(db.store()).is_err());
    assert!(db.fault_stats().unwrap().read_errors > 0);

    // The same call, once the faults are gone: the same bytes.
    db.set_faults(None).unwrap();
    assert_eq!(r.to_xml_on(db.store()).unwrap(), reference);
}

#[test]
fn a_cold_result_reads_each_heap_page_once() {
    // A pool of a quarter of the store, emptied first: the grouped plan
    // asks for nothing, and populating its output — titles in author
    // order, so in no page order at all — reads every name page at most
    // once (one more per chunk, were a value to straddle its boundary),
    // in ascending order, never a node page.
    let db = disk_db(3000, 1);
    let pool = db.store().total_pages() as usize / 4;
    let db = disk_db(3000, pool);
    let heap = u64::from(db.store().name_pages());
    assert!(heap > pool as u64, "{heap} name pages, pool of {pool}");
    let r = db.query(QUERY1, PlanMode::GroupByRewrite).unwrap();
    let warm = r.to_xml_on(db.store()).unwrap();

    db.clear_buffer_pool().unwrap();
    db.reset_io_stats();
    let r = db.query(QUERY1, PlanMode::GroupByRewrite).unwrap();
    assert_eq!(db.io_stats().page_requests(), 0, "the plan asks for a page");
    let cold = r.to_xml_on(db.store()).unwrap();
    let io = db.io_stats();
    assert_eq!(cold, warm);
    assert!(
        io.disk.reads <= heap + 1,
        "{} reads, {heap} name pages",
        io.disk.reads
    );
    assert_eq!(io.page_requests(), io.disk.reads, "a page asked for twice");
    assert!(
        io.disk.reads > heap / 2,
        "{} reads is no cold run",
        io.disk.reads
    );
}

/// A document for the batched read: attributes (some empty), mixed
/// content, text-only elements, duplicate strings, and — when `long` —
/// one value of 19 KB that spans three name pages.
fn values_doc(g: &mut Gen, long: bool) -> String {
    let mut e = random_element(g, 3);
    e.attributes.push(("none".to_owned(), String::new()));
    if long {
        let long = Element::new("long").with_text("Grouping in XML ".repeat(1200));
        e.children.insert(0, XmlNode::Element(long));
        e.children
            .push(XmlNode::Element(Element::new("after").with_text("x")));
    }
    element_to_string(&e)
}

/// `values(ids)` against `content` of each id, on `store`'s own ids.
fn assert_batch_equals_singles(g: &mut Gen, store: &DocumentStore) {
    let n = store.node_count() as usize;
    let ids: Vec<NodeId> = match g.usize_in(0, 3) {
        0 => Vec::new(),
        1 => (0..n as u32).rev().map(NodeId).collect(),
        _ => (0..g.usize_in(1, 2 * n))
            .map(|_| NodeId(g.usize_in(0, n - 1) as u32))
            .collect(),
    };
    let singles: Vec<Option<String>> = ids.iter().map(|&id| store.content(id).unwrap()).collect();
    let batch = store.values(&ids).unwrap();
    assert_eq!(batch.len(), ids.len());
    let batch: Vec<Option<String>> = batch.iter().map(|v| v.map(str::to_owned)).collect();
    assert_eq!(batch, singles, "ids {ids:?}");
    // What the columns say has content is what the pages hold.
    let cols = store.columns();
    for (id, value) in ids.iter().zip(&singles) {
        let sym = cols
            .content_sym(*id)
            .map(|s| store.dict().resolve(xmlstore::Sym(s)));
        assert_eq!(sym.as_deref(), value.as_deref(), "row {id:?}");
    }
    match store.values(&[NodeId(0), NodeId(n as u32)]) {
        Err(xmlstore::StoreError::NodeOutOfBounds { node, .. }) => assert_eq!(node, n as u32),
        other => panic!("an id past the last row: {other:?}"),
    }
}

#[test]
fn batched_reads_equal_single_reads() {
    check("batched_reads_equal_single_reads", 48, |g| {
        let pool = *g.pick(&[1, 4, 4096]);
        let opts = StoreOptions::in_memory().with_pool_pages(pool);
        let store = DocumentStore::create(&opts).unwrap();
        let mut docs = Vec::new();
        for step in 0..g.usize_in(1, 6) {
            let xml = values_doc(g, step == 1);
            let doc = parse_document(&xml).unwrap();
            match (docs.is_empty(), g.usize_in(0, 3)) {
                (false, 0) => {
                    let victim = docs.swap_remove(g.usize_in(0, docs.len() - 1));
                    store.delete_document(victim).unwrap();
                }
                (false, 1) => {
                    let at = g.usize_in(0, docs.len() - 1);
                    docs[at] = store.replace_document(docs[at], &doc).unwrap();
                }
                _ => docs.push(store.insert_document(&doc).unwrap()),
            }
            assert_batch_equals_singles(g, &store);
        }
    });
}

#[test]
fn a_pinned_snapshot_reads_a_replaced_documents_values() {
    // The pin's location array lives by refcount and its pages sit in
    // limbo: neither the commit that replaces the document, nor a
    // checkpoint, nor later inserts hungry for pages take its values away.
    let store = DocumentStore::create(&StoreOptions::in_memory().with_pool_pages(2)).unwrap();
    let long = "Grouping in XML ".repeat(1200);
    let first = store
        .insert_xml(&format!("<a k=\"v\"><b>old</b><c>{long}</c></a>"))
        .unwrap();
    store.insert_xml("<a><b>other</b></a>").unwrap();
    let pin = store.snapshot();
    let read = |s: &DocumentStore| -> Vec<Option<String>> {
        let ids: Vec<NodeId> = (0..s.node_count()).map(NodeId).collect();
        let values = s.values(&ids).unwrap();
        values.iter().map(|v| v.map(str::to_owned)).collect()
    };
    let before = read(&pin);
    assert!(before.contains(&Some(long.clone())) && before.contains(&Some("old".to_owned())));

    let new = parse_document("<a><b>new</b></a>").unwrap();
    store.replace_document(first, &new).unwrap();
    store.checkpoint().unwrap();
    for _ in 0..3 {
        store.insert_xml(&format!("<z>{long}</z>")).unwrap();
    }
    assert_eq!(read(&pin), before);
    let now = read(&store.snapshot());
    assert!(now.contains(&Some("new".to_owned())) && !now.contains(&Some("old".to_owned())));
}

/// The SUM rollup of the names test: one group per author, summing the
/// years of the author's articles.
const QUERY_SUM: &str = r#"
    FOR $a IN distinct-values(document("bib.xml")//author)
    LET $y := document("bib.xml")//article[author = $a]/year
    RETURN <total> {$a} {sum($y)} </total>
"#;

/// `n` authors with one article each, of two years `i` and `0.5`: every
/// group's sum `i.5` is a string no document holds, so the result writes
/// `n` distinct constructed values. Returns the XML and the result's
/// bytes, built without the engine.
fn distinct_sums(n: usize) -> (String, String) {
    let mut xml = String::from("<bib>");
    let mut want = String::new();
    for i in 0..n {
        let author = format!("<author>a{i}</author>");
        xml.push_str(&format!(
            "<article>{author}<year>{i}</year><year>0.5</year></article>"
        ));
        want.push_str(&format!("<total>{author}<sum>{i}.5</sum></total>\n"));
    }
    xml.push_str("</bib>");
    (xml, want)
}

/// A document of `n` distinct element names, `<t0>`…, each with an
/// attribute and a number, and a group over it with `n` more: `n`
/// aggregates of the one member, each appending its own constructed
/// name — `c0`… holding the sum of `t0`… — beside a shallow key `t0` and
/// the document whole. Returns the store, the group, and its DOM built
/// from the names alone.
fn wide_tree(n: usize) -> (DocumentStore, Batch, Element) {
    let mut doc = Element::new("doc");
    for i in 0..n {
        let mut t = Element::new(format!("t{i}")).with_text(format!("{i}"));
        t.attributes.push((format!("a{i}"), format!("{i}")));
        doc.children.push(XmlNode::Element(t));
    }
    let store = store_of(&element_to_string(&doc));
    let mut p = PatternTree::with_root(Pred::tag("doc"));
    let t0 = p.add_child(0, Axis::Child, Pred::tag("t0"));
    let root = Batch::Stored(vec![store.columns().entry(NodeId(1))]);
    let Batch::Groups(mut group) = groupby(&store, &root, &p, &[BasisItem::content(t0)], &[])
        .unwrap()
        .0
    else {
        panic!("groupby emits groups")
    };
    let mut want = Element::new(GROUP_ROOT)
        .with_child(Element::new(GROUPING_BASIS).with_child(shallow_of(doc.child("t0").unwrap())))
        .with_child(Element::new(GROUP_SUBROOT).with_child(doc.clone()));
    for i in 0..n {
        let mut ap = PatternTree::with_root(Pred::tag(GROUP_ROOT));
        let subroot = ap.add_child(0, Axis::Child, Pred::tag(GROUP_SUBROOT));
        let member = ap.add_child(subroot, Axis::Child, Pred::tag("doc"));
        let leaf = ap.add_child(member, Axis::Child, Pred::tag(format!("t{i}")));
        let tag = format!("c{i}");
        let spec = UpdateSpec::AfterLastChild(0);
        group = aggregate(&store, group, &ap, AggFunc::Sum, leaf, &tag, spec).unwrap();
        want.children.push(XmlNode::Element(
            Element::new(tag).with_text(format!("{i}")),
        ));
    }
    (store, Batch::Groups(group), want)
}

#[test]
fn many_distinct_names_and_values_stream_like_their_oracle() {
    // The hand-built bytes are the model's (checked on a small case).
    let (small, want) = distinct_sums(40);
    assert_eq!(expected(&small, QUERY_SUM), want);

    let (xml, want) = distinct_sums(10_000);
    let db = TimberDb::load_xml(&xml, &StoreOptions::in_memory()).unwrap();
    assert!(db.explain(QUERY_SUM).unwrap().contains("Rollup Sum"));
    let r = db.query(QUERY_SUM, PlanMode::GroupByRewrite).unwrap();
    assert_eq!(r.len(), 10_000);
    assert_eq!(r.to_xml_on(db.store()).unwrap(), want);
    assert_eq!(dom_route(&r, db.store()), want, "DOM route");

    // 70 stored and 70 constructed names in one tree.
    let (store, wide, dom) = wide_tree(70);
    assert_parity(&store, &wide, &[dom], "wide");
}

#[test]
fn interning_beside_the_write_changes_no_byte() {
    // `serve` interns beside readers: a writer must hold no dictionary
    // lock across a write, and fresh symbols must not disturb the names
    // it has resolved.
    let (xml, want) = distinct_sums(10_000);
    let db = TimberDb::load_xml(&xml, &StoreOptions::in_memory()).unwrap();
    let r = db.query(QUERY_SUM, PlanMode::GroupByRewrite).unwrap();
    let (store, group, dom) = wide_tree(70);
    let wide = element_to_string(&dom) + "\n";
    let stop = AtomicBool::new(false);
    let interned = std::thread::scope(|s| {
        let dicts = [db.store().dict(), store.dict()];
        let stop = &stop;
        let interner = s.spawn(move || {
            let mut n = 0u64;
            while !stop.load(Ordering::Relaxed) {
                for dict in dicts {
                    dict.intern(&format!("fresh {n}"));
                }
                n += 1;
            }
            n
        });
        for _ in 0..3 {
            assert_eq!(r.to_xml_on(db.store()).unwrap(), want);
            assert_eq!(dom_route(&r, db.store()), want);
            assert_eq!(streamed(&group, &store), wide);
            assert_eq!(
                materialize_all(&store, &group).unwrap(),
                std::slice::from_ref(&dom)
            );
        }
        stop.store(true, Ordering::Relaxed);
        interner.join().unwrap()
    });
    assert!(interned > 0);
}
