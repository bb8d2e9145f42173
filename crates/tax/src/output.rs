//! Output population (Sec. 5.3): a batch's rows written as XML.
//!
//! No operator builds a tree: rows hold node identifiers, and data
//! pages are touched only when a result is written. Population walks
//! each result once, recording a chunk of results on a [`Tape`]: its
//! events, and the stored rows whose values it writes. One batched read
//! fetches those rows ([`DocumentStore::values`]) and a [`RowWriter`]
//! replays the tape, as XML text ([`write_xml_lines`]) or as the DOM
//! elements of the same bytes ([`materialize_all`]). What a row records
//! is the batch's business ([`Results`] for [`Batch`](crate::Batch)):
//! constructed elements are recorded from their symbols, and a stored
//! node goes through the store's walk over its label columns
//! ([`DocumentStore::emit_open`]). Only name pages are requested, each
//! once a chunk.

use crate::error::Result;
use xmlparse::{Element, ElementBuilder, XmlSink, XmlWriter};
use xmlstore::{DocumentStore, RowWriter, Tape};

/// Results that output population writes, one at a time: the rows of a
/// [`Batch`](crate::Batch), or of a [`Rows`](crate::batch::Rows).
pub trait Results {
    /// Number of results.
    fn count(&self) -> usize;

    /// Record result `i` on `out`, closed.
    fn emit(&self, store: &DocumentStore, i: usize, out: &mut Tape) -> Result<()>;
}

/// Stored values, and events, a chunk of output may record before it is
/// fetched and written (it closes at the first result boundary past
/// either): memory is bounded by the chunk's tape and value arena, not
/// by the result — the event bound keeps a result of constructed
/// elements alone bounded too — and each chunk reads a name page once
/// however results order it.
const CHUNK_VALUES: usize = 1 << 16;
const CHUNK_EVENTS: usize = 1 << 18;
const CHUNK: (usize, usize) = (CHUNK_VALUES, CHUNK_EVENTS);

/// Output population (Sec. 5.3) of `results` into `sink`, a chunk at a
/// time: walk the chunk's results once onto a tape (no output, no page),
/// fetch the tape's stored values in one batched read, then replay the
/// tape, calling `after_each` where a result ends. A chunk closes at
/// `bounds` = (values, events). Every chunk sees the projection pinned
/// here. Returns the number of chunks written.
fn populate<S: XmlSink, R: Results>(
    store: &DocumentStore,
    results: &R,
    sink: &mut S,
    mut after_each: impl FnMut(&mut S),
    bounds: (usize, usize),
) -> Result<usize> {
    let store = &store.snapshot();
    let mut out = RowWriter::new(store.dict(), sink);
    let mut tape = Tape::default();
    let mut chunks = 0;
    for i in 0..results.count() {
        results.emit(store, i, &mut tape)?;
        tape.end_tree();
        let full = tape.rows().len() >= bounds.0 || tape.events() >= bounds.1;
        if full || i + 1 == results.count() {
            let values = store.values(tape.rows())?;
            out.replay(&tape, &values, &mut after_each);
            tape.clear();
            chunks += 1;
        }
    }
    Ok(chunks)
}

/// Append the XML text of `results` to `out`, one result per line.
pub fn write_xml_lines<R: Results>(
    store: &DocumentStore,
    results: &R,
    out: &mut String,
) -> Result<()> {
    let newline = |text: &mut XmlWriter| text.text("\n");
    populate(store, results, &mut XmlWriter::new(out), newline, CHUNK).map(drop)
}

/// Materialize every result of `results` as a DOM element.
pub fn materialize_all<R: Results>(store: &DocumentStore, results: &R) -> Result<Vec<Element>> {
    let mut out = Vec::with_capacity(results.count());
    let finish = |dom: &mut ElementBuilder| out.push(std::mem::take(dom).finish());
    populate(store, results, &mut ElementBuilder::new(), finish, CHUNK)?;
    Ok(out)
}

/// `results` written, one string a result.
#[cfg(test)]
pub(crate) fn lines<R: Results>(store: &DocumentStore, results: &R) -> Vec<String> {
    let mut text = String::new();
    write_xml_lines(store, results, &mut text).unwrap();
    text.lines().map(str::to_owned).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{Batch, Cell, Matches, Rows};
    use crate::pattern::{Axis, PatternTree, Pred};
    use smallrand::prop::Gen;
    use std::fmt::Write as _;
    use xmlparse::serialize::element_to_string;
    use xmlstore::{FaultConfig, StoreOptions};

    fn store() -> DocumentStore {
        DocumentStore::from_xml(
            "<bib><article year=\"1999\"><title>Querying XML</title><author>Jack</author></article></bib>",
            &StoreOptions::in_memory(),
        )
        .unwrap()
    }

    #[test]
    fn deep_ref_materializes_stored_subtree() {
        let s = store();
        let article = s.tag_id("article").unwrap();
        let node = s.nodes_with_tag(article)[0];
        let elem = materialize_all(&s, &Batch::Stored(vec![node]))
            .unwrap()
            .remove(0);
        assert_eq!(elem.name, "article");
        assert_eq!(elem.attr("year"), Some("1999"));
        assert_eq!(elem.children_named("author").count(), 1);
    }

    #[test]
    fn shallow_ref_keeps_only_node_and_witness_children() {
        // Witness-tree shape: article (shallow) with author (shallow)
        // child. The shallow article keeps its attributes but not the
        // title child.
        let s = store();
        let mut p = PatternTree::with_root(Pred::tag("article"));
        p.add_child(p.root(), Axis::Child, Pred::tag("author"));
        let witness = Batch::Matches(Matches::select(&s, &p, &[]).unwrap());
        assert_eq!(
            lines(&s, &witness),
            ["<article year=\"1999\"><author>Jack</author></article>"]
        );
    }

    #[test]
    fn tag_and_content_of_refs() {
        // A shallow reference writes its stored node's tag and content.
        let s = store();
        let p = PatternTree::with_root(Pred::tag("title"));
        let title = Batch::Matches(Matches::select(&s, &p, &[]).unwrap());
        assert_eq!(lines(&s, &title), ["<title>Querying XML</title>"]);
    }

    #[test]
    fn elem_content_materializes_as_text() {
        let s = store();
        let d = s.dict();
        let mut rows = Rows::new(d.intern("authorpubs"));
        let (tag, content) = (d.intern("author"), Some(d.intern("Jack")));
        rows.push([Cell::Elem { tag, content }]);
        let e = materialize_all(&s, &rows).unwrap().remove(0);
        assert_eq!(e.child("author").unwrap().text(), "Jack");
    }

    /// A random bibliography of `articles` articles: authors from a pool
    /// of five, attributes on some articles (one with escaped quotes),
    /// titles that need escaping, mixed content in some.
    fn bibliography(g: &mut Gen, articles: usize) -> String {
        const POOL: [&str; 5] = ["Jack", "Jill", "John", "Jane", "Joan"];
        let mut s = String::from("<bib>");
        for n in 0..articles {
            s.push_str("<article");
            if g.bool() {
                let _ = write!(s, " year=\"{}\"", 1999 + n % 3);
            }
            if g.ratio(1, 4) {
                s.push_str(" key=\"a&amp;b &quot;q&quot;\"");
            }
            s.push('>');
            for _ in 0..g.usize_in(1, 3) {
                let _ = write!(s, "<author>{}</author>", g.pick(&POOL));
            }
            let word = g.ident(12);
            let _ = write!(s, "<title>Title {n}: &lt;{word}&gt; &amp; more</title>");
            if g.ratio(1, 3) {
                s.push_str("<note>see <i>this</i> too</note>");
            }
            s.push_str("</article>");
        }
        s.push_str("</bib>");
        s
    }

    /// Several batches written as one list of results, so one chunk
    /// can hold rows of every kind.
    struct Concat(Vec<Batch>);

    impl Results for Concat {
        fn count(&self) -> usize {
            self.0.iter().map(Batch::len).sum()
        }

        fn emit(&self, store: &DocumentStore, mut i: usize, out: &mut Tape) -> Result<()> {
            for batch in &self.0 {
                if i < batch.len() {
                    return batch.emit(store, i, out);
                }
                i -= batch.len();
            }
            unreachable!("result {i} past the last batch")
        }
    }

    /// Query 1's output shape over `s`, and stored rows of every kind:
    /// per author, `<authorpubs>` holding the name and a deep reference
    /// to its article; per article, a deep reference; per article and
    /// author, a shallow article holding the author whole.
    fn result_of(s: &DocumentStore) -> Concat {
        let (article, author) = (s.tag_id("article").unwrap(), s.tag_id("author").unwrap());
        let mut authorpubs = Rows::new(s.dict().intern("authorpubs"));
        for a in s.nodes_with_tag(author) {
            let content = Some(s.content_sym(a.id).unwrap());
            let parent = s.parent(a.id).unwrap().unwrap();
            let node = s.entry(parent).unwrap();
            authorpubs.push([
                Cell::Elem {
                    tag: author,
                    content,
                },
                Cell::Ref { node, deep: true },
            ]);
        }
        let mut p = PatternTree::with_root(Pred::tag("article"));
        let by = p.add_child(p.root(), Axis::Child, Pred::tag("author"));
        Concat(vec![
            Batch::Rows(authorpubs),
            Batch::Stored(s.nodes_with_tag(article).to_vec()),
            Batch::Matches(Matches::select(s, &p, &[by]).unwrap()),
        ])
    }

    /// `results` populated at `bounds` by both routes: the text, one
    /// result a line, and the DOM elements — which must serialize to that
    /// text — with the number of chunks written.
    fn populate_with<R: Results>(
        s: &DocumentStore,
        results: &R,
        bounds: (usize, usize),
    ) -> (String, Vec<Element>, usize) {
        let mut text = String::new();
        let newline = |w: &mut XmlWriter| w.text("\n");
        let chunks = populate(s, results, &mut XmlWriter::new(&mut text), newline, bounds).unwrap();
        let mut dom = Vec::new();
        let finish = |b: &mut ElementBuilder| dom.push(std::mem::take(b).finish());
        let dom_chunks = populate(s, results, &mut ElementBuilder::new(), finish, bounds).unwrap();
        assert_eq!(dom_chunks, chunks);
        let lines: String = dom.iter().map(|e| element_to_string(e) + "\n").collect();
        assert_eq!(lines, text, "the DOM route at {chunks} chunks");
        (text, dom, chunks)
    }

    /// [`populate_with`]'s text and chunk count.
    fn populate_at<R: Results>(
        s: &DocumentStore,
        results: &R,
        bounds: (usize, usize),
    ) -> (String, usize) {
        let (text, _, chunks) = populate_with(s, results, bounds);
        (text, chunks)
    }

    /// Every bound of 1, 2, 3 and 7 values, or events, writes the bytes
    /// of one chunk, in as many chunks as the bound asks for.
    fn assert_chunkings_agree<R: Results>(s: &DocumentStore, results: &R) {
        let (one, chunks) = populate_at(s, results, CHUNK);
        assert_eq!(chunks, 1);
        let stored = (0..results.count()).any(|i| {
            let mut tape = Tape::default();
            results.emit(s, i, &mut tape).unwrap();
            !tape.rows().is_empty()
        });
        for bound in [1, 2, 3, 7] {
            let (text, chunks) = populate_at(s, results, (bound, usize::MAX));
            assert_eq!(text, one, "{bound} values a chunk");
            assert_eq!(chunks > 1, stored, "{chunks} chunks at {bound} values");
            let (text, chunks) = populate_at(s, results, (usize::MAX, bound));
            assert_eq!(text, one, "{bound} events a chunk");
            let split = chunks > 1 && (bound > 1 || chunks == results.count());
            assert!(split, "{chunks} chunks at {bound} events");
        }
    }

    #[test]
    fn every_chunking_writes_the_bytes_of_one_chunk() {
        let fig6 = "<bib>\
            <article><author>Jack</author><author>John</author><title>Querying XML</title></article>\
            <article><author>Jill</author><author>Jack</author><title>XML and the Web</title></article>\
            <article><author>John</author><title>Hack HTML</title></article>\
        </bib>";
        let random = bibliography(&mut Gen::new(32), 9);
        for xml in [fig6, &random] {
            let s = DocumentStore::from_xml(xml, &StoreOptions::in_memory()).unwrap();
            assert_chunkings_agree(&s, &result_of(&s));
        }
        // Constructed elements alone read no value: only the event bound
        // splits them.
        let s = store();
        let d = s.dict();
        let mut constructed = Rows::new(d.intern("row"));
        for i in 0..6 {
            let content = Some(d.intern(&format!("{i} & <{i}>")));
            constructed.push([Cell::Elem {
                tag: d.intern("n"),
                content,
            }]);
        }
        assert_chunkings_agree(&s, &constructed);
    }

    /// Query 1, its count variant and `CUBE BY $b/author, $b/title`
    /// over `s` as both plans' output operators emit them, renamed as
    /// the plans do: the GROUPBY plans' gather, flat fold and lattice over
    /// the scan's stored rows, and the direct plans' stitch over the
    /// distinct authors and their join with the articles.
    fn paper_outputs(s: &DocumentStore) -> Vec<(&'static str, Batch)> {
        use crate::batch::Matches;
        use crate::ops::groupby::gather;
        use crate::ops::join::{stitch, Members};
        use crate::ops::{cube, dup_elim, left_outer_join_db, rename_root, rollup};
        use crate::ops::{AggFunc, BasisItem, RollupShape};
        use crate::pattern::{Axis, PatternTree, Pred};
        let tag = |t: &str| Pred::tag(t);
        let articles = Batch::Stored(s.nodes_with_tag(s.tag_id("article").unwrap()).to_vec());
        let mut scan = PatternTree::with_root(tag("article"));
        let author = scan.add_child(0, Axis::Child, tag("author"));
        let title = scan.add_child(0, Axis::Child, tag("title"));
        let by_author = [BasisItem::content(author)];
        let mut titled = PatternTree::with_root(tag("article"));
        let t = titled.add_child(0, Axis::Child, tag("title"));
        let (gathered, _) = gather(s, &articles, &scan, &by_author, &[], (&titled, t)).unwrap();
        let count = AggFunc::Count;
        let flat = RollupShape::Flat;
        let (counted, _) = rollup(
            s, &articles, &scan, &by_author, &titled, t, count, "count", flat,
        )
        .unwrap();
        let lattice = [BasisItem::content(author), BasisItem::content(title)];
        let (cubed, _) = cube(s, &articles, &scan, &lattice, &titled, t, count, "count").unwrap();

        let mut outer = PatternTree::with_root(tag("doc_root"));
        outer.add_child(0, Axis::Descendant, tag("author"));
        let scanned = Batch::Matches(Matches::select(s, &outer, &[1]).unwrap());
        let authors = dup_elim(s, scanned, &outer, 1).unwrap();
        let mut right = PatternTree::with_root(tag("doc_root"));
        let article = right.add_child(0, Axis::Descendant, tag("article"));
        let joined = right.add_child(article, Axis::Child, tag("author"));
        let extract = right.add_child(article, Axis::Child, tag("title"));
        let pairs = left_outer_join_db(s, &authors, &outer, 1, &right, joined, &[article]).unwrap();
        let members = Members::new(&right, &[article], extract, None).unwrap();
        let inner = Some((&pairs, &members));
        let direct = |agg| stitch(s, &authors, &outer, 1, inner, agg, "authorpubs").unwrap();
        let renamed = |out, tag| rename_root(s.dict(), out, tag).unwrap();
        vec![
            ("Query 1, GROUPBY", renamed(gathered, "authorpubs")),
            ("Query 1, direct", Batch::Rows(direct(None))),
            ("count, GROUPBY", renamed(counted, "authorpubs")),
            ("count, direct", Batch::Rows(direct(Some((count, "count"))))),
            ("CUBE BY", renamed(cubed, "pubs")),
        ]
    }

    #[test]
    fn paper_outputs_write_the_bytes_of_one_chunk_at_every_bound() {
        // At every chunking — 1, 2, 3, 7 values or events a chunk — both
        // plans' rows write the bytes, and the DOM elements, they write
        // in one chunk.
        let bounds = [1, 2, 3, 7].map(|b| [(b, usize::MAX), (usize::MAX, b)]);
        for seed in 0..6 {
            let xml = bibliography(&mut Gen::new(seed), 2 + seed as usize * 3);
            let s = DocumentStore::from_xml(&xml, &StoreOptions::in_memory()).unwrap();
            for (what, out) in paper_outputs(&s) {
                let Batch::Rows(rows) = out else {
                    panic!("{what}: {out:?}")
                };
                assert!(!rows.is_empty(), "{what} over {xml}");
                let (want, want_dom, _) = populate_with(&s, &rows, CHUNK);
                for at in bounds.concat() {
                    let (text, dom, _) = populate_with(&s, &rows, at);
                    assert_eq!(text, want, "{what} at {at:?} over {xml}");
                    assert_eq!(dom, want_dom, "{what} at {at:?}");
                }
            }
        }
    }

    #[test]
    fn a_read_fault_in_the_second_chunk_keeps_the_first_chunks_text() {
        // One pool frame, values on several name pages, a row a chunk:
        // the first and the last article, so the second chunk needs a
        // page the first did not leave in the pool.
        let xml = bibliography(&mut Gen::new(7), 600);
        let opts = StoreOptions::in_memory().with_pool_pages(1);
        let s = DocumentStore::from_xml(&xml, &opts).unwrap();
        assert!(s.name_pages() > 1, "{} name pages", s.name_pages());
        let articles = s.nodes_with_tag(s.tag_id("article").unwrap());
        let rows = Batch::Stored(vec![articles[0], articles[articles.len() - 1]]);
        let bounds = (usize::MAX, 1);
        let (reference, chunks) = populate_at(&s, &rows, bounds);
        assert_eq!(chunks, 2);

        // Every read after the first chunk's fails.
        s.clear_buffer_pool().unwrap();
        let before = s.io_stats().disk.reads;
        let mut first = String::new();
        write_xml_lines(&s, &Batch::Stored(vec![articles[0]]), &mut first).unwrap();
        let reads = s.io_stats().disk.reads - before;
        s.clear_buffer_pool().unwrap();
        let faults = FaultConfig::seeded(3)
            .with_read_error(1.0)
            .with_after_ops(reads);
        s.inject_faults(Some(faults)).unwrap();
        let mut text = String::from("kept|");
        let newline = |w: &mut XmlWriter| w.text("\n");
        let err = populate(&s, &rows, &mut XmlWriter::new(&mut text), newline, bounds);
        assert!(
            matches!(err, Err(crate::Error::Store(ref e)) if e.is_transient()),
            "{err:?}"
        );
        assert_eq!(text, format!("kept|{first}"));
        s.inject_faults(None).unwrap();
        assert_eq!(populate_at(&s, &rows, bounds).0, reference);
    }
}
