//! The loader: one document's element events → its rows as columns
//! ([`DocColumns`]: a (tag, kind) table, and per row the pair's index,
//! the content symbol, the level and the labels), ready for a commit to
//! encode the node run and place it. A document with more distinct
//! (tag, kind) pairs than a row can name is [`StoreError::TooManyTags`].
//!
//! The loader is an [`XmlSink`]: the parser drives it straight from the
//! XML text ([`load_local`]), and a DOM a caller already holds replays
//! through it ([`build_local`]), so no DOM is built on the load path.
//! An element's text waits only until the element shows whether it has
//! element children; then it becomes the element's content (text-only)
//! or one `#text` leaf per run (mixed content). Whitespace-only text is
//! not stored: the data is data-centric, and the reference model's data
//! model drops it too. A value is interned, and a row keeps its symbol:
//! the commit that lands puts each name the store's pages do not hold
//! yet onto its run of name pages, once for the whole store.
//!
//! Names and values are interned as they arrive, so a document that
//! fails part-way (a syntax error, [`StoreError::ReservedTag`],
//! [`StoreError::ContentTooLong`]) may leave some in the dictionary, as
//! a failed commit does; the next commit that lands logs them.

use super::DOC_ROOT_TAG;
use crate::catalog::{attr_tag_name, TagId, TEXT_TAG};
use crate::dict::{Dictionary, NO_SYM};
use crate::error::{Result, StoreError};
use crate::heap::MAX_CONTENT_LEN;
use crate::node::{DocColumns, NodeKind, MAX_PAIRS};
use crate::page::PAGE_SIZE;
use std::collections::hash_map::{Entry, HashMap};
use xmlparse::XmlSink;

/// One encoded page, ready to be written at whatever id the allocator
/// hands out.
pub(super) type PageBuf = Box<[u8; PAGE_SIZE]>;

/// Parse `xml` straight into one document's rows (ids and labels
/// starting at 0, synthetic root excluded), ready to commit. A syntax
/// error wins over an error the loader met earlier in the same document.
pub(super) fn load_local(xml: &str, tags: &Dictionary) -> Result<DocColumns> {
    let mut loader = Loader::new(tags);
    xmlparse::parse_into(xml, &mut loader)?;
    loader.finish()
}

/// The rows of an already parsed document.
pub(super) fn build_local(doc: &xmlparse::Document, tags: &Dictionary) -> Result<DocColumns> {
    let mut loader = Loader::new(tags);
    doc.root().replay(&mut loader);
    loader.finish()
}

/// An element still open.
struct Frame {
    /// Its row.
    id: usize,
    level: u16,
    /// Whether an element child has opened inside it yet.
    has_element_child: bool,
}

struct Loader<'a> {
    rows: Rows<'a>,
    open: Vec<Frame>,
    /// The innermost open element's text, while it has no element
    /// child: its runs of text, one after another.
    pending: String,
    /// Where each run in `pending` ends.
    runs: Vec<usize>,
    /// The first error met; every later event is ignored.
    error: Option<StoreError>,
}

/// What the loader writes: rows and labels.
struct Rows<'a> {
    tags: &'a Dictionary,
    /// Where `cols.pairs` holds each (tag, kind) pair.
    pairs: HashMap<(TagId, NodeKind), u16>,
    cols: DocColumns,
    counter: u32,
}

impl XmlSink for Loader<'_> {
    fn open(&mut self, name: &str) {
        self.handle(|l| l.open_element(name));
    }

    /// Attributes are leaf nodes.
    fn attr(&mut self, name: &str, value: &str) {
        self.handle(|l| {
            let Some(frame) = l.open.last() else {
                return Ok(());
            };
            let tag = l.rows.tags.intern(&attr_tag_name(name));
            l.rows
                .leaf(tag, NodeKind::Attribute, frame.level + 1, value)
        });
    }

    fn text(&mut self, text: &str) {
        self.handle(|l| match l.open.last() {
            Some(frame) if frame.has_element_child => l.rows.text_leaf(frame.level + 1, text),
            Some(_) => {
                l.pending.push_str(text);
                l.runs.push(l.pending.len());
                Ok(())
            }
            None => Ok(()),
        });
    }

    fn close(&mut self, _name: &str) {
        self.handle(Loader::close_element);
    }
}

impl<'a> Loader<'a> {
    fn new(tags: &'a Dictionary) -> Self {
        Loader {
            rows: Rows {
                tags,
                pairs: HashMap::new(),
                cols: DocColumns::default(),
                counter: 0,
            },
            open: Vec::new(),
            pending: String::new(),
            runs: Vec::new(),
            error: None,
        }
    }

    /// Run one event's work unless an earlier one failed, and keep its
    /// error.
    fn handle(&mut self, event: impl FnOnce(&mut Self) -> Result<()>) {
        if self.error.is_none() {
            if let Err(e) = event(self) {
                self.error = Some(e);
            }
        }
    }

    /// An element named [`DOC_ROOT_TAG`] is refused: that tag names the
    /// synthetic root every stored node lies below.
    fn open_element(&mut self, name: &str) -> Result<()> {
        if name == DOC_ROOT_TAG {
            return Err(StoreError::ReservedTag { tag: DOC_ROOT_TAG });
        }
        let level = match self.open.last_mut() {
            Some(parent) => {
                if !parent.has_element_child {
                    // Mixed or element content: the parent's text so far
                    // becomes `#text` leaves ahead of this child.
                    parent.has_element_child = true;
                    let mut from = 0;
                    for &end in &self.runs {
                        self.rows
                            .text_leaf(parent.level + 1, &self.pending[from..end])?;
                        from = end;
                    }
                    self.pending.clear();
                    self.runs.clear();
                }
                parent.level + 1
            }
            None => 1,
        };
        let rows = &mut self.rows;
        self.open.push(Frame {
            id: rows.cols.index.len(),
            level,
            has_element_child: false,
        });
        let tag = rows.tags.intern(name);
        // The end is patched at close.
        rows.push(tag, NodeKind::Element, level, NO_SYM)?;
        rows.counter += 1;
        Ok(())
    }

    /// A text-only (or empty) element's text merges into the element.
    fn close_element(&mut self) -> Result<()> {
        let Some(frame) = self.open.pop() else {
            return Ok(());
        };
        let rows = &mut self.rows;
        if !frame.has_element_child {
            if !self.pending.trim().is_empty() {
                rows.cols.sym[frame.id] = rows.value(&self.pending)?;
            }
            self.pending.clear();
            self.runs.clear();
        }
        rows.cols.end[frame.id] = rows.counter;
        rows.counter += 1;
        Ok(())
    }

    /// The rows, or the first error met.
    fn finish(self) -> Result<DocColumns> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.rows.cols),
        }
    }
}

impl Rows<'_> {
    /// A `#text` leaf holding `text`, unless it is whitespace only.
    fn text_leaf(&mut self, level: u16, text: &str) -> Result<()> {
        if text.trim().is_empty() {
            return Ok(());
        }
        let tag = self.tags.intern(TEXT_TAG);
        self.leaf(tag, NodeKind::Text, level, text)
    }

    /// A leaf row — an attribute or a `#text` node — holding `text`.
    fn leaf(&mut self, tag: TagId, kind: NodeKind, level: u16, text: &str) -> Result<()> {
        let value = self.value(text)?;
        self.push(tag, kind, level, value)?;
        if let Some(end) = self.cols.end.last_mut() {
            *end = self.counter + 1;
        }
        self.counter += 2;
        Ok(())
    }

    /// A row opening at the label counter, its end 0, its value `sym`.
    fn push(&mut self, tag: TagId, kind: NodeKind, level: u16, sym: u32) -> Result<()> {
        let (next, pair) = (self.cols.pairs.len(), (tag, kind));
        // Documents hold a few pairs: a short scan first, no hash per row.
        let near = self.cols.pairs.iter().take(16).position(|&p| p == pair);
        let index = match near {
            Some(i) => i as u16,
            None => match self.pairs.entry(pair) {
                Entry::Occupied(at) => *at.get(),
                Entry::Vacant(_) if next == MAX_PAIRS => {
                    return Err(StoreError::TooManyTags { limit: MAX_PAIRS })
                }
                Entry::Vacant(at) => {
                    self.cols.pairs.push(pair);
                    *at.insert(next as u16)
                }
            },
        };
        let c = &mut self.cols;
        c.index.push(index);
        c.level.push(level);
        c.sym.push(sym);
        c.start.push(self.counter);
        c.end.push(0);
        Ok(())
    }

    /// The symbol of `text`, interned. An empty value has no symbol,
    /// so a row's symbol says "has content".
    fn value(&mut self, text: &str) -> Result<u32> {
        if text.len() > MAX_CONTENT_LEN {
            return Err(StoreError::ContentTooLong(text.len()));
        }
        Ok(match text {
            "" => NO_SYM,
            _ => self.tags.intern(text).0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::store;
    use super::super::{DocumentStore, StoreOptions};
    use crate::catalog::{attr_tag_name, TEXT_TAG};
    use crate::node::NodeKind;

    #[test]
    fn attribute_stored_as_node() {
        let s = store();
        let year = s.tag_id(&attr_tag_name("year")).unwrap();
        let entries = s.nodes_with_tag(year);
        assert_eq!(entries.len(), 1);
        assert_eq!(s.content(entries[0].id).unwrap().as_deref(), Some("1999"));
        let rec = s.record(entries[0].id).unwrap();
        assert_eq!(rec.kind, NodeKind::Attribute);
    }

    #[test]
    fn mixed_content_preserved() {
        let xml = "<p>Hello <b>bold</b> world</p>";
        let s = DocumentStore::from_xml(xml, &StoreOptions::in_memory()).unwrap();
        let p = s.tag_id("p").unwrap();
        let node = s.nodes_with_tag(p)[0];
        let elem = s.materialize(node.id).unwrap();
        assert_eq!(elem.deep_text(), "Hello bold world");
        let text_tag = s.tag_id(TEXT_TAG).unwrap();
        assert_eq!(s.nodes_with_tag(text_tag).len(), 2);
    }

    #[test]
    fn whitespace_only_text_is_not_stored() {
        // doc_root + a + b + c: no #text nodes around `b`, no content on `c`.
        let s = DocumentStore::from_xml("<a> <b/> <c> </c></a>", &StoreOptions::in_memory());
        let s = s.unwrap();
        assert_eq!(s.node_count(), 4);
        let c = s.nodes_with_tag(s.tag_id("c").unwrap())[0];
        assert_eq!(s.content(c.id).unwrap(), None);
    }

    #[test]
    fn very_long_content_spans_heap_pages() {
        let long_title = "Grouping in XML ".repeat(1200); // ~19 KB > 2 pages
        let xml = format!("<bib><article><title>{long_title}</title></article></bib>");
        let s = DocumentStore::from_xml(&xml, &StoreOptions::in_memory()).unwrap();
        let title = s.tag_id("title").unwrap();
        let t = s.nodes_with_tag(title)[0];
        assert_eq!(
            s.content(t.id).unwrap().as_deref(),
            Some(long_title.as_str())
        );
        // The name pages need at least three pages for this value.
        assert!(s.total_pages() >= 3);
    }

    #[test]
    fn many_nodes_span_pages() {
        // More than the 1 023 rows a page holds at eight bytes a row
        // forces a multi-page node run.
        let mut xml = String::from("<bib>");
        for i in 0..600 {
            xml.push_str(&format!("<article><title>T{i}</title></article>"));
        }
        xml.push_str("</bib>");
        let s = DocumentStore::from_xml(&xml, &StoreOptions::in_memory()).unwrap();
        assert_eq!(s.node_count(), 1202);
        assert_eq!(s.total_pages() - s.name_pages(), 2);
        let title = s.tag_id("title").unwrap();
        let last = s.nodes_with_tag(title)[599];
        assert_eq!(s.content(last.id).unwrap().as_deref(), Some("T599"));
    }
}
