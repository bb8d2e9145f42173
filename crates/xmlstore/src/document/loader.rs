//! The loader: one parsed document → local node records, encoded heap
//! and node pages, and content symbols, ready for a commit to place.
//! Whitespace-only text is not stored: the data is data-centric, and
//! the reference model's data model drops it too.

use crate::catalog::{attr_tag_name, TEXT_TAG};
use crate::dict::{Dictionary, NO_SYM};
use crate::error::Result;
use crate::heap::HeapBuilder;
use crate::node::{ContentPtr, NodeKind, NodeRecord, NO_PARENT, RECORDS_PER_PAGE, RECORD_SIZE};
use crate::page::{PAGE_HEADER_SIZE, PAGE_SIZE};

/// One encoded page, ready to be written at whatever id the allocator
/// hands out.
pub(super) type PageImage = Box<[u8; PAGE_SIZE]>;

/// One document built in memory, ready to commit: local records (ids and
/// labels starting at 0, synthetic root excluded), their content symbols,
/// and the encoded pages.
pub(super) struct LocalDoc {
    pub records: Vec<NodeRecord>,
    pub heap_pages: Vec<PageImage>,
    pub node_pages: Vec<PageImage>,
    /// Per-record content symbol ([`NO_SYM`] when the record has none),
    /// parallel to `records`.
    pub content_syms: Vec<u32>,
    pub span: u32,
}

pub(super) fn build_local(doc: &xmlparse::Document, tags: &Dictionary) -> Result<LocalDoc> {
    let mut heap = HeapBuilder::new();
    let mut records: Vec<NodeRecord> = Vec::new();
    let mut content_syms: Vec<u32> = Vec::new();
    let mut counter: u32 = 0;
    let mut loader = Loader {
        tags,
        heap: &mut heap,
        records: &mut records,
        content_syms: &mut content_syms,
        counter: &mut counter,
    };
    loader.load_element(doc.root(), NO_PARENT, 1)?;
    let span = counter;

    let heap_pages = heap.into_pages();
    let mut node_pages = Vec::with_capacity(records.len().div_ceil(RECORDS_PER_PAGE));
    for chunk in records.chunks(RECORDS_PER_PAGE) {
        let mut page = Box::new([0u8; PAGE_SIZE]);
        for (slot, rec) in chunk.iter().enumerate() {
            let at = PAGE_HEADER_SIZE + slot * RECORD_SIZE;
            rec.encode(&mut page[at..at + RECORD_SIZE]);
        }
        node_pages.push(page);
    }
    Ok(LocalDoc {
        records,
        heap_pages,
        node_pages,
        content_syms,
        span,
    })
}

struct Loader<'a> {
    tags: &'a Dictionary,
    heap: &'a mut HeapBuilder,
    records: &'a mut Vec<NodeRecord>,
    /// Parallel to `records`: the content symbol of each record
    /// ([`NO_SYM`] when it has none).
    content_syms: &'a mut Vec<u32>,
    counter: &'a mut u32,
}

impl Loader<'_> {
    /// DFS over the DOM assigning local ids, labels, and content.
    fn load_element(&mut self, elem: &xmlparse::Element, parent: u32, level: u16) -> Result<u32> {
        let id = self.records.len() as u32;
        let tag = self.tags.intern(&elem.name);
        let start = *self.counter;
        *self.counter += 1;
        self.records.push(NodeRecord {
            tag,
            start,
            end: 0, // patched at exit
            parent,
            level,
            kind: NodeKind::Element,
            content: ContentPtr::NULL,
        });
        self.content_syms.push(NO_SYM);

        // Attributes as leaf nodes.
        for (name, value) in &elem.attributes {
            let attr_tag = self.tags.intern(&attr_tag_name(name));
            let s = *self.counter;
            *self.counter += 1;
            let e = *self.counter;
            *self.counter += 1;
            let content = self.heap.append(value)?;
            self.records.push(NodeRecord {
                tag: attr_tag,
                start: s,
                end: e,
                parent: id,
                level: level + 1,
                kind: NodeKind::Attribute,
                content,
            });
            // An empty value has no heap bytes (`ContentPtr::NULL`), and
            // `open` rebuilds the column from the pointers: no symbol
            // either, so the column says "has content" exactly when the
            // pages do.
            self.content_syms.push(if value.is_empty() {
                NO_SYM
            } else {
                self.tags.intern(value).0
            });
        }

        let has_element_children = elem
            .children
            .iter()
            .any(|c| matches!(c, xmlparse::XmlNode::Element(_)));

        if has_element_children {
            // Mixed or element content: text children become #text nodes.
            for child in &elem.children {
                match child {
                    xmlparse::XmlNode::Element(e) => {
                        self.load_element(e, id, level + 1)?;
                    }
                    xmlparse::XmlNode::Text(t) => {
                        if t.trim().is_empty() {
                            continue;
                        }
                        let text_tag = self.tags.intern(TEXT_TAG);
                        let s = *self.counter;
                        *self.counter += 1;
                        let e = *self.counter;
                        *self.counter += 1;
                        let content = self.heap.append(t)?;
                        self.records.push(NodeRecord {
                            tag: text_tag,
                            start: s,
                            end: e,
                            parent: id,
                            level: level + 1,
                            kind: NodeKind::Text,
                            content,
                        });
                        self.content_syms.push(self.tags.intern(t).0);
                    }
                    xmlparse::XmlNode::Comment(_) => {}
                }
            }
        } else {
            // Text-only (or empty) content merges into the element.
            let text = elem.text();
            if !text.trim().is_empty() {
                let content = self.heap.append(&text)?;
                self.records[id as usize].content = content;
                self.content_syms[id as usize] = self.tags.intern(&text).0;
            }
        }

        let end = *self.counter;
        *self.counter += 1;
        self.records[id as usize].end = end;
        Ok(id)
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::store;
    use super::super::{DocumentStore, StoreOptions};
    use crate::catalog::TEXT_TAG;
    use crate::node::NodeKind;

    #[test]
    fn attribute_stored_as_node() {
        let s = store();
        let year = s.attr_tag_id("year").unwrap();
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
        // The heap needs at least three pages for this value.
        assert!(s.total_pages() >= 3);
    }

    #[test]
    fn many_nodes_span_pages() {
        // More than RECORDS_PER_PAGE nodes forces multi-page layout.
        let mut xml = String::from("<bib>");
        for i in 0..300 {
            xml.push_str(&format!("<article><title>T{i}</title></article>"));
        }
        xml.push_str("</bib>");
        let s = DocumentStore::from_xml(&xml, &StoreOptions::in_memory()).unwrap();
        assert_eq!(s.node_count(), 602);
        assert!(s.total_pages() > 2);
        let title = s.tag_id("title").unwrap();
        let last = s.nodes_with_tag(title)[299];
        assert_eq!(s.content(last.id).unwrap().as_deref(), Some("T299"));
    }
}
