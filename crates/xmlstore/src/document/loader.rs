//! The loader: one parsed document → local node records, each carrying
//! its content symbol, and encoded heap and node pages, ready for a
//! commit to place. Whitespace-only text is not stored: the data is
//! data-centric, and the reference model's data model drops it too.

use super::DOC_ROOT_TAG;
use crate::catalog::{attr_tag_name, TagId, TEXT_TAG};
use crate::dict::{Dictionary, NO_SYM};
use crate::error::{Result, StoreError};
use crate::heap::HeapBuilder;
use crate::node::{ContentPtr, NodeKind, NodeRecord, RECORDS_PER_PAGE, RECORD_SIZE};
use crate::page::{PAGE_HEADER_SIZE, PAGE_SIZE};

/// One encoded page, ready to be written at whatever id the allocator
/// hands out.
pub(super) type PageImage = Box<[u8; PAGE_SIZE]>;

/// One document built in memory, ready to commit: local records (ids and
/// labels starting at 0, synthetic root excluded) and the encoded pages.
pub(super) struct LocalDoc {
    pub records: Vec<NodeRecord>,
    pub heap_pages: Vec<PageImage>,
    pub node_pages: Vec<PageImage>,
    pub span: u32,
}

pub(super) fn build_local(doc: &xmlparse::Document, tags: &Dictionary) -> Result<LocalDoc> {
    let mut loader = Loader {
        tags,
        heap: HeapBuilder::new(),
        records: Vec::new(),
        counter: 0,
    };
    loader.load_element(doc.root(), 1)?;
    let Loader {
        heap,
        records,
        counter: span,
        ..
    } = loader;

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
        span,
    })
}

struct Loader<'a> {
    tags: &'a Dictionary,
    heap: HeapBuilder,
    records: Vec<NodeRecord>,
    counter: u32,
}

impl Loader<'_> {
    /// DFS over the DOM assigning local ids, labels, and content. An
    /// element named [`DOC_ROOT_TAG`] is refused: that tag names the
    /// synthetic root every stored node lies below.
    fn load_element(&mut self, elem: &xmlparse::Element, level: u16) -> Result<()> {
        if elem.name == DOC_ROOT_TAG {
            return Err(StoreError::ReservedTag { tag: DOC_ROOT_TAG });
        }
        let id = self.records.len();
        let tag = self.tags.intern(&elem.name);
        let start = self.counter;
        self.counter += 1;
        self.records.push(NodeRecord {
            tag,
            start,
            end: 0, // patched at exit
            sym: NO_SYM,
            level,
            kind: NodeKind::Element,
            content: ContentPtr::NULL,
        });

        // Attributes as leaf nodes.
        for (name, value) in &elem.attributes {
            let attr_tag = self.tags.intern(&attr_tag_name(name));
            self.leaf(attr_tag, NodeKind::Attribute, level + 1, value)?;
        }

        let has_element_children = elem
            .children
            .iter()
            .any(|c| matches!(c, xmlparse::XmlNode::Element(_)));

        if has_element_children {
            // Mixed or element content: text children become #text nodes.
            for child in &elem.children {
                match child {
                    xmlparse::XmlNode::Element(e) => self.load_element(e, level + 1)?,
                    xmlparse::XmlNode::Text(t) if !t.trim().is_empty() => {
                        let text_tag = self.tags.intern(TEXT_TAG);
                        self.leaf(text_tag, NodeKind::Text, level + 1, t)?;
                    }
                    xmlparse::XmlNode::Text(_) | xmlparse::XmlNode::Comment(_) => {}
                }
            }
        } else {
            // Text-only (or empty) content merges into the element.
            let text = elem.text();
            if !text.trim().is_empty() {
                let (content, sym) = self.value(&text)?;
                let rec = &mut self.records[id];
                (rec.content, rec.sym) = (content, sym);
            }
        }

        self.records[id].end = self.counter;
        self.counter += 1;
        Ok(())
    }

    /// A leaf row — an attribute or a `#text` node — holding `text`.
    fn leaf(&mut self, tag: TagId, kind: NodeKind, level: u16, text: &str) -> Result<()> {
        let start = self.counter;
        self.counter += 2;
        let (content, sym) = self.value(text)?;
        self.records.push(NodeRecord {
            tag,
            start,
            end: start + 1,
            sym,
            level,
            kind,
            content,
        });
        Ok(())
    }

    /// Store `text` on the heap and intern it. An empty value has no heap
    /// bytes (`ContentPtr::NULL`) and no symbol either, so a record's
    /// pointer and symbol say "has content" together.
    fn value(&mut self, text: &str) -> Result<(ContentPtr, u32)> {
        let content = self.heap.append(text)?;
        let sym = if text.is_empty() {
            NO_SYM
        } else {
            self.tags.intern(text).0
        };
        Ok((content, sym))
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
