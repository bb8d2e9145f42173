//! Element events and their receivers.
//!
//! A producer reports one element tree as `open` / `attr` / `text` /
//! `comment` / `close` calls in document order: the parser reading XML
//! text ([`parse_into`]), a DOM replaying itself ([`Element::replay`]),
//! the store walking its label columns, a query result walking its
//! arena. An [`XmlWriter`] turns those calls straight into XML text; an
//! [`ElementBuilder`] turns the same calls into a DOM [`Element`]. The
//! text of the one equals [`element_to_string`] of the other.
//!
//! [`parse_into`]: crate::parser::parse_into
//! [`element_to_string`]: crate::serialize::element_to_string

use crate::dom::{Element, XmlNode};
use crate::serialize::{push_attr, push_escaped_text};

/// Receiver of one element tree, in document order. A producer calls
/// `attr` only between an element's `open` and its first `text`,
/// `comment` or child `open`, and closes every element it opens (the
/// parser stops short of that when the input is malformed). Values are
/// borrowed: producers read them in batches into an arena of their own.
pub trait XmlSink {
    /// An element starts.
    fn open(&mut self, name: &str);
    /// An attribute of the element just opened.
    fn attr(&mut self, name: &str, value: &str);
    /// Character data (unescaped) inside the innermost open element.
    fn text(&mut self, text: &str);
    /// A comment inside the innermost open element. The writer and the
    /// DOM keep it; a receiver with no place for comments ignores it.
    fn comment(&mut self, _text: &str) {}
    /// The innermost open element, called `name`, ends.
    fn close(&mut self, name: &str);
}

/// Appends compact XML text to a `String`.
pub struct XmlWriter<'a> {
    out: &'a mut String,
    /// The innermost element's start tag still lacks its `>` (or `/>`).
    in_start_tag: bool,
}

impl<'a> XmlWriter<'a> {
    /// A writer appending to `out`.
    pub fn new(out: &'a mut String) -> Self {
        XmlWriter {
            out,
            in_start_tag: false,
        }
    }

    fn end_start_tag(&mut self) {
        if self.in_start_tag {
            self.out.push('>');
            self.in_start_tag = false;
        }
    }
}

impl XmlSink for XmlWriter<'_> {
    fn open(&mut self, name: &str) {
        self.end_start_tag();
        self.out.push('<');
        self.out.push_str(name);
        self.in_start_tag = true;
    }

    fn attr(&mut self, name: &str, value: &str) {
        push_attr(self.out, name, value);
    }

    fn text(&mut self, text: &str) {
        self.end_start_tag();
        push_escaped_text(self.out, text);
    }

    fn comment(&mut self, text: &str) {
        self.end_start_tag();
        self.out.push_str("<!--");
        self.out.push_str(text);
        self.out.push_str("-->");
    }

    fn close(&mut self, name: &str) {
        if self.in_start_tag {
            // Nothing came between open and close: `<a/>`.
            self.out.push_str("/>");
            self.in_start_tag = false;
        } else {
            self.out.push_str("</");
            self.out.push_str(name);
            self.out.push('>');
        }
    }
}

/// Builds the DOM [`Element`] of the events it receives.
#[derive(Default)]
pub struct ElementBuilder {
    /// The elements still open, outermost first.
    open: Vec<Element>,
    done: Element,
}

impl ElementBuilder {
    /// A builder that has seen nothing yet.
    pub fn new() -> Self {
        ElementBuilder::default()
    }

    /// The last outermost element closed (an element with an empty name
    /// if there was none).
    pub fn finish(self) -> Element {
        self.done
    }
}

impl XmlSink for ElementBuilder {
    fn open(&mut self, name: &str) {
        self.open.push(Element::new(name));
    }

    fn attr(&mut self, name: &str, value: &str) {
        if let Some(e) = self.open.last_mut() {
            e.attributes.push((name.to_owned(), value.to_owned()));
        }
    }

    fn text(&mut self, text: &str) {
        if let Some(e) = self.open.last_mut() {
            e.children.push(XmlNode::Text(text.to_owned()));
        }
    }

    fn comment(&mut self, text: &str) {
        if let Some(e) = self.open.last_mut() {
            e.children.push(XmlNode::Comment(text.to_owned()));
        }
    }

    fn close(&mut self, _name: &str) {
        let Some(e) = self.open.pop() else { return };
        match self.open.last_mut() {
            Some(parent) => parent.children.push(XmlNode::Element(e)),
            None => self.done = e,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serialize::element_to_string;

    /// Replay a DOM element as events.
    fn replay(e: &Element, sink: &mut impl XmlSink) {
        sink.open(&e.name);
        for (n, v) in &e.attributes {
            sink.attr(n, v);
        }
        for c in &e.children {
            match c {
                XmlNode::Element(c) => replay(c, sink),
                XmlNode::Text(t) => sink.text(t),
                XmlNode::Comment(_) => {}
            }
        }
        sink.close(&e.name);
    }

    #[test]
    fn writer_and_builder_agree_with_the_dom_serializer() {
        let e = Element::new("a")
            .with_attr("q", "say \"hi\" & <go>")
            .with_text("1 < 2 ")
            .with_child(Element::new("empty"))
            .with_child(Element::new("blank").with_text(""))
            .with_child(Element::new("b").with_attr("k", "v").with_text("x & y"))
            .with_text(" tail");
        let mut text = String::new();
        replay(&e, &mut XmlWriter::new(&mut text));
        assert_eq!(text, element_to_string(&e));
        assert!(text.contains("<empty/>") && text.contains("<blank></blank>"));
        let mut b = ElementBuilder::new();
        replay(&e, &mut b);
        assert_eq!(b.finish(), e);
    }

    #[test]
    fn the_parser_driving_a_writer_writes_what_the_dom_serializes() {
        let xml = "<?xml version=\"1.0\"?><!-- p --><a k=\"&lt;1&gt;\">x<!-- c -->y\
                   <![CDATA[<z>]]>&amp;<b/><c> </c><?pi?>t&#65;</a><!-- t -->";
        let mut text = String::new();
        crate::parse_into(xml, &mut XmlWriter::new(&mut text)).unwrap();
        let dom = crate::parse_document(xml).unwrap();
        assert_eq!(text, element_to_string(dom.root()));
        assert!(text.contains("<!-- c -->"), "{text}");
    }
}
