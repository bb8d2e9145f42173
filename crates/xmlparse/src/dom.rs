//! A small owned XML DOM: documents, elements, text, and comments.
//!
//! The DOM is deliberately simple — it exists to ferry parsed documents
//! into the native store (the `xmlstore` crate) and to carry query results
//! back out for serialization. Attributes are kept in document order.

use std::fmt;

/// A parsed XML document: an optional prolog plus exactly one root element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    root: Element,
}

impl Document {
    /// Wrap an element as a document root.
    pub fn new(root: Element) -> Self {
        Document { root }
    }

    /// The root element.
    pub fn root(&self) -> &Element {
        &self.root
    }

    /// Consume the document, yielding the root element.
    pub fn into_root(self) -> Element {
        self.root
    }
}

/// One node in the DOM tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlNode {
    /// An element with a tag name, attributes, and children.
    Element(Element),
    /// Character data (entities already resolved).
    Text(String),
    /// A comment (without the `<!--`/`-->` delimiters).
    Comment(String),
}

impl XmlNode {
    /// The contained element, if this node is one.
    pub fn as_element(&self) -> Option<&Element> {
        match self {
            XmlNode::Element(e) => Some(e),
            _ => None,
        }
    }
}

/// An XML element.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Element {
    /// Tag name, e.g. `article`.
    pub name: String,
    /// Attributes in document order.
    pub attributes: Vec<(String, String)>,
    /// Child nodes in document order.
    pub children: Vec<XmlNode>,
}

impl Element {
    /// Create an element with no attributes or children.
    pub fn new(name: impl Into<String>) -> Self {
        Element {
            name: name.into(),
            attributes: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Builder-style: add an attribute.
    pub fn with_attr(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.attributes.push((name.into(), value.into()));
        self
    }

    /// Builder-style: add a child element.
    pub fn with_child(mut self, child: Element) -> Self {
        self.children.push(XmlNode::Element(child));
        self
    }

    /// Builder-style: add a text child.
    pub fn with_text(mut self, text: impl Into<String>) -> Self {
        self.children.push(XmlNode::Text(text.into()));
        self
    }

    /// Look up an attribute value by name.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Iterate over child elements only.
    pub fn child_elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(XmlNode::as_element)
    }

    /// The first child element with the given tag name.
    pub fn child(&self, name: &str) -> Option<&Element> {
        self.child_elements().find(|e| e.name == name)
    }

    /// All child elements with the given tag name.
    pub fn children_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Element> + 'a {
        self.child_elements().filter(move |e| e.name == name)
    }

    /// Concatenation of the *direct* text children (not descendants).
    pub fn text(&self) -> String {
        let mut out = String::new();
        for c in &self.children {
            if let XmlNode::Text(t) = c {
                out.push_str(t);
            }
        }
        out
    }

    /// Concatenation of all descendant text, in document order.
    pub fn deep_text(&self) -> String {
        let mut out = String::new();
        self.collect_text(&mut out);
        out
    }

    fn collect_text(&self, out: &mut String) {
        for c in &self.children {
            match c {
                XmlNode::Text(t) => out.push_str(t),
                XmlNode::Element(e) => e.collect_text(out),
                XmlNode::Comment(_) => {}
            }
        }
    }

    /// Total node count (elements + attributes + text nodes) in this
    /// subtree, matching how the paper counts "4.6 million nodes".
    pub fn subtree_node_count(&self) -> usize {
        let mut n = 1 + self.attributes.len();
        for c in &self.children {
            match c {
                XmlNode::Element(e) => n += e.subtree_node_count(),
                XmlNode::Text(_) => n += 1,
                XmlNode::Comment(_) => {}
            }
        }
        n
    }

    /// Depth-first pre-order iteration over descendant elements,
    /// `self` included.
    pub fn descendants(&self) -> Descendants<'_> {
        Descendants { stack: vec![self] }
    }
}

impl fmt::Display for Element {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::serialize::element_to_string(self))
    }
}

/// Iterator produced by [`Element::descendants`].
pub struct Descendants<'a> {
    stack: Vec<&'a Element>,
}

impl<'a> Iterator for Descendants<'a> {
    type Item = &'a Element;

    fn next(&mut self) -> Option<Self::Item> {
        let e = self.stack.pop()?;
        // Push children in reverse so iteration is document order.
        for c in e.children.iter().rev() {
            if let XmlNode::Element(ch) = c {
                self.stack.push(ch);
            }
        }
        Some(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Element {
        Element::new("article")
            .with_attr("year", "1999")
            .with_child(Element::new("title").with_text("Querying XML"))
            .with_child(Element::new("author").with_text("Jack"))
            .with_child(Element::new("author").with_text("John"))
    }

    #[test]
    fn attr_lookup() {
        let e = sample();
        assert_eq!(e.attr("year"), Some("1999"));
        assert_eq!(e.attr("month"), None);
    }

    #[test]
    fn child_navigation() {
        let e = sample();
        assert_eq!(e.child("title").unwrap().text(), "Querying XML");
        assert_eq!(e.children_named("author").count(), 2);
        assert!(e.child("publisher").is_none());
    }

    #[test]
    fn text_vs_deep_text() {
        let e = Element::new("a")
            .with_text("x")
            .with_child(Element::new("b").with_text("y"))
            .with_text("z");
        assert_eq!(e.text(), "xz");
        assert_eq!(e.deep_text(), "xyz");
    }

    #[test]
    fn counts() {
        let e = sample();
        // article + year attr + (title + text) + 2*(author + text) = 8
        assert_eq!(e.subtree_node_count(), 8);
    }

    #[test]
    fn descendants_in_document_order() {
        let e = sample();
        let names: Vec<_> = e.descendants().map(|d| d.name.as_str()).collect();
        assert_eq!(names, ["article", "title", "author", "author"]);
    }

    #[test]
    fn document_wraps_root() {
        let doc = Document::new(sample());
        assert_eq!(doc.root().name, "article");
    }
}
