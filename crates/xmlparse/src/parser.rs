//! Recursive-descent XML parser reporting element events to an
//! [`XmlSink`].
//!
//! [`parse_into`] is the parser; [`parse_document`] is `parse_into`
//! driving an [`ElementBuilder`]. The parser recurses once per element
//! nesting level, so depth is bounded by [`MAX_DEPTH`]: a deeper
//! document is a typed [`ParseErrorKind::TooDeep`] error, not a stack
//! overflow.

use crate::dom::Document;
use crate::error::{ParseErrorKind, Pos, Result};
use crate::lexer::Cursor;
use crate::sink::{ElementBuilder, XmlSink};

/// The deepest element nesting a document may have (the root is depth
/// 1); libxml2's default limit.
pub const MAX_DEPTH: usize = 256;

/// Parse a complete XML document into a DOM.
pub fn parse_document(input: &str) -> Result<Document> {
    let mut builder = ElementBuilder::new();
    parse_into(input, &mut builder)?;
    Ok(Document::new(builder.finish()))
}

/// Parse a complete XML document, reporting its root element to `sink`
/// as it is read.
///
/// The document may begin with an `<?xml ...?>` declaration, comments,
/// processing instructions, and one `<!DOCTYPE ...>` declaration; it must
/// contain exactly one root element; trailing comments/PIs are allowed.
///
/// Character data reaches the sink with entities resolved and CDATA
/// sections merged into it: one `text` call per run between the element
/// events and the comments inside an element, never an empty one. Each
/// is one [`XmlNode::Text`](crate::dom::XmlNode::Text) of the DOM.
/// Comments inside the root element reach [`XmlSink::comment`]; those
/// outside it, and processing instructions, are skipped. On `Err` the
/// sink has seen a prefix of the document's events.
pub fn parse_into(input: &str, sink: &mut impl XmlSink) -> Result<()> {
    let mut p = Parser {
        cur: Cursor::new(input),
        sink,
        text: String::new(),
        attr_value: String::new(),
        attr_names: Vec::new(),
    };
    p.skip_prolog()?;
    p.cur.skip_whitespace();
    if p.cur.peek() != Some(b'<') {
        return Err(p.cur.err(ParseErrorKind::InvalidDocumentStructure(
            "expected a root element",
        )));
    }
    p.parse_element(1)?;
    // Trailing misc: whitespace, comments, PIs.
    loop {
        p.cur.skip_whitespace();
        if p.cur.at_eof() {
            break;
        }
        if p.cur.eat("<!--") {
            p.cur.take_until("-->", "comment")?;
        } else if p.cur.eat("<?") {
            p.cur.take_until("?>", "processing instruction")?;
        } else {
            return Err(p.cur.err(ParseErrorKind::InvalidDocumentStructure(
                "content after the root element",
            )));
        }
    }
    Ok(())
}

struct Parser<'a, 's, S> {
    cur: Cursor<'a>,
    sink: &'s mut S,
    /// The innermost open element's character data since its last
    /// event; empty whenever a child element opens or closes.
    text: String,
    /// The attribute value being resolved.
    attr_value: String,
    /// The names of the open tag's attributes so far.
    attr_names: Vec<&'a str>,
}

impl<'a, S: XmlSink> Parser<'a, '_, S> {
    fn skip_prolog(&mut self) -> Result<()> {
        self.cur.skip_whitespace();
        if self.cur.eat("<?xml") {
            self.cur.take_until("?>", "xml declaration")?;
        }
        loop {
            self.cur.skip_whitespace();
            if self.cur.eat("<!--") {
                self.cur.take_until("-->", "comment")?;
            } else if self.cur.eat("<!DOCTYPE") {
                self.skip_doctype()?;
            } else if self.cur.peek() == Some(b'<') && self.cur.peek_at(1) == Some(b'?') {
                self.cur.eat("<?");
                self.cur.take_until("?>", "processing instruction")?;
            } else {
                return Ok(());
            }
        }
    }

    /// Skip a DOCTYPE declaration, handling one level of `[...]` internal
    /// subset (no nested brackets, which suffices for non-validating use).
    fn skip_doctype(&mut self) -> Result<()> {
        loop {
            match self.cur.bump() {
                Some(b'[') => {
                    self.cur.take_until("]", "DOCTYPE internal subset")?;
                }
                Some(b'>') => return Ok(()),
                Some(_) => {}
                None => {
                    return Err(self.cur.err(ParseErrorKind::UnexpectedEof("DOCTYPE")));
                }
            }
        }
    }

    /// Parse one element at nesting level `depth`, cursor positioned at
    /// `<`.
    fn parse_element(&mut self, depth: usize) -> Result<()> {
        let open_pos = self.cur.pos();
        if depth > MAX_DEPTH {
            return Err(self.cur.err(ParseErrorKind::TooDeep));
        }
        self.cur.expect("<", "element start")?;
        let name = self.cur.scan_name("element name")?;
        self.sink.open(name);
        self.parse_attributes()?;
        self.cur.skip_whitespace();
        if self.cur.eat("/>") {
            self.sink.close(name);
            return Ok(());
        }
        self.cur.expect(">", "end of open tag")?;
        self.parse_content(name, open_pos, depth)
    }

    fn parse_attributes(&mut self) -> Result<()> {
        self.attr_names.clear();
        loop {
            self.cur.skip_whitespace();
            match self.cur.peek() {
                Some(b'>') | Some(b'/') | None => return Ok(()),
                _ => {}
            }
            let attr_pos = self.cur.pos();
            let name = self.cur.scan_name("attribute name")?;
            self.cur.skip_whitespace();
            self.cur.expect("=", "attribute '='")?;
            self.cur.skip_whitespace();
            let quote = match self.cur.bump() {
                Some(q @ (b'"' | b'\'')) => q,
                Some(c) => {
                    return Err(self.cur.err(ParseErrorKind::UnexpectedChar {
                        found: c as char,
                        expected: "attribute value quote",
                    }))
                }
                None => {
                    return Err(self
                        .cur
                        .err(ParseErrorKind::UnexpectedEof("attribute value")))
                }
            };
            let delim = if quote == b'"' { "\"" } else { "'" };
            let raw = self.cur.take_until(delim, "attribute value")?;
            self.attr_value.clear();
            resolve_entities(raw, &mut self.attr_value, &self.cur, attr_pos)?;
            if self.attr_names.contains(&name) {
                return Err(self.cur.err_at(
                    attr_pos,
                    ParseErrorKind::DuplicateAttribute(name.to_owned()),
                ));
            }
            self.attr_names.push(name);
            self.sink.attr(name, &self.attr_value);
        }
    }

    /// Parse the content of element `name` up to and including its
    /// close tag.
    fn parse_content(&mut self, name: &str, open_pos: Pos, depth: usize) -> Result<()> {
        loop {
            if self.cur.at_eof() {
                return Err(self
                    .cur
                    .err_at(open_pos, ParseErrorKind::UnclosedElement(name.to_owned())));
            }
            if self.cur.peek() == Some(b'<') {
                if self.cur.eat("<!--") {
                    self.flush_text();
                    let c = self.cur.take_until("-->", "comment")?;
                    self.sink.comment(c);
                } else if self.cur.eat("<![CDATA[") {
                    let c = self.cur.take_until("]]>", "CDATA section")?;
                    self.text.push_str(c);
                } else if self.cur.peek_at(1) == Some(b'?') {
                    self.cur.eat("<?");
                    self.cur.take_until("?>", "processing instruction")?;
                } else if self.cur.peek_at(1) == Some(b'/') {
                    self.flush_text();
                    self.cur.eat("</");
                    let close_pos = self.cur.pos();
                    let close = self.cur.scan_name("close tag name")?;
                    if close != name {
                        return Err(self.cur.err_at(
                            close_pos,
                            ParseErrorKind::MismatchedCloseTag {
                                open: name.to_owned(),
                                close: close.to_owned(),
                            },
                        ));
                    }
                    self.cur.skip_whitespace();
                    self.cur.expect(">", "end of close tag")?;
                    self.sink.close(name);
                    return Ok(());
                } else {
                    self.flush_text();
                    self.parse_element(depth + 1)?;
                }
            } else {
                let pos = self.cur.pos();
                let raw = self.cur.take_while(|b| b != b'<');
                resolve_entities(raw, &mut self.text, &self.cur, pos)?;
            }
        }
    }

    fn flush_text(&mut self) {
        if !self.text.is_empty() {
            self.sink.text(&self.text);
            self.text.clear();
        }
    }
}

/// Append `raw` to `out` with the five predefined entities and numeric
/// character references resolved.
fn resolve_entities(raw: &str, out: &mut String, cur: &Cursor<'_>, pos: Pos) -> Result<()> {
    let mut rest = raw;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        rest = &rest[amp + 1..];
        let semi = rest
            .find(';')
            .ok_or_else(|| cur.err_at(pos, ParseErrorKind::UnknownEntity(truncate(rest, 16))))?;
        let name = &rest[..semi];
        match name {
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "amp" => out.push('&'),
            "apos" => out.push('\''),
            "quot" => out.push('"'),
            _ if name.starts_with('#') => {
                let digits = &name[1..];
                let code = if let Some(hex) = digits.strip_prefix('x').or(digits.strip_prefix('X'))
                {
                    u32::from_str_radix(hex, 16)
                } else {
                    digits.parse::<u32>()
                }
                .map_err(|_| cur.err_at(pos, ParseErrorKind::BadCharRef(name.to_owned())))?;
                let ch = char::from_u32(code)
                    .ok_or_else(|| cur.err_at(pos, ParseErrorKind::BadCharRef(name.to_owned())))?;
                out.push(ch);
            }
            _ => {
                return Err(cur.err_at(pos, ParseErrorKind::UnknownEntity(name.to_owned())));
            }
        }
        rest = &rest[semi + 1..];
    }
    out.push_str(rest);
    Ok(())
}

fn truncate(s: &str, n: usize) -> String {
    s.chars().take(n).collect()
}

// The tests name DOM nodes through `use super::*`.
#[cfg(test)]
use crate::dom::XmlNode;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ParseErrorKind;

    #[test]
    fn minimal_document() {
        let doc = parse_document("<a/>").unwrap();
        assert_eq!(doc.root().name, "a");
        assert!(doc.root().children.is_empty());
    }

    #[test]
    fn nested_elements_and_text() {
        let doc = parse_document("<bib><article><title>X</title></article></bib>").unwrap();
        let article = doc.root().child("article").unwrap();
        assert_eq!(article.child("title").unwrap().text(), "X");
    }

    #[test]
    fn attributes_both_quote_styles() {
        let doc = parse_document(r#"<a x="1" y='two'/>"#).unwrap();
        assert_eq!(doc.root().attr("x"), Some("1"));
        assert_eq!(doc.root().attr("y"), Some("two"));
    }

    #[test]
    fn duplicate_attribute_rejected() {
        let err = parse_document(r#"<a x="1" x="2"/>"#).unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::DuplicateAttribute(_)));
    }

    #[test]
    fn predefined_entities() {
        let doc = parse_document("<a>&lt;&gt;&amp;&apos;&quot;</a>").unwrap();
        assert_eq!(doc.root().text(), "<>&'\"");
    }

    #[test]
    fn numeric_char_refs() {
        let doc = parse_document("<a>&#65;&#x42;</a>").unwrap();
        assert_eq!(doc.root().text(), "AB");
    }

    #[test]
    fn bad_char_ref() {
        let err = parse_document("<a>&#xZZ;</a>").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::BadCharRef(_)));
    }

    #[test]
    fn unknown_entity() {
        let err = parse_document("<a>&nbsp;</a>").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::UnknownEntity(_)));
    }

    #[test]
    fn entity_in_attribute() {
        let doc = parse_document(r#"<a t="a&amp;b"/>"#).unwrap();
        assert_eq!(doc.root().attr("t"), Some("a&b"));
    }

    #[test]
    fn cdata_is_literal_text() {
        let doc = parse_document("<a><![CDATA[<not><tags>&amp;]]></a>").unwrap();
        assert_eq!(doc.root().text(), "<not><tags>&amp;");
    }

    #[test]
    fn comments_preserved_in_content() {
        let doc = parse_document("<a><!-- note --><b/></a>").unwrap();
        assert!(matches!(doc.root().children[0], XmlNode::Comment(_)));
        assert!(doc.root().child("b").is_some());
    }

    #[test]
    fn prolog_and_doctype_skipped() {
        let doc = parse_document(
            "<?xml version=\"1.0\"?>\n<!DOCTYPE bib [ <!ELEMENT bib (article*)> ]>\n<!-- c -->\n<bib/>",
        )
        .unwrap();
        assert_eq!(doc.root().name, "bib");
    }

    #[test]
    fn processing_instructions_skipped() {
        let doc = parse_document("<?pi data?><a><?inner?></a><?post?>").unwrap();
        assert_eq!(doc.root().name, "a");
        assert!(doc.root().children.is_empty());
    }

    #[test]
    fn mismatched_close_tag() {
        let err = parse_document("<a><b></a></b>").unwrap_err();
        assert!(matches!(
            err.kind,
            ParseErrorKind::MismatchedCloseTag { .. }
        ));
    }

    #[test]
    fn unclosed_element() {
        let err = parse_document("<a><b>").unwrap_err();
        assert!(matches!(err.kind, ParseErrorKind::UnclosedElement(_)));
    }

    #[test]
    fn content_after_root_rejected() {
        let err = parse_document("<a/><b/>").unwrap_err();
        assert!(matches!(
            err.kind,
            ParseErrorKind::InvalidDocumentStructure(_)
        ));
    }

    #[test]
    fn trailing_comment_allowed() {
        assert!(parse_document("<a/><!-- bye -->").is_ok());
    }

    #[test]
    fn empty_input_rejected() {
        assert!(parse_document("").is_err());
        assert!(parse_document("   ").is_err());
    }

    #[test]
    fn mixed_content_ordering() {
        let doc = parse_document("<a>x<b/>y<c/>z</a>").unwrap();
        let kinds: Vec<&str> = doc
            .root()
            .children
            .iter()
            .map(|c| match c {
                XmlNode::Text(_) => "t",
                XmlNode::Element(_) => "e",
                XmlNode::Comment(_) => "c",
            })
            .collect();
        assert_eq!(kinds, ["t", "e", "t", "e", "t"]);
    }

    #[test]
    fn whitespace_only_text_is_kept() {
        let doc = parse_document("<a> <b/> </a>").unwrap();
        // TIMBER-style loaders decide whether to strip; the parser keeps it.
        assert_eq!(doc.root().children.len(), 3);
    }

    #[test]
    fn error_position_is_plausible() {
        let err = parse_document("<a>\n  <b x=></b></a>").unwrap_err();
        assert_eq!(err.pos.line, 2);
    }

    fn nested(depth: usize) -> String {
        format!("{}x{}", "<d>".repeat(depth), "</d>".repeat(depth))
    }

    #[test]
    fn nesting_past_the_limit_is_a_typed_error() {
        let err = parse_document(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::TooDeep);
        assert!(err.to_string().contains("deeper than 256"), "{err}");
    }

    #[test]
    fn deeply_nested_ok() {
        let doc = parse_document(&nested(MAX_DEPTH)).unwrap();
        assert_eq!(doc.root().deep_text(), "x");
    }
}
