//! Serialization of the DOM back to XML text, with escaping.

use crate::dom::{Document, Element, XmlNode};
use std::fmt::Write;

/// Serialize a document compactly (no added whitespace).
pub fn to_string(doc: &Document) -> String {
    element_to_string(doc.root())
}

/// Serialize a document with two-space indentation.
///
/// Elements with mixed content (any text child) are kept on one line so
/// round-tripping does not introduce significant whitespace.
pub fn to_string_pretty(doc: &Document) -> String {
    let mut out = String::new();
    write_element(&mut out, doc.root(), Some(0));
    out.push('\n');
    out
}

/// Serialize a single element compactly.
pub fn element_to_string(elem: &Element) -> String {
    let mut out = String::new();
    write_element(&mut out, elem, None);
    out
}

/// Serialize a single element with indentation.
pub fn element_to_string_pretty(elem: &Element) -> String {
    let mut out = String::new();
    write_element(&mut out, elem, Some(0));
    out.push('\n');
    out
}

fn write_element(out: &mut String, elem: &Element, indent: Option<usize>) {
    if let Some(depth) = indent {
        for _ in 0..depth {
            out.push_str("  ");
        }
    }
    out.push('<');
    out.push_str(&elem.name);
    for (name, value) in &elem.attributes {
        push_attr(out, name, value);
    }
    if elem.children.is_empty() {
        out.push_str("/>");
        return;
    }
    out.push('>');

    let mixed = elem.children.iter().any(|c| matches!(c, XmlNode::Text(_)));
    let child_indent = match indent {
        Some(depth) if !mixed => Some(depth + 1),
        _ => None,
    };

    for child in &elem.children {
        match child {
            XmlNode::Element(e) => {
                if child_indent.is_some() {
                    out.push('\n');
                }
                write_element(out, e, child_indent);
            }
            XmlNode::Text(t) => push_escaped_text(out, t),
            XmlNode::Comment(c) => {
                if let Some(depth) = child_indent {
                    out.push('\n');
                    for _ in 0..depth {
                        out.push_str("  ");
                    }
                }
                let _ = write!(out, "<!--{c}-->");
            }
        }
    }
    if let Some(depth) = indent {
        if !mixed {
            out.push('\n');
            for _ in 0..depth {
                out.push_str("  ");
            }
        }
    }
    out.push_str("</");
    out.push_str(&elem.name);
    out.push('>');
}

/// Append `s` to `out`, copying the runs that need no escaping whole.
/// This is the one escaping table: `& < >` always, `"` when `quote`.
fn push_escaped(out: &mut String, s: &str, quote: bool) {
    let mut copied = 0;
    for (i, b) in s.bytes().enumerate() {
        let entity = match b {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' if quote => "&quot;",
            _ => continue,
        };
        out.push_str(&s[copied..i]);
        out.push_str(entity);
        copied = i + 1;
    }
    out.push_str(&s[copied..]);
}

/// Append character data to `out`, escaping `& < >`.
pub fn push_escaped_text(out: &mut String, s: &str) {
    push_escaped(out, s, false);
}

/// Append an attribute value for double-quoted output to `out`,
/// escaping `& < > "`.
pub fn push_escaped_attr(out: &mut String, s: &str) {
    push_escaped(out, s, true);
}

/// Append ` name="value"` to `out`, the value escaped.
pub(crate) fn push_attr(out: &mut String, name: &str, value: &str) {
    out.push(' ');
    out.push_str(name);
    out.push_str("=\"");
    push_escaped_attr(out, value);
    out.push('"');
}

/// Escape character data: `& < >`.
pub fn escape_text(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_escaped_text(&mut out, s);
    out
}

/// Escape an attribute value for double-quoted output: `& < > "`.
pub fn escape_attr(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_escaped_attr(&mut out, s);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_document;

    #[test]
    fn roundtrip_compact() {
        let src = r#"<bib><article year="1999"><title>A&amp;B</title><author>Jack</author></article></bib>"#;
        let doc = parse_document(src).unwrap();
        let out = to_string(&doc);
        assert_eq!(out, src);
    }

    #[test]
    fn empty_element_self_closes() {
        let doc = parse_document("<a><b></b></a>").unwrap();
        assert_eq!(to_string(&doc), "<a><b/></a>");
    }

    #[test]
    fn escaping_in_text_and_attr() {
        let e = crate::Element::new("a")
            .with_attr("q", "say \"hi\" & <go>")
            .with_text("1 < 2 & 3 > 2");
        let s = element_to_string(&e);
        assert_eq!(
            s,
            r#"<a q="say &quot;hi&quot; &amp; &lt;go&gt;">1 &lt; 2 &amp; 3 &gt; 2</a>"#
        );
        // And it parses back to the same values.
        let doc = parse_document(&s).unwrap();
        assert_eq!(doc.root().attr("q"), Some("say \"hi\" & <go>"));
        assert_eq!(doc.root().text(), "1 < 2 & 3 > 2");
    }

    #[test]
    fn pretty_indents_element_only_content() {
        let doc = parse_document("<a><b><c/></b></a>").unwrap();
        let s = to_string_pretty(&doc);
        assert_eq!(s, "<a>\n  <b>\n    <c/>\n  </b>\n</a>\n");
    }

    #[test]
    fn pretty_keeps_mixed_content_inline() {
        let doc = parse_document("<a>hello <b/> world</a>").unwrap();
        let s = to_string_pretty(&doc);
        assert_eq!(s, "<a>hello <b/> world</a>\n");
    }

    #[test]
    fn pretty_roundtrips_semantically() {
        let src =
            "<bib><article><title>T</title></article><article><title>U</title></article></bib>";
        let doc = parse_document(src).unwrap();
        let pretty = to_string_pretty(&doc);
        // Re-parsing the pretty form and stripping whitespace-only text
        // yields the same structure.
        let doc2 = parse_document(&pretty).unwrap();
        let titles: Vec<String> = doc2
            .root()
            .descendants()
            .filter(|e| e.name == "title")
            .map(|e| e.text())
            .collect();
        assert_eq!(titles, ["T", "U"]);
    }

    #[test]
    fn comment_serialized() {
        let doc = parse_document("<a><!--x--></a>").unwrap();
        assert_eq!(to_string(&doc), "<a><!--x--></a>");
    }
}
