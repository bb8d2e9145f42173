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
/// The scan tests eight bytes a step and looks at single bytes only in
/// a word that holds one to escape, or in a string shorter than a word.
fn push_escaped(out: &mut String, s: &str, quote: bool) {
    let bytes = s.as_bytes();
    // Whether the word ending at `end` holds a byte to escape (true for a
    // string shorter than a word): a byte ORed with 2 is `>` exactly when
    // it is `<` or `>`, and ORed with 4 is `&` exactly when it is `"` or `&`.
    let quote_bit = if quote { u64::from_le_bytes([4; 8]) } else { 0 };
    let hit = |end: usize| {
        let word = end
            .checked_sub(8)
            .and_then(|at| bytes.get(at..end)?.try_into().ok());
        word.map_or(true, |word: [u8; 8]| {
            let word = u64::from_le_bytes(word);
            has_byte(word | u64::from_le_bytes([2; 8]), b'>') | has_byte(word | quote_bit, b'&')
        })
    };
    let mut copied = 0;
    for at in (0..bytes.len()).step_by(8) {
        // The last word ends the string, overlapping the one before.
        let end = (at + 8).min(bytes.len());
        if !hit(end) {
            continue;
        }
        for (i, &b) in (at..end).zip(&bytes[at..end]) {
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
    }
    out.push_str(&s[copied..]);
}

/// Whether a byte of `word` is `b`. `x` has a zero byte exactly where
/// `word` holds `b`, and `x - 0x01…01` sets the top bit, clear in `x`, of
/// its lowest zero byte, or of none if it has none.
fn has_byte(word: u64, b: u8) -> bool {
    let ones = u64::from_le_bytes([1; 8]);
    let x = word ^ (ones * u64::from(b));
    x.wrapping_sub(ones) & !x & u64::from_le_bytes([0x80; 8]) != 0
}

/// Append character data to `out`, escaping `& < >`.
pub fn push_escaped_text(out: &mut String, s: &str) {
    push_escaped(out, s, false);
}

/// Append ` name="value"` to `out`, the value escaped for double quotes.
pub(crate) fn push_attr(out: &mut String, name: &str, value: &str) {
    out.push(' ');
    out.push_str(name);
    out.push_str("=\"");
    push_escaped(out, value, true);
    out.push('"');
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

    /// The escaping table a byte at a time: what `push_escaped` must
    /// write for every input.
    fn escaped_bytewise(s: &str, quote: bool) -> String {
        let mut out = String::new();
        for c in s.chars() {
            match c {
                '&' => out.push_str("&amp;"),
                '<' => out.push_str("&lt;"),
                '>' => out.push_str("&gt;"),
                '"' if quote => out.push_str("&quot;"),
                c => out.push(c),
            }
        }
        out
    }

    fn assert_escapes_bytewise(s: &str) {
        for quote in [false, true] {
            let mut out = String::from("kept");
            push_escaped(&mut out, s, quote);
            let expected = format!("kept{}", escaped_bytewise(s, quote));
            assert_eq!(out, expected, "quote={quote} over {s:?}");
        }
    }

    #[test]
    fn word_at_a_time_escaping_equals_the_bytewise_table() {
        assert_escapes_bytewise("");
        // Each special byte at every offset of three words, alone or
        // next to multi-byte UTF-8, and behind a clean run of 200 bytes.
        let clean = "a".repeat(200);
        for special in ["&", "<", ">", "\""] {
            for at in 0..24 {
                let pad = &clean[..at];
                assert_escapes_bytewise(&format!("{pad}{special}"));
                assert_escapes_bytewise(&format!("{pad}{special}é€{pad}"));
                assert_escapes_bytewise(&format!("€{pad}𝄞{special}\u{80}{pad}"));
            }
            assert_escapes_bytewise(&format!("{clean}{special}{clean}"));
        }
        // Random strings up to 100 characters of specials, ASCII and
        // one- to four-byte UTF-8.
        let pieces = [
            "&", "<", ">", "\"", "'", "a", "Z", " ", "é", "€", "𝄞", "\u{80}", "\u{7f}",
        ];
        smallrand::prop::check("escaping", 400, |g| {
            let n = g.usize_in(0, 100);
            let s: String = (0..n).map(|_| *g.pick(&pieces)).collect();
            assert_escapes_bytewise(&s);
        });
    }

    #[test]
    fn comment_serialized() {
        let doc = parse_document("<a><!--x--></a>").unwrap();
        assert_eq!(to_string(&doc), "<a><!--x--></a>");
    }
}
