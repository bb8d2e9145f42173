//! Parse errors with line/column positions.

use std::fmt;

/// Result alias for parsing operations.
pub type Result<T> = std::result::Result<T, ParseError>;

/// A position in the input text, 1-based.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pos {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number (in bytes within the line).
    pub col: u32,
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// An error encountered while parsing XML text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Where in the input the error was detected.
    pub pos: Pos,
    /// What went wrong.
    pub kind: ParseErrorKind,
}

/// The specific failure class of a [`ParseError`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// Input ended in the middle of a construct.
    UnexpectedEof(&'static str),
    /// A character that cannot start or continue the current construct.
    UnexpectedChar { found: char, expected: &'static str },
    /// A close tag whose name does not match the open tag.
    MismatchedCloseTag { open: String, close: String },
    /// A close tag with no matching open tag.
    UnbalancedCloseTag(String),
    /// An open tag left unclosed at end of input.
    UnclosedElement(String),
    /// An entity reference that is not one of the predefined five and not
    /// a character reference.
    UnknownEntity(String),
    /// A malformed numeric character reference.
    BadCharRef(String),
    /// The same attribute appears twice on one element.
    DuplicateAttribute(String),
    /// The document has no root element, or text outside the root.
    InvalidDocumentStructure(&'static str),
    /// Elements nest deeper than [`crate::parser::MAX_DEPTH`].
    TooDeep,
}

impl ParseError {
    pub(crate) fn new(pos: Pos, kind: ParseErrorKind) -> Self {
        ParseError { pos, kind }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XML parse error at {}: ", self.pos)?;
        match &self.kind {
            ParseErrorKind::UnexpectedEof(ctx) => write!(f, "unexpected end of input in {ctx}"),
            ParseErrorKind::UnexpectedChar { found, expected } => {
                write!(f, "unexpected character {found:?}, expected {expected}")
            }
            ParseErrorKind::MismatchedCloseTag { open, close } => {
                write!(f, "close tag </{close}> does not match open tag <{open}>")
            }
            ParseErrorKind::UnbalancedCloseTag(name) => {
                write!(f, "close tag </{name}> has no matching open tag")
            }
            ParseErrorKind::UnclosedElement(name) => {
                write!(f, "element <{name}> is never closed")
            }
            ParseErrorKind::UnknownEntity(name) => write!(f, "unknown entity &{name};"),
            ParseErrorKind::BadCharRef(text) => {
                write!(f, "malformed character reference &#{text};")
            }
            ParseErrorKind::DuplicateAttribute(name) => {
                write!(f, "duplicate attribute {name:?}")
            }
            ParseErrorKind::InvalidDocumentStructure(msg) => write!(f, "{msg}"),
            ParseErrorKind::TooDeep => {
                write!(f, "elements nest deeper than {}", crate::parser::MAX_DEPTH)
            }
        }
    }
}

impl std::error::Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_position() {
        let err = ParseError::new(
            Pos { line: 3, col: 7 },
            ParseErrorKind::UnknownEntity("nbsp".into()),
        );
        let s = err.to_string();
        assert!(s.contains("3:7"), "{s}");
        assert!(s.contains("nbsp"), "{s}");
    }

    #[test]
    fn display_mismatched_tags() {
        let err = ParseError::new(
            Pos { line: 1, col: 1 },
            ParseErrorKind::MismatchedCloseTag {
                open: "a".into(),
                close: "b".into(),
            },
        );
        assert!(err.to_string().contains("</b>"));
        assert!(err.to_string().contains("<a>"));
    }
}
