//! Errors for parsing and translating queries.

use std::fmt;

/// Result alias for query processing.
pub type Result<T> = std::result::Result<T, QueryError>;

/// An error from the XQuery front end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// Lexical error at a byte offset.
    Lex { offset: usize, message: String },
    /// Syntax error.
    Parse { offset: usize, message: String },
    /// The query is valid XQuery-subset syntax but outside what the
    /// translator supports.
    Unsupported(String),
    /// A variable was used before being bound.
    UnboundVariable(String),
    /// FLWR expressions nest deeper than [`crate::parser::MAX_NESTING`];
    /// `offset` is the byte offset of the first one past the limit.
    TooDeep { offset: usize },
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Lex { offset, message } => {
                write!(f, "lexical error at byte {offset}: {message}")
            }
            QueryError::Parse { offset, message } => {
                write!(f, "syntax error at byte {offset}: {message}")
            }
            QueryError::Unsupported(m) => write!(f, "unsupported query: {m}"),
            QueryError::UnboundVariable(v) => write!(f, "unbound variable ${v}"),
            QueryError::TooDeep { offset } => write!(
                f,
                "FLWR expressions nest deeper than {} at byte {offset}",
                crate::parser::MAX_NESTING
            ),
        }
    }
}

impl std::error::Error for QueryError {}
