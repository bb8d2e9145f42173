//! Errors raised by algebra evaluation.

use std::fmt;

/// Result alias for TAX operations.
pub type Result<T> = std::result::Result<T, Error>;

/// An algebra-evaluation error.
#[derive(Debug)]
pub enum Error {
    /// The storage layer failed.
    Store(xmlstore::StoreError),
    /// A pattern-node label referenced by a parameter list does not exist
    /// in the pattern.
    UnknownLabel(String),
    /// A structurally invalid pattern (e.g. a child before its parent).
    BadPattern(String),
    /// An operator precondition was violated.
    Unsupported(String),
    /// Query evaluation panicked; the panic was contained and the store
    /// survived. Carries the panic payload, if it was a string.
    Panic(String),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Store(e) => write!(f, "store error: {e}"),
            Error::UnknownLabel(l) => write!(f, "unknown pattern label {l}"),
            Error::BadPattern(m) => write!(f, "bad pattern: {m}"),
            Error::Unsupported(m) => write!(f, "unsupported operation: {m}"),
            Error::Panic(message) => write!(f, "query evaluation panicked: {message}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<xmlstore::StoreError> for Error {
    fn from(e: xmlstore::StoreError) -> Self {
        Error::Store(e)
    }
}
