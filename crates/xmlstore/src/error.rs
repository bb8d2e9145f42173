//! Storage-layer errors.

use std::fmt;

/// Result alias for store operations.
pub type Result<T> = std::result::Result<T, StoreError>;

/// An error raised by the storage layer.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying file I/O failed.
    Io(std::io::Error),
    /// A page id beyond the allocated file was requested.
    PageOutOfBounds { page: u32, num_pages: u32 },
    /// A node id beyond the document was requested.
    NodeOutOfBounds { node: u32, node_count: u32 },
    /// The XML input failed to parse during load.
    Parse(xmlparse::ParseError),
    /// Content longer than the addressable limit.
    ContentTooLong(usize),
    /// The buffer pool cannot hold even one page.
    PoolTooSmall,
    /// A page failed checksum verification on read.
    Corruption {
        /// The page whose image failed verification.
        page: u32,
        /// Checksum recomputed from the bytes actually read.
        expected: u32,
        /// Checksum stored in the page header.
        actual: u32,
    },
    /// Stored content bytes are not valid UTF-8, or a node run does not
    /// decode or disagrees with the name table, or a name run with the
    /// lengths the log gives it (undetected page damage or a stale
    /// pointer).
    CorruptContent {
        /// The name page the content was read from, or the node or name
        /// page where the run's fault shows.
        page: u32,
    },
    /// The fault injector's `crash=N` schedule fired: the simulated
    /// machine is dead and every subsequent I/O fails with this error
    /// until the store is reopened (which runs recovery). Deliberately
    /// *not* transient — a retry loop must not absorb a crash.
    SimulatedCrash,
    /// A write-ahead-log operation found the log structurally invalid in
    /// a way torn-tail truncation cannot explain (e.g. a missing
    /// checkpoint record at the head).
    WalCorrupt {
        /// Byte offset of the damage within the log file.
        offset: u64,
        /// What was wrong there.
        reason: &'static str,
    },
    /// A mutation was attempted on a store in a state that cannot accept
    /// it (e.g. deleting a document id that does not exist).
    NoSuchDocument {
        /// The offending document id.
        doc: u64,
    },
    /// A document to load holds an element named with the tag reserved
    /// for the synthetic store root. Refused: every pattern anchored at
    /// that root would also bind below the stored element.
    ReservedTag {
        /// The reserved tag.
        tag: &'static str,
    },
    /// A document to load holds more distinct (tag, kind) pairs than a
    /// node row can name (`limit`), refused before any page is written.
    TooManyTags { limit: usize },
}

impl StoreError {
    /// Is this error worth retrying? Transient faults — interrupted I/O
    /// and checksum mismatches, which on the read path can come from an
    /// in-flight bit flip that a re-read clears — may succeed on the next
    /// attempt; everything else is permanent.
    pub fn is_transient(&self) -> bool {
        match self {
            StoreError::Io(e) => matches!(
                e.kind(),
                std::io::ErrorKind::Interrupted
                    | std::io::ErrorKind::TimedOut
                    | std::io::ErrorKind::WouldBlock
            ),
            StoreError::Corruption { .. } => true,
            _ => false,
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "I/O error: {e}"),
            StoreError::PageOutOfBounds { page, num_pages } => {
                write!(f, "page {page} out of bounds (file has {num_pages} pages)")
            }
            StoreError::NodeOutOfBounds { node, node_count } => {
                write!(
                    f,
                    "node {node} out of bounds (document has {node_count} nodes)"
                )
            }
            StoreError::Parse(e) => write!(f, "load failed: {e}"),
            StoreError::ContentTooLong(n) => write!(f, "content of {n} bytes exceeds limit"),
            StoreError::PoolTooSmall => write!(f, "buffer pool must hold at least one page"),
            StoreError::Corruption {
                page,
                expected,
                actual,
            } => write!(
                f,
                "page {page} failed checksum verification \
                 (computed {expected:#010x}, header says {actual:#010x})"
            ),
            StoreError::CorruptContent { page } => {
                write!(f, "content on page {page} is not UTF-8 or has a bad symbol")
            }
            StoreError::SimulatedCrash => {
                write!(f, "simulated crash: the injected kill point was reached")
            }
            StoreError::WalCorrupt { offset, reason } => {
                write!(f, "write-ahead log corrupt at offset {offset}: {reason}")
            }
            StoreError::NoSuchDocument { doc } => {
                write!(f, "no document with id {doc}")
            }
            StoreError::ReservedTag { tag } => {
                write!(
                    f,
                    "element <{tag}> uses the tag reserved for the store root"
                )
            }
            StoreError::TooManyTags { limit } => write!(f, "over {limit} (tag, kind) pairs"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Parse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<xmlparse::ParseError> for StoreError {
    fn from(e: xmlparse::ParseError) -> Self {
        StoreError::Parse(e)
    }
}
