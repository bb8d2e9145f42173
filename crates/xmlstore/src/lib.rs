//! A paged native XML store, standing in for the Shore storage manager
//! underneath TIMBER in *Grouping in XML* (Paparizos et al., EDBT 2002).
//!
//! The paper's experiments (Sec. 6) depend on a concrete storage model:
//! 8 KB pages, a 32 MB buffer pool far smaller than the data, a tag-name
//! index, and node identifiers that carry enough structure to evaluate
//! containment without touching data pages. This crate reproduces that
//! model:
//!
//! * [`storage::DiskManager`] — a page file (on disk or in memory) with
//!   physical read/write counters;
//! * [`buffer::BufferPool`] — a clock-eviction buffer pool with hit/miss
//!   accounting, sized in pages;
//! * [`node`] — node rows labelled with `(start, end, level)`, stored
//!   as a document's node run of eight-byte rows behind its (tag, kind)
//!   table, so that *descendant(a, d) ⇔
//!   a.start < d.start ∧ d.end < a.end* and *child* additionally requires
//!   `d.level = a.level + 1`;
//! * [`heap`] — the name pages: every tag and value once for the store;
//! * [`dict::Dictionary`] — the unified symbol dictionary: tags *and*
//!   content values intern to dense `u32` [`dict::Sym`]s; each commit
//!   pages the names it adds and logs their lengths, so recovery
//!   round-trips the assignment;
//! * [`columns::NodeColumns`] — the columnar label region: parallel
//!   `start`/`end`/`level`/`tag`/`kind`/`content` arrays in global
//!   document order, shared out behind an `Arc` for zero-copy scans and
//!   extended, not rebuilt, by each commit;
//! * [`index::TagIndex`] — the tag-name index: for each tag, the document-
//!   order list of `(id, start, end, level)` entries, so pattern-tree node
//!   candidates are found **without any data-page access**, as Sec. 5.2 of
//!   the paper requires;
//! * [`document::DocumentStore`] — the loaded document: accessors for
//!   records, content, navigation, and subtree materialization, all routed
//!   through the buffer pool so that I/O behaviour is observable;
//! * [`checksum`] / [`fault`] — the robustness layer: CRC32 page
//!   checksums sealed on every write and verified on every read, plus a
//!   deterministic fault injector for crash-recovery testing.
//!
//! This is a library crate on the I/O path of every query, so it must
//! never panic on an I/O problem: `unwrap`/`expect` are denied outside
//! tests and all fallible paths return [`error::StoreError`].
//!
//! # Example
//!
//! ```
//! use xmlstore::{DocumentStore, StoreOptions};
//!
//! let xml = "<bib><article><title>Querying XML</title><author>Jack</author></article></bib>";
//! let store = DocumentStore::from_xml(xml, &StoreOptions::in_memory()).unwrap();
//! let author = store.tag_id("author").unwrap();
//! let entries = store.nodes_with_tag(author);
//! assert_eq!(entries.len(), 1);
//! assert_eq!(store.content(entries[0].id).unwrap().as_deref(), Some("Jack"));
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod buffer;
pub mod catalog;
pub mod checksum;
pub mod columns;
pub mod dict;
pub mod document;
pub mod error;
pub mod fault;
pub mod heap;
pub mod index;
pub mod kernels;
pub mod node;
pub mod page;
pub mod storage;
pub mod wal;

pub use catalog::TagId;
pub use columns::NodeColumns;
pub use dict::{Dictionary, Sym, NO_SYM};
pub use document::{
    wal_path_for, DocId, DocumentStore, Entries, EntriesIter, IoStats, RecoveryInfo, RowWriter,
    StoreOptions, Tape, DOC_ROOT_TAG,
};
pub use error::{Result, StoreError};
pub use fault::{FaultConfig, FaultInjector, FaultStats, LogFault};
pub use heap::Values;
pub use index::NodeEntry;
pub use node::{NodeId, NodeKind, NodeRecord};
pub use page::{PageId, PAGE_DATA_SIZE, PAGE_HEADER_SIZE, PAGE_SIZE};
pub use wal::{Lsn, Wal, WalRecord, WalStats};
