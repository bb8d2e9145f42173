//! Query results: trees, timing, and I/O accounting.

use crate::error::Result;
use crate::metrics::PlanMetrics;
use std::time::Duration;
use tax::Collection;
use xmlstore::{DocumentStore, IoStats};

/// The outcome of one query evaluation.
#[derive(Debug)]
pub struct QueryResult {
    /// The output collection. Trees may still hold references into the
    /// store; render them with [`QueryResult::to_xml_on`].
    pub trees: Collection,
    /// Whether the GROUPBY rewrite produced the executed plan.
    pub rewritten: bool,
    /// Wall-clock evaluation time.
    pub elapsed: Duration,
    /// Buffer/disk traffic attributable to this evaluation.
    pub io: IoStats,
    /// Per-operator metrics of the executed plan (always present on a
    /// result the executor produced).
    pub metrics: Option<PlanMetrics>,
}

impl QueryResult {
    /// Number of output trees.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// Whether the result is empty.
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }

    /// Materialize every output tree as a DOM element ("data
    /// population"), a chunk of trees at a time like
    /// [`to_xml_on`](Self::to_xml_on).
    pub fn elements_on(&self, store: &DocumentStore) -> Result<Vec<xmlparse::Element>> {
        Ok(tax::tree::materialize_all(store, &self.trees)?)
    }

    /// Serialize the whole result, one tree per line, straight from the
    /// trees and the store — the bytes of [`elements_on`](Self::elements_on)
    /// serialized, without building the elements. Output population is
    /// one pass per chunk of trees: the stored rows whose values the
    /// chunk writes are listed from the label columns, their values
    /// fetched in one batched read that asks for each distinct heap page
    /// once, in page order, and then the text is written. A page that
    /// cannot be read fails its chunk with the store's typed error, and
    /// an error returns no partial text.
    pub fn to_xml_on(&self, store: &DocumentStore) -> Result<String> {
        let mut out = String::new();
        tax::tree::write_xml_lines(store, &self.trees, &mut out)?;
        Ok(out)
    }
}
