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
    /// population").
    pub fn elements_on(&self, store: &DocumentStore) -> Result<Vec<xmlparse::Element>> {
        self.trees
            .iter()
            .map(|t| t.materialize(store).map_err(Into::into))
            .collect()
    }

    /// Serialize the whole result, one tree per line, straight from the
    /// trees and the store — the bytes of [`elements_on`](Self::elements_on)
    /// serialized, without building the elements. An error mid-way
    /// returns no partial text.
    pub fn to_xml_on(&self, store: &DocumentStore) -> Result<String> {
        let mut out = String::new();
        for t in &self.trees {
            t.write_xml(store, &mut out)?;
            out.push('\n');
        }
        Ok(out)
    }
}
