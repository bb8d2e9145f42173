//! Query results: rows and timing.

use crate::error::Result;
use crate::metrics::PlanMetrics;
use std::time::Duration;
use tax::batch::Rows;
use tax::output::Results;
use xmlstore::DocumentStore;

/// The outcome of one query evaluation.
#[derive(Debug)]
pub struct QueryResult {
    /// The output: one-level rows, still referring into the store —
    /// render them with [`QueryResult::to_xml_on`].
    pub output: Rows,
    /// Whether the GROUPBY rewrite produced the executed plan.
    pub rewritten: bool,
    /// Wall-clock evaluation time.
    pub elapsed: Duration,
    /// Per-operator metrics of the executed plan (always present on a
    /// result the executor produced).
    pub metrics: Option<PlanMetrics>,
}

impl QueryResult {
    /// Number of output rows.
    pub fn len(&self) -> usize {
        self.output.count()
    }

    /// Whether the result is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materialize every output row as a DOM element ("data
    /// population"), a chunk of rows at a time like
    /// [`to_xml_on`](Self::to_xml_on).
    pub fn elements_on(&self, store: &DocumentStore) -> Result<Vec<xmlparse::Element>> {
        Ok(tax::output::materialize_all(store, &self.output)?)
    }

    /// Serialize the whole result, one row per line, straight from the
    /// rows and the store — the bytes of [`elements_on`](Self::elements_on)
    /// serialized, without building the elements. Output population is
    /// one pass per chunk of rows: the stored rows whose values the
    /// chunk writes are listed from the label columns, their values
    /// fetched in one batched read that asks for each distinct name page
    /// once, in page order, and then the text is written. A page that
    /// cannot be read fails its chunk with the store's typed error, and
    /// an error returns no partial text.
    pub fn to_xml_on(&self, store: &DocumentStore) -> Result<String> {
        let mut out = String::new();
        tax::output::write_xml_lines(store, &self.output, &mut out)?;
        Ok(out)
    }
}
