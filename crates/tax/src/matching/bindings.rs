//! The binding table: what a pattern match *is* before anything is cut
//! out of it.
//!
//! A match of a pattern with `n` nodes is a tuple of `n` data nodes; all
//! matches of one pattern form a table with one column per pattern node
//! ([`PatternNodeId`] is the column index) and one row per embedding. The
//! table is stored column-major, so the structural matcher fills it a
//! column at a time and a consumer that needs one variable (the scan's
//! projected node, a grouping key) reads one dense slice — no per-row
//! allocation on either side.

use crate::pattern::PatternNodeId;
use std::ops::Index;
use xmlstore::NodeEntry;

/// All embeddings of one pattern: the stored nodes each binds. Rows are
/// in document order of the pattern root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bindings {
    /// One column per pattern node; all the same length.
    cols: Vec<Vec<NodeEntry>>,
}

impl Bindings {
    /// An empty table for a pattern of `width` nodes (at least one: a
    /// pattern always has a root).
    pub(crate) fn new(width: usize) -> Self {
        assert!(width > 0, "a pattern has at least its root");
        Bindings {
            cols: vec![Vec::new(); width],
        }
    }

    /// Number of embeddings.
    pub fn len(&self) -> usize {
        self.cols[0].len()
    }

    /// Whether the pattern did not match.
    pub fn is_empty(&self) -> bool {
        self.cols[0].is_empty()
    }

    /// The nodes bound to pattern node `pid`, row for row.
    pub fn column(&self, pid: PatternNodeId) -> &[NodeEntry] {
        &self.cols[pid]
    }

    /// Embedding `i`; index it by pattern node.
    pub fn row(&self, i: usize) -> Row<'_> {
        assert!(i < self.len(), "row {i} of {}", self.len());
        Row {
            cols: &self.cols,
            i,
        }
    }

    /// All embeddings, in order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = Row<'_>> {
        (0..self.len()).map(|i| Row {
            cols: &self.cols,
            i,
        })
    }

    /// Append one embedding, cells in pattern-node order.
    pub(crate) fn push_row(&mut self, cells: impl IntoIterator<Item = NodeEntry>) {
        let mut filled = 0;
        for (col, cell) in self.cols.iter_mut().zip(cells) {
            col.push(cell);
            filled += 1;
        }
        debug_assert_eq!(filled, self.cols.len(), "one cell per pattern node");
    }

    /// Append every row of `other` (a table of the same pattern).
    pub(crate) fn append(&mut self, other: Bindings) {
        for (col, more) in self.cols.iter_mut().zip(other.cols) {
            col.extend(more);
        }
    }

    /// Replace column `pid` (the matcher's column-at-a-time fill).
    pub(crate) fn set_column(&mut self, pid: PatternNodeId, col: Vec<NodeEntry>) {
        self.cols[pid] = col;
    }

    /// Rebuild every filled column as `col[idx[0]], col[idx[1]], …` — a
    /// join step repeating rows, or a filter dropping them. Columns not
    /// yet filled stay empty.
    pub(crate) fn gather(&mut self, idx: &[u32]) {
        for col in self.cols.iter_mut().filter(|c| !c.is_empty()) {
            *col = idx.iter().map(|&r| col[r as usize]).collect();
        }
    }
}

/// One embedding of a [`Bindings`] table: `row[pid]` is the node bound
/// to pattern node `pid`.
#[derive(Debug, Clone, Copy)]
pub struct Row<'a> {
    cols: &'a [Vec<NodeEntry>],
    i: usize,
}

impl Index<PatternNodeId> for Row<'_> {
    type Output = NodeEntry;
    fn index(&self, pid: PatternNodeId) -> &NodeEntry {
        &self.cols[pid][self.i]
    }
}

impl<'a> Row<'a> {
    /// The cells in pattern-node order.
    pub fn cells(self) -> impl Iterator<Item = NodeEntry> + 'a {
        self.cols.iter().map(move |col| col[self.i])
    }
}
