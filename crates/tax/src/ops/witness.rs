//! Witnesses: the key extraction behind the RETURN stitch's members.
//! (The grouping sinks — `groupby`, the gather fused with it, `rollup`
//! and `cube` — fold each row as they walk it, and duplicate
//! elimination and the join need none: their key is the scan's bound
//! cell.)
//!
//! A witness is one embedding of the operator's pattern in one stored
//! input row. What the operators need of it is columnar and small —
//! which row it came from, its key (one symbol word per basis item), the
//! nodes bound to the basis labels, its ordering values (symbols again)
//! — so that is all [`witnesses`] produces: flat `u32` / node arrays, no
//! per-witness allocation. One [`for_each_match`] over all rows fills
//! them, each embedding's words read off the label columns' `content`
//! symbols as it arrives. Embeddings come scope-major, which *is* the
//! collection-major order the sinks' member dedup relies on, so there is
//! nothing to sort.
//!
//! No data page is read: keys and ordering values are symbols — equal
//! symbol ⇔ equal string — resolved to text only when a sort compares
//! them or an aggregate parses them.

use crate::error::Result;
use crate::matching::for_each_match;
use crate::ops::groupby::{validate, BasisItem, GroupOrder};
use crate::pattern::PatternTree;
use std::ops::Range;
use xmlstore::{DocumentStore, NodeEntry};

/// The witness stream of one keyed operator, collection-major: all of
/// row 0's witnesses, then row 1's, ….
#[derive(Default)]
pub(crate) struct Witnesses {
    /// The input row each witness was matched in; non-decreasing.
    pub tree_idx: Vec<u32>,
    /// Keys, row-major, `basis.len()` words a witness.
    keys: Vec<u32>,
    /// The nodes bound to the basis labels, row-major like `keys`.
    cells: Vec<NodeEntry>,
    /// Content symbols of the ordering labels ([`NO_SYM`](xmlstore::NO_SYM)
    /// when absent), row-major, `ordering.len()` words a witness.
    sort_syms: Vec<u32>,
    basis: usize,
    ordering: usize,
}

impl Witnesses {
    /// The key of witness `w`.
    pub fn key(&self, w: u32) -> &[u32] {
        &self.keys[w as usize * self.basis..][..self.basis]
    }

    /// The nodes witness `w` binds to the basis labels.
    pub fn cells(&self, w: u32) -> &[NodeEntry] {
        &self.cells[w as usize * self.basis..][..self.basis]
    }

    /// The ordering symbols of witness `w`.
    pub fn sort_syms(&self, w: u32) -> &[u32] {
        &self.sort_syms[w as usize * self.ordering..][..self.ordering]
    }

    /// The witnesses of each of the input's `rows` rows, as ordinal
    /// ranges — empty where the pattern does not match the row.
    pub fn per_row(&self, rows: usize) -> Vec<Range<u32>> {
        let mut at = 0;
        (0..rows as u32)
            .map(|row| {
                let start = at;
                at += self.tree_idx[at..].partition_point(|&r| r == row);
                start as u32..at as u32
            })
            .collect()
    }
}

/// Extract the witnesses of the stored `rows` under `pattern`: key
/// words for `basis`, basis cells, and ordering symbols for `ordering`.
/// With `anchor_root` the pattern root binds only the rows themselves.
pub(crate) fn witnesses(
    store: &DocumentStore,
    rows: &[NodeEntry],
    pattern: &PatternTree,
    basis: &[BasisItem],
    ordering: &[GroupOrder],
    anchor_root: bool,
) -> Result<Witnesses> {
    validate(pattern, basis, ordering)?;
    let mut out = Witnesses {
        basis: basis.len(),
        ordering: ordering.len(),
        ..Witnesses::default()
    };
    let cols = store.columns();
    // A row usually holds a witness or more.
    out.tree_idx.reserve(rows.len());
    out.keys.reserve(rows.len() * basis.len());
    out.cells.reserve(rows.len() * basis.len());
    out.sort_syms.reserve(rows.len() * ordering.len());
    for_each_match(store, pattern, rows, anchor_root, |row, m| {
        out.tree_idx.push(row);
        for item in basis {
            let e = m[item.label];
            out.keys.push(cols.content[e.id.0 as usize]);
            out.cells.push(e);
        }
        for o in ordering {
            out.sort_syms.push(cols.content[m[o.label].id.0 as usize]);
        }
    })?;
    Ok(out)
}
