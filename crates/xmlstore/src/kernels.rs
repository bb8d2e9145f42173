//! Columnar kernels over the label region: a batch containment join
//! that partitions descendant runs against ancestor intervals with
//! galloping binary search, and an equality filter ([`filter_eq_u32`])
//! listing the ids of a column's matching rows. Whole queries are held
//! to the reference model in `tests/src/model.rs`.
//!
//! Two per-thread counters ([`vec_rows`], [`fallback_rows`]) tally how
//! many rows flowed through the kernels vs the matcher's per-row
//! fallbacks (inputs the batch forms cannot take); the physical
//! executor windows them per operator and EXPLAIN ANALYZE reports them as
//! `vec=`/`vecfb=`, so a plan dropping to the row loops is visible. A
//! query runs on one thread, so concurrent queries never count each
//! other's rows.

use crate::index::NodeEntry;
use std::cell::Cell;

thread_local! {
    /// Rows this thread has run through vectorized kernels.
    static VEC_ROWS: Cell<u64> = const { Cell::new(0) };
    /// Rows this thread has run through per-row fallbacks.
    static FALLBACK_ROWS: Cell<u64> = const { Cell::new(0) };
}

/// Total rows this thread has processed with vectorized kernels.
pub fn vec_rows() -> u64 {
    VEC_ROWS.get()
}

/// Total rows this thread has processed with scalar fallbacks.
pub fn fallback_rows() -> u64 {
    FALLBACK_ROWS.get()
}

/// Credit `n` rows to the vectorized counter (for callers that scan the
/// label columns without entering a kernel, e.g. the stored-row walk).
pub fn note_vec_rows(n: usize) {
    VEC_ROWS.set(VEC_ROWS.get() + n as u64);
}

/// Credit `n` rows to the fallback counter (for callers that take a
/// scalar path a vectorized kernel exists for).
pub fn note_fallback_rows(n: usize) {
    FALLBACK_ROWS.set(FALLBACK_ROWS.get() + n as u64);
}

/// Equality filter over a `u32` column (tag or content symbols): the
/// ids `base + i` of the rows where `vals[i] == needle`, ascending. No
/// query calls it — a query's candidates come from the tag index — only
/// the benchmark's kernel probe does.
pub fn filter_eq_u32(vals: &[u32], base: u32, needle: u32) -> impl Iterator<Item = u32> + '_ {
    note_vec_rows(vals.len());
    (base..)
        .zip(vals)
        .filter_map(move |(id, &v)| (v == needle).then_some(id))
}

/// Batch containment partition: for each ancestor interval (`ancestors`
/// sorted by `start`), the contiguous run `lo..hi` of descendant
/// indices (`descendants` sorted by `start`, intervals properly nested
/// as containment labels are) strictly contained in it. Runs are found
/// by galloping binary search from the previous ancestor's position —
/// no per-row stack walk, no per-pair pushes. The result is parallel to
/// `ancestors` (empty runs included), so callers fold run *lengths*
/// instead of iterating pairs.
pub fn containment_runs(ancestors: &[NodeEntry], descendants: &[NodeEntry]) -> Vec<(u32, u32)> {
    let mut out = Vec::with_capacity(ancestors.len());
    let mut cursor = 0usize;
    let mut touched = 0usize;
    for a in ancestors {
        // First descendant starting after a.start (strict containment:
        // the node equal to the ancestor is excluded).
        let lo = gallop(descendants, cursor, |d| d.start <= a.start);
        // First descendant starting at or past a.end.
        let hi = gallop(descendants, lo, |d| d.start < a.end);
        out.push((lo as u32, hi as u32));
        touched += hi - lo;
        // Ancestor starts increase, so the next run begins at or after
        // this one — but may end before it (nested ancestors), so only
        // the lower cursor advances.
        cursor = lo;
    }
    note_vec_rows(ancestors.len() + touched);
    out
}

/// First index `>= from` where `pred` fails, by galloping: double the
/// probe distance until overshoot, then binary-search the last window.
/// `pred` must be monotone (true-prefix) past `from`.
#[inline]
fn gallop(list: &[NodeEntry], from: usize, pred: impl Fn(&NodeEntry) -> bool) -> usize {
    let n = list.len();
    if from >= n || !pred(&list[from]) {
        return from;
    }
    let mut step = 1usize;
    let mut lo = from; // pred holds at lo
    loop {
        let probe = lo + step;
        if probe >= n {
            return lo + 1 + list[lo + 1..].partition_point(&pred);
        }
        if pred(&list[probe]) {
            lo = probe;
            step *= 2;
        } else {
            return lo + 1 + list[lo + 1..probe].partition_point(&pred);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq_filter_lists_the_matching_ids() {
        for n in [0u32, 1, 7, 63, 64, 65, 130, 300] {
            let vals: Vec<u32> = (0..n).map(|i| i % 7).collect();
            let want: Vec<u32> = (0..n).filter(|i| i % 7 == 3).map(|i| i + 10).collect();
            let got: Vec<u32> = filter_eq_u32(&vals, 10, 3).collect();
            assert_eq!(got, want, "n={n}");
        }
    }

    fn e(id: u32, start: u32, end: u32, level: u16) -> NodeEntry {
        NodeEntry {
            id: crate::NodeId(id),
            start,
            end,
            level,
        }
    }

    #[test]
    fn containment_runs_basic() {
        // a0[0,19] { b[1,8] { c[2,3] c[4,5] } b[9,18] { c[10,11] } }
        // a1[20,29] { c[21,22] }
        let ancestors = [e(0, 0, 19, 1), e(6, 20, 29, 1)];
        let descendants = [
            e(2, 2, 3, 3),
            e(3, 4, 5, 3),
            e(5, 10, 11, 3),
            e(7, 21, 22, 2),
        ];
        let runs = containment_runs(&ancestors, &descendants);
        assert_eq!(runs, vec![(0, 3), (3, 4)]);
        // Nested ancestors: the inner one's run is a sub-run.
        let nested = [e(0, 0, 19, 1), e(1, 1, 8, 2)];
        let runs = containment_runs(&nested, &descendants);
        assert_eq!(runs, vec![(0, 3), (0, 2)]);
        // Self is not contained in itself.
        let runs = containment_runs(&[e(2, 2, 3, 3)], &descendants);
        assert_eq!(runs, vec![(1, 1)]);
        assert!(containment_runs(&[], &descendants).is_empty());
        assert_eq!(containment_runs(&ancestors, &[]), vec![(0, 0), (0, 0)]);
    }
}
