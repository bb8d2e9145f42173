//! Vectorized columnar kernels over the label region: a branch-free
//! chunked filter producing [`SelVec`] selection vectors, and a batch
//! containment join that partitions descendant runs against ancestor
//! intervals with galloping binary search.
//!
//! The filter ([`filter_eq_u32`], over tag and symbol columns) builds
//! one `u64` mask word per 64 input rows out of straight-line
//! `(pred as u64) << bit` lane writes, a shape LLVM autovectorizes on
//! every target. It has a one-row-at-a-time twin in [`scalar`] with the
//! identical signature and bit-identical output: the reference the
//! kernel-level tests compare against. Whole queries are held to the
//! reference model in `tests/src/model.rs` instead.
//!
//! Two per-thread counters ([`vec_rows`], [`fallback_rows`]) tally how
//! many rows flowed through the kernels vs the matcher's per-row
//! fallbacks (inputs the batch forms cannot take), the same way
//! `tax::tree::tree_clones` tallies deep clones; the physical executor
//! windows them per operator and EXPLAIN ANALYZE reports them as
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

/// A selection over the dense row range `base .. base + len`: one bit
/// per row, packed into `u64` words (row `base + i` is bit `i % 64` of
/// word `i / 64`), counted by popcount and walked as id runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SelVec {
    base: u32,
    len: u32,
    bits: Vec<u64>,
}

impl SelVec {
    /// An empty selection over `base .. base + len`.
    pub fn empty(base: u32, len: u32) -> SelVec {
        SelVec {
            base,
            len,
            bits: vec![0; (len as usize).div_ceil(64)],
        }
    }

    /// Wrap mask words produced by a filter kernel. Tail bits past `len`
    /// must be zero (the kernels guarantee it).
    fn from_bits(base: u32, len: u32, bits: Vec<u64>) -> SelVec {
        debug_assert_eq!(bits.len(), (len as usize).div_ceil(64));
        SelVec { base, len, bits }
    }

    /// First row id covered (bit 0).
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Number of rows covered (not the number selected).
    pub fn len(&self) -> u32 {
        self.len
    }

    /// Whether the covered range is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of selected rows, by popcount.
    pub fn count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether row `id` is selected.
    pub fn contains(&self, id: u32) -> bool {
        if id < self.base || id >= self.base + self.len {
            return false;
        }
        let i = (id - self.base) as usize;
        self.bits[i / 64] >> (i % 64) & 1 == 1
    }

    /// Set row `id` (must lie in the covered range).
    pub fn set(&mut self, id: u32) {
        debug_assert!(id >= self.base && id < self.base + self.len);
        let i = (id - self.base) as usize;
        self.bits[i / 64] |= 1 << (i % 64);
    }

    /// Iterator over the selected row ids, ascending.
    pub fn ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.bits.iter().enumerate().flat_map(move |(w, &word)| {
            let base = self.base + (w as u32) * 64;
            BitIter { word, base }
        })
    }

    /// Iterator over maximal runs of consecutive selected ids, as
    /// `(first id, length)` — the u32 id-run form of the selection.
    pub fn runs(&self) -> Runs<'_> {
        Runs { sel: self, pos: 0 }
    }
}

/// Iterator over set bits of one word.
struct BitIter {
    word: u64,
    base: u32,
}

impl Iterator for BitIter {
    type Item = u32;
    fn next(&mut self) -> Option<u32> {
        if self.word == 0 {
            return None;
        }
        let b = self.word.trailing_zeros();
        self.word &= self.word - 1;
        Some(self.base + b)
    }
}

/// Iterator over maximal set-bit runs of a [`SelVec`].
pub struct Runs<'a> {
    sel: &'a SelVec,
    /// Next bit index (relative to `sel.base`) to examine.
    pos: usize,
}

impl Iterator for Runs<'_> {
    type Item = (u32, u32);
    fn next(&mut self) -> Option<(u32, u32)> {
        let n = self.sel.len as usize;
        // Scan to the next set bit, a word at a time.
        let mut i = self.pos;
        while i < n {
            let w = self.sel.bits[i / 64] >> (i % 64);
            if w == 0 {
                i = (i / 64 + 1) * 64;
            } else {
                i += w.trailing_zeros() as usize;
                break;
            }
        }
        if i >= n {
            self.pos = n;
            return None;
        }
        // Scan to the first clear bit after it: inverting the shifted
        // word turns the run of ones into trailing zeros. The shift
        // zero-fills from the top, so a count reaching the end of the
        // word only proves the *word's* remaining bits are ones — keep
        // scanning into the next word rather than ending the run there.
        let mut j = i;
        while j < n {
            let w = !(self.sel.bits[j / 64] >> (j % 64));
            let tz = w.trailing_zeros() as usize;
            if tz >= 64 - j % 64 {
                j = (j / 64 + 1) * 64;
            } else {
                j += tz;
                break;
            }
        }
        let j = j.min(n);
        self.pos = j;
        Some((self.sel.base + i as u32, (j - i) as u32))
    }
}

/// Build one mask word per 64 rows from a branch-free predicate. The
/// inner loop is straight-line lane writes with no early exit, the shape
/// LLVM turns into vector compares.
#[inline]
fn chunk_mask<T: Copy>(vals: &[T], mut pred: impl FnMut(T) -> bool) -> Vec<u64> {
    let mut bits = vec![0u64; vals.len().div_ceil(64)];
    for (word, chunk) in bits.iter_mut().zip(vals.chunks(64)) {
        let mut m = 0u64;
        for (bit, &v) in chunk.iter().enumerate() {
            m |= (pred(v) as u64) << bit;
        }
        *word = m;
    }
    bits
}

/// Equality filter over a `u32` column (tag or content symbols):
/// selects rows where `vals[i] == needle`. Row `i` maps to id
/// `base + i`.
pub fn filter_eq_u32(vals: &[u32], base: u32, needle: u32) -> SelVec {
    note_vec_rows(vals.len());
    let bits = chunk_mask(vals, |v| v == needle);
    SelVec::from_bits(base, vals.len() as u32, bits)
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

/// Scalar twin of the filter: one row at a time, branches and all.
/// Bit-identical output is the invariant the kernel tests pin.
pub mod scalar {
    use super::SelVec;

    /// Scalar twin of [`super::filter_eq_u32`].
    pub fn filter_eq_u32(vals: &[u32], base: u32, needle: u32) -> SelVec {
        let mut sel = SelVec::empty(base, vals.len() as u32);
        for (i, &v) in vals.iter().enumerate() {
            if v == needle {
                sel.set(base + i as u32);
            }
        }
        sel
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(sel: &SelVec) -> Vec<u32> {
        sel.ids().collect()
    }

    #[test]
    fn eq_filter_matches_scalar_across_tail_lengths() {
        for n in [0usize, 1, 7, 63, 64, 65, 127, 130, 300] {
            let vals: Vec<u32> = (0..n as u32).map(|i| i % 7).collect();
            let fast = filter_eq_u32(&vals, 10, 3);
            let slow = scalar::filter_eq_u32(&vals, 10, 3);
            assert_eq!(fast, slow, "n={n}");
            assert_eq!(fast.count(), vals.iter().filter(|&&v| v == 3).count());
        }
    }

    #[test]
    fn ids_and_contains_agree() {
        let vals: Vec<u32> = (0..130).map(|i| i % 3).collect();
        let sel = filter_eq_u32(&vals, 50, 0);
        let listed = ids(&sel);
        assert_eq!(listed.len(), sel.count());
        for id in 50..180 {
            assert_eq!(sel.contains(id), listed.contains(&id));
        }
        assert!(!sel.contains(49));
        assert!(!sel.contains(180));
    }

    #[test]
    fn runs_reconstruct_ids_across_word_boundaries() {
        // Pattern with runs crossing the 64-bit word edge.
        let mut vals = vec![0u32; 200];
        for r in [5..9, 60..70, 127..128, 128..133, 190..200] {
            for i in r {
                vals[i] = 1;
            }
        }
        let sel = filter_eq_u32(&vals, 0, 1);
        let mut from_runs = Vec::new();
        for (start, len) in sel.runs() {
            from_runs.extend(start..start + len);
        }
        assert_eq!(from_runs, ids(&sel));
        // Runs are maximal: 60..70 and 127..133 each cross a word edge
        // as ONE run — a clear-bit scan that trusts the zero-filled top
        // of a shifted word would split them at bit 64 / 128.
        assert_eq!(
            sel.runs().collect::<Vec<_>>(),
            vec![(5, 4), (60, 10), (127, 6), (190, 10)]
        );
        // Fully-set vector is one maximal run.
        let ones = vec![7u32; 140];
        let all = filter_eq_u32(&ones, 3, 7);
        assert_eq!(all.runs().collect::<Vec<_>>(), vec![(3, 140)]);
        // Empty vector yields no runs.
        assert_eq!(
            SelVec::empty(0, 100).runs().collect::<Vec<_>>(),
            Vec::<(u32, u32)>::new()
        );
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
