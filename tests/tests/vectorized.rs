//! Differential testing of the vectorized columnar kernels: every
//! chunked filter must be bit-identical to its scalar twin, the batch
//! containment partition must expand to exactly the nested-loop join's
//! pairs, and whole queries must serialize byte-identically whether the
//! kernels run vectorized or forced down the scalar row loops — across
//! thread counts, batch sizes, and random ragged bibliographies.

use std::sync::{Mutex, MutexGuard};

use smallrand::prop::{check, Gen};
use tax::matching::structural::{self, JoinAxis};
use timber::{PlanMode, TimberDb};
use timber_integration_tests::{batch_matrix, run, thread_matrix, QUERY1, QUERY2, QUERY_COUNT};
use xmlstore::{kernels, NodeEntry, NodeId, SelVec, StoreOptions};

/// The force-scalar switch is process-global; tests that flip it hold
/// this lock so a concurrent test never observes a half-forced run.
static FORCE_LOCK: Mutex<()> = Mutex::new(());

/// RAII window in which every kernel call takes its scalar twin.
struct ForcedScalar(#[allow(dead_code)] MutexGuard<'static, ()>);

impl ForcedScalar {
    fn begin() -> Self {
        let guard = FORCE_LOCK
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        kernels::set_force_scalar(true);
        ForcedScalar(guard)
    }
}

impl Drop for ForcedScalar {
    fn drop(&mut self) {
        kernels::set_force_scalar(false);
    }
}

fn assert_same_selvec(vec: &SelVec, scalar: &SelVec, what: &str) {
    assert_eq!(vec.base(), scalar.base(), "{what}: base");
    assert_eq!(vec.len(), scalar.len(), "{what}: len");
    assert_eq!(vec.count(), scalar.count(), "{what}: count");
    assert_eq!(
        vec.ids().collect::<Vec<_>>(),
        scalar.ids().collect::<Vec<_>>(),
        "{what}: ids"
    );
}

#[test]
fn filter_kernels_match_scalar_twins() {
    // Lengths sweep past several 64-row chunk boundaries and the SIMD
    // lane tails (0, 1, 63, 64, 65, 127, 128, ...).
    check("filter_kernels_match_scalar_twins", 64, |g| {
        let len = g.usize_in(0, 130);
        let base = g.usize_in(0, 1000) as u32;
        let vals: Vec<u32> = g.vec(len, len, |g| g.usize_in(0, 7) as u32);
        let needle = g.usize_in(0, 8) as u32; // sometimes absent
        assert_same_selvec(
            &kernels::filter_eq_u32(&vals, base, needle),
            &kernels::scalar::filter_eq_u32(&vals, base, needle),
            "eq_u32",
        );
        let set: Vec<u32> = g.vec(0, 3, |g| g.usize_in(0, 8) as u32);
        assert_same_selvec(
            &kernels::filter_in_u32(&vals, base, &set),
            &kernels::scalar::filter_in_u32(&vals, base, &set),
            "in_u32",
        );
        let lo = g.usize_in(0, 8) as u32;
        let hi = g.usize_in(0, 8) as u32;
        assert_same_selvec(
            &kernels::filter_range_u32(&vals, base, lo, hi),
            &kernels::scalar::filter_range_u32(&vals, base, lo, hi),
            "range_u32",
        );
        let vals16: Vec<u16> = vals.iter().map(|&v| v as u16).collect();
        assert_same_selvec(
            &kernels::filter_eq_u16(&vals16, base, needle as u16),
            &kernels::scalar::filter_eq_u16(&vals16, base, needle as u16),
            "eq_u16",
        );
        let vals8: Vec<u8> = vals.iter().map(|&v| v as u8).collect();
        assert_same_selvec(
            &kernels::filter_eq_u8(&vals8, base, needle as u8),
            &kernels::scalar::filter_eq_u8(&vals8, base, needle as u8),
            "eq_u8",
        );
    });
}

#[test]
fn selvec_runs_and_counts_agree_with_ids() {
    check("selvec_runs_and_counts_agree_with_ids", 64, |g| {
        let len = g.usize_in(0, 200) as u32;
        let base = g.usize_in(0, 100) as u32;
        let mut sel = SelVec::empty(base, len);
        let mut other = SelVec::empty(base, len);
        for id in base..base + len {
            if g.ratio(1, 3) {
                sel.set(id);
            }
            if g.ratio(1, 2) {
                other.set(id);
            }
        }
        let ids: Vec<u32> = sel.ids().collect();
        assert_eq!(ids.len(), sel.count());
        for &id in &ids {
            assert!(sel.contains(id));
        }
        // runs() reconstructs exactly the set ids, as maximal runs.
        let mut from_runs: Vec<u32> = Vec::new();
        let mut prev_end = 0u32;
        for (start, n) in sel.runs() {
            assert!(n > 0, "empty run");
            assert!(
                from_runs.is_empty() || start > prev_end,
                "runs not maximal or unordered"
            );
            prev_end = start + n;
            from_runs.extend(start..start + n);
        }
        assert_eq!(from_runs, ids);
        // count_in / count_and_in match the id-level definitions on a
        // random subrange (word-boundary offsets included).
        let a = base + g.usize_in(0, len as usize) as u32;
        let b = base + g.usize_in(0, len as usize) as u32;
        let (lo, hi) = (a.min(b), a.max(b));
        let in_range = ids.iter().filter(|&&id| lo <= id && id < hi).count();
        assert_eq!(sel.count_in(lo..hi), in_range);
        let both = ids
            .iter()
            .filter(|&&id| lo <= id && id < hi && other.contains(id))
            .count();
        assert_eq!(sel.count_and_in(&other, lo..hi), both);
    });
}

/// Random properly-nested interval forest: preorder-labels a forest of
/// random arity/depth, returning all entries sorted by `start`.
fn random_entries(g: &mut Gen) -> Vec<NodeEntry> {
    fn subtree(g: &mut Gen, next: &mut u32, level: u16, out: &mut Vec<NodeEntry>) {
        let id = out.len() as u32;
        let start = *next;
        *next += 1;
        out.push(NodeEntry {
            id: NodeId(id),
            start,
            end: 0, // patched below
            level,
        });
        let kids = if level >= 4 { 0 } else { g.usize_in(0, 3) };
        for _ in 0..kids {
            subtree(g, next, level + 1, out);
        }
        out[id as usize].end = *next;
        *next += 1;
    }
    let mut out = Vec::new();
    let mut next = 0u32;
    for _ in 0..g.usize_in(0, 4) {
        subtree(g, &mut next, 0, &mut out);
    }
    out
}

/// A random subset of `entries`, kept in `start` order.
fn subset(g: &mut Gen, entries: &[NodeEntry]) -> Vec<NodeEntry> {
    entries.iter().filter(|_| g.ratio(1, 2)).copied().collect()
}

#[test]
fn batch_containment_equals_nested_loop_join() {
    check("batch_containment_equals_nested_loop_join", 96, |g| {
        let entries = random_entries(g);
        let ancestors = subset(g, &entries);
        let descendants = subset(g, &entries);
        // Expand the (ancestor, descendant-run) partition into pairs.
        let runs = kernels::containment_runs(&ancestors, &descendants);
        assert_eq!(runs.len(), ancestors.len());
        let mut expanded: Vec<(u32, u32)> = Vec::new();
        for (a, &(lo, hi)) in ancestors.iter().zip(&runs) {
            for d in &descendants[lo as usize..hi as usize] {
                assert!(a.is_ancestor_of(d), "run holds a non-descendant");
                expanded.push((a.id.0, d.id.0));
            }
        }
        let mut oracle: Vec<(u32, u32)> =
            structural::nested_loop_join(&ancestors, &descendants, JoinAxis::AncestorDescendant)
                .into_iter()
                .map(|(a, d)| (a.id.0, d.id.0))
                .collect();
        expanded.sort_unstable();
        oracle.sort_unstable();
        assert_eq!(expanded, oracle);
        // The tax-side wrapper agrees with itself under forced scalar.
        let vectorized = structural::batch_contained_in(&ancestors, &descendants);
        let forced = {
            let _guard = ForcedScalar::begin();
            structural::batch_contained_in(&ancestors, &descendants)
        };
        assert_eq!(vectorized, forced);
    });
}

/// The random-bibliography generator: ragged articles (some with no
/// authors, no title, repeated authors) so run lengths and containment
/// shapes vary.
fn bibliography(g: &mut Gen) -> String {
    const POOL: [&str; 5] = ["Jack", "Jill", "John", "Jane", "Joan"];
    let articles = g.usize_in(0, 9);
    let mut s = String::from("<bib>");
    for _ in 0..articles {
        s.push_str("<article>");
        for _ in 0..g.usize_in(0, 3) {
            s.push_str(&format!("<author>{}</author>", g.pick(&POOL)));
        }
        if g.ratio(4, 5) {
            s.push_str(&format!("<title>Title {}</title>", g.usize_in(0, 99)));
        }
        s.push_str("</article>");
    }
    s.push_str("</bib>");
    s
}

#[test]
fn vectorized_equals_forced_scalar_end_to_end() {
    // The headline invariant: with every kernel forced down its scalar
    // twin, all corpus queries must serialize byte-identically — on
    // plain and order-preserving dictionaries, across the thread/batch
    // matrix CI sweeps.
    check("vectorized_equals_forced_scalar_end_to_end", 12, |g| {
        let xml = bibliography(g);
        for opts in [
            StoreOptions::in_memory(),
            StoreOptions::in_memory().with_ordered_dict(),
        ] {
            let mut db = TimberDb::load_xml(&xml, &opts).unwrap();
            for threads in thread_matrix(&[1, 4]) {
                db.set_threads(threads);
                for batch in batch_matrix(&[16, 256]) {
                    for query in [QUERY1, QUERY2, QUERY_COUNT] {
                        for mode in [PlanMode::Direct, PlanMode::GroupByRewrite] {
                            let vectorized = run(&mut db, query, mode, batch);
                            let scalar = {
                                let _guard = ForcedScalar::begin();
                                run(&mut db, query, mode, batch)
                            };
                            assert_eq!(
                                vectorized, scalar,
                                "threads={threads} batch={batch} {mode:?} \
                                 ordered={} on {xml}",
                                opts.ordered_dict
                            );
                        }
                    }
                }
            }
        }
    });
}

#[test]
fn count_rollup_fast_path_equals_forced_scalar() {
    // The COUNT star fold is the one kernel that changes *what* the
    // matcher computes (run-length products instead of per-binding
    // enumeration); pin it separately on adversarial shapes: empty
    // articles, missing titles, duplicate authors.
    check("count_rollup_fast_path_equals_forced_scalar", 24, |g| {
        let xml = bibliography(g);
        let mut db = TimberDb::load_xml(&xml, &StoreOptions::in_memory()).unwrap();
        let fast = run(&mut db, QUERY_COUNT, PlanMode::GroupByRewrite, 256);
        let slow = {
            let _guard = ForcedScalar::begin();
            run(&mut db, QUERY_COUNT, PlanMode::GroupByRewrite, 256)
        };
        assert_eq!(fast, slow, "on {xml}");
    });
}
