//! Differential testing of the vectorized columnar kernels: the chunked
//! filter must be bit-identical to its scalar twin, the batch
//! containment partition must expand to exactly the nested-loop join's
//! pairs, and whole queries running on those kernels must serialize to
//! the reference model's bytes — on random ragged bibliographies.

use smallrand::prop::{check, Gen};
use tax::matching::structural::{self, JoinAxis};
use timber::TimberDb;
use timber_integration_tests::{
    assert_matches_model, bibliography, Shape, QUERY1, QUERY2, QUERY_COUNT,
};
use xmlstore::{kernels, NodeEntry, NodeId, SelVec, StoreOptions};

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
    // Lengths sweep past several 64-row chunk boundaries
    // (0, 1, 63, 64, 65, 127, 128, ...).
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
    });
}

#[test]
fn selvec_runs_and_counts_agree_with_ids() {
    check("selvec_runs_and_counts_agree_with_ids", 64, |g| {
        let len = g.usize_in(0, 200) as u32;
        let base = g.usize_in(0, 100) as u32;
        let mut sel = SelVec::empty(base, len);
        for id in base..base + len {
            if g.ratio(1, 3) {
                sel.set(id);
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
    });
}

#[test]
fn queries_on_the_kernels_equal_the_model() {
    // The headline invariant: the batch containment join and the
    // stored-row walk serve exactly the bytes of the query as written —
    // on adversarial shapes (empty articles, missing titles, duplicate
    // authors), in both plan modes.
    check("queries_on_the_kernels_equal_the_model", 24, |g| {
        let xml = bibliography(g, Shape::Ragged);
        let db = TimberDb::load_xml(&xml, &StoreOptions::in_memory()).unwrap();
        let vec_rows_before = kernels::vec_rows();
        for query in [QUERY1, QUERY2, QUERY_COUNT] {
            assert_matches_model(&db, &xml, query, "kernels");
        }
        // It was the kernels that answered, not a row loop.
        assert!(kernels::vec_rows() > vec_rows_before);
    });
}
