//! Structural (containment) joins over index entry lists.
//!
//! Both inputs are sorted by `start`, which the tag index guarantees.
//! The pattern matcher joins whole candidate lists with the merge kernel
//! [`xmlstore::kernels::containment_runs`]; [`contained_in`] is its
//! one-scope form, binary-searching the descendant list for one
//! ancestor's interval. [`nested_loop_join`] is the `O(|A| · |D|)`
//! oracle both are checked against.

use std::ops::Range;
use xmlstore::{NodeColumns, NodeEntry};

/// All entries of `list` strictly contained in `scope`
/// (`scope.start < e.start && e.end < scope.end`). `list` must be sorted
/// by `start`; intervals must be properly nested (as containment labels
/// are), so the result is the contiguous run following `scope.start`.
pub fn contained_in<'a>(list: &'a [NodeEntry], scope: &NodeEntry) -> &'a [NodeEntry] {
    let lo = list.partition_point(|e| e.start <= scope.start);
    let hi = lo + list[lo..].partition_point(|e| e.start < scope.end);
    &list[lo..hi]
}

/// Which axis a [`nested_loop_join`] enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinAxis {
    /// Ancestor-descendant.
    AncestorDescendant,
    /// Parent-child (`level` difference of exactly 1).
    ParentChild,
}

/// The dense id range of the columnar label region covered by `scope`
/// (scope included), or the whole store when `scope` is `None`.
///
/// Node ids are preorder ordinals, so a subtree is one contiguous id
/// range: the scoped candidate set needs no per-tag merge, no sort, and
/// no entry materialization — callers index straight into the parallel
/// `start`/`end`/`level`/`tag` arrays.
pub fn scoped_ids(cols: &NodeColumns, scope: Option<&NodeEntry>) -> Range<u32> {
    match scope {
        Some(s) => s.id.0..cols.descendant_ids(s.id).end,
        None => 0..cols.len() as u32,
    }
}

/// Nested-loop containment join: the `O(|A| · |D|)` oracle the
/// containment kernels are cross-checked against. Returns
/// `(ancestor, descendant)` pairs, ordered by descendant.
pub fn nested_loop_join(
    ancestors: &[NodeEntry],
    descendants: &[NodeEntry],
    axis: JoinAxis,
) -> Vec<(NodeEntry, NodeEntry)> {
    let mut out = Vec::new();
    for d in descendants {
        for a in ancestors {
            if a.is_ancestor_of(d) {
                match axis {
                    JoinAxis::AncestorDescendant => out.push((*a, *d)),
                    JoinAxis::ParentChild => {
                        if d.level == a.level + 1 {
                            out.push((*a, *d));
                        }
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlstore::NodeId;

    fn e(id: u32, start: u32, end: u32, level: u16) -> NodeEntry {
        NodeEntry {
            id: NodeId(id),
            start,
            end,
            level,
        }
    }

    /// A small forest:
    /// a0[0,19]  level1
    ///   b1[1,8]   level2
    ///     c2[2,3]  level3
    ///     c3[4,5]  level3
    ///   b4[9,18]  level2
    ///     c5[10,11] level3
    /// a6[20,29] level1
    ///   c7[21,22] level2
    fn ancestors() -> Vec<NodeEntry> {
        vec![e(0, 0, 19, 1), e(6, 20, 29, 1)]
    }
    fn leaves() -> Vec<NodeEntry> {
        vec![
            e(2, 2, 3, 3),
            e(3, 4, 5, 3),
            e(5, 10, 11, 3),
            e(7, 21, 22, 2),
        ]
    }

    #[test]
    fn contained_in_basic() {
        let list = leaves();
        let within_a0 = contained_in(&list, &e(0, 0, 19, 1));
        assert_eq!(within_a0.len(), 3);
        let within_b1 = contained_in(&list, &e(1, 1, 8, 2));
        assert_eq!(within_b1.len(), 2);
        let within_a6 = contained_in(&list, &e(6, 20, 29, 1));
        assert_eq!(within_a6.len(), 1);
        // A node is not contained in itself.
        let self_scope = contained_in(&list, &e(2, 2, 3, 3));
        assert!(self_scope.is_empty());
    }

    #[test]
    fn containment_runs_match_per_scope_expansion() {
        use xmlstore::kernels::containment_runs;
        let descendants = leaves();
        // Ancestor list with nesting (a0 contains b1): runs overlap.
        let anc = vec![e(0, 0, 19, 1), e(1, 1, 8, 2), e(6, 20, 29, 1)];
        let runs = containment_runs(&anc, &descendants);
        assert_eq!(runs.len(), anc.len());
        for (a, &(lo, hi)) in anc.iter().zip(&runs) {
            assert_eq!(
                &descendants[lo as usize..hi as usize],
                contained_in(&descendants, a),
                "ancestor {:?}",
                a.id
            );
        }
        assert_eq!(runs, vec![(0, 3), (0, 2), (3, 4)]);
        assert!(containment_runs(&[], &descendants).is_empty());
        assert_eq!(containment_runs(&anc, &[]), vec![(0, 0); 3]);
    }

    #[test]
    fn nested_ancestor_lists() {
        // Ancestor list containing nested intervals (a0 and b1 both
        // ancestors of c2): both must pair, and only b1 as its parent.
        let a = vec![e(0, 0, 19, 1), e(1, 1, 8, 2)];
        let d = vec![e(2, 2, 3, 3)];
        let pairs = nested_loop_join(&a, &d, JoinAxis::AncestorDescendant);
        assert_eq!(pairs.len(), 2);
        let pc = nested_loop_join(&a, &d, JoinAxis::ParentChild);
        assert_eq!(pc, vec![(a[1], d[0])]);
    }

    #[test]
    fn empty_inputs() {
        assert!(nested_loop_join(&[], &leaves(), JoinAxis::AncestorDescendant).is_empty());
        assert!(nested_loop_join(&ancestors(), &[], JoinAxis::AncestorDescendant).is_empty());
    }

    #[test]
    fn disjoint_ranges_do_not_join() {
        let a = vec![e(0, 0, 5, 1)];
        let d = vec![e(1, 6, 7, 2)];
        assert!(nested_loop_join(&a, &d, JoinAxis::AncestorDescendant).is_empty());
    }

    /// The test forest as a columnar label region, under a spanning root:
    /// root id0 (0,31,0); a id1 (1,20,1); b id2 (2,9,2); c id3 (3,4,3);
    /// c id4 (5,6,3); b id5 (10,19,2); c id6 (11,12,3); a id7 (21,30,1);
    /// c id8 (22,23,2).
    fn columns() -> NodeColumns {
        use xmlstore::{NodeKind, NO_SYM};
        let rows: [(u32, u32, u16); 9] = [
            (0, 31, 0),
            (1, 20, 1),
            (2, 9, 2),
            (3, 4, 3),
            (5, 6, 3),
            (10, 19, 2),
            (11, 12, 3),
            (21, 30, 1),
            (22, 23, 2),
        ];
        let mut cols = NodeColumns::with_capacity(rows.len());
        for (start, end, level) in rows {
            cols.push(start, end, level, 0, NodeKind::Element, NO_SYM);
        }
        cols
    }

    #[test]
    fn scoped_ids_are_dense_subtree_ranges() {
        let cols = columns();
        assert_eq!(scoped_ids(&cols, None), 0..9);
        // Whole store through the root scope.
        assert_eq!(scoped_ids(&cols, Some(&cols.entry(NodeId(0)))), 0..9);
        // First `a` subtree: ids 1..=6.
        assert_eq!(scoped_ids(&cols, Some(&cols.entry(NodeId(1)))), 1..7);
        // A leaf scopes to itself.
        assert_eq!(scoped_ids(&cols, Some(&cols.entry(NodeId(3)))), 3..4);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use smallrand::prop::{check, Gen};
    use smallrand::RngCore;
    use xmlstore::{NodeEntry, NodeId};

    /// Generate a random labelled forest by simulating a DFS, then split
    /// its nodes into two random sublists.
    fn random_forest(depth_seed: Vec<u8>) -> Vec<NodeEntry> {
        let mut entries = Vec::new();
        let mut counter = 0u32;
        let mut id = 0u32;
        // stack of (start, level) for open nodes
        let mut open: Vec<(u32, u16, u32)> = Vec::new();
        for b in depth_seed {
            if b % 3 == 0 || open.is_empty() {
                // open a node
                open.push((counter, open.len() as u16, id));
                id += 1;
                counter += 1;
            } else {
                // close a node
                let (start, level, nid) = open.pop().unwrap();
                entries.push(NodeEntry {
                    id: NodeId(nid),
                    start,
                    end: counter,
                    level,
                });
                counter += 1;
            }
        }
        while let Some((start, level, nid)) = open.pop() {
            entries.push(NodeEntry {
                id: NodeId(nid),
                start,
                end: counter,
                level,
            });
            counter += 1;
        }
        entries.sort_by_key(|e| e.start);
        entries
    }

    fn random_depth_seed(g: &mut Gen) -> Vec<u8> {
        g.vec(0, 119, |g| g.usize_in(0, 255) as u8)
    }

    #[test]
    fn containment_runs_equal_per_scope_on_random_forests() {
        check("containment_runs_equal_per_scope", 256, |g| {
            let forest = random_forest(random_depth_seed(g));
            let mask = g.rng().next_u64();
            let mut ancestors = Vec::new();
            let mut descendants = Vec::new();
            for (i, e) in forest.iter().enumerate() {
                if (mask >> (i % 64)) & 1 == 0 {
                    ancestors.push(*e);
                } else {
                    descendants.push(*e);
                }
            }
            let runs = xmlstore::kernels::containment_runs(&ancestors, &descendants);
            assert_eq!(runs.len(), ancestors.len());
            for (a, &(lo, hi)) in ancestors.iter().zip(&runs) {
                assert_eq!(
                    &descendants[lo as usize..hi as usize],
                    contained_in(&descendants, a)
                );
            }
            // Expanding the runs reproduces the nested-loop AD join
            // (ancestor-major order).
            let expanded: Vec<(u32, u32)> = ancestors
                .iter()
                .zip(&runs)
                .flat_map(|(a, &(lo, hi))| {
                    descendants[lo as usize..hi as usize]
                        .iter()
                        .map(|d| (a.id.0, d.id.0))
                })
                .collect();
            let mut oracle: Vec<(u32, u32)> =
                nested_loop_join(&ancestors, &descendants, JoinAxis::AncestorDescendant)
                    .into_iter()
                    .map(|(a, d)| (a.id.0, d.id.0))
                    .collect();
            oracle.sort_unstable();
            let mut expanded_sorted = expanded;
            expanded_sorted.sort_unstable();
            assert_eq!(expanded_sorted, oracle);
        });
    }

    #[test]
    fn contained_in_equals_filter() {
        check("contained_in_equals_filter", 256, |g| {
            let forest = random_forest(random_depth_seed(g));
            if forest.is_empty() {
                return;
            }
            let pick = g.rng().next_u64() as usize;
            let scope = forest[pick % forest.len()];
            let by_search: Vec<_> = contained_in(&forest, &scope).to_vec();
            let by_filter: Vec<_> = forest
                .iter()
                .filter(|e| scope.is_ancestor_of(e))
                .copied()
                .collect();
            assert_eq!(by_search, by_filter);
        });
    }
}
