//! Execution options, the parallel per-tree driver, and the blocking
//! sinks' one partition → work → merge schedule ([`shard_map`]).
//!
//! TAX operators are bulk operators: most of their work is an
//! independent computation per input tree (match the pattern, build
//! witnesses, extract grouping values). With the store's sharded buffer
//! pool those per-tree computations are safe to run concurrently, so
//! the operators fan them out over [`ExecOptions::threads`] worker
//! threads via [`par_map`].
//!
//! Determinism: `par_map` splits the input into *contiguous* chunks,
//! one per worker, and concatenates the chunk results in input order.
//! Whatever an operator computes from the mapped results is therefore
//! byte-identical to a sequential run; parallelism only changes I/O
//! interleaving (hit/miss counts may differ), never output.

use crate::error::{Error, Result};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Run one per-item computation with panic containment: a panicking
/// closure becomes [`Error::Panic`] carrying the item's index and the
/// panic message, instead of unwinding through the operator (and, in the
/// parallel path, poisoning whatever the worker held).
fn contained<R>(index: usize, f: impl FnOnce() -> Result<R>) -> Result<R> {
    // AssertUnwindSafe: on Err the result of `f` is discarded entirely
    // and the error path reads no state `f` may have left inconsistent.
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|payload| {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_owned()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_owned()
        };
        Err(Error::Panic { index, message })
    })
}

/// Knobs controlling operator evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Worker threads for per-tree fan-out. `1` (the default) evaluates
    /// inline with no thread spawns; `0` is treated as `1`.
    pub threads: usize,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions { threads: 1 }
    }
}

impl ExecOptions {
    /// Inline, single-threaded evaluation (the default).
    pub fn sequential() -> Self {
        ExecOptions::default()
    }

    /// Evaluate with up to `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        ExecOptions {
            threads: threads.max(1),
        }
    }
}

/// Apply `f` to every item, in parallel over contiguous chunks, and
/// return the results in input order.
///
/// `f` receives the item's index alongside the item. On error, the
/// reported error is the one a sequential run would hit first: workers
/// stop their chunk at its first failure and chunks are concatenated in
/// order, so the lowest failing index wins.
pub fn par_map<T, R, F>(opts: &ExecOptions, items: &[T], f: F) -> Result<Vec<R>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> Result<R> + Sync,
{
    par_map_owned(opts, items.iter().collect(), f)
}

/// The scheduler under [`par_map`]: consumes the items instead of
/// borrowing them, so blocking sinks can hand each worker *ownership* of
/// one hash partition of their drained input. Contiguous chunks, one per
/// worker; results come back in input order.
pub fn par_map_owned<T, R, F>(opts: &ExecOptions, items: Vec<T>, f: F) -> Result<Vec<R>>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> Result<R> + Sync,
{
    let threads = opts.threads.max(1).min(items.len());
    if threads <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| contained(i, || f(i, t)))
            .collect();
    }
    let total = items.len();
    let chunk = total.div_ceil(threads);
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(threads);
    let mut iter = items.into_iter();
    loop {
        let c: Vec<T> = iter.by_ref().take(chunk).collect();
        if c.is_empty() {
            break;
        }
        chunks.push(c);
    }
    let chunk_results: Vec<Result<Vec<R>>> = std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = chunks
            .into_iter()
            .enumerate()
            .map(|(ci, owned)| {
                scope.spawn(move || {
                    let base = ci * chunk;
                    let mut out = Vec::with_capacity(owned.len());
                    for (j, item) in owned.into_iter().enumerate() {
                        // Containment is per item, so one poisoned tree
                        // fails only itself; first-error-by-index
                        // semantics treat the panic like any error.
                        out.push(contained(base + j, || f(base + j, item))?);
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(r) => r,
                // Unreachable for panics in `f` (contained above); only
                // a panic in the bookkeeping itself still unwinds.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    let mut out = Vec::with_capacity(total);
    for r in chunk_results {
        out.extend(r?);
    }
    Ok(out)
}

/// The blocking sinks' shared schedule: hash-partition, work per shard,
/// order-restoring merge.
///
/// `items` are routed to `opts.threads` shards (at most one per item) by
/// `route`, the hash of whatever key must stay together — every item of
/// one key lands in one shard, so per-key decisions are shard-local and
/// identical to a serial pass. `work` then runs once per shard with
/// ownership of its items (in parallel via [`par_map_owned`]) and tags
/// each output with the position a serial pass would have emitted it at;
/// the merge sorts on that tag, which makes the whole output
/// byte-identical at every thread count. Returns the merged outputs plus
/// the partition statistics (items per shard) for the metrics tree.
pub fn shard_map<T, K, R>(
    opts: &ExecOptions,
    items: Vec<T>,
    route: impl Fn(&T) -> u64,
    work: impl Fn(Vec<T>) -> Result<Vec<(K, R)>> + Sync,
) -> Result<(Vec<R>, ShardStats)>
where
    T: Send,
    K: Ord + Send,
    R: Send,
{
    let partitions = opts.threads.max(1).min(items.len().max(1));
    let mut shards: Vec<Vec<T>> = (0..partitions).map(|_| Vec::new()).collect();
    if partitions == 1 {
        shards[0] = items;
    } else {
        for item in items {
            let shard = (route(&item) % partitions as u64) as usize;
            shards[shard].push(item);
        }
    }
    let sizes = shards.iter().map(Vec::len).collect();
    let built = par_map_owned(opts, shards, |_, shard| work(shard))?;
    let mut all: Vec<(K, R)> = built.into_iter().flatten().collect();
    all.sort_by(|a, b| a.0.cmp(&b.0));
    Ok((
        all.into_iter().map(|(_, r)| r).collect(),
        ShardStats {
            partitions,
            sizes,
            stages: None,
        },
    ))
}

/// 64-bit FNV-1a over `bytes`, folded into `seed` (start from
/// [`FNV_SEED`]). Partition assignment must not depend on process- or
/// platform-random state: the same key lands in the same shard on every
/// run, so the partition-size/skew metrics of a sharded sink are
/// reproducible.
pub fn fnv1a(seed: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = seed;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// The FNV-1a offset basis — the starting seed for [`fnv1a`].
pub const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Partition statistics of one sharded blocking-sink evaluation, as
/// surfaced in the physical executor's metrics tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStats {
    /// Number of hash partitions the sink's drained input was split
    /// into (1 = the serial kernel).
    pub partitions: usize,
    /// Keyed items (witnesses / keyed trees) routed to each partition.
    pub sizes: Vec<usize>,
    /// A grouping sink's stage times, timed by the sink itself:
    /// extracting witnesses, each row's aggregate contribution (none for
    /// `GroupBy`), folding witnesses into groups, building the output —
    /// the last two summed over shards. `None` for the join sinks.
    pub stages: Option<[Duration; 4]>,
}

impl ShardStats {
    /// The single-partition (serial-kernel) statistics over `n` items.
    pub fn serial(n: usize) -> ShardStats {
        ShardStats {
            partitions: 1,
            sizes: vec![n],
            stages: None,
        }
    }

    /// Total keyed items across partitions.
    pub fn total(&self) -> usize {
        self.sizes.iter().sum()
    }

    /// Load skew: largest partition relative to the balanced-share size
    /// (`1.0` = perfectly balanced, `partitions` = everything in one
    /// shard). Empty inputs report `1.0`.
    pub fn skew(&self) -> f64 {
        let total = self.total();
        if total == 0 || self.partitions <= 1 {
            return 1.0;
        }
        let max = self.sizes.iter().copied().max().unwrap_or(0);
        (max * self.partitions) as f64 / total as f64
    }

    /// The skew factor when it was actually measured: `None` for the
    /// serial kernel and for empty inputs, where [`ShardStats::skew`]'s
    /// placeholder `1.0` would read as a measured, perfectly balanced
    /// split that never happened.
    pub fn measured_skew(&self) -> Option<f64> {
        if self.total() == 0 || self.partitions <= 1 {
            None
        } else {
            Some(self.skew())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..103).collect();
        for threads in [1, 2, 4, 7] {
            let opts = ExecOptions::with_threads(threads);
            let out = par_map(&opts, &items, |i, &x| {
                assert_eq!(i, x);
                Ok(x * 2)
            })
            .unwrap();
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_threads_behaves_as_one() {
        let opts = ExecOptions { threads: 0 };
        let out = par_map(&opts, &[1, 2, 3], |_, &x| Ok(x)).unwrap();
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn empty_input_spawns_nothing() {
        let opts = ExecOptions::with_threads(4);
        let out: Vec<i32> = par_map(&opts, &[] as &[i32], |_, &x| Ok(x)).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn first_error_by_index_wins() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 3, 8] {
            let opts = ExecOptions::with_threads(threads);
            let err = par_map(&opts, &items, |_, &x| {
                if x >= 17 {
                    Err(Error::UnknownLabel(format!("${x}")))
                } else {
                    Ok(x)
                }
            })
            .unwrap_err();
            match err {
                Error::UnknownLabel(l) => assert_eq!(l, "$17"),
                other => panic!("unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let opts = ExecOptions::with_threads(64);
        let out = par_map(&opts, &[10, 20], |_, &x| Ok(x + 1)).unwrap();
        assert_eq!(out, vec![11, 21]);
    }

    #[test]
    fn panic_becomes_typed_error() {
        let items: Vec<usize> = (0..40).collect();
        for threads in [1, 2, 8] {
            let opts = ExecOptions::with_threads(threads);
            let err = par_map(&opts, &items, |_, &x| {
                if x == 23 {
                    panic!("poisoned tree {x}");
                }
                Ok(x)
            })
            .unwrap_err();
            match err {
                Error::Panic { index, message } => {
                    assert_eq!(index, 23);
                    assert_eq!(message, "poisoned tree 23");
                }
                other => panic!("expected Error::Panic, got {other:?}"),
            }
        }
    }

    #[test]
    fn first_failure_wins_across_panics_and_errors() {
        // A panic at index 30 must lose to an error at index 11: the
        // reported failure is the one a sequential run hits first.
        let items: Vec<usize> = (0..50).collect();
        for threads in [1, 4] {
            let opts = ExecOptions::with_threads(threads);
            let err = par_map(&opts, &items, |_, &x| {
                if x == 30 {
                    panic!("late panic");
                }
                if x == 11 {
                    return Err(Error::Unsupported("early error".into()));
                }
                Ok(x)
            })
            .unwrap_err();
            assert!(
                matches!(err, Error::Unsupported(ref m) if m == "early error"),
                "got {err:?}"
            );
        }
    }

    #[test]
    fn par_map_owned_preserves_order_and_moves_items() {
        // Non-Clone payloads prove ownership transfer.
        struct Owned(usize);
        for threads in [1, 2, 4, 7] {
            let opts = ExecOptions::with_threads(threads);
            let items: Vec<Owned> = (0..53).map(Owned).collect();
            let out = par_map_owned(&opts, items, |i, item| {
                assert_eq!(i, item.0);
                Ok(item.0 * 3)
            })
            .unwrap();
            assert_eq!(out, (0..53).map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn par_map_owned_contains_panics_and_orders_errors() {
        let items: Vec<usize> = (0..40).collect();
        for threads in [1, 4] {
            let opts = ExecOptions::with_threads(threads);
            let err = par_map_owned(&opts, items.clone(), |_, x| {
                if x == 31 {
                    panic!("late panic");
                }
                if x == 9 {
                    return Err(Error::Unsupported("early".into()));
                }
                Ok(x)
            })
            .unwrap_err();
            assert!(matches!(err, Error::Unsupported(ref m) if m == "early"));
        }
    }

    #[test]
    fn par_map_owned_empty_input() {
        let opts = ExecOptions::with_threads(4);
        let out: Vec<i32> = par_map_owned(&opts, Vec::<i32>::new(), |_, x| Ok(x)).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn shard_map_restores_serial_order_at_every_thread_count() {
        // Items keyed by `x % 5`; each shard emits one (first position,
        // key, members) record per key, as a grouping sink would.
        let items: Vec<(usize, usize)> = (0..40).map(|i| (i, i % 5)).collect();
        let run = |threads: usize| {
            shard_map(
                &ExecOptions::with_threads(threads),
                items.clone(),
                |&(_, key)| fnv1a(FNV_SEED, &key.to_le_bytes()),
                |shard| {
                    let mut groups: Vec<(usize, (usize, Vec<usize>))> = Vec::new();
                    for (pos, key) in shard {
                        match groups.iter_mut().find(|g| g.1 .0 == key) {
                            Some(g) => g.1 .1.push(pos),
                            None => groups.push((pos, (key, vec![pos]))),
                        }
                    }
                    Ok(groups)
                },
            )
            .unwrap()
        };
        let (serial, stats) = run(1);
        assert_eq!(stats, ShardStats::serial(40));
        assert_eq!(serial.len(), 5);
        for threads in [2, 3, 8, 64] {
            let (out, stats) = run(threads);
            assert_eq!(out, serial, "threads={threads}");
            assert_eq!(stats.partitions, threads.min(40));
            assert_eq!(stats.sizes.len(), stats.partitions);
            assert_eq!(stats.total(), 40);
        }
    }

    #[test]
    fn shard_map_empty_input_is_one_serial_partition() {
        let (out, stats) = shard_map(
            &ExecOptions::with_threads(4),
            Vec::<u8>::new(),
            |_| 0,
            |shard| Ok(shard.into_iter().map(|x| (x, x)).collect()),
        )
        .unwrap();
        assert!(out.is_empty());
        assert_eq!(stats, ShardStats::serial(0));
    }

    #[test]
    fn shard_map_contains_panics_and_reports_errors() {
        for threads in [1, 4] {
            let err = shard_map(
                &ExecOptions::with_threads(threads),
                (0..16).collect::<Vec<usize>>(),
                |&x| x as u64,
                |shard| -> Result<Vec<(usize, usize)>> {
                    if shard.contains(&5) {
                        panic!("poisoned shard");
                    }
                    Ok(shard.into_iter().map(|x| (x, x)).collect())
                },
            )
            .unwrap_err();
            assert!(
                matches!(err, Error::Panic { ref message, .. } if message == "poisoned shard"),
                "threads={threads}: {err:?}"
            );
        }
    }

    #[test]
    fn fnv1a_is_deterministic_and_spreads() {
        // Pinned value: the hash feeds partition assignment, which the
        // skew metrics expose — it must never drift between runs.
        assert_eq!(fnv1a(FNV_SEED, b""), FNV_SEED);
        let h1 = fnv1a(FNV_SEED, b"Silberschatz");
        assert_eq!(h1, fnv1a(FNV_SEED, b"Silberschatz"));
        assert_ne!(h1, fnv1a(FNV_SEED, b"Garcia-Molina"));
        // Folding continues a previous state.
        let folded = fnv1a(fnv1a(FNV_SEED, b"Silber"), b"schatz");
        assert_eq!(folded, h1);
    }

    #[test]
    fn shard_stats_skew() {
        assert_eq!(ShardStats::serial(7).skew(), 1.0);
        let balanced = ShardStats {
            partitions: 4,
            sizes: vec![5, 5, 5, 5],
            stages: None,
        };
        assert_eq!(balanced.skew(), 1.0);
        assert_eq!(balanced.total(), 20);
        let lopsided = ShardStats {
            partitions: 4,
            sizes: vec![20, 0, 0, 0],
            stages: None,
        };
        assert_eq!(lopsided.skew(), 4.0);
        let empty = ShardStats {
            partitions: 4,
            sizes: vec![0; 4],
            stages: None,
        };
        assert_eq!(empty.skew(), 1.0);
        // measured_skew distinguishes "balanced" from "never measured":
        // serial kernels and empty inputs report None.
        assert_eq!(ShardStats::serial(7).measured_skew(), None);
        assert_eq!(empty.measured_skew(), None);
        assert_eq!(balanced.measured_skew(), Some(1.0));
        assert_eq!(lopsided.measured_skew(), Some(4.0));
    }

    #[test]
    fn run_survives_a_contained_panic() {
        // After a panic is contained, the same par_map machinery keeps
        // working — nothing is poisoned.
        let opts = ExecOptions::with_threads(4);
        let items: Vec<usize> = (0..16).collect();
        let _ = par_map(&opts, &items, |_, &x| -> Result<usize> {
            if x % 5 == 0 {
                panic!("boom");
            }
            Ok(x)
        });
        let out = par_map(&opts, &items, |_, &x| Ok(x)).unwrap();
        assert_eq!(out, items);
    }
}
