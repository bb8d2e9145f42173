//! Execution options, panic containment, and a grouping sink's
//! statistics.
//!
//! A query runs on the calling thread: every operator has one serial
//! kernel, and concurrency is *between* queries (MVCC snapshots, one
//! server thread per connection), never inside one. What is left here is
//! what the executor wraps around the kernels: [`contain`], the one
//! boundary that turns a panicking kernel into [`Error::Panic`], and the
//! [`ShardStats`] a grouping sink reports to the metrics tree.

use crate::error::{Error, Result};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Execution options. There are none left to set: queries run on the
/// calling thread. The type remains for callers that still pass it to
/// the executor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecOptions;

impl ExecOptions {
    /// The options every query runs with.
    pub fn sequential() -> Self {
        ExecOptions
    }
}

/// Run `f` with panic containment: a panic becomes [`Error::Panic`]
/// carrying its message, instead of unwinding through the caller.
pub fn contain<R>(f: impl FnOnce() -> R) -> Result<R> {
    // AssertUnwindSafe: on Err the result of `f` is discarded entirely
    // and the error path reads no state `f` may have left inconsistent.
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_owned()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_owned()
        };
        Error::Panic(message)
    })
}

/// A grouping sink's stage times, timed by the sink itself, each under
/// the letter `stages=` names it by: `GroupBy`'s witness extraction
/// (`w`), aggregate contributions (`c`, none), group formation (`f`) and
/// build (`b`); `Rollup`'s and `Cube`'s one pass over the rows (`p`) and
/// build (`b`).
pub type Stages = Vec<(char, Duration)>;

/// A grouping sink's statistics as the metrics tree carries them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStats {
    /// Always 1: a sink runs on the calling thread, over its whole input.
    pub partitions: usize,
    /// The sink's stage times.
    pub stages: Stages,
}

impl ShardStats {
    /// The statistics of one sink run.
    pub fn new(stages: Stages) -> ShardStats {
        ShardStats {
            partitions: 1,
            stages,
        }
    }

    /// Load skew across partitions: always `1.0`, there is one.
    pub fn skew(&self) -> f64 {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panic_becomes_typed_error() {
        let err = contain(|| -> usize { panic!("poisoned tree {}", 23) }).unwrap_err();
        match err {
            Error::Panic(message) => assert_eq!(message, "poisoned tree 23"),
            other => panic!("expected Error::Panic, got {other:?}"),
        }
        assert!(matches!(contain(|| panic!("static")), Err(Error::Panic(m)) if m == "static"));
    }

    #[test]
    fn shard_stats_skew() {
        let stats = ShardStats::new(vec![('p', Duration::from_micros(1))]);
        assert_eq!((stats.partitions, stats.skew()), (1, 1.0));
    }

    #[test]
    fn run_survives_a_contained_panic() {
        // After a panic is contained, nothing is poisoned: the next
        // call runs normally.
        let _ = contain(|| panic!("boom"));
        assert_eq!(contain(|| 7).unwrap(), 7);
    }
}
