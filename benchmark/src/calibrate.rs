//! Host-speed compensation for timings.
//!
//! The sandbox this benchmark runs in changes speed every few seconds to
//! minutes: a fixed register-only loop takes 1.0 ms or 1.27 ms (two clock
//! modes; `/proc/stat` shows no steal), and allocation-heavy code slows
//! by up to another 25 % on its own when the memory system is contended.
//! A raw median of 185 ops then spreads 15 % from run to run, and no run
//! length the driver allows averages that out. So a fixed quantum of work
//! — half register arithmetic, half small-string allocation, the two
//! things the engine does — is timed beside the ops, at most once per
//! [`STALE`], and every reported end-to-end time is multiplied by
//! `REFERENCE_MS / quantum`: milliseconds as they would read on a host
//! whose quantum takes [`REFERENCE_MS`]. Measured on 15-second windows
//! over four minutes, that takes the spread of the `titles` op from 19 %
//! to 3 % and of the `count` op from 7 % to 3 %; arithmetic alone or
//! allocation alone leaves 6 – 7 % on one of the two.
//!
//! Per-layer times of the traced pass are raw; `host.spin_ms` is reported
//! with them so they can be scaled the same way.

use crate::stats::median;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Xorshift steps and strings built per quantum: about 0.5 ms each on
/// this host at its fastest.
const SPIN_ITERATIONS: u64 = 330_000;
const STRINGS: usize = 8_000;

/// What the quantum takes on the host that reported times refer to.
pub const REFERENCE_MS: f64 = 1.0;

/// A spin older than this is repeated before the next op.
const STALE: Duration = Duration::from_millis(20);

/// Spins the current speed is the median of: one outlier cannot move it.
const WINDOW: usize = 3;

/// Milliseconds the fixed quantum of work takes now.
fn spin_ms() -> f64 {
    let t0 = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0u64;
    for _ in 0..SPIN_ITERATIONS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x);
    }
    let names: Vec<String> = (0..STRINGS).map(|i| format!("author-{i}-name")).collect();
    let bytes: usize = names.iter().map(String::len).sum();
    std::hint::black_box((acc, bytes));
    drop(names);
    t0.elapsed().as_secs_f64() * 1e3
}

/// Tracks the host's speed on one thread.
pub struct Calibrator {
    window: VecDeque<f64>,
    last: Instant,
    all: Vec<f64>,
    spinning_s: f64,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        let mut cal = Calibrator {
            window: VecDeque::with_capacity(WINDOW),
            last: Instant::now(),
            all: Vec::new(),
            spinning_s: 0.0,
        };
        for _ in 0..WINDOW {
            cal.spin();
        }
        cal
    }

    fn spin(&mut self) {
        let ms = spin_ms();
        if self.window.len() == WINDOW {
            self.window.pop_front();
        }
        self.window.push_back(ms);
        self.all.push(ms);
        self.spinning_s += ms / 1e3;
        self.last = Instant::now();
    }

    /// Call before an op: spins again when the last spin is stale.
    pub fn refresh(&mut self) {
        if self.last.elapsed() >= STALE {
            self.spin();
        }
    }

    /// What a time measured now is multiplied by.
    pub fn factor(&self) -> f64 {
        let recent: Vec<f64> = self.window.iter().copied().collect();
        REFERENCE_MS / median(&recent)
    }

    /// Median spin over the calibrator's life, ms.
    pub fn typical_spin_ms(&self) -> f64 {
        median(&self.all)
    }

    /// Start timing a stretch of many ops.
    pub fn begin(&self) -> Stretch {
        Stretch {
            started: Instant::now(),
            spinning_s: self.spinning_s,
            // The spin just before the stretch speaks for its start.
            first_spin: self.all.len() - 1,
        }
    }

    /// Seconds since `stretch` began, the spins in it taken out, scaled
    /// by the mean factor of the spins beside it. The mean, not the
    /// median: a stretch that saw both of the host's speeds is a mixture.
    pub fn scaled_seconds(&self, stretch: &Stretch) -> f64 {
        let busy_s =
            stretch.started.elapsed().as_secs_f64() - (self.spinning_s - stretch.spinning_s);
        let spins = &self.all[stretch.first_spin..];
        let factor = spins.iter().map(|ms| REFERENCE_MS / ms).sum::<f64>() / spins.len() as f64;
        busy_s * factor
    }
}

/// A stretch of a loop under a [`Calibrator`].
pub struct Stretch {
    started: Instant,
    spinning_s: f64,
    first_spin: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spins_only_when_stale_and_scales_by_the_recent_median() {
        let mut cal = Calibrator::new();
        assert_eq!(cal.all.len(), WINDOW);
        cal.last = Instant::now();
        cal.refresh();
        assert_eq!(cal.all.len(), WINDOW, "a fresh spin is not repeated");
        cal.last = Instant::now() - STALE;
        cal.refresh();
        assert_eq!(cal.all.len(), WINDOW + 1);
        assert_eq!(cal.window.len(), WINDOW);
        // One slow outlier among the last three does not move the factor.
        cal.window = VecDeque::from([2.0, 50.0, 2.0]);
        assert_eq!(cal.factor(), REFERENCE_MS / 2.0);
        // A stretch is scaled by the spins beside it and does not count them.
        cal.all = vec![1.0, 4.0];
        let stretch = cal.begin();
        cal.all.extend([4.0, 2.0]);
        cal.spinning_s += 1200.0;
        // -1200 s of "work" at factors 1/4, 1/4 and 1/2: mean 1/3.
        let scaled = cal.scaled_seconds(&stretch);
        assert!((-400.0..-399.0).contains(&scaled), "{scaled}");
    }
}
