//! Minimal wall-clock benchmark harness.
//!
//! The workspace builds offline, so the external `criterion` crate is
//! unavailable; this crate provides the slice of its API the benches
//! use — [`Criterion`], [`BenchmarkGroup`], [`BenchmarkId`],
//! [`Throughput`], [`Bencher::iter`], and the [`criterion_group!`] /
//! [`criterion_main!`] macros — backed by a simple measure-and-report
//! loop: one warm-up run per benchmark, then `sample_size` timed runs,
//! reporting min/median/mean and optional throughput to stdout.
//!
//! Environment knobs:
//!
//! * `MICROBENCH_SAMPLES=N` overrides every group's sample size (use
//!   `MICROBENCH_SAMPLES=1` for a smoke run).

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

/// Work-rate annotation for a benchmark group.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Input elements processed per iteration.
    Elements(u64),
    /// Input bytes processed per iteration.
    Bytes(u64),
}

/// A benchmark's identity: function name plus an optional parameter.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    function: String,
    parameter: Option<String>,
}

impl BenchmarkId {
    /// An id with a parameter axis, e.g. `BenchmarkId::new("identifier", 500)`.
    pub fn new(function: impl Into<String>, parameter: impl std::fmt::Display) -> Self {
        BenchmarkId {
            function: function.into(),
            parameter: Some(parameter.to_string()),
        }
    }

    fn render(&self, group: &str) -> String {
        match &self.parameter {
            Some(p) => format!("{group}/{}/{p}", self.function),
            None => format!("{group}/{}", self.function),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(function: &str) -> Self {
        BenchmarkId {
            function: function.to_owned(),
            parameter: None,
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(function: String) -> Self {
        BenchmarkId {
            function,
            parameter: None,
        }
    }
}

/// Top-level harness state; create one per bench binary via
/// [`criterion_group!`].
#[derive(Debug, Default)]
pub struct Criterion {
    _private: (),
}

impl Criterion {
    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _criterion: self,
            name: name.into(),
            sample_size: 20,
            throughput: None,
        }
    }
}

/// A named set of benchmarks sharing sample-count and throughput
/// settings.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Set the number of timed runs per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Annotate subsequent benchmarks with a work rate.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Run a benchmark with no separate input value.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut b = Bencher::new(self.effective_samples());
        f(&mut b);
        self.report(&id, &b);
        self
    }

    /// Run a benchmark parameterized by `input`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut b = Bencher::new(self.effective_samples());
        f(&mut b, input);
        self.report(&id, &b);
        self
    }

    /// Close the group (prints a trailing newline for readability).
    pub fn finish(self) {
        println!();
    }

    fn effective_samples(&self) -> usize {
        std::env::var("MICROBENCH_SAMPLES")
            .ok()
            .and_then(|v| v.parse().ok())
            .filter(|&n| n >= 1)
            .unwrap_or(self.sample_size)
    }

    fn report(&self, id: &BenchmarkId, b: &Bencher) {
        let mut sorted = b.samples.clone();
        if sorted.is_empty() {
            println!("{:<52} (no samples)", id.render(&self.name));
            return;
        }
        sorted.sort();
        let min = sorted[0];
        let median = sorted[sorted.len() / 2];
        let total: Duration = sorted.iter().sum();
        let mean = total / sorted.len() as u32;
        let mut line = format!(
            "{:<52} time: [min {:>9}  med {:>9}  mean {:>9}]  ({} samples)",
            id.render(&self.name),
            fmt_duration(min),
            fmt_duration(median),
            fmt_duration(mean),
            sorted.len(),
        );
        if let Some(tp) = self.throughput {
            let per_sec = |units: u64| units as f64 / median.as_secs_f64().max(1e-12);
            match tp {
                Throughput::Elements(n) => {
                    line.push_str(&format!("  {}/s", fmt_rate(per_sec(n), "elem")));
                }
                Throughput::Bytes(n) => {
                    line.push_str(&format!("  {}/s", fmt_rate(per_sec(n), "B")));
                }
            }
        }
        println!("{line}");
    }
}

/// Times the closure handed to [`BenchmarkGroup`] benchmarks.
pub struct Bencher {
    sample_size: usize,
    samples: Vec<Duration>,
}

impl Bencher {
    fn new(sample_size: usize) -> Self {
        Bencher {
            sample_size,
            samples: Vec::with_capacity(sample_size),
        }
    }

    /// Run the routine once untimed (warm-up), then `sample_size` timed
    /// runs. The routine's result is passed through `black_box` so the
    /// optimizer cannot discard the work.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut routine: F) {
        std::hint::black_box(routine());
        for _ in 0..self.sample_size {
            let start = Instant::now();
            std::hint::black_box(routine());
            self.samples.push(start.elapsed());
        }
    }

    /// Median of the recorded samples (used by tests and thread sweeps).
    pub fn median(&self) -> Option<Duration> {
        if self.samples.is_empty() {
            return None;
        }
        let mut sorted = self.samples.clone();
        sorted.sort();
        Some(sorted[sorted.len() / 2])
    }
}

fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns >= 1_000_000_000 {
        format!("{:.3}s", d.as_secs_f64())
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

fn fmt_rate(rate: f64, unit: &str) -> String {
    if rate >= 1e9 {
        format!("{:.2} G{unit}", rate / 1e9)
    } else if rate >= 1e6 {
        format!("{:.2} M{unit}", rate / 1e6)
    } else if rate >= 1e3 {
        format!("{:.2} K{unit}", rate / 1e3)
    } else {
        format!("{rate:.2} {unit}")
    }
}

/// Define a function running a list of benchmark functions, mirroring
/// `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Define the bench binary's `main`, mirroring `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_records_sample_count() {
        let mut b = Bencher::new(5);
        let mut runs = 0u32;
        b.iter(|| runs += 1);
        // warm-up + 5 samples
        assert_eq!(runs, 6);
        assert_eq!(b.samples.len(), 5);
        assert!(b.median().is_some());
    }

    #[test]
    fn group_runs_benchmarks() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("unit");
        group.sample_size(2).throughput(Throughput::Elements(100));
        let mut calls = 0u32;
        group.bench_with_input(BenchmarkId::new("param", 7), &3u64, |b, &input| {
            b.iter(|| {
                calls += 1;
                input * 2
            })
        });
        group.bench_function("plain", |b| b.iter(|| 1 + 1));
        group.finish();
        assert_eq!(calls, 3); // warm-up + 2 samples
    }

    #[test]
    fn id_rendering() {
        assert_eq!(BenchmarkId::new("f", 12).render("g"), "g/f/12".to_string());
        assert_eq!(BenchmarkId::from("f").render("g"), "g/f".to_string());
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_nanos(12)), "12ns");
        assert_eq!(fmt_duration(Duration::from_micros(12)), "12.000us");
        assert_eq!(fmt_duration(Duration::from_millis(12)), "12.000ms");
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.000s");
    }
}
