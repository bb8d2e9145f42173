//! Medians, percentiles, and the report one run produces.

use crate::spec;

/// The percentiles a timing may be reported at, lowest first, each with
/// the samples per thousand that lie beyond it.
const LADDER: [(f64, usize); 6] = [
    (50.0, 500),
    (75.0, 250),
    (90.0, 100),
    (95.0, 50),
    (99.0, 10),
    (99.9, 1),
];

/// The highest percentile of [`LADDER`], at most `cap`, that has at
/// least ten of `n` samples beyond it. Falls back to the median when
/// even p75 has fewer.
pub fn tail_percentile(n: usize, cap: f64) -> f64 {
    LADDER
        .iter()
        .filter(|&&(p, beyond)| p <= cap && n * beyond >= 10_000)
        .fold(50.0, |best, &(p, _)| best.max(p))
}

/// Nearest-rank percentile of unsorted samples; 0 when there are none.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (mean of the middle two for an even count); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// One measured metric: its value and how many samples stand behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Measured {
    pub name: &'static str,
    pub value: f64,
    pub samples: usize,
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted, verification reads included.
    pub attempted: u64,
    /// Operations that errored or returned wrong bytes.
    pub failed: u64,
    /// First few failures, for the human-readable output.
    pub failures: Vec<String>,
    pub metrics: Vec<Measured>,
    /// The traced pass's spans, for the trace file.
    pub spans: Vec<crate::trace::Span>,
}

impl Report {
    /// Record a metric. The name must be one `BENCHMARK.json` lists.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(spec::unit_of(name).is_some(), "unlisted metric {name}");
        assert!(value.is_finite(), "{name} is not a number: {value}");
        match self.metrics.iter_mut().find(|m| m.name == name) {
            Some(m) => {
                m.value = value;
                m.samples = samples;
            }
            None => self.metrics.push(Measured {
                name,
                value,
                samples,
            }),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Count one attempted operation; `Err` marks it failed.
    pub fn attempt(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(why);
            }
        }
    }

    /// `Ok` when `got == want`, else a short description of the mismatch.
    pub fn same_bytes(what: &str, got: &str, want: &str) -> Result<(), String> {
        if got == want {
            Ok(())
        } else {
            Err(format!(
                "{what}: {} bytes differ from the expected {} bytes",
                got.len(),
                want.len()
            ))
        }
    }

    /// Median of `samples_ms` as `p50` and their tail, capped at
    /// percentile `cap`, as `tail`. Returns the percentile used.
    pub fn set_latency(
        &mut self,
        p50: &'static str,
        tail: &'static str,
        cap: f64,
        samples_ms: &[f64],
    ) -> f64 {
        let p = tail_percentile(samples_ms.len(), cap);
        self.set(p50, median(samples_ms), samples_ms.len());
        self.set(tail, percentile(samples_ms, p), samples_ms.len());
        p
    }

    /// Every metric of the pass in `BENCHMARK.json` order; per-layer
    /// metrics a workload does not exercise read 0 with 0 samples.
    pub fn complete(&self, traced: bool) -> Vec<Measured> {
        let names: Vec<&'static str> = if traced {
            spec::PER_LAYER.iter().map(|m| m.0).collect()
        } else {
            spec::END_TO_END.iter().map(|m| m.name).collect()
        };
        names
            .into_iter()
            .map(|name| {
                self.metrics
                    .iter()
                    .find(|m| m.name == name)
                    .cloned()
                    .unwrap_or_else(|| {
                        assert!(traced, "end-to-end metric {name} was not measured");
                        Measured {
                            name,
                            value: 0.0,
                            samples: 0,
                        }
                    })
            })
            .collect()
    }

    /// The one-line JSON object the driver reads.
    pub fn result_line(&self, traced: bool) -> String {
        let metrics: Vec<String> = self
            .complete(traced)
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    m.value,
                    spec::unit_of(m.name).unwrap_or("")
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// What a parent process needs of this report, one item per line.
    pub fn to_values(&self) -> String {
        let mut out = format!("attempted {}\nfailed {}\n", self.attempted, self.failed);
        for m in &self.metrics {
            out.push_str(&format!("metric {} {} {}\n", m.name, m.value, m.samples));
        }
        out
    }

    /// The inverse of [`Report::to_values`].
    pub fn from_values(text: &str) -> Option<Report> {
        let mut report = Report::default();
        for line in text.lines() {
            let fields: Vec<&str> = line.split(' ').collect();
            match fields[..] {
                ["attempted", n] => report.attempted = n.parse().ok()?,
                ["failed", n] => report.failed = n.parse().ok()?,
                ["metric", name, value, samples] => report.metrics.push(Measured {
                    name: spec::lookup(name)?.0,
                    value: value.parse().ok()?,
                    samples: samples.parse().ok()?,
                }),
                _ => return None,
            }
        }
        Some(report)
    }

    /// One line per metric: name, value, unit, sample count.
    pub fn table(&self, traced: bool) -> String {
        self.complete(traced)
            .iter()
            .map(|m| {
                format!(
                    "  {:<40} {:>16} {:<6} n={}\n",
                    m.name,
                    m.value,
                    spec::unit_of(m.name).unwrap_or(""),
                    m.samples
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(0, 99.9), 50.0);
        assert_eq!(tail_percentile(39, 99.9), 50.0);
        assert_eq!(tail_percentile(40, 99.9), 75.0);
        assert_eq!(tail_percentile(99, 99.9), 75.0);
        assert_eq!(tail_percentile(100, 99.9), 90.0);
        assert_eq!(tail_percentile(200, 99.9), 95.0);
        assert_eq!(tail_percentile(999, 99.9), 95.0);
        assert_eq!(tail_percentile(1000, 99.9), 99.0);
        assert_eq!(tail_percentile(10_000, 99.9), 99.9);
        // The cap keeps a workload's tail the same quantity on a fast host.
        assert_eq!(tail_percentile(10_000, 90.0), 90.0);
        assert_eq!(tail_percentile(60, 90.0), 75.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.9), 100.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn report_prints_sample_counts_and_a_driver_line() {
        let mut r = Report::default();
        let ms: Vec<f64> = (1..=120).map(f64::from).collect();
        let p = r.set_latency("op_p50_ms", "op_tail_ms", 90.0, &ms);
        assert_eq!(p, 90.0);
        assert_eq!(r.get("op_p50_ms"), Some(60.5));
        assert_eq!(r.get("op_tail_ms"), Some(108.0));
        for m in &spec::END_TO_END {
            if r.get(m.name).is_none() {
                r.set(m.name, 1.5, 1);
            }
        }
        r.attempt(Ok(()));
        r.attempt(Report::same_bytes("probe", "a", "b"));
        assert!(r.table(false).contains("n=120"));
        let line = r.result_line(false);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1, "));
        assert!(line.contains("\"op_p50_ms\": {\"value\": 60.5, \"unit\": \"ms\"}"));
        // The traced pass lists every per-layer metric, unmeasured ones as 0.
        let traced = r.result_line(true);
        assert_eq!(traced.matches("\"unit\"").count(), spec::PER_LAYER.len());
        // A parent process gets the same report back, digit for digit.
        let back = Report::from_values(&r.to_values()).unwrap();
        assert_eq!((back.attempted, back.failed), (2, 1));
        assert_eq!(back.metrics, r.metrics);
        assert!(Report::from_values("metric no.such.metric 1 1\n").is_none());
    }
}
