//! The span recorder of the traced pass. Spans are recorded from the
//! benchmark's side, around calls into each crate's public functions;
//! they stay in memory and are written out when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call: which layer, when, caused by which span, for which op.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// Spans of one operation share this identifier.
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span list for one thread. Recorders that share an
/// `origin` have comparable clocks and can be merged.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(origin: Instant) -> Self {
        Recorder {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: u64) -> usize {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        let now = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = now;
    }

    /// Run `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, op);
        let out = f();
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append another thread's spans, keeping their parent links.
    pub fn merge(&mut self, other: Recorder) {
        let shift = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + shift);
            s
        }));
    }
}

/// Each span's self time: its duration minus what its child spans cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Self times in milliseconds, grouped by span name.
pub fn self_ms_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        by_name.entry(s.name).or_default().push(own as f64 / 1e6);
    }
    by_name
}

/// For each span named `root`, the milliseconds its child spans cover:
/// what of an op the recorded layers account for.
pub fn covered_ms(spans: &[Span], root: &str) -> Vec<f64> {
    spans
        .iter()
        .zip(self_times_ns(spans))
        .filter(|(s, _)| s.name == root)
        .map(|(s, own)| (s.duration_ns() - own) as f64 / 1e6)
        .collect()
}

/// The trace file: one JSON object per span.
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let comma = if i + 1 < spans.len() { "," } else { "" };
        out.push_str(&format!(
            "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}{comma}\n",
            s.name, s.start_ns, s.end_ns, s.op
        ));
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // op [0,100] ⊃ execute [10,60] ⊃ match [20,50]; op ⊃ serialize [60,90].
        let spans = vec![
            span("op", 0, 100, None),
            span("execute", 10, 60, Some(0)),
            span("match", 20, 50, Some(1)),
            span("serialize", 60, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 20, 30, 30]);
        // Self times of a tree add up to the root's duration.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
        let by_name = self_ms_by_name(&spans);
        assert_eq!(by_name["match"], vec![30.0 / 1e6]);
        assert_eq!(covered_ms(&spans, "op"), vec![80.0 / 1e6]);
    }

    #[test]
    fn recorder_nests_and_merges() {
        let origin = Instant::now();
        let mut a = Recorder::new(origin);
        let outer = a.enter("op", 7);
        let inner = a.time("execute", 7, || 42);
        a.exit(outer);
        assert_eq!(inner, 42);
        assert_eq!(a.spans()[1].parent, Some(0));
        assert_eq!(a.spans()[0].parent, None);
        assert!(a.spans()[0].end_ns >= a.spans()[1].end_ns);

        let mut b = Recorder::new(origin);
        let outer = b.enter("op", 8);
        b.time("insert", 8, || ());
        b.exit(outer);
        a.merge(b);
        assert_eq!(a.spans().len(), 4);
        assert_eq!(a.spans()[3].parent, Some(2));
        assert_eq!(a.spans()[3].op, 8);
        let json = to_json(a.spans());
        assert!(json.contains("\"name\": \"insert\""));
        assert!(json.contains("\"parent\": null"));
    }
}
