//! Per-operator execution metrics for the physical executor.
//!
//! Every operator of an executed plan records how many rows flowed
//! through it (and what kind of rows it emitted), how long its own
//! kernel call took, and the kernel rows that call counted on its
//! thread. The records mirror the plan shape as a [`PlanMetrics`]
//! tree — the payload of `EXPLAIN ANALYZE`. No operator reads a page
//! (keys are interned symbols on the label columns), so there is no
//! page counter here: pages are read when the output is written.

use std::fmt::Write;
use std::time::Duration;
use tax::exec::ShardStats;

/// What kind of rows an operator emitted (see
/// [`Batch`](crate::physical::Batch)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutKind {
    /// Stored rows only: node labels, no tree built.
    Stored,
    /// A selection's match rows only: no witness tree built.
    Matches,
    /// Groups over stored rows only, as columns: no group tree built.
    Groups,
    /// One-level rows only, as cells: no output tree built.
    Rows,
}

/// Execution metrics of one plan operator, with its children.
#[derive(Debug, Clone, Default)]
pub struct PlanMetrics {
    /// Operator description (the plan node's one-line rendering).
    pub op: String,
    /// Rows pulled from the operator's input(s), of every kind. Zero for
    /// leaves.
    pub trees_in: usize,
    /// Rows this operator emitted, of the kind `out_kind` says.
    pub trees_out: usize,
    /// The kind of the emitted rows; `None` when nothing was emitted.
    pub out_kind: Option<OutKind>,
    /// Wall-clock time spent in this operator's own work, excluding
    /// its inputs' work.
    pub elapsed: Duration,
    /// Rows that flowed through vectorized columnar kernels during this
    /// operator's own work (containment-run rows and the label rows the
    /// stored-row walk reads).
    pub vec_rows: u64,
    /// Rows a vectorized kernel existed for but that ran scalar instead
    /// (a containment join under a parent column out of document order).
    /// A plan silently dropping to scalar shows up here, not as a
    /// slowdown.
    pub vec_fallback: u64,
    /// A grouping sink's statistics — its stage times, `stages=p:…/b:…us`
    /// (the pass, the build) for `GroupBy` (`GroupBy → Project` with its
    /// gather) and `Rollup` (`Cube` over every prefix level); `None` for
    /// every other operator.
    pub shards: Option<ShardStats>,
    /// Metrics of the operator's input plans, in plan order.
    pub children: Vec<PlanMetrics>,
}

impl PlanMetrics {
    /// Indented rendering of the metrics tree, one operator per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth);
        let kind = match self.out_kind {
            None => "",
            Some(OutKind::Stored) => " stored",
            Some(OutKind::Matches) => " matches",
            Some(OutKind::Groups) => " groups",
            Some(OutKind::Rows) => " rows",
        };
        let _ = write!(
            out,
            "{pad}{} | in={} out={}{kind} time={:.3?} vec={} vecfb={}",
            self.op, self.trees_in, self.trees_out, self.elapsed, self.vec_rows, self.vec_fallback,
        );
        if let Some(shards) = &self.shards {
            let stages = shards.stages.iter();
            let stages: Vec<String> = stages
                .map(|(s, d)| format!("{s}:{}", d.as_micros()))
                .collect();
            let _ = write!(out, " stages={}us", stages.join("/"));
        }
        let _ = writeln!(out);
        for child in &self.children {
            child.render_into(out, depth + 1);
        }
    }

    /// Always 0: no operator builds a tree. The method stays only because
    /// the frozen benchmark reads it, until ROADMAP item 5(a) unfreezes
    /// it.
    pub fn total_tree_clones(&self) -> u64 {
        0
    }

    /// Sum of vectorized kernel rows over this node and all descendants.
    pub fn total_vec_rows(&self) -> u64 {
        self.vec_rows
            + self
                .children
                .iter()
                .map(PlanMetrics::total_vec_rows)
                .sum::<u64>()
    }

    /// Sum of scalar-fallback rows over this node and all descendants.
    pub fn total_vec_fallback(&self) -> u64 {
        self.vec_fallback
            + self
                .children
                .iter()
                .map(PlanMetrics::total_vec_fallback)
                .sum::<u64>()
    }

    /// Number of operators in the tree (this node included).
    pub fn node_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(PlanMetrics::node_count)
            .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_indents_children() {
        let m = PlanMetrics {
            op: "Rename to <x>".into(),
            trees_in: 3,
            trees_out: 3,
            out_kind: Some(OutKind::Rows),
            children: vec![PlanMetrics {
                op: "Project".into(),
                trees_out: 3,
                out_kind: Some(OutKind::Stored),
                ..Default::default()
            }],
            ..Default::default()
        };
        let text = m.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("Rename to <x> | in=3 out=3 rows time="));
        assert!(lines[1].starts_with("  Project | in=0 out=3 stored time="));
        // An operator that emitted nothing has no kind to report.
        let idle = PlanMetrics::default().render();
        assert!(idle.contains("out=0 time="), "{idle}");
        assert_eq!(m.node_count(), 2);
    }

    #[test]
    fn render_reports_vectorized_and_fallback_rows() {
        let m = PlanMetrics {
            op: "Rollup".into(),
            vec_rows: 1200,
            vec_fallback: 7,
            children: vec![PlanMetrics {
                op: "SelectDb".into(),
                vec_rows: 300,
                ..Default::default()
            }],
            ..Default::default()
        };
        assert!(m.render().contains("vec=1200 vecfb=7"), "{}", m.render());
        assert_eq!(m.total_vec_rows(), 1500);
        assert_eq!(m.total_vec_fallback(), 7);
    }

    #[test]
    fn render_includes_shard_stats_for_sinks() {
        let m = PlanMetrics {
            op: "GroupBy".into(),
            trees_in: 8,
            trees_out: 4,
            shards: Some(ShardStats::new(
                ['w', 'c', 'f', 'b']
                    .into_iter()
                    .zip([2800, 0, 650, 1100].map(Duration::from_micros))
                    .collect(),
            )),
            ..Default::default()
        };
        let text = m.render();
        assert!(
            text.ends_with(" vecfb=0 stages=w:2800/c:0/f:650/b:1100us\n"),
            "{text}"
        );
        // A folding sink names its two stages: the pass and the build.
        let m = PlanMetrics {
            op: "Rollup".into(),
            shards: Some(ShardStats::new(
                ['p', 'b']
                    .into_iter()
                    .zip([3000, 400].map(Duration::from_micros))
                    .collect(),
            )),
            ..Default::default()
        };
        assert!(
            m.render().ends_with(" stages=p:3000/b:400us\n"),
            "{}",
            m.render()
        );
        // Streaming operators (shards: None) render without the field.
        let s = PlanMetrics {
            op: "SelectDb".into(),
            ..Default::default()
        };
        assert!(!s.render().contains("stages="));
    }
}
