//! The benchmark's contract: workload names, metric names, units and
//! regression bounds. `BENCHMARK.json` at the repo root is this table
//! rendered by [`manifest_json`]; a unit test keeps the two equal.

/// Seconds one run measures (`--seconds` default, `run_seconds`).
pub const RUN_SECONDS: u32 = 20;

/// One workload: its name and why it exists.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// One client thread and no timers: counts repeat exactly for a seed.
    pub exact_counts: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "titles",
        why: "Paper E1, output-heavy: tree building, data population, serialization and buffer-pool traffic do the work; kernels do little. Alt op is the larger-than-pool cold query.",
        exact_counts: true,
    },
    Workload {
        name: "count",
        why: "Paper E2, kernel-heavy: tag filter, containment, key extraction and fold do the work; 0 page requests. Bypass for any titles optimisation. Alt op is the threaded query.",
        exact_counts: true,
    },
    Workload {
        name: "serve",
        why: "timberd on loopback over a durable store: one reader and one writer connection cross framing, dispatch, snapshot pin, commit lock, WAL group commit and publish concurrently.",
        exact_counts: false,
    },
    Workload {
        name: "ingest",
        why: "Write side and recovery: parse, intern, page build, WAL append, fdatasync, publish on a growing durable store, then a mid-commit kill and ARIES recovery. Reads do nothing.",
        exact_counts: true,
    },
];

/// A metric a user of the system sees. Every workload reports every one.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_tail_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "alt_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.15,
    },
    EndToEnd {
        name: "write_amp",
        unit: "ratio",
        better: "lower",
        bound: 0.1,
    },
    EndToEnd {
        name: "space_amp",
        unit: "ratio",
        better: "lower",
        bound: 0.1,
    },
];

/// A metric of one layer, from the traced pass: `(name, unit, better)`.
/// Names start with the crate they measure.
pub const PER_LAYER: [(&str, &str, &str); 69] = [
    ("xquery.parse_us", "us", "lower"),
    ("xquery.translate_us", "us", "lower"),
    ("xquery.optimize_us", "us", "lower"),
    ("xquery.rules_fired", "count", "lower"),
    ("timber.pin_us", "us", "lower"),
    ("timber.execute_ms", "ms", "lower"),
    ("timber.materialize_ms", "ms", "lower"),
    ("timber.op.select_ms", "ms", "lower"),
    ("timber.op.groupby_ms", "ms", "lower"),
    ("timber.op.project_ms", "ms", "lower"),
    ("timber.op.rollup_ms", "ms", "lower"),
    ("timber.tree_clones", "count", "lower"),
    ("timber.vec_rows", "count", "higher"),
    ("timber.vec_fallback_rows", "count", "lower"),
    ("timber.shard_parts", "count", "lower"),
    ("timber.shard_skew", "ratio", "lower"),
    ("timber.direct_plan_ms", "ms", "lower"),
    ("timber.direct_over_groupby", "ratio", "higher"),
    ("timber.par_over_serial", "ratio", "lower"),
    ("tax.match_ms", "ms", "lower"),
    ("tax.bindings", "count", "lower"),
    ("tax.rows_per_result", "ratio", "lower"),
    ("tax.groupby_ms", "ms", "lower"),
    ("tax.rollup_ms", "ms", "lower"),
    ("xmlstore.page_requests", "count", "lower"),
    ("xmlstore.pool_hit_ratio", "ratio", "higher"),
    ("xmlstore.disk_reads", "count", "lower"),
    ("xmlstore.evictions", "count", "lower"),
    ("xmlstore.kernel_tag_filter_us", "us", "lower"),
    ("xmlstore.kernel_containment_us", "us", "lower"),
    ("xmlstore.insert_ms", "ms", "lower"),
    ("xmlstore.wal_bytes_per_commit", "bytes", "lower"),
    ("xmlstore.wal_flushes_per_commit", "count", "lower"),
    ("xmlstore.page_bytes_per_user_byte", "ratio", "lower"),
    ("xmlstore.commit_first50_ms", "ms", "lower"),
    ("xmlstore.commit_last50_ms", "ms", "lower"),
    ("xmlstore.commit_growth", "ratio", "lower"),
    ("xmlstore.checkpoint_ms", "ms", "lower"),
    ("xmlstore.recover_redone", "count", "lower"),
    ("xmlstore.recover_undone", "count", "lower"),
    ("xmlstore.recover_committed", "count", "lower"),
    ("xmlstore.recover_losers", "count", "lower"),
    ("xmlstore.recover_s", "s", "lower"),
    ("xmlstore.reopen_clean_s", "s", "lower"),
    ("xmlstore.ingest_mb_per_s", "MB/s", "higher"),
    ("xmlstore.nodes", "count", "lower"),
    ("xmlstore.pages", "count", "lower"),
    ("xmlstore.dict_syms", "count", "lower"),
    ("xmlparse.parse_ms", "ms", "lower"),
    ("xmlparse.serialize_ms", "ms", "lower"),
    ("xmlparse.out_bytes", "bytes", "lower"),
    ("timber-client.frame_us", "us", "lower"),
    ("timberd.read_solo_ms", "ms", "lower"),
    ("timberd.wire_overhead_ms", "ms", "lower"),
    ("timberd.read_under_write_ratio", "ratio", "lower"),
    ("timberd.insert_ms", "ms", "lower"),
    ("timberd.replace_ms", "ms", "lower"),
    ("timberd.delete_ms", "ms", "lower"),
    ("timberd.checkpoint_ms", "ms", "lower"),
    ("timberd.write_tail_ms", "ms", "lower"),
    ("timberd.writes_per_s", "1/s", "higher"),
    ("timberd.read_max_during_checkpoint_ms", "ms", "lower"),
    ("process.cpu_s", "s", "lower"),
    ("process.cpu_util", "ratio", "lower"),
    ("trace.op_ms", "ms", "lower"),
    ("trace.self_sum_ms", "ms", "lower"),
    ("trace_overhead_ratio", "ratio", "lower"),
    ("host.nproc", "count", "higher"),
    ("host.spin_ms", "ms", "lower"),
];

/// The listed name and the unit of a metric of either list.
pub fn lookup(name: &str) -> Option<(&'static str, &'static str)> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| (m.name, m.unit))
        .or_else(|| PER_LAYER.iter().find(|m| m.0 == name).map(|m| (m.0, m.1)))
}

pub fn unit_of(name: &str) -> Option<&'static str> {
    lookup(name).map(|(_, unit)| unit)
}

/// The text of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}\n",
            w.name, w.why
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name, m.unit, m.better, m.bound
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (name, unit, better)) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{comma}\n"
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_this_table() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            manifest_json(),
            "regenerate with: cargo run --manifest-path benchmark/Cargo.toml -- manifest > BENCHMARK.json"
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.0));
        let total = names.len();
        for n in &names {
            assert!(
                n.len() <= 64 && n.as_bytes()[0].is_ascii_alphanumeric(),
                "{n}"
            );
            assert!(
                n.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b)),
                "{n}"
            );
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
    }
}
