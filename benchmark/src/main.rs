//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark run          [--seed <n>] [--seconds <s>] [--workload <name>] [--commit <hash>] [--out <file>]
//! benchmark check-repeat [--seed <n>] [--seconds <s>] [--workload <name>]
//! benchmark manifest
//! ```
//!
//! The first form is one run of one workload in one pass; its last line
//! of output is the JSON object `BENCHMARK.json`'s contract describes.
//! `run` does every workload, untraced then traced. `check-repeat` runs
//! the untraced set twice with one seed and fails when a metric differs
//! by more than its bound. Both give each pass a child process of its
//! own — this executable in the first form — because the allocator keeps
//! one workload's heap and the next one's peak memory would include it.

mod calibrate;
mod inputs;
mod spec;
mod stats;
mod sys;
mod trace;
mod workloads;

use stats::Report;
use std::path::Path;
use workloads::{Ctx, Res};

struct Args {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    commit: String,
    out: Option<String>,
    /// Where the first form also leaves its report for a parent process.
    values: Option<String>,
}

fn parse_args(argv: &[String]) -> Res<Args> {
    let mut args = Args {
        command: "one".to_owned(),
        workload: None,
        seed: 1,
        seconds: f64::from(spec::RUN_SECONDS),
        traced: false,
        commit: "unknown".to_owned(),
        out: None,
        values: None,
    };
    let mut rest = argv.iter().peekable();
    if let Some(first) = rest.peek() {
        if !first.starts_with("--") {
            args.command = rest.next().cloned().unwrap_or_default();
        }
    }
    while let Some(flag) = rest.next() {
        let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag} {value}: not a valid value");
        match flag.as_str() {
            "--workload" => args.workload = Some(value.clone()),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--commit" => args.commit = value.clone(),
            "--out" => args.out = Some(value.clone()),
            "--values" => args.values = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if let Some(w) = &args.workload {
        if !spec::WORKLOADS.iter().any(|known| known.name == w) {
            return Err(format!("unknown workload '{w}'"));
        }
    }
    Ok(args)
}

/// One pass of one workload: prints what it measured, writes the trace
/// file of a traced pass, and returns the report.
fn one_pass(name: &str, args: &Args, traced: bool, dir: &Path) -> Res<Report> {
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        traced,
        dir,
    };
    println!(
        "== {name}, {} pass, seed {}, {} s, nproc {} ==",
        if traced { "traced" } else { "untraced" },
        args.seed,
        args.seconds,
        sys::nproc()
    );
    let report = workloads::run(name, &ctx)?;
    print!("{}", report.table(traced));
    println!(
        "  attempted {} failed {} fail_ratio {}",
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    for why in &report.failures {
        println!("  FAILED: {why}");
    }
    if traced {
        let path = Path::new(sys::OUT_DIR).join(format!("trace-{name}.json"));
        std::fs::write(&path, trace::to_json(&report.spans)).map_err(workloads::text)?;
        println!(
            "  {} spans written to {}",
            report.spans.len(),
            path.display()
        );
    }
    Ok(report)
}

/// [`one_pass`] in a child process; its output goes to this one's.
fn child_pass(name: &str, args: &Args, traced: bool, dir: &Path) -> Res<Report> {
    let values = dir.join(format!("{name}-{}.values", u8::from(traced)));
    let status = std::env::current_exe()
        .and_then(|exe| {
            std::process::Command::new(exe)
                .args(["--workload", name, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--values")
                .arg(&values)
                .status()
        })
        .map_err(workloads::text)?;
    // 0 and 1 are verdicts on the outputs; anything else is no run at all.
    if !matches!(status.code(), Some(0 | 1)) {
        return Err(format!("the {name} pass ended with {status}"));
    }
    std::fs::read_to_string(&values)
        .ok()
        .and_then(|text| Report::from_values(&text))
        .ok_or_else(|| format!("the {name} pass left no report"))
}

fn selected(args: &Args) -> Vec<&'static spec::Workload> {
    spec::WORKLOADS
        .iter()
        .filter(|known| args.workload.as_deref().map_or(true, |w| w == known.name))
        .collect()
}

/// `run`: every workload, both passes; optionally a result file.
fn run_all(args: &Args, dir: &Path) -> Res<bool> {
    let mut correct = true;
    let mut entries = Vec::new();
    for name in selected(args).iter().map(|w| w.name) {
        let plain = child_pass(name, args, false, dir)?;
        let traced = child_pass(name, args, true, dir)?;
        correct &= plain.failed == 0 && traced.failed == 0;
        let side = |r: &Report, traced: bool| {
            r.complete(traced)
                .iter()
                .map(|m| {
                    format!(
                        "        \"{}\": {{\"value\": {}, \"unit\": \"{}\", \"samples\": {}}}",
                        m.name,
                        m.value,
                        spec::unit_of(m.name).unwrap_or(""),
                        m.samples
                    )
                })
                .collect::<Vec<_>>()
                .join(",\n")
        };
        entries.push(format!(
            "    \"{name}\": {{\n      \"attempted\": {}, \"failed\": {},\n      \"end_to_end\": {{\n{}\n      }},\n      \"per_layer\": {{\n{}\n      }}\n    }}",
            plain.attempted + traced.attempted,
            plain.failed + traced.failed,
            side(&plain, false),
            side(&traced, true)
        ));
    }
    if let Some(out) = &args.out {
        let json = format!(
            "{{\n  \"commit\": \"{}\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"nproc\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
            args.commit,
            args.seed,
            args.seconds,
            sys::nproc(),
            entries.join(",\n")
        );
        std::fs::write(out, json).map_err(workloads::text)?;
        println!("result written to {out}");
    }
    Ok(correct)
}

/// `check-repeat`: the untraced set twice; every end-to-end metric must
/// agree within its bound.
fn check_repeat(args: &Args, dir: &Path) -> Res<bool> {
    let workloads = selected(args);
    let mut sets: Vec<Vec<Report>> = Vec::new();
    for _ in 0..2 {
        let mut set = Vec::new();
        for w in &workloads {
            set.push(child_pass(w.name, args, false, dir)?);
        }
        sets.push(set);
    }
    let mut ok = true;
    println!("== check-repeat, seed {} ==", args.seed);
    for (i, w) in workloads.iter().enumerate() {
        let name = w.name;
        for m in &spec::END_TO_END {
            let a = sets[0][i].get(m.name).unwrap_or(0.0);
            let b = sets[1][i].get(m.name).unwrap_or(0.0);
            let apart = (a - b).abs() / a.abs().max(f64::MIN_POSITIVE);
            let exact = w.exact_counts && matches!(m.name, "write_amp" | "space_amp");
            let within = if exact { a == b } else { apart <= m.bound };
            ok &= within;
            println!(
                "  {name:<7} {:<12} {:>14} {:>14} {:>7.2} % of {:>4.0} %  {}",
                m.name,
                a,
                b,
                apart * 100.0,
                m.bound * 100.0,
                if within { "ok" } else { "DIFFERS" }
            );
        }
        ok &= sets[0][i].failed == 0 && sets[1][i].failed == 0;
    }
    Ok(ok)
}

fn real_main() -> i32 {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(why) => {
            eprintln!("benchmark: {why}");
            return 2;
        }
    };
    if args.command == "manifest" {
        print!("{}", spec::manifest_json());
        return 0;
    }
    let scratch = match sys::ScratchDir::create() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("benchmark: cannot create {}: {e}", sys::OUT_DIR);
            return 2;
        }
    };
    let outcome = match args.command.as_str() {
        "one" => match &args.workload {
            Some(name) => one_pass(name, &args, args.traced, scratch.path()).and_then(|report| {
                if let Some(path) = &args.values {
                    std::fs::write(path, report.to_values()).map_err(workloads::text)?;
                }
                // The driver reads this, the last line.
                println!("{}", report.result_line(args.traced));
                Ok(report.failed == 0)
            }),
            None => Err("--workload is required".to_owned()),
        },
        "run" => run_all(&args, scratch.path()),
        "check-repeat" => check_repeat(&args, scratch.path()),
        other => Err(format!("unknown command '{other}'")),
    };
    match outcome {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(why) => {
            eprintln!("benchmark: {why}");
            2
        }
    }
}

fn main() {
    // The scratch directory is gone by the time the process exits.
    std::process::exit(real_main());
}
