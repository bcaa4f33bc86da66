//! `perfbench`: the benchmark of the graft-svc matching service.
//!
//! ```text
//! perfbench --workload cold-kkt|cold-road|serve-kkt|all --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it starts a `graft_svc::Server` in this process on
//! loopback TCP, drives the workload's closed-loop clients for `S`
//! seconds, checks every reply, and reports the end-to-end metrics. With
//! `--trace 1` it replays the same seeded stream in-process with spans
//! around each layer call and reports the per-layer metrics. Either way
//! the last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! Run it from the repository root; it keeps its files under `.perfbench/`.

mod e2e;
mod host;
mod metrics;
mod spans;
mod stats;
mod traced;
mod workload;

use e2e::{Expected, Tally};
use graft_core::{hopcroft_karp, verify, Matching};
use graft_graph::BipartiteCsr;
use metrics::{Metric, END_TO_END, PER_LAYER};
use stats::Summary;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;
use workload::{update_pairs, Workload, PAIRS};

const USAGE: &str = "usage: perfbench --workload cold-kkt|cold-road|serve-kkt|all \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Where runs keep spans and journal directories, relative to the
/// working directory.
const OUT_DIR: &str = ".perfbench";

/// Setups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 5;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: 30,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
            "--workload" => args.workloads = vec![Workload::parse(&value).ok_or_else(bad)?],
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().ok().filter(|&s| s > 0).ok_or_else(bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if args.workloads.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

/// The certified maximum cardinality of `g` and the seeded update pairs.
pub fn expected(g: &BipartiteCsr, seed: u64) -> Result<Expected, String> {
    let hk = hopcroft_karp(g, Matching::for_graph(g));
    verify::certify_maximum(g, &hk.matching)?;
    Ok(Expected {
        max: hk.matching.cardinality(),
        pairs: update_pairs(g, seed, PAIRS),
    })
}

/// The end-to-end run, tracing off.
fn end_to_end(
    w: Workload,
    args: &Args,
    scratch: &Path,
) -> Result<(BTreeMap<String, f64>, Tally), String> {
    let exp = {
        let g = w.build_graph();
        expected(&g, args.seed)?
        // The benchmark's own copy of the graph is dropped here, before
        // peak memory is sampled.
    };
    let window = Duration::from_secs(args.seconds);
    let out = e2e::run(w, &exp, SETUPS, window, scratch).map_err(|e| e.to_string())?;
    let timed = &out.timed;
    let solve = Summary::of(&timed.solve);
    let update = Summary::of(&timed.update);
    let setup = Summary::of(&out.setup_s);
    let replies = solve.n() + update.n();
    println!("solve_ms {}", solve.describe());
    println!("setup_s {}", setup.describe());
    // Printed, not gated: see `metrics::END_TO_END`.
    println!("report solve_p90_ms {}", solve.describe_percentile(90.0));
    println!("report solve_p99_ms {}", solve.describe_percentile(99.0));
    println!("report update_p50_ms {}", update.describe());
    println!("report update_p99_ms {}", update.describe_percentile(99.0));
    println!(
        "report requests_per_s={:.4} replies={replies} window_s={:.4}",
        replies as f64 / out.window_s,
        out.window_s
    );
    println!(
        "report failed_frac={} failed={} attempted={}",
        timed.tally.failed as f64 / timed.tally.attempted.max(1) as f64,
        timed.tally.failed,
        timed.tally.attempted
    );
    let metrics = BTreeMap::from([
        ("solve_p50_ms".to_string(), solve.median()),
        ("setup_s".to_string(), setup.median()),
        ("peak_rss_mib".to_string(), out.peak_rss_kib as f64 / 1024.0),
    ]);
    let samples = BTreeMap::from([
        ("solve_p50_ms", solve.n()),
        ("setup_s", setup.n()),
        ("peak_rss_mib", 1),
    ]);
    for m in END_TO_END {
        println!(
            "metric {} = {:.4} {} n={} better={}",
            m.name, metrics[m.name], m.unit, samples[m.name], m.better
        );
    }
    Ok((metrics, out.timed.tally))
}

/// The traced run.
fn per_layer(
    w: Workload,
    args: &Args,
    scratch: &Path,
) -> Result<(BTreeMap<String, f64>, Tally), String> {
    let spans_path = Path::new(OUT_DIR).join(format!("spans-{}-seed{}.jsonl", w.name(), args.seed));
    let out = traced::run(w, args.seed, args.seconds as f64, scratch, &spans_path)?;
    for line in &out.report {
        println!("{line}");
    }
    for m in PER_LAYER {
        let v = out
            .metrics
            .get(m.name)
            .ok_or_else(|| format!("the traced run did not measure {}", m.name))?;
        println!(
            "metric {} = {v:.4} {} better={} moves {}",
            m.name, m.unit, m.better, m.moves
        );
    }
    Ok((out.metrics, out.tally))
}

/// The result object: `metrics` holds `declared`, in their order.
fn result_json(
    correct: bool,
    tally: &Tally,
    declared: &[Metric],
    values: &BTreeMap<String, f64>,
) -> String {
    let metrics: Vec<String> = declared
        .iter()
        .map(|m| {
            let v = values[m.name];
            // JSON has no NaN or infinity; a ratio with an empty base is 0.
            let v = if v.is_finite() { v } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        metrics.join(", ")
    )
}

fn run(w: Workload, args: &Args) -> Result<bool, String> {
    let host = host::Host::record();
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let scratch = Path::new(OUT_DIR).join(format!("run-{}-{}", w.name(), std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let measured = if args.trace {
        per_layer(w, args, &scratch)
    } else {
        end_to_end(w, args, &scratch)
    };
    let removed = std::fs::remove_dir_all(&scratch);
    let (values, tally) = measured?;
    removed.map_err(|e| format!("{}: {e}", scratch.display()))?;
    println!("{}", host.line());
    if let Some(e) = &tally.first_failure {
        println!("first failure: {e}");
    }
    let correct = tally.failed == 0;
    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    println!("{}", result_json(correct, &tally, declared, &values));
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut correct = true;
    for &w in &args.workloads {
        match run(w, &args) {
            Ok(ok) => correct &= ok,
            Err(e) => {
                eprintln!("perfbench {}: {e}", w.name());
                return ExitCode::FAILURE;
            }
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
