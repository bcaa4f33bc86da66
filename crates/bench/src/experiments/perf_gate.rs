//! `perf-gate` — the CI performance gate.
//!
//! Runs a pinned two-graph suite (kkt_power + RMAT) through every engine,
//! timing each solve twice per repetition through `solve_from_in`: once
//! *fresh* (against a new [`SolveWorkspace`] per solve) and once *reused*
//! (against one long-lived workspace, as graft-svc workers run it). The
//! gate then checks only **relative** invariants — ratios between
//! measurements taken seconds apart on the same machine — because
//! absolute wall-clock varies ~2× with CI runner load:
//!
//! 1. every fresh/reused pair produces the same matching cardinality;
//! 2. the reused path is not slower than the fresh path (modulo a noise
//!    envelope: ×1.25 plus a 2 ms absolute slack for sub-millisecond
//!    tiny-scale timings);
//! 3. serial MS-BFS-Graft stays within ×3 of plain MS-BFS — grafting may
//!    never regress into rebuilding forests from scratch (§IV-D of the
//!    paper is precisely this comparison).
//!
//! Results land in a schema-versioned `BENCH_4.json` (medians, p90s,
//! host facts, git sha) that CI archives as a workflow artifact, so a
//! history of gate runs is diffable across commits even though the gate
//! itself never fails on absolute numbers.

use super::load_instance;
use crate::report::{dur, median, percentile, secs, sorted, Artifact, Report};
use crate::Config;
use graft_core::json::escape;
use graft_core::{solve_from_in, Algorithm, SolveOptions, SolveWorkspace};
use std::time::{Duration, Instant};

/// Schema identifier embedded in the JSON artifact; bump on layout change.
pub const BENCH_SCHEMA: &str = "graft-bench/perf-gate/v1";

/// Artifact file name (the `4` is the PR number that introduced it, so
/// later gates can add `BENCH_5.json` etc. without clobbering history).
pub const BENCH_FILE: &str = "BENCH_4.json";

/// Reused-vs-fresh tolerance: reused must satisfy
/// `reused ≤ fresh × RATIO + SLACK`.
const REUSE_RATIO: f64 = 1.25;
const SLACK_SECS: f64 = 0.002;

/// Serial MS-BFS-Graft must stay within this factor of serial MS-BFS.
const GRAFT_RATIO: f64 = 3.0;

struct GateRow {
    graph: &'static str,
    engine: &'static str,
    cardinality: usize,
    fresh_median: f64,
    fresh_p90: f64,
    reused_median: f64,
    reused_p90: f64,
}

/// Runs the gate: measure, write `BENCH_4.json`, then fail (`Err`) iff a
/// relative invariant is violated.
pub fn perf_gate(cfg: &Config) -> std::io::Result<()> {
    let reps = cfg.reps.max(1);
    let graphs = ["kkt_power", "RMAT"];
    let opts = SolveOptions {
        threads: cfg.threads,
        ..SolveOptions::default()
    };

    let mut rows: Vec<GateRow> = Vec::new();
    let mut violations: Vec<String> = Vec::new();

    for name in graphs {
        let entry = graft_gen::suite::by_name(name).expect("pinned suite graph exists");
        let inst = load_instance(entry, cfg);
        let mut ws = SolveWorkspace::new();
        for alg in Algorithm::ALL {
            // Warm-up: grow the shared workspace (and fault in the graph)
            // outside the timed region, mirroring a svc worker's steady
            // state where growth happened on some earlier request.
            let warm = solve_from_in(&inst.graph, inst.init.clone(), alg, &opts, &mut ws);
            let want_card = warm.matching.cardinality();

            let mut fresh = Vec::with_capacity(reps);
            let mut reused = Vec::with_capacity(reps);
            for rep in 0..reps {
                // Interleave fresh/reused so a load spike mid-run biases
                // both sides equally instead of poisoning the ratio.
                let t0 = Instant::now();
                let out_f = solve_from_in(
                    &inst.graph,
                    inst.init.clone(),
                    alg,
                    &opts,
                    &mut SolveWorkspace::new(),
                );
                fresh.push(t0.elapsed().as_secs_f64());
                let t1 = Instant::now();
                let out_r = solve_from_in(&inst.graph, inst.init.clone(), alg, &opts, &mut ws);
                reused.push(t1.elapsed().as_secs_f64());
                for (label, card) in [
                    ("fresh", out_f.matching.cardinality()),
                    ("reused", out_r.matching.cardinality()),
                ] {
                    if card != want_card {
                        violations.push(format!(
                            "{name}/{}: {label} rep {rep} cardinality {card} != {want_card}",
                            alg.name()
                        ));
                    }
                }
            }
            let (fresh, reused) = (sorted(fresh), sorted(reused));
            rows.push(GateRow {
                graph: name,
                engine: alg.name(),
                cardinality: want_card,
                fresh_median: median(&fresh),
                fresh_p90: percentile(&fresh, 0.9),
                reused_median: median(&reused),
                reused_p90: percentile(&reused, 0.9),
            });
        }
    }

    for r in &rows {
        let bound = r.fresh_median * REUSE_RATIO + SLACK_SECS;
        if r.reused_median > bound {
            violations.push(format!(
                "{}/{}: reused median {} exceeds fresh median {} × {REUSE_RATIO} + {}ms",
                r.graph,
                r.engine,
                dur(Duration::from_secs_f64(r.reused_median)),
                dur(Duration::from_secs_f64(r.fresh_median)),
                SLACK_SECS * 1e3,
            ));
        }
    }
    for name in graphs {
        let find = |engine: &str| {
            rows.iter()
                .find(|r| r.graph == name && r.engine == engine)
                .expect("pinned suite covers every engine")
        };
        let graft = find(Algorithm::MsBfsGraft.name());
        let plain = find(Algorithm::MsBfs.name());
        let bound = plain.reused_median * GRAFT_RATIO + SLACK_SECS;
        if graft.reused_median > bound {
            violations.push(format!(
                "{name}: MS-BFS-Graft median {} exceeds MS-BFS median {} × {GRAFT_RATIO} + {}ms",
                dur(Duration::from_secs_f64(graft.reused_median)),
                dur(Duration::from_secs_f64(plain.reused_median)),
                SLACK_SECS * 1e3,
            ));
        }
    }

    // Human-readable table + CSV, like every other experiment.
    let mut rep = Report::new(
        "perf_gate",
        format!("CI gate — fresh vs workspace-reused solves, {reps} reps"),
        &[
            "graph",
            "engine",
            "|M|",
            "fresh med",
            "fresh p90",
            "reused med",
            "reused p90",
            "reused/fresh",
        ],
    );
    for r in &rows {
        let ratio = if r.fresh_median > 0.0 {
            r.reused_median / r.fresh_median
        } else {
            0.0
        };
        rep.row(vec![
            r.graph.into(),
            r.engine.into(),
            r.cardinality.to_string(),
            dur(Duration::from_secs_f64(r.fresh_median)),
            dur(Duration::from_secs_f64(r.fresh_p90)),
            dur(Duration::from_secs_f64(r.reused_median)),
            dur(Duration::from_secs_f64(r.reused_p90)),
            format!("{ratio:.2}"),
        ]);
    }
    rep.note(format!(
        "invariants are relative only: reused ≤ fresh × {REUSE_RATIO} + {}ms; \
         MS-BFS-Graft ≤ MS-BFS × {GRAFT_RATIO}; equal cardinalities",
        SLACK_SECS * 1e3
    ));
    for v in &violations {
        rep.note(format!("VIOLATION: {v}"));
    }
    rep.emit(&cfg.out_dir)?;

    // Machine-readable artifact.
    let mut artifact = Artifact::new(BENCH_SCHEMA, cfg.scale);
    artifact.field("reps", reps);
    let entries: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"graph\": \"{}\", \"engine\": \"{}\", \"cardinality\": {}, \
                 \"fresh_median_s\": {}, \"fresh_p90_s\": {}, \
                 \"reused_median_s\": {}, \"reused_p90_s\": {}}}",
                escape(r.graph),
                escape(r.engine),
                r.cardinality,
                secs(r.fresh_median),
                secs(r.fresh_p90),
                secs(r.reused_median),
                secs(r.reused_p90),
            )
        })
        .collect();
    artifact.field("entries", format_args!("[\n{}\n  ]", entries.join(",\n")));
    artifact.write(&cfg.out_dir, BENCH_FILE, "perf-gate", &violations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graft_gen::Scale;

    #[test]
    fn perf_gate_runs_and_emits_artifact_at_tiny_scale() {
        // Sibling tests load the CPU while this one times solves: with
        // five reps a median survives two disturbed samples per side.
        let cfg = Config {
            scale: Scale::Tiny,
            reps: 5,
            threads: 2,
            out_dir: std::env::temp_dir().join("graft_bench_perf_gate_test"),
            ..Config::default()
        };
        perf_gate(&cfg).unwrap();
        let json = std::fs::read_to_string(cfg.out_dir.join(BENCH_FILE)).unwrap();
        assert!(json.contains(BENCH_SCHEMA));
        assert!(json.contains("\"pass\": true"));
        assert!(json.contains("kkt_power"));
        assert!(json.contains("RMAT"));
        assert!(json.contains("MS-BFS-Graft"));
    }
}
