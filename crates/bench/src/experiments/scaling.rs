//! `scaling` — the strong-scaling benchmark over real threads.
//!
//! Runs the parallel engines (PF(par), MS-BFS-Graft(par), PR(par)) on the
//! pinned kkt_power + RMAT pair at 1/2/4/8 threads, timing the steady-state
//! workspace-reused path (`solve_from_in`, as graft-svc workers run it).
//! Each timed solve pins its thread count through `SolveOptions::threads`,
//! which is exactly the `graftmatch --threads N` / `SOLVE threads=N` path —
//! per-solve pool construction is deliberately *inside* the timed region
//! because that is the cost a caller of those knobs actually pays.
//!
//! Like `perf-gate`, the gate checks only **relative** invariants, because
//! CI runners vary ~2× in absolute speed and frequently expose a single
//! core (where no speedup is possible, only overhead):
//!
//! 1. every thread count produces the same matching cardinality as the
//!    1-thread run of the same engine (determinism of the *result*, not
//!    of the schedule);
//! 2. a t-thread solve is not slower than the 1-thread solve beyond a
//!    noise envelope (× [`SCALE_RATIO`] plus [`SLACK_SECS`] absolute slack
//!    absorbing fixed pool-spawn cost at sub-millisecond scales) — real
//!    concurrency must never cost more than its coordination overhead;
//! 3. speedup itself is **reported, never gated** — a 1-core runner
//!    legitimately reports ~1.0× at every width.
//!
//! Results land in a schema-versioned `BENCH_9.json` (medians, p90s,
//! speedups, host facts, git sha) that CI archives as an artifact, so
//! scaling curves are diffable across commits.

use super::load_instance;
use crate::report::{dur, median, percentile, secs, sorted, Artifact, Report};
use crate::Config;
use graft_core::json::escape;
use graft_core::{solve_from_in, Algorithm, SolveOptions, SolveWorkspace};
use std::time::{Duration, Instant};

/// Schema identifier embedded in the JSON artifact; bump on layout change.
pub const SCALING_SCHEMA: &str = "graft-bench/scaling/v1";

/// Artifact file name (the `9` is the PR number that introduced it,
/// following the `BENCH_4.json` convention).
pub const SCALING_FILE: &str = "BENCH_9.json";

/// Thread widths swept. Fixed regardless of host core count so the
/// artifact schema is stable; on narrow machines the wide runs simply
/// measure oversubscription overhead (bounded by the gate).
pub const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// A t-thread solve must satisfy `t_best ≤ 1_best × RATIO + SLACK`,
/// where `best` is the minimum over repetitions. The minimum — not the
/// median — is gated because a "not slower than" invariant cares about
/// achievable cost, and min-of-reps is the standard robust estimator
/// against transient runner load (a spike inflates medians for seconds;
/// it essentially never hits every repetition). The ratio bounds
/// coordination overhead; the absolute slack absorbs fixed pool-spawn
/// cost (t−1 thread spawns per solve), which dominates at
/// sub-millisecond tiny scales.
pub const SCALE_RATIO: f64 = 1.15;
const SLACK_SECS: f64 = 0.025;

struct ScaleRow {
    graph: &'static str,
    engine: &'static str,
    threads: usize,
    cardinality: usize,
    best: f64,
    median: f64,
    p90: f64,
}

/// Runs the benchmark: measure, write `BENCH_9.json`, then fail (`Err`)
/// iff a relative invariant is violated.
pub fn scaling(cfg: &Config) -> std::io::Result<()> {
    let reps = cfg.reps.max(1);
    let graphs = ["kkt_power", "RMAT"];
    let engines: Vec<Algorithm> = Algorithm::ALL
        .into_iter()
        .filter(|a| a.is_parallel())
        .collect();

    let mut rows: Vec<ScaleRow> = Vec::new();
    let mut violations: Vec<String> = Vec::new();

    for name in graphs {
        let entry = graft_gen::suite::by_name(name).expect("pinned suite graph exists");
        let inst = load_instance(entry, cfg);
        for &alg in &engines {
            for &t in &THREAD_COUNTS {
                let opts = SolveOptions {
                    threads: t,
                    ..SolveOptions::default()
                };
                // One long-lived workspace per (engine, width), warmed
                // outside the timed region like a svc worker's steady state.
                let mut ws = SolveWorkspace::new();
                let warm = solve_from_in(&inst.graph, inst.init.clone(), alg, &opts, &mut ws);
                let want_card = warm.matching.cardinality();

                let mut times = Vec::with_capacity(reps);
                for rep in 0..reps {
                    let t0 = Instant::now();
                    let out = solve_from_in(&inst.graph, inst.init.clone(), alg, &opts, &mut ws);
                    times.push(t0.elapsed().as_secs_f64());
                    let card = out.matching.cardinality();
                    if card != want_card {
                        violations.push(format!(
                            "{name}/{}: threads={t} rep {rep} cardinality {card} != {want_card}",
                            alg.name()
                        ));
                    }
                }
                let times = sorted(times);
                rows.push(ScaleRow {
                    graph: name,
                    engine: alg.name(),
                    threads: t,
                    cardinality: want_card,
                    best: times[0],
                    median: median(&times),
                    p90: percentile(&times, 0.9),
                });
            }
        }
    }

    // Relative gates against each engine's own 1-thread baseline.
    for name in graphs {
        for &alg in &engines {
            let find = |t: usize| {
                rows.iter()
                    .find(|r| r.graph == name && r.engine == alg.name() && r.threads == t)
                    .expect("sweep covers every width")
            };
            let base = find(1);
            for &t in &THREAD_COUNTS[1..] {
                let row = find(t);
                if row.cardinality != base.cardinality {
                    violations.push(format!(
                        "{name}/{}: threads={t} cardinality {} != 1-thread {}",
                        alg.name(),
                        row.cardinality,
                        base.cardinality
                    ));
                }
                let bound = base.best * SCALE_RATIO + SLACK_SECS;
                if row.best > bound {
                    violations.push(format!(
                        "{name}/{}: {t}-thread best {} exceeds 1-thread best {} × {SCALE_RATIO} + {}ms",
                        alg.name(),
                        dur(Duration::from_secs_f64(row.best)),
                        dur(Duration::from_secs_f64(base.best)),
                        SLACK_SECS * 1e3,
                    ));
                }
            }
        }
    }

    // Human-readable table + CSV, like every other experiment.
    let mut rep = Report::new(
        "scaling",
        format!("strong scaling — parallel engines at 1/2/4/8 threads, {reps} reps"),
        &[
            "graph", "engine", "threads", "|M|", "best", "median", "p90", "speedup",
        ],
    );
    for r in &rows {
        let base = rows
            .iter()
            .find(|b| b.graph == r.graph && b.engine == r.engine && b.threads == 1)
            .expect("1-thread baseline exists");
        let speedup = if r.best > 0.0 {
            base.best / r.best
        } else {
            0.0
        };
        rep.row(vec![
            r.graph.into(),
            r.engine.into(),
            r.threads.to_string(),
            r.cardinality.to_string(),
            dur(Duration::from_secs_f64(r.best)),
            dur(Duration::from_secs_f64(r.median)),
            dur(Duration::from_secs_f64(r.p90)),
            format!("{speedup:.2}x"),
        ]);
    }
    rep.note(format!(
        "gates are relative only: equal cardinality across widths; \
         t-thread best ≤ 1-thread best × {SCALE_RATIO} + {}ms; \
         speedup is reported, never gated (CI runners may expose 1 core)",
        SLACK_SECS * 1e3
    ));
    for v in &violations {
        rep.note(format!("VIOLATION: {v}"));
    }
    rep.emit(&cfg.out_dir)?;

    // Machine-readable artifact.
    let mut artifact = Artifact::new(SCALING_SCHEMA, cfg.scale);
    artifact.field("reps", reps);
    let entries: Vec<String> = rows
        .iter()
        .map(|r| {
            let base = rows
                .iter()
                .find(|b| b.graph == r.graph && b.engine == r.engine && b.threads == 1)
                .expect("1-thread baseline exists");
            let speedup = if r.best > 0.0 {
                base.best / r.best
            } else {
                0.0
            };
            format!(
                "    {{\"graph\": \"{}\", \"engine\": \"{}\", \"threads\": {}, \
                 \"cardinality\": {}, \"best_s\": {}, \"median_s\": {}, \
                 \"p90_s\": {}, \"speedup\": {speedup:.3}}}",
                escape(r.graph),
                escape(r.engine),
                r.threads,
                r.cardinality,
                secs(r.best),
                secs(r.median),
                secs(r.p90),
            )
        })
        .collect();
    artifact.field("entries", format_args!("[\n{}\n  ]", entries.join(",\n")));
    artifact.write(&cfg.out_dir, SCALING_FILE, "scaling", &violations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graft_gen::Scale;

    #[test]
    fn scaling_runs_and_emits_artifact_at_tiny_scale() {
        let cfg = Config {
            scale: Scale::Tiny,
            reps: 2,
            out_dir: std::env::temp_dir().join("graft_bench_scaling_test"),
            ..Config::default()
        };
        // Cardinality violations are bugs anywhere; the timing gate is
        // only meaningful on an otherwise-idle runner (the CI `scaling`
        // job), not inside a debug-mode test run that shares the machine
        // with the rest of the suite — so a timing-only Err is tolerated
        // here, a cardinality mismatch is not.
        if let Err(e) = scaling(&cfg) {
            let msg = e.to_string();
            assert!(
                !msg.contains("cardinality"),
                "scaling reported a correctness violation: {msg}"
            );
            assert!(msg.contains("exceeds"), "unexpected failure: {msg}");
        }
        let json = std::fs::read_to_string(cfg.out_dir.join(SCALING_FILE)).unwrap();
        assert!(json.contains(SCALING_SCHEMA));
        assert!(json.contains("kkt_power"));
        assert!(json.contains("RMAT"));
        assert!(json.contains("\"threads\": 8"));
        assert!(json.contains("MS-BFS-Graft(par)"));
        assert!(
            !json.contains("cardinality "),
            "artifact records a cardinality violation:\n{json}"
        );
    }
}
