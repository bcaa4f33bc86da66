//! `dynbench` — the incremental-matching delta benchmark.
//!
//! Drives a churn stream (alternating deletes of live edges and inserts
//! of fresh ones, ~1% of the edge count) against a pinned suite graph
//! two ways:
//!
//! * **incremental** — one [`DynamicMatching`] absorbs each update with
//!   one augmenting search (tombstone compaction included);
//! * **full re-solve** — the baseline without the subsystem: rebuild the
//!   CSR from the updated edge list and solve MS-BFS-Graft from scratch
//!   after every update (CSR build + initializer count toward its time —
//!   they are part of the price of not being incremental).
//!
//! Like `perf-gate`, the gate checks only **relative** invariants, never
//! absolute wall-clock:
//!
//! 1. after every update, the incremental cardinality equals the
//!    from-scratch solve's cardinality (the correctness differential);
//! 2. the incremental stream is at least [`DYNBENCH_SPEEDUP_MIN`]×
//!    faster than the per-update full re-solves in total.
//!
//! Results land in a schema-versioned `BENCH_6.json` that CI archives as
//! a workflow artifact.

use super::load_instance;
use crate::report::{dur, secs, Artifact, Report};
use crate::Config;
use graft_core::{solve_from_in, Algorithm, SolveOptions, SolveWorkspace};
use graft_dyn::{DynConfig, DynamicMatching};
use graft_graph::{BipartiteCsr, VertexId};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Schema identifier embedded in the JSON artifact; bump on layout change.
pub const DYNBENCH_SCHEMA: &str = "graft-bench/dynbench/v1";

/// Artifact file name (`6` is the PR number that introduced it).
pub const DYNBENCH_FILE: &str = "BENCH_6.json";

/// The incremental stream must beat per-update full re-solves by at
/// least this factor in total elapsed time.
pub const DYNBENCH_SPEEDUP_MIN: f64 = 5.0;

/// Update-stream length as a fraction of the edge count.
const CHURN_FRACTION: f64 = 0.01;

/// Bounds on the stream length so tiny scales still exercise the loop
/// and large scales stay affordable (the baseline re-solves per update).
const MIN_OPS: usize = 16;
const MAX_OPS: usize = 256;

/// SplitMix64 — deterministic, seed-stable across platforms.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Runs the benchmark: measure, write `BENCH_6.json`, then fail (`Err`)
/// iff a relative invariant is violated.
pub fn dynbench(cfg: &Config) -> std::io::Result<()> {
    let entry = graft_gen::suite::by_name("kkt_power").expect("pinned suite graph exists");
    let inst = load_instance(entry, cfg);
    let graph = inst.graph;
    let nx = graph.num_x();
    let ny = graph.num_y();

    // The mutable edge set both sides evolve in lockstep.
    let mut edges: Vec<(VertexId, VertexId)> = Vec::with_capacity(graph.num_edges());
    for x in 0..nx {
        for &y in graph.x_neighbors(x as VertexId) {
            edges.push((x as VertexId, y));
        }
    }
    let mut live: HashSet<(VertexId, VertexId)> = edges.iter().copied().collect();

    let want_ops = ((graph.num_edges() as f64) * CHURN_FRACTION).ceil() as usize;
    let ops = want_ops.clamp(MIN_OPS, MAX_OPS);
    if ops < want_ops {
        println!("  dynbench: capping stream at {ops} of {want_ops} updates (1% of edges)");
    }

    let opts = SolveOptions {
        threads: cfg.threads,
        ..SolveOptions::default()
    };
    let mut ws = SolveWorkspace::new();

    // Both sides start from the same solved state; setup is untimed
    // because it is identical work either way.
    let mut dm = DynamicMatching::with_config(graph.clone(), DynConfig::default());

    let mut rng = SplitMix(0xD15C_0B7A_11CE_BEEF);
    let mut incr_total = 0.0f64;
    let mut full_total = 0.0f64;
    let mut adds = 0usize;
    let mut dels = 0usize;
    let mut violations: Vec<String> = Vec::new();
    let mut last_deleted: Option<(VertexId, VertexId)> = None;

    for op in 0..ops {
        // Alternate: delete a random live edge, then insert a fresh one
        // (falling back to resurrecting the last delete when random
        // probing keeps hitting live pairs), so the edge count stays
        // within one of the original and the graph genuinely churns.
        let (is_add, x, y) = if op % 2 == 0 {
            let idx = rng.below(edges.len());
            let (x, y) = edges.swap_remove(idx);
            live.remove(&(x, y));
            last_deleted = Some((x, y));
            (false, x, y)
        } else {
            let mut pick = last_deleted.take().unwrap_or((0, 0));
            for _ in 0..64 {
                let cand = (rng.below(nx) as VertexId, rng.below(ny) as VertexId);
                if !live.contains(&cand) {
                    pick = cand;
                    break;
                }
            }
            let (x, y) = pick;
            if live.insert((x, y)) {
                edges.push((x, y));
            }
            (true, x, y)
        };

        let t0 = Instant::now();
        let report = if is_add {
            dm.insert_edge(x, y)
        } else {
            dm.delete_edge(x, y)
        };
        incr_total += t0.elapsed().as_secs_f64();
        if is_add {
            adds += 1;
        } else {
            dels += 1;
        }
        let incr_card = match report {
            Ok(r) => r.cardinality,
            Err(e) => {
                violations.push(format!("op {op}: incremental update rejected: {e}"));
                dm.cardinality()
            }
        };

        let t1 = Instant::now();
        let csr = BipartiteCsr::from_edges(nx, ny, &edges);
        let init = cfg.init.run(&csr, 0xC0FFEE);
        let out = solve_from_in(&csr, init, Algorithm::MsBfsGraft, &opts, &mut ws);
        full_total += t1.elapsed().as_secs_f64();

        let full_card = out.matching.cardinality();
        if incr_card != full_card {
            violations.push(format!(
                "op {op} ({} {x} {y}): incremental cardinality {incr_card} != from-scratch {full_card}",
                if is_add { "add" } else { "del" },
            ));
        }
    }

    let speedup = if incr_total > 0.0 {
        full_total / incr_total
    } else {
        f64::INFINITY
    };
    if incr_total * DYNBENCH_SPEEDUP_MIN > full_total {
        violations.push(format!(
            "incremental total {} is not {DYNBENCH_SPEEDUP_MIN}× faster than full re-solve total {} (speedup {speedup:.1}×)",
            dur(Duration::from_secs_f64(incr_total)),
            dur(Duration::from_secs_f64(full_total)),
        ));
    }

    let mut rep = Report::new(
        "dynbench",
        format!("incremental updates vs per-update full re-solve, {ops} ops"),
        &[
            "graph",
            "ops",
            "adds",
            "dels",
            "incr total",
            "full total",
            "speedup",
            "rebuilds",
            "|M| final",
        ],
    );
    rep.row(vec![
        "kkt_power".into(),
        ops.to_string(),
        adds.to_string(),
        dels.to_string(),
        dur(Duration::from_secs_f64(incr_total)),
        dur(Duration::from_secs_f64(full_total)),
        format!("{speedup:.1}"),
        dm.rebuilds().to_string(),
        dm.cardinality().to_string(),
    ]);
    rep.note(format!(
        "invariants are relative only: equal cardinality after every update; \
         incremental ≥ {DYNBENCH_SPEEDUP_MIN}× faster in total"
    ));
    for v in &violations {
        rep.note(format!("VIOLATION: {v}"));
    }
    rep.emit(&cfg.out_dir)?;

    let mut artifact = Artifact::new(DYNBENCH_SCHEMA, cfg.scale);
    artifact.field("graph", "\"kkt_power\"");
    artifact.field("ops", ops);
    artifact.field("adds", adds);
    artifact.field("dels", dels);
    artifact.field("incremental_total_s", secs(incr_total));
    artifact.field("full_total_s", secs(full_total));
    artifact.field("speedup", format_args!("{speedup:.2}"));
    artifact.field("rebuilds", dm.rebuilds());
    artifact.field("final_cardinality", dm.cardinality());
    artifact.write(&cfg.out_dir, DYNBENCH_FILE, "dynbench", &violations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graft_gen::Scale;

    #[test]
    fn dynbench_runs_and_emits_artifact_at_tiny_scale() {
        let cfg = Config {
            scale: Scale::Tiny,
            reps: 1,
            threads: 2,
            out_dir: std::env::temp_dir().join("graft_bench_dynbench_test"),
            ..Config::default()
        };
        dynbench(&cfg).unwrap();
        let json = std::fs::read_to_string(cfg.out_dir.join(DYNBENCH_FILE)).unwrap();
        assert!(json.contains(DYNBENCH_SCHEMA));
        assert!(json.contains("\"pass\": true"));
        assert!(json.contains("kkt_power"));
        assert!(json.contains("\"speedup\""));
    }
}
