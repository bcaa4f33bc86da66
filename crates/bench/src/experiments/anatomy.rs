//! Phase anatomy: a per-phase dissection of one MS-BFS-Graft run,
//! showing the mechanism behind Figs. 7 and 8 — early phases harvest
//! many short augmenting paths and often rebuild; later phases graft,
//! start with big frontiers, and chase the few remaining long paths.

use super::load_instance;
use crate::report::Report;
use crate::Config;
use graft_core::trace::{replay, MemorySink};
use graft_core::{solve_from_traced_in, Algorithm, SolveOptions, SolveWorkspace, Tracer};
use graft_gen::suite::by_name;
use std::sync::Arc;

/// Prints the phase-by-phase trace of MS-BFS-Graft on the coPapersDBLP
/// and wikipedia analogs (one high-, one low-matching-number instance),
/// replayed from the run's trace events.
pub fn anatomy(cfg: &Config) -> std::io::Result<()> {
    let mut r = Report::new(
        "anatomy_phases",
        "Phase anatomy of MS-BFS-Graft (per-phase trace)",
        &[
            "graph",
            "phase",
            "levels",
            "bottom-up",
            "peak |F|",
            "edges",
            "aug paths",
            "avg |P|",
            "activeX",
            "renewY",
            "active edges",
            "renew edges",
            "next",
        ],
    );
    for name in ["coPapersDBLP", "wikipedia"] {
        let entry = by_name(name).expect("suite graph");
        let inst = load_instance(entry, cfg);
        let sink = Arc::new(MemorySink::new());
        let tracer = Tracer::to_sink(sink.clone());
        solve_from_traced_in(
            &inst.graph,
            inst.init.clone(),
            Algorithm::MsBfsGraft,
            &SolveOptions::default(),
            &tracer,
            &mut SolveWorkspace::new(),
        );
        let run = replay(&sink.take())
            .expect("an engine trace replays")
            .pop()
            .expect("the traced solve is one run");
        for t in &run.phases {
            let avg_p = if t.augmentations == 0 {
                0.0
            } else {
                t.path_edges as f64 / t.augmentations as f64
            };
            // The last phase finds no path and makes no graft decision.
            let (counts, next) = match t.graft {
                None => ([0; 4], "done"),
                Some(g) => (
                    [g.active_x, g.renewable_y, g.active_edges, g.renewable_edges],
                    if g.grafted { "graft" } else { "rebuild" },
                ),
            };
            let mut row = vec![
                name.into(),
                t.phase.to_string(),
                t.levels.to_string(),
                t.bottom_up_levels.to_string(),
                t.frontier_peak.to_string(),
                t.edges_traversed.to_string(),
                t.augmentations.to_string(),
                format!("{avg_p:.1}"),
            ];
            row.extend(counts.iter().map(u64::to_string));
            row.push(next.into());
            r.row(row);
        }
    }
    r.note("paper expectation (§III-B): 'tree-grafting is usually not beneficial in the first few phases when a large number of augmenting paths is discovered' — the early phases should say rebuild, the late ones graft.");
    r.emit(&cfg.out_dir)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use graft_gen::Scale;

    #[test]
    fn anatomy_runs_at_tiny_scale() {
        let cfg = Config {
            scale: Scale::Tiny,
            reps: 1,
            threads: 2,
            out_dir: std::env::temp_dir().join("graft_bench_anatomy_test"),
            ..Config::default()
        };
        anatomy(&cfg).unwrap();
        assert!(cfg.out_dir.join("anatomy_phases.csv").exists());
    }
}
