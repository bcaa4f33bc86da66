//! Fig. 1 — serial algorithm comparison on one graph per class:
//! (a) edges traversed, (b) phases, (c) average augmenting path length.

use super::load_instance;
use crate::report::{f2, Report};
use crate::Config;
use graft_core::{solve_from_in, Algorithm, SolveOptions, SolveWorkspace};
use graft_gen::suite::fig1_graphs;

/// Runs the six serial algorithms (SS-DFS, SS-BFS, PF, HK, MS-BFS,
/// MS-BFS-Graft) on the kkt_power / cit-Patents / wikipedia analogs and
/// reports the three hardware-independent metrics of Fig. 1. Edge counts
/// are also normalized to MS-BFS-Graft, matching the paper's bars.
pub fn fig1(cfg: &Config) -> std::io::Result<()> {
    let opts = SolveOptions::default();
    let mut r = Report::new(
        "fig1_serial_comparison",
        "Fig. 1 — serial algorithms: traversed edges / phases / avg augmenting path length",
        &[
            "graph",
            "algorithm",
            "edges",
            "edges/graft",
            "phases",
            "avg |P|",
            "|M|",
        ],
    );
    for entry in fig1_graphs() {
        let inst = load_instance(entry, cfg);
        let mut results = Vec::new();
        for alg in Algorithm::SERIAL {
            let out = solve_from_in(
                &inst.graph,
                inst.init.clone(),
                alg,
                &opts,
                &mut SolveWorkspace::new(),
            );
            results.push((alg, out));
        }
        let graft_edges = results
            .iter()
            .find(|(a, _)| *a == Algorithm::MsBfsGraft)
            .map(|(_, o)| o.stats.edges_traversed.max(1))
            .unwrap();
        for (alg, out) in &results {
            r.row(vec![
                inst.entry.name.into(),
                alg.name().into(),
                out.stats.edges_traversed.to_string(),
                f2(out.stats.edges_traversed as f64 / graft_edges as f64),
                out.stats.phases.to_string(),
                f2(out.stats.avg_augmenting_path_len()),
                out.matching.cardinality().to_string(),
            ]);
        }
    }
    r.note("paper expectation: MS-BFS-Graft traverses the fewest edges overall; SS algorithms win on low-matching graphs only via the discard rule; HK needs more phases than MS-BFS; DFS-based algorithms find longer augmenting paths (Fig. 1c).");
    r.emit(&cfg.out_dir)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use graft_gen::Scale;

    #[test]
    fn fig1_runs_at_tiny_scale() {
        let cfg = Config {
            scale: Scale::Tiny,
            out_dir: std::env::temp_dir().join("graft_bench_fig1_test"),
            ..Config::default()
        };
        fig1(&cfg).unwrap();
        assert!(cfg.out_dir.join("fig1_serial_comparison.csv").exists());
    }
}
