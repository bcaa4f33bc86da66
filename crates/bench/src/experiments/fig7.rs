//! Fig. 7 — performance contributions of direction optimization and tree
//! grafting over plain parallel MS-BFS (the ablation of the paper's two
//! techniques).

use super::load_suite;
use crate::report::{f2, Report};
use crate::runner::{geometric_mean, time_algorithm};
use crate::Config;
use graft_core::{Algorithm, MsBfsOptions, SolveOptions};
use graft_gen::suite::GraphClass;

/// Times parallel MS-BFS with the three engine configurations — plain,
/// +direction-optimization, +grafting — and reports speedups over plain
/// MS-BFS per graph plus class/overall geometric means, with the edges
/// each configuration traversed: a count that does not depend on the
/// host, so it shows whether a slowdown is the work or the machine.
pub fn fig7(cfg: &Config) -> std::io::Result<()> {
    let threads = cfg.max_threads();
    let configs: [(&str, MsBfsOptions); 3] = [
        ("MS-BFS", MsBfsOptions::plain()),
        ("+dirOpt", MsBfsOptions::dir_opt_only()),
        ("+graft", MsBfsOptions::graft()),
    ];
    let mut r = Report::new(
        "fig7_contributions",
        "Fig. 7 — speedup over plain parallel MS-BFS from direction optimization and grafting",
        &[
            "graph",
            "class",
            "dirOpt speedup",
            "dirOpt+graft speedup",
            "plain time (s)",
            "plain edges",
            "dirOpt edges",
            "dirOpt+graft edges",
        ],
    );
    let mut dir_gains = Vec::new();
    let mut graft_gains = Vec::new();
    let mut web_graft_gains = Vec::new();
    for inst in load_suite(cfg) {
        let mut times = Vec::new();
        let mut edges = Vec::new();
        for (_, ms) in &configs {
            let opts = SolveOptions {
                threads,
                ms_bfs: *ms,
                ..SolveOptions::default()
            };
            let t = time_algorithm(
                &inst.graph,
                &inst.init,
                Algorithm::MsBfsGraftParallel,
                &opts,
                cfg.reps,
            );
            times.push(t.sample().mean);
            edges.push(t.outcome.stats.edges_traversed.to_string());
        }
        let s_dir = times[0] / times[1].max(1e-12);
        let s_graft = times[0] / times[2].max(1e-12);
        dir_gains.push(s_dir);
        graft_gains.push(s_graft / s_dir); // grafting's incremental factor
        if inst.entry.class == GraphClass::Web {
            web_graft_gains.push(s_graft / s_dir);
        }
        let mut row = vec![
            inst.entry.name.into(),
            inst.entry.class.name().into(),
            f2(s_dir),
            f2(s_graft),
            format!("{:.4}", times[0]),
        ];
        row.extend(edges);
        r.row(row);
    }
    r.note(format!(
        "geometric means — direction optimization: {:.2}x, additional grafting factor: {:.2}x (web class: {:.2}x)",
        geometric_mean(&dir_gains),
        geometric_mean(&graft_gains),
        geometric_mean(&web_graft_gains)
    ));
    r.note("paper expectation: ~1.6x from direction optimization, ~3x more from grafting, up to 7.8x on low-matching graphs.");
    r.emit(&cfg.out_dir)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use graft_gen::Scale;

    #[test]
    fn fig7_runs_at_tiny_scale() {
        let cfg = Config {
            scale: Scale::Tiny,
            reps: 1,
            threads: 2,
            out_dir: std::env::temp_dir().join("graft_bench_fig7_test"),
            ..Config::default()
        };
        fig7(&cfg).unwrap();
        assert!(cfg.out_dir.join("fig7_contributions.csv").exists());
    }
}
