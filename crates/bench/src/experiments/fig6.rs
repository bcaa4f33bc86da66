//! Fig. 6 — breakdown of MS-BFS-Graft runtime into its five steps.

use super::load_suite;
use crate::report::{f2, Report};
use crate::Config;
use graft_core::{solve_from_in, Algorithm, SolveOptions, SolveWorkspace};

/// Reports the fraction of runtime spent in TopDown / BottomUp / Augment /
/// Tree-Grafting / Statistics for every suite graph, Fig. 6's stacked
/// bars as percentages.
pub fn fig6(cfg: &Config) -> std::io::Result<()> {
    let opts = SolveOptions {
        threads: cfg.max_threads(),
        ..SolveOptions::default()
    };
    let mut r = Report::new(
        "fig6_breakdown",
        "Fig. 6 — runtime breakdown of MS-BFS-Graft (% of attributed time)",
        &[
            "graph",
            "class",
            "TopDown",
            "BottomUp",
            "Augment",
            "Graft",
            "Statistics",
            "Other",
            "search%",
        ],
    );
    for inst in load_suite(cfg) {
        let out = solve_from_in(
            &inst.graph,
            inst.init.clone(),
            Algorithm::MsBfsGraftParallel,
            &opts,
            &mut SolveWorkspace::new(),
        );
        let f = out.stats.breakdown.fractions();
        r.row(vec![
            inst.entry.name.into(),
            inst.entry.class.name().into(),
            f2(100.0 * f[0]),
            f2(100.0 * f[1]),
            f2(100.0 * f[2]),
            f2(100.0 * f[3]),
            f2(100.0 * f[4]),
            f2(100.0 * f[5]),
            f2(100.0 * out.stats.search_fraction()),
        ]);
    }
    r.note("paper expectation: ≥40% of time in BFS traversal everywhere; high-matching graphs (hugetrace, kkt_power) mostly BFS, low-matching graphs (wb-edu, wikipedia) shift time into augmentation + grafting.");
    r.emit(&cfg.out_dir)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use graft_gen::Scale;

    #[test]
    fn fig6_runs_at_tiny_scale() {
        let cfg = Config {
            scale: Scale::Tiny,
            reps: 1,
            threads: 2,
            out_dir: std::env::temp_dir().join("graft_bench_fig6_test"),
            ..Config::default()
        };
        fig6(&cfg).unwrap();
        assert!(cfg.out_dir.join("fig6_breakdown.csv").exists());
    }
}
