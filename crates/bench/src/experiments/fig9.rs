//! Fig. 9 (referenced in §II) — fraction of runtime spent in graph
//! searches, the observation justifying the edges-traversed metric.

use super::load_suite;
use crate::report::{dur, f2, Report};
use crate::Config;
use graft_core::{solve_from_in, Algorithm, SolveOptions, SolveWorkspace};

/// Reports search time (top-down + bottom-up) as a fraction of total
/// attributed time for the serial and parallel MS-BFS-Graft engines.
pub fn fig9(cfg: &Config) -> std::io::Result<()> {
    let mut r = Report::new(
        "fig9_search_fraction",
        "Fig. 9 — fraction of time spent in graph search",
        &[
            "graph",
            "class",
            "serial search%",
            "parallel search%",
            "serial total",
        ],
    );
    for inst in load_suite(cfg) {
        let s = solve_from_in(
            &inst.graph,
            inst.init.clone(),
            Algorithm::MsBfsGraft,
            &SolveOptions::default(),
            &mut SolveWorkspace::new(),
        );
        let p = solve_from_in(
            &inst.graph,
            inst.init.clone(),
            Algorithm::MsBfsGraftParallel,
            &SolveOptions {
                threads: cfg.max_threads(),
                ..SolveOptions::default()
            },
            &mut SolveWorkspace::new(),
        );
        r.row(vec![
            inst.entry.name.into(),
            inst.entry.class.name().into(),
            f2(100.0 * s.stats.search_fraction()),
            f2(100.0 * p.stats.search_fraction()),
            dur(s.stats.elapsed),
        ]);
    }
    r.note("paper context (§II, §V-E): matching algorithms spend most of their time in graph searches — at least 40% everywhere, dominating on high-matching-number graphs.");
    r.emit(&cfg.out_dir)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use graft_gen::Scale;

    #[test]
    fn fig9_runs_at_tiny_scale() {
        let cfg = Config {
            scale: Scale::Tiny,
            reps: 1,
            threads: 2,
            out_dir: std::env::temp_dir().join("graft_bench_fig9_test"),
            ..Config::default()
        };
        fig9(&cfg).unwrap();
        assert!(cfg.out_dir.join("fig9_search_fraction.csv").exists());
    }
}
