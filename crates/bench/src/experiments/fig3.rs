//! Fig. 3 — relative performance of MS-BFS-Graft vs. Pothen-Fan vs.
//! push-relabel, serial and multithreaded.

use super::load_suite;
use crate::report::{dur, f2, Report};
use crate::runner::{geometric_mean, relative_speedups, time_algorithm};
use crate::Config;
use graft_core::{Algorithm, PushRelabelOptions, SolveOptions};

/// For every suite graph, times the three algorithm families serially and
/// with the full thread count ([`Config::all_cores_threads`]), and
/// reports relative speedups (slowest algorithm per graph = 1.0, the
/// paper's normalization).
pub fn fig3(cfg: &Config) -> std::io::Result<()> {
    let t_max = cfg.all_cores_threads();
    let serial_algs = [
        Algorithm::MsBfsGraft,
        Algorithm::PothenFan,
        Algorithm::PushRelabel,
    ];
    let par_algs = [
        Algorithm::MsBfsGraftParallel,
        Algorithm::PothenFanParallel,
        Algorithm::PushRelabelParallel,
    ];
    let mut r = Report::new(
        "fig3_relative_performance",
        format!("Fig. 3 — relative speedup (1 thread and {t_max} threads)"),
        &[
            "graph",
            "setting",
            "MS-BFS-Graft",
            "PF",
            "PR",
            "graft time",
            "pf time",
            "pr time",
        ],
    );

    // Per-class geometric means of the graft-vs-best-competitor ratio.
    let mut serial_ratios = Vec::new();
    let mut par_ratios = Vec::new();

    for inst in load_suite(cfg) {
        for (setting, algs, threads) in [
            ("serial", serial_algs, 1usize),
            ("parallel", par_algs, t_max),
        ] {
            let opts = SolveOptions {
                threads,
                push_relabel: PushRelabelOptions {
                    global_relabel_frequency: if threads > 1 { 16.0 } else { 2.0 },
                },
                ..SolveOptions::default()
            };
            let times: Vec<f64> = algs
                .iter()
                .map(|&a| {
                    time_algorithm(&inst.graph, &inst.init, a, &opts, cfg.reps)
                        .sample()
                        .mean
                })
                .collect();
            let speedups = relative_speedups(&times);
            let competitor_best = times[1].min(times[2]);
            let ratio = competitor_best / times[0].max(1e-12);
            if setting == "serial" {
                serial_ratios.push(ratio);
            } else {
                par_ratios.push(ratio);
            }
            r.row(vec![
                inst.entry.name.into(),
                setting.into(),
                f2(speedups[0]),
                f2(speedups[1]),
                f2(speedups[2]),
                dur(std::time::Duration::from_secs_f64(times[0])),
                dur(std::time::Duration::from_secs_f64(times[1])),
                dur(std::time::Duration::from_secs_f64(times[2])),
            ]);
        }
    }
    r.note(format!(
        "geometric-mean speedup of MS-BFS-Graft over its best competitor: serial {:.2}x, parallel {:.2}x",
        geometric_mean(&serial_ratios),
        geometric_mean(&par_ratios)
    ));
    r.note("paper expectation: ~5x serial / ~7-11x parallel on average, largest on the web/low-matching class, ~1x on the scientific class serially.");
    r.emit(&cfg.out_dir)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use graft_gen::Scale;

    #[test]
    fn fig3_runs_at_tiny_scale() {
        let cfg = Config {
            scale: Scale::Tiny,
            reps: 1,
            threads: 2,
            out_dir: std::env::temp_dir().join("graft_bench_fig3_test"),
            ..Config::default()
        };
        fig3(&cfg).unwrap();
        assert!(cfg.out_dir.join("fig3_relative_performance.csv").exists());
    }
}
