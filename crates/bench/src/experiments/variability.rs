//! §V-B — variation in parallel runtimes: ψ = 100·σ/μ over repeated runs
//! with perturbed vertex orders.

use super::load_suite;
use crate::report::{f2, Report};
use crate::runner::Sample;
use crate::Config;
use graft_core::{solve_from_in, Algorithm, PushRelabelOptions, SolveOptions, SolveWorkspace};
use graft_graph::Relabeling;

/// Runs each parallel algorithm 10 times per graph at the full thread
/// count ([`Config::all_cores_threads`]); between runs the graph is
/// relabeled with a random isomorphism, perturbing traversal order the
/// way scheduling nondeterminism does on a busy machine, and reports the
/// paper's sensitivity statistic ψ.
pub fn variability(cfg: &Config) -> std::io::Result<()> {
    let runs = 10usize;
    let threads = cfg.all_cores_threads();
    let algs = [
        Algorithm::MsBfsGraftParallel,
        Algorithm::PothenFanParallel,
        Algorithm::PushRelabelParallel,
    ];
    let opts = SolveOptions {
        threads,
        push_relabel: PushRelabelOptions {
            global_relabel_frequency: 16.0,
        },
        ..SolveOptions::default()
    };
    let mut r = Report::new(
        "variability_sensitivity",
        format!("§V-B — parallel sensitivity ψ = 100·σ/μ over {runs} perturbed runs at {threads} threads"),
        &["graph", "ψ MS-BFS-Graft", "ψ PF", "ψ PR", "mean graft (s)"],
    );
    let mut psi_sums = [0.0f64; 3];
    let mut count = 0usize;
    for inst in load_suite(cfg) {
        let mut psis = [0.0f64; 3];
        let mut graft_mean = 0.0;
        for (ai, &alg) in algs.iter().enumerate() {
            let mut secs = Vec::with_capacity(runs);
            for run in 0..runs {
                let rel = Relabeling::random(inst.graph.num_x(), inst.graph.num_y(), run as u64);
                let h = rel.apply(&inst.graph);
                let m0 = cfg.init.run(&h, run as u64);
                let out = solve_from_in(&h, m0, alg, &opts, &mut SolveWorkspace::new());
                secs.push(out.stats.elapsed.as_secs_f64());
            }
            let s = Sample::of(&secs);
            psis[ai] = s.sensitivity();
            if ai == 0 {
                graft_mean = s.mean;
            }
        }
        for (a, p) in psi_sums.iter_mut().zip(psis) {
            *a += p;
        }
        count += 1;
        r.row(vec![
            inst.entry.name.into(),
            f2(psis[0]),
            f2(psis[1]),
            f2(psis[2]),
            format!("{graft_mean:.4}"),
        ]);
    }
    if count > 0 {
        r.note(format!(
            "mean ψ — MS-BFS-Graft: {:.1}%, PF: {:.1}%, PR: {:.1}%",
            psi_sums[0] / count as f64,
            psi_sums[1] / count as f64,
            psi_sums[2] / count as f64
        ));
    }
    r.note("paper expectation (40 threads on Mirasol): MS-BFS-Graft ≈ 6%, PR ≈ 10%, PF ≈ 17% — fine-grained level-parallelism balances load better than per-thread DFS trees.");
    r.emit(&cfg.out_dir)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use graft_gen::Scale;

    #[test]
    fn variability_runs_at_tiny_scale() {
        let cfg = Config {
            scale: Scale::Tiny,
            reps: 1,
            threads: 2,
            out_dir: std::env::temp_dir().join("graft_bench_var_test"),
            ..Config::default()
        };
        variability(&cfg).unwrap();
        assert!(cfg.out_dir.join("variability_sensitivity.csv").exists());
    }
}
