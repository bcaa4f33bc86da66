//! Fig. 5 — strong scaling of MS-BFS-Graft per graph class.

use super::load_suite;
use crate::report::{f2, Report};
use crate::runner::{geometric_mean, time_algorithm};
use crate::sysinfo::SystemInfo;
use crate::Config;
use graft_core::{Algorithm, SolveOptions};
use graft_gen::suite::GraphClass;
use std::collections::BTreeMap;

/// Sweeps the thread count (1, 2, 4, … up to the configured width,
/// [`Config::max_threads`]) and reports per-class average speedup over the
/// serial MS-BFS-Graft algorithm, the paper's Fig. 5 normalization.
pub fn fig5(cfg: &Config) -> std::io::Result<()> {
    let t_max = cfg.max_threads();
    let mut threads = vec![1usize];
    while *threads.last().unwrap() * 2 <= t_max {
        threads.push(threads.last().unwrap() * 2);
    }
    if *threads.last().unwrap() != t_max {
        threads.push(t_max);
    }

    let headers: Vec<String> = std::iter::once("class".to_string())
        .chain(threads.iter().map(|t| format!("t={t}")))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut r = Report::new(
        "fig5_strong_scaling",
        "Fig. 5 — strong scaling (speedup over serial MS-BFS-Graft, class average)",
        &header_refs,
    );

    // class → per-thread-count speedup lists.
    let mut per_class: BTreeMap<&'static str, Vec<Vec<f64>>> = BTreeMap::new();
    for inst in load_suite(cfg) {
        let serial = time_algorithm(
            &inst.graph,
            &inst.init,
            Algorithm::MsBfsGraft,
            &SolveOptions::default(),
            cfg.reps,
        )
        .sample()
        .mean;
        let speedups: Vec<f64> = threads
            .iter()
            .map(|&t| {
                let opts = SolveOptions {
                    threads: t,
                    ..SolveOptions::default()
                };
                let par = time_algorithm(
                    &inst.graph,
                    &inst.init,
                    Algorithm::MsBfsGraftParallel,
                    &opts,
                    cfg.reps,
                )
                .sample()
                .mean;
                serial / par.max(1e-12)
            })
            .collect();
        per_class
            .entry(inst.entry.class.name())
            .or_insert_with(|| vec![Vec::new(); threads.len()])
            .iter_mut()
            .zip(speedups)
            .for_each(|(bucket, s)| bucket.push(s));
    }
    for class in [
        GraphClass::Scientific,
        GraphClass::ScaleFree,
        GraphClass::Web,
    ] {
        if let Some(buckets) = per_class.get(class.name()) {
            let mut row = vec![class.name().to_string()];
            row.extend(buckets.iter().map(|b| f2(geometric_mean(b))));
            r.row(row);
        }
    }
    let cpus = SystemInfo::collect().logical_cpus;
    r.note(format!("sweep width: {t_max} threads on a host with {cpus} logical CPUs — the curve flattens beyond the CPU count; the paper reports avg 15x on 40-core Mirasol and 12x on 24-core Edison."));
    r.emit(&cfg.out_dir)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use graft_gen::Scale;

    #[test]
    fn fig5_runs_at_tiny_scale() {
        let cfg = Config {
            scale: Scale::Tiny,
            reps: 1,
            threads: 2,
            out_dir: std::env::temp_dir().join("graft_bench_fig5_test"),
            ..Config::default()
        };
        fig5(&cfg).unwrap();
        assert!(cfg.out_dir.join("fig5_strong_scaling.csv").exists());
    }
}
