//! Fig. 8 — BFS frontier size per level, with and without grafting, on
//! the coPapersDBLP analog.

use super::load_instance;
use crate::report::Report;
use crate::Config;
use graft_core::trace::{MemorySink, TraceEvent};
use graft_core::{solve_from_traced_in, Algorithm, SolveOptions, SolveWorkspace, Tracer};
use graft_gen::suite::by_name;
use std::sync::Arc;

/// Traces MS-BFS and MS-BFS-Graft and prints the per-level frontier sizes
/// (the `Level` events) of two mid-run phases (the paper shows phases 2
/// and 4). Grafting should start each phase with a large frontier that
/// only shrinks; without grafting each phase restarts small, grows, then
/// shrinks.
pub fn fig8(cfg: &Config) -> std::io::Result<()> {
    let entry = by_name("coPapersDBLP").expect("suite graph");
    let inst = load_instance(entry, cfg);
    let mut r = Report::new(
        "fig8_frontier_sizes",
        "Fig. 8 — frontier size per BFS level (coPapersDBLP analog)",
        &["algorithm", "phase", "level", "frontier", "direction"],
    );
    for (name, alg) in [
        ("MS-BFS", Algorithm::MsBfs),
        ("MS-BFS-Graft", Algorithm::MsBfsGraft),
    ] {
        let sink = Arc::new(MemorySink::new());
        let tracer = Tracer::to_sink(sink.clone());
        solve_from_traced_in(
            &inst.graph,
            inst.init.clone(),
            alg,
            &SolveOptions::default(),
            &tracer,
            &mut SolveWorkspace::new(),
        );
        // (phase, level, frontier size, bottom-up) of every BFS level.
        let levels: Vec<(u64, u64, u64, bool)> = sink
            .take()
            .into_iter()
            .filter_map(|ev| match ev {
                TraceEvent::Level {
                    phase,
                    level,
                    frontier,
                    bottom_up,
                    ..
                } => Some((phase, level, frontier, bottom_up)),
                _ => None,
            })
            .collect();
        let of_phase = |p: u64| levels.iter().filter(move |l| l.0 == p);
        let max_phase = levels.iter().map(|l| l.0).max().unwrap_or(1);
        // The paper plots phases 2 and 4; clamp for short runs.
        for phase in [2.min(max_phase), 4.min(max_phase)] {
            for &(_, level, size, bottom_up) in of_phase(phase) {
                r.row(vec![
                    name.into(),
                    phase.to_string(),
                    level.to_string(),
                    size.to_string(),
                    if bottom_up {
                        "bottom-up".into()
                    } else {
                        "top-down".into()
                    },
                ]);
            }
        }
        // Summary: total forest work per phase (area under the curve).
        let total: u64 = levels.iter().map(|l| l.2).sum();
        r.note(format!(
            "{name}: {} phases, total frontier volume {} (area under the curves)",
            max_phase, total
        ));
        // ASCII rendition of the paper's curves: one bar row per level.
        let peak = levels.iter().map(|l| l.2).max().unwrap_or(1).max(1);
        for phase in [2.min(max_phase), 4.min(max_phase)] {
            for &(_, level, size, _) in of_phase(phase) {
                let width = (size * 40).div_ceil(peak) as usize;
                r.note(format!(
                    "{name:>12} p{} L{:<2} |{:<40}| {}",
                    phase,
                    level,
                    "█".repeat(width),
                    size
                ));
            }
        }
    }
    r.note("paper expectation: grafting starts phases with large frontiers that shrink monotonically; without grafting phases start small, grow, then shrink — with a larger area (more traversal work) and taller forests (more synchronization).");
    r.emit(&cfg.out_dir)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use graft_gen::Scale;

    #[test]
    fn fig8_runs_at_tiny_scale() {
        let cfg = Config {
            scale: Scale::Tiny,
            reps: 1,
            threads: 2,
            out_dir: std::env::temp_dir().join("graft_bench_fig8_test"),
            ..Config::default()
        };
        fig8(&cfg).unwrap();
        assert!(cfg.out_dir.join("fig8_frontier_sizes.csv").exists());
    }
}
