//! `experiments trace-report <file.jsonl>` — replay a `--trace` capture
//! into the paper-style anatomy tables.
//!
//! The replay is also a validation pass: [`graft_core::trace::replay`]
//! re-checks every recorded direction and grafting decision against the
//! engine's arithmetic, so a report only prints from a trace that is
//! internally consistent. Any violation (or parse error) is returned as
//! an error and the binary exits nonzero.

use crate::report::{f2, Report};
use graft_core::trace::{read_jsonl, replay, RunSummary};
use std::io::BufReader;
use std::path::Path;

/// Reads, validates, and prints one JSONL trace file.
pub fn run(path: &Path) -> Result<(), String> {
    let file =
        std::fs::File::open(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    let events =
        read_jsonl(BufReader::new(file)).map_err(|e| format!("{}: {e}", path.display()))?;
    if events.is_empty() {
        return Err(format!("{}: trace holds no events", path.display()));
    }
    let runs = replay(&events).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "trace {}: {} events, {} run{}",
        path.display(),
        events.len(),
        runs.len(),
        if runs.len() == 1 { "" } else { "s" }
    );
    for (i, run) in runs.iter().enumerate() {
        print_run(i, run);
    }
    Ok(())
}

fn print_run(index: usize, run: &RunSummary) {
    println!(
        "\nrun {index}: {} on {}×{} ({} edges), |M| {} → {} in {} phase{}, \
         {} augmenting paths, {} µs{}",
        run.algorithm,
        run.nx,
        run.ny,
        run.edges,
        run.initial_cardinality,
        run.final_cardinality,
        run.total_phases,
        if run.total_phases == 1 { "" } else { "s" },
        run.augmenting_paths,
        run.elapsed_us,
        if run.timed_out { " (timed out)" } else { "" },
    );
    if run.phases.is_empty() {
        println!("  (no per-phase events recorded for this algorithm)");
        return;
    }

    let mut phases = Report::new(
        "trace_phases",
        format!("per-phase anatomy ({})", run.algorithm),
        &[
            "phase",
            "levels",
            "bottom-up",
            "peak",
            "augs",
            "path-edges",
            "edges",
            "µs",
            "decision",
        ],
    );
    for p in &run.phases {
        let decision = match p.graft {
            Some(g) if g.grafted => format!("graft ({}>{}/α)", g.active_edges, g.renewable_edges),
            Some(g) => format!("rebuild ({}≤{}/α)", g.active_edges, g.renewable_edges),
            None => "-".to_string(),
        };
        phases.row(vec![
            p.phase.to_string(),
            p.levels.to_string(),
            p.bottom_up_levels.to_string(),
            p.frontier_peak.to_string(),
            p.augmentations.to_string(),
            p.path_edges.to_string(),
            p.edges_traversed.to_string(),
            p.elapsed_us.to_string(),
            decision,
        ]);
    }
    phases.print();

    let (grafted, rebuilt) = run.graft_counts();
    let total_levels: u64 = run.phases.iter().map(|p| p.levels).sum();
    let mut summary = Report::new(
        "trace_summary",
        "run summary (paper §5 anatomy)",
        &["metric", "value"],
    );
    summary.row(vec!["phases recorded".into(), run.phases.len().to_string()]);
    summary.row(vec!["total BFS levels".into(), total_levels.to_string()]);
    summary.row(vec![
        "bottom-up level fraction".into(),
        f2(run.bottom_up_fraction()),
    ]);
    summary.row(vec!["trees grafted".into(), grafted.to_string()]);
    summary.row(vec!["forests rebuilt".into(), rebuilt.to_string()]);
    if run.alpha > 0.0 {
        summary.row(vec!["alpha".into(), f2(run.alpha)]);
        summary.row(vec![
            "direction optimizing".into(),
            run.direction_optimizing.to_string(),
        ]);
        summary.row(vec!["grafting enabled".into(), run.grafting.to_string()]);
    }
    summary.print();
}

#[cfg(test)]
mod tests {
    use super::*;
    use graft_core::trace::{JsonlSink, TraceSink as _};
    use graft_core::{solve_from_traced_in, Algorithm, SolveOptions, SolveWorkspace, Tracer};
    use std::io::Write as _;
    use std::sync::Arc;

    fn trace_file(name: &str, lines: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("graft_trace_report_{name}.jsonl"));
        let mut f = std::fs::File::create(&path).unwrap();
        f.write_all(lines.as_bytes()).unwrap();
        path
    }

    #[test]
    fn reports_a_real_capture() {
        let g = graft_gen::suite::by_name("kkt_power")
            .unwrap()
            .build(graft_gen::Scale::Tiny);
        let path = std::env::temp_dir().join("graft_trace_report_real.jsonl");
        let sink = Arc::new(JsonlSink::create(&path).unwrap());
        let tracer = Tracer::to_sink(Arc::clone(&sink) as _);
        let opts = SolveOptions::default();
        let alg = Algorithm::MsBfsGraft;
        let out = solve_from_traced_in(&g, None, alg, &opts, &tracer, &mut SolveWorkspace::new());
        assert!(out.matching.cardinality() > 0);
        sink.flush().unwrap();
        run(&path).unwrap();
    }

    #[test]
    fn rejects_missing_and_invalid_traces() {
        assert!(run(Path::new("/nonexistent/trace.jsonl")).is_err());
        let empty = trace_file("empty", "");
        assert!(run(&empty).unwrap_err().contains("no events"));
        let garbage = trace_file("garbage", "not json\n");
        assert!(run(&garbage).is_err());
        // Structurally valid JSON that violates replay invariants: a run
        // that ends without starting.
        let orphan = trace_file(
            "orphan",
            "{\"ev\":\"run_end\",\"final_cardinality\":1,\"phases\":0,\
             \"augmenting_paths\":0,\"edges_traversed\":0,\"elapsed_us\":0,\
             \"timed_out\":false}\n",
        );
        assert!(run(&orphan).is_err());
    }
}
