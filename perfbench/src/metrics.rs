//! Every metric the benchmark reports, its unit, which way is better,
//! and, for a per-layer metric, the end-to-end metrics and workloads it
//! should move (`metric@workload`). `BENCHMARK.json` lists the same names;
//! a test keeps the two in step.

/// One reported metric.
pub struct Metric {
    /// Name in the result object.
    pub name: &'static str,
    /// Unit in the result object.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// End-to-end metrics and workloads a change in this layer should
    /// move; empty for end-to-end metrics.
    pub moves: &'static str,
}

const fn m(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        moves,
    }
}

/// Reported by `--trace 0`, on every workload, with tracing off. The
/// other end-to-end figures (`solve_p90_ms`, `solve_p99_ms`,
/// `update_p50_ms`, `update_p99_ms`, `requests_per_s`, `failed_frac`) are
/// printed beside them but not listed here, because a listed metric must
/// exist, be nonzero and hold its bound on every workload: updates only
/// run on serve-kkt, `failed_frac` is 0, and on a 2-vCPU host with CPU
/// steal the tails, the update latencies and serve-kkt's request rate
/// vary between runs by more than the largest bound allowed.
pub const END_TO_END: &[Metric] = &[
    m("solve_p50_ms", "ms", "lower", ""),
    m("setup_s", "s", "lower", ""),
    m("peak_rss_mib", "MiB", "lower", ""),
];

const COLD_KKT: &str = "solve_p50_ms@cold-kkt";
const COLD: &str = "solve_p50_ms@cold-kkt solve_p50_ms@cold-road";
const ROAD: &str = "solve_p50_ms@cold-road";
const ALL_SOLVES: &str = "solve_p50_ms@cold-kkt solve_p50_ms@cold-road solve_p50_ms@serve-kkt";
const WARM: &str = "solve_p50_ms@serve-kkt";
const UPDATES: &str = "update_p50_ms@serve-kkt update_p99_ms@serve-kkt";
const CONTENDED: &str = "update_p50_ms@serve-kkt requests_per_s@serve-kkt";

/// Reported by `--trace 1`, on every workload, from the traced run.
pub const PER_LAYER: &[Metric] = &[
    m(
        "gen.build_s",
        "s",
        "lower",
        "setup_s@cold-kkt setup_s@cold-road setup_s@serve-kkt",
    ),
    m("init.ks_ms", "ms", "lower", COLD_KKT),
    m("init.matched_frac", "frac", "higher", COLD_KKT),
    m("engine.solve_ms.t1", "ms", "lower", ALL_SOLVES),
    m("engine.solve_ms.t2", "ms", "lower", ALL_SOLVES),
    m("engine.top_down_ms.t1", "ms", "lower", COLD),
    m("engine.top_down_ms.t2", "ms", "lower", COLD),
    m("engine.bottom_up_ms.t1", "ms", "lower", COLD_KKT),
    m("engine.bottom_up_ms.t2", "ms", "lower", COLD_KKT),
    m("engine.augment_ms.t1", "ms", "lower", COLD),
    m("engine.augment_ms.t2", "ms", "lower", COLD),
    m("engine.graft_ms.t1", "ms", "lower", COLD),
    m("engine.graft_ms.t2", "ms", "lower", COLD),
    m("engine.statistics_ms.t1", "ms", "lower", ROAD),
    m("engine.statistics_ms.t2", "ms", "lower", ROAD),
    m("engine.other_ms.t1", "ms", "lower", WARM),
    m("engine.other_ms.t2", "ms", "lower", WARM),
    m("engine.mteps.t1", "MTEPS", "higher", COLD),
    m("engine.mteps.t2", "MTEPS", "higher", COLD),
    m("engine.speedup", "x", "higher", ROAD),
    m("engine.phases.t1", "count", "lower", ROAD),
    m("engine.phases.t2", "count", "lower", ROAD),
    m("engine.levels.t1", "count", "lower", ROAD),
    m("engine.levels.t2", "count", "lower", ROAD),
    m("engine.bottom_up_levels.t1", "count", "higher", COLD_KKT),
    m("engine.bottom_up_levels.t2", "count", "higher", COLD_KKT),
    m("engine.grafted_phases.t1", "count", "higher", COLD),
    m("engine.grafted_phases.t2", "count", "higher", COLD),
    m("engine.edges_traversed.t1", "count", "lower", COLD),
    m("engine.edges_traversed.t2", "count", "lower", COLD),
    m("engine.augmenting_paths.t1", "count", "higher", COLD),
    m("engine.augmenting_paths.t2", "count", "higher", COLD),
    m("engine.edges_per_augment.t1", "count", "lower", COLD),
    m("engine.edges_per_augment.t2", "count", "lower", COLD),
    m("pool.build_us", "us", "lower", ROAD),
    m("pool.fold_us", "us", "lower", ROAD),
    m("dyn.delete_us", "us", "lower", UPDATES),
    m("dyn.delete_us.p99", "us", "lower", UPDATES),
    m("dyn.insert_us", "us", "lower", UPDATES),
    m("dyn.insert_us.p99", "us", "lower", UPDATES),
    m("dyn.search_frac", "frac", "lower", UPDATES),
    m("dyn.repaired_frac", "frac", "higher", UPDATES),
    m("dyn.edges_per_update", "count", "lower", UPDATES),
    m("dyn.rebuilds", "count", "lower", UPDATES),
    m("svc.parse_us", "us", "lower", WARM),
    m("svc.registry_get_us", "us", "lower", WARM),
    m("svc.warm_copy_us", "us", "lower", WARM),
    m("svc.store_warm_us", "us", "lower", WARM),
    m("svc.journal_append_us", "us", "lower", UPDATES),
    m("svc.journal_append_us.p99", "us", "lower", UPDATES),
    m("svc.queue_wait_us", "us", "lower", CONTENDED),
    m("svc.overhead_us", "us", "lower", CONTENDED),
    m("self.svc_frac", "frac", "lower", WARM),
    m("self.init_frac", "frac", "lower", COLD_KKT),
    m("self.engine_frac", "frac", "lower", COLD),
    m("self.dyn_frac", "frac", "lower", UPDATES),
    m(
        "trace.overhead_frac",
        "frac",
        "lower",
        "none: the cost of the benchmark's own spans",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"name": "…"` value in `BENCHMARK.json`, in file order.
    fn declared_names() -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        text.split("\"name\"")
            .skip(1)
            .filter_map(|rest| rest.split('"').nth(1).map(str::to_string))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let workloads: Vec<String> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        let metrics: Vec<String> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|m| m.name.to_string())
            .collect();
        assert_eq!(declared_names(), [workloads, metrics].concat());
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        for m in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                m.name, m.unit, m.better
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn every_layer_metric_names_what_it_should_move() {
        for m in PER_LAYER {
            assert!(!m.moves.is_empty(), "{}", m.name);
        }
    }
}
