//! The experiments, one per paper table/figure. See DESIGN.md §6 for the
//! index mapping experiment ids to paper content.

mod ablation;
mod abtest;
mod anatomy;
mod dist;
mod dynbench;
mod fig1;
mod fig3;
mod fig4;
mod fig5;
mod fig6;
mod fig7;
mod fig8;
mod fig9;
mod loadgen;
mod perf_gate;
mod scaling;
mod stress;
mod tables;
mod variability;

pub use ablation::{ablation_alpha, ablation_init};
pub use abtest::{abtest, AbtestOptions, ABTEST_SCHEMA};
pub use anatomy::anatomy;
pub use dist::dist;
pub use dynbench::{dynbench, DYNBENCH_FILE, DYNBENCH_SCHEMA, DYNBENCH_SPEEDUP_MIN};
pub use fig1::fig1;
pub use fig3::fig3;
pub use fig4::fig4;
pub use fig5::fig5;
pub use fig6::fig6;
pub use fig7::fig7;
pub use fig8::fig8;
pub use fig9::fig9;
pub use loadgen::{loadgen, LoadgenOptions, LOADGEN_FILE, LOADGEN_SCHEMA, PIPELINE_SPEEDUP_MIN};
pub use perf_gate::{perf_gate, BENCH_FILE, BENCH_SCHEMA};
pub use scaling::{scaling, SCALE_RATIO, SCALING_FILE, SCALING_SCHEMA, THREAD_COUNTS};
pub use stress::{stress, StressOptions};
pub use tables::{table1, table2};
pub use variability::variability;

use crate::Config;
use graft_core::Matching;
use graft_gen::suite::SuiteEntry;
use graft_graph::BipartiteCsr;

/// A suite instance materialized at the configured scale, with its
/// initial matching precomputed (shared by all algorithms, as the paper
/// shares the Karp-Sipser matching across solvers).
pub struct Instance {
    /// The suite registry entry.
    pub entry: SuiteEntry,
    /// The generated graph.
    pub graph: BipartiteCsr,
    /// Initial matching from the configured initializer (fixed seed).
    pub init: Matching,
}

/// Builds one suite instance.
pub fn load_instance(entry: SuiteEntry, cfg: &Config) -> Instance {
    let graph = entry.build(cfg.scale);
    let init = cfg.init.run(&graph, 0xC0FFEE);
    Instance { entry, graph, init }
}

/// Builds the whole suite at the configured scale.
pub fn load_suite(cfg: &Config) -> Vec<Instance> {
    graft_gen::suite::suite()
        .into_iter()
        .map(|e| load_instance(e, cfg))
        .collect()
}

/// Runs every experiment in paper order.
pub fn run_all(cfg: &Config) -> std::io::Result<()> {
    table1(cfg)?;
    table2(cfg)?;
    fig1(cfg)?;
    fig3(cfg)?;
    fig4(cfg)?;
    fig5(cfg)?;
    fig6(cfg)?;
    fig7(cfg)?;
    fig8(cfg)?;
    fig9(cfg)?;
    variability(cfg)?;
    ablation_alpha(cfg)?;
    ablation_init(cfg)?;
    dist(cfg)?;
    anatomy(cfg)?;
    Ok(())
}

/// Dispatches one experiment by name; returns false for unknown names.
pub fn run_by_name(name: &str, cfg: &Config) -> std::io::Result<bool> {
    match name {
        "all" => run_all(cfg)?,
        "table1" => table1(cfg)?,
        "table2" => table2(cfg)?,
        "fig1" => fig1(cfg)?,
        "fig3" => fig3(cfg)?,
        "fig4" => fig4(cfg)?,
        "fig5" => fig5(cfg)?,
        "fig6" => fig6(cfg)?,
        "fig7" => fig7(cfg)?,
        "fig8" => fig8(cfg)?,
        "fig9" => fig9(cfg)?,
        "variability" => variability(cfg)?,
        "ablation_alpha" => ablation_alpha(cfg)?,
        "ablation_init" => ablation_init(cfg)?,
        "dist" => dist(cfg)?,
        "anatomy" => anatomy(cfg)?,
        "perf-gate" => perf_gate(cfg)?,
        "scaling" => scaling(cfg)?,
        "stress" => stress(cfg, &StressOptions::default())?,
        "dynbench" => dynbench(cfg)?,
        "loadgen" => loadgen(cfg, &LoadgenOptions::default())?,
        _ => return Ok(false),
    }
    Ok(true)
}
