//! Experiment runner: regenerates every table and figure of the paper.
//!
//! Usage:
//!
//! ```text
//! experiments <all|table1|table2|fig1|fig3|fig4|fig5|fig6|fig7|fig8|fig9|variability>...
//!             [--scale tiny|small|medium|large] [--threads N] [--reps N] [--out DIR]
//! experiments trace-report <file.jsonl>
//! experiments loadgen [--connections N] [--requests N] [--batch N] [--seed S]
//!             [--open-loop-rate R] [--virtual-open-loop] [--scale ...] [--threads N] [--out DIR]
//! experiments stress [--seed S] [--budget-secs N] [--scale ...] [--out DIR]
//! experiments abtest --base-bin PATH --head-bin PATH --workload W --out FILE
//!             [--pairs N] [--seconds S] [--seed S]
//! ```

use graft_bench::experiments::{AbtestOptions, LoadgenOptions, StressOptions};
use graft_bench::{experiments, Config};
use graft_gen::Scale;

fn usage() -> ! {
    eprintln!(
        "usage: experiments <experiment>... [--scale tiny|small|medium|large] [--threads N] [--reps N] [--out DIR] [--init none|greedy|random-greedy|karp-sipser]\n\
         \x20      experiments trace-report <file.jsonl>\n\
         \x20      experiments loadgen [--connections N] [--requests N] [--batch N] [--seed S] [--open-loop-rate R] [--virtual-open-loop]\n\
         \x20      experiments stress [--seed S] [--budget-secs N]\n\
         \x20      experiments abtest --base-bin PATH --head-bin PATH --workload W --out FILE [--pairs N] [--seconds S] [--seed S]\n\
         experiments: all table1 table2 fig1 fig3 fig4 fig5 fig6 fig7 fig8 fig9 variability ablation_alpha ablation_init dist anatomy perf-gate scaling stress dynbench loadgen"
    );
    std::process::exit(2);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("trace-report") {
        let rest = args.split_off(1);
        let [file] = rest.as_slice() else { usage() };
        match graft_bench::trace_report::run(std::path::Path::new(file)) {
            Ok(()) => std::process::exit(0),
            Err(e) => {
                eprintln!("trace-report failed: {e}");
                std::process::exit(1);
            }
        }
    }
    if args.first().map(String::as_str) == Some("abtest") {
        let opts = AbtestOptions::parse(&args[1..]).unwrap_or_else(|e| {
            eprintln!("{e}");
            usage()
        });
        match experiments::abtest(&opts) {
            Ok(()) => std::process::exit(0),
            Err(e) => {
                eprintln!("abtest failed: {e}");
                std::process::exit(1);
            }
        }
    }
    let mut cfg = Config::default();
    let mut lg = LoadgenOptions::default();
    let mut st = StressOptions::default();
    let mut names: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--budget-secs" => {
                let v = it.next().unwrap_or_else(|| usage());
                st.budget = std::time::Duration::from_secs(v.parse().unwrap_or_else(|_| usage()));
            }
            "--connections" => {
                let v = it.next().unwrap_or_else(|| usage());
                lg.connections = v.parse().unwrap_or_else(|_| usage());
            }
            "--requests" => {
                let v = it.next().unwrap_or_else(|| usage());
                lg.requests_per_conn = v.parse().unwrap_or_else(|_| usage());
            }
            "--batch" => {
                let v = it.next().unwrap_or_else(|| usage());
                lg.batch_size = v.parse().unwrap_or_else(|_| usage());
            }
            "--seed" => {
                let v = it.next().unwrap_or_else(|| usage());
                let seed = v.parse().unwrap_or_else(|_| usage());
                lg.seed = seed;
                st.seed = seed;
            }
            "--open-loop-rate" => {
                let v = it.next().unwrap_or_else(|| usage());
                lg.open_loop_rate = Some(v.parse().unwrap_or_else(|_| usage()));
            }
            "--virtual-open-loop" => lg.virtual_open_loop = true,
            "--scale" => {
                let v = it.next().unwrap_or_else(|| usage());
                cfg.scale = Scale::parse(&v).unwrap_or_else(|| usage());
            }
            "--threads" => {
                let v = it.next().unwrap_or_else(|| usage());
                cfg.threads = v.parse().unwrap_or_else(|_| usage());
            }
            "--reps" => {
                let v = it.next().unwrap_or_else(|| usage());
                cfg.reps = v.parse().unwrap_or_else(|_| usage());
            }
            "--out" => {
                let v = it.next().unwrap_or_else(|| usage());
                cfg.out_dir = v.into();
            }
            "--init" => {
                let v = it.next().unwrap_or_else(|| usage());
                cfg.init = graft_core::init::Initializer::parse(&v).unwrap_or_else(|| usage());
            }
            "--help" | "-h" => usage(),
            name => names.push(name.to_string()),
        }
    }
    if names.is_empty() {
        names.push("all".to_string());
    }
    println!(
        "experiment config: scale={:?} (×{}), threads={} (max {}), reps={}, init={}, out={}",
        cfg.scale,
        cfg.scale.factor(),
        cfg.threads,
        cfg.max_threads(),
        cfg.reps,
        cfg.init.name(),
        cfg.out_dir.display()
    );
    for name in names {
        // loadgen has its own knobs beyond `Config`, so it dispatches
        // directly; everything else goes through the generic registry.
        let outcome = if name == "loadgen" {
            experiments::loadgen(&cfg, &lg).map(|()| true)
        } else if name == "stress" {
            experiments::stress(&cfg, &st).map(|()| true)
        } else {
            experiments::run_by_name(&name, &cfg)
        };
        match outcome {
            Ok(true) => {}
            Ok(false) => {
                eprintln!("unknown experiment `{name}`");
                usage();
            }
            Err(e) => {
                eprintln!("experiment `{name}` failed: {e}");
                std::process::exit(1);
            }
        }
    }
}
