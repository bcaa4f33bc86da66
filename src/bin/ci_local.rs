//! `ci_local` — run the same gates CI runs, in the same order, locally.
//!
//! Invoked via the `cargo ci-local` alias (see `.cargo/config.toml`).
//! Runs every gate even after a failure so one pass reports all breakage,
//! then exits nonzero if any gate failed.

use std::process::Command;

struct Gate {
    name: &'static str,
    args: &'static [&'static str],
    env: &'static [(&'static str, &'static str)],
}

/// CI's `modelcheck` job builds with the graft-check instrumented atomics.
/// Its own target directory keeps that build from evicting the normal one.
const MODELCHECK_ENV: &[(&str, &str)] = &[
    (
        "RUSTFLAGS",
        "--cfg graft_check --check-cfg cfg(graft_check)",
    ),
    ("CARGO_TARGET_DIR", "target/graft-check"),
];

const GATES: &[Gate] = &[
    Gate {
        name: "fmt",
        args: &["fmt", "--all", "--", "--check"],
        env: &[],
    },
    Gate {
        name: "clippy",
        args: &[
            "clippy",
            "--workspace",
            "--all-targets",
            "--",
            "-D",
            "warnings",
        ],
        env: &[],
    },
    // CI runs the suite at one thread and at four: the MS-BFS engine runs
    // its steps inline on one thread and on the pool on four.
    Gate {
        name: "test (GRAFT_THREADS=1)",
        args: &["test", "--workspace", "--offline", "-q"],
        env: &[("GRAFT_THREADS", "1")],
    },
    Gate {
        name: "test (GRAFT_THREADS=4)",
        args: &["test", "--workspace", "--offline", "-q"],
        env: &[("GRAFT_THREADS", "4")],
    },
    // CI's bench-smoke job: four experiments at Tiny scale (about 0.4 s),
    // written under target/ so that `results/` keeps its committed CSVs.
    Gate {
        name: "bench-smoke",
        args: &[
            "run",
            "--release",
            "--offline",
            "-q",
            "-p",
            "graft-bench",
            "--bin",
            "experiments",
            "--",
            "table2",
            "fig1",
            "fig3",
            "variability",
            "--scale",
            "tiny",
            "--reps",
            "1",
            "--out",
            "target/tmp/bench-smoke",
        ],
        env: &[],
    },
    // CI's dynbench job: the incremental-vs-re-solve gate (every update's
    // cardinality equals a from-scratch solve's, and the stream beats
    // per-update re-solves), written under target/ like bench-smoke.
    Gate {
        name: "dynbench",
        args: &[
            "run",
            "--release",
            "--offline",
            "-q",
            "-p",
            "graft-bench",
            "--bin",
            "experiments",
            "--",
            "dynbench",
            "--scale",
            "tiny",
            "--reps",
            "1",
            "--out",
            "target/tmp/dynbench",
        ],
        env: &[],
    },
    Gate {
        name: "perfbench",
        args: &[
            "test",
            "--release",
            "--offline",
            "--manifest-path",
            "perfbench/Cargo.toml",
        ],
        env: &[],
    },
    // The benchmark's workloads end to end, 2 s each: perfbench exits
    // non-zero when a reply misses the Hopcroft-Karp cardinality or an
    // operation fails.
    Gate {
        name: "perfbench (workloads)",
        args: &[
            "run",
            "--release",
            "--offline",
            "-q",
            "--manifest-path",
            "perfbench/Cargo.toml",
            "--",
            "--workload",
            "all",
            "--seed",
            "1",
            "--seconds",
            "2",
        ],
        env: &[],
    },
    // The scaling job checks the Small and Medium rows of the golden
    // work table and runs the Medium stress tests, which are too slow for
    // the debug test run.
    Gate {
        name: "work table (Small, Medium), Medium stress",
        args: &[
            "test",
            "--release",
            "--offline",
            "--test",
            "work_table",
            "--test",
            "stress_medium_scale",
            "--",
            "--ignored",
        ],
        env: &[],
    },
    // The scaling job's seeded stress at Medium scale: every parallel
    // engine against its serial twin at widths 1/2/4/8, each solve
    // certified. Tiny graphs run the MS-BFS engine's steps almost all
    // inline; Medium ones keep its pool side under the differential. CI
    // gives it 60 s.
    Gate {
        name: "stress (Medium, GRAFT_THREADS=4)",
        args: &[
            "run",
            "--release",
            "--offline",
            "-q",
            "-p",
            "graft-bench",
            "--bin",
            "experiments",
            "--",
            "stress",
            "--scale",
            "medium",
            "--budget-secs",
            "20",
            "--seed",
            "7919",
            "--out",
            "results/stress-medium",
        ],
        env: &[("GRAFT_THREADS", "4")],
    },
    Gate {
        name: "doc",
        args: &["doc", "--workspace", "--no-deps", "-q"],
        env: &[("RUSTDOCFLAGS", "-D warnings")],
    },
    Gate {
        name: "modelcheck (pool)",
        args: &[
            "test",
            "-p",
            "rayon",
            "--release",
            "--offline",
            "--test",
            "model_deque",
            "--test",
            "model_pool",
        ],
        env: MODELCHECK_ENV,
    },
    Gate {
        name: "modelcheck (core)",
        args: &[
            "test",
            "-p",
            "graft-core",
            "--release",
            "--offline",
            "--test",
            "model_pothen_fan",
            "--test",
            "model_karp_sipser",
        ],
        env: MODELCHECK_ENV,
    },
];

fn main() {
    // `cargo run` sets $CARGO to the invoking binary; fall back to PATH
    // lookup when run directly.
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let mut failed: Vec<&str> = Vec::new();
    for gate in GATES {
        println!("== ci-local: cargo {} ==", gate.args.join(" "));
        let mut cmd = Command::new(&cargo);
        cmd.args(gate.args);
        for (k, v) in gate.env {
            cmd.env(k, v);
        }
        match cmd.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("ci-local: `{}` failed ({status})", gate.name);
                failed.push(gate.name);
            }
            Err(e) => {
                eprintln!("ci-local: cannot spawn cargo for `{}`: {e}", gate.name);
                failed.push(gate.name);
            }
        }
    }
    if failed.is_empty() {
        println!("ci-local: all {} gates green", GATES.len());
    } else {
        eprintln!("ci-local: FAILED gates: {}", failed.join(", "));
        std::process::exit(1);
    }
}
