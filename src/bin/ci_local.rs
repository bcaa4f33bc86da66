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
    // The scaling job checks the Small rows of the golden work table,
    // which are too slow for the debug test run.
    Gate {
        name: "work table (Small)",
        args: &[
            "test",
            "--release",
            "--offline",
            "--test",
            "work_table",
            "--",
            "--ignored",
        ],
        env: &[],
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
