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
    Gate {
        name: "doc",
        args: &["doc", "--workspace", "--no-deps", "-q"],
        env: &[("RUSTDOCFLAGS", "-D warnings")],
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
