//! What the host looked like around a run, so that a run taken on a busy
//! machine shows when two commits are compared.

use std::process::Command;

/// Facts recorded once per run.
pub struct Host {
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_sha: String,
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// First `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `/proc/loadavg` (1, 5 and 15 minutes) when the run started.
    pub load_before: String,
}

impl Host {
    /// Records the host at the start of a run.
    pub fn record() -> Host {
        let git_sha = Command::new("git")
            .args(["rev-parse", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .unwrap_or_default()
            .lines()
            .find_map(|l| l.strip_prefix("model name"))
            .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            git_sha,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            load_before: load_average(),
        }
    }

    /// The `host` report line, with the load average now as `load_after`.
    pub fn line(&self) -> String {
        format!(
            "host git_sha={} nproc={} cpu=\"{}\" load_before={} load_after={}",
            self.git_sha,
            self.nproc,
            self.cpu_model,
            self.load_before,
            load_average()
        )
    }
}

fn load_average() -> String {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(","))
        .unwrap_or_else(|| "unknown".to_string())
}
