//! # graft-bench — the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation section
//! (see DESIGN.md §6 for the experiment index). Each experiment prints an
//! aligned table to stdout and writes a CSV under `results/`.
//!
//! Run all of them:
//!
//! ```text
//! cargo run -p graft-bench --release --bin experiments -- all --scale small
//! ```
//!
//! or a single one, e.g. `... -- fig7 --scale tiny --reps 3`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod runner;
pub mod sysinfo;
pub mod trace_report;

use graft_core::init::Initializer;
use graft_gen::Scale;

/// Shared experiment configuration parsed from the CLI.
#[derive(Clone, Debug)]
pub struct Config {
    /// Instance scale (tiny for smoke runs, small default, medium/large
    /// for real machines).
    pub scale: Scale,
    /// Maximum thread count for parallel algorithms (0 = unset; see
    /// [`Config::max_threads`] and [`Config::all_cores_threads`]).
    pub threads: usize,
    /// Repetitions per timing measurement.
    pub reps: usize,
    /// Output directory for CSV files.
    pub out_dir: std::path::PathBuf,
    /// Initial-matching algorithm shared by every solver.
    ///
    /// The paper uses Karp-Sipser, but KS *solves our synthetic analogs
    /// outright* (its degree-1 rule is provably near-optimal on random
    /// power-law instances), which would reduce every maximum-matching
    /// solver to a single verification phase. The harness therefore
    /// defaults to [`Initializer::RandomGreedy`], which leaves a realistic
    /// 5-15% residual on every class; pass `--init karp-sipser` for the
    /// paper's exact setup.
    pub init: Initializer,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            scale: Scale::Small,
            threads: 0,
            reps: 3,
            out_dir: std::path::PathBuf::from("results"),
            init: Initializer::RandomGreedy,
        }
    }
}

impl Config {
    /// Effective thread count. `0` resolves to what parallel solves will
    /// actually use — [`rayon::current_num_threads`] (the `GRAFT_THREADS`
    /// override or the sequential default), not the machine's core count,
    /// so figure labels match the executed configuration.
    pub fn max_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            rayon::current_num_threads()
        }
    }

    /// Thread count of the experiments whose parallel rows are the paper's
    /// all-cores runs (`fig3`, `variability`). `0` resolves to every core
    /// the host offers ([`std::thread::available_parallelism`]), not to
    /// the ambient pool, which has one thread unless `GRAFT_THREADS` is
    /// set.
    pub fn all_cores_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_cores_threads_resolves_an_unset_count_to_the_host_cores() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let unset = Config::default();
        assert_eq!(unset.all_cores_threads(), cores);
        let set = Config {
            threads: 3,
            ..Config::default()
        };
        assert_eq!(set.all_cores_threads(), 3);
        assert_eq!(set.max_threads(), 3);
    }
}
