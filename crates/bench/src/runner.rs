//! Timing helpers shared by the experiments: repeated runs, mean/σ, and
//! the relative-speedup accounting the paper uses in Fig. 3.

use graft_core::{solve_from_in, Algorithm, Matching, RunOutcome, SolveOptions, SolveWorkspace};
use graft_graph::BipartiteCsr;
use std::time::Duration;

/// Mean and standard deviation of a sample.
#[derive(Clone, Copy, Debug, Default)]
pub struct Sample {
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Number of observations.
    pub n: usize,
}

impl Sample {
    /// Summarizes a slice of observations.
    pub fn of(values: &[f64]) -> Self {
        let n = values.len();
        if n == 0 {
            return Self::default();
        }
        let mean = values.iter().sum::<f64>() / n as f64;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n as f64;
        Self {
            mean,
            std_dev: var.sqrt(),
            n,
        }
    }

    /// The paper's parallel sensitivity ψ = 100·σ/μ (§V-B).
    pub fn sensitivity(&self) -> f64 {
        if self.mean == 0.0 {
            0.0
        } else {
            100.0 * self.std_dev / self.mean
        }
    }
}

/// The result of a repeated timing measurement.
#[derive(Clone, Debug)]
pub struct Timing {
    /// Outcome of the last run (counters are identical across runs for
    /// deterministic serial algorithms).
    pub outcome: RunOutcome,
    /// Per-run solve durations in seconds.
    pub seconds: Vec<f64>,
}

impl Timing {
    /// Summary of the run durations.
    pub fn sample(&self) -> Sample {
        Sample::of(&self.seconds)
    }

    /// Mean duration.
    pub fn mean(&self) -> Duration {
        Duration::from_secs_f64(self.sample().mean)
    }
}

/// Runs `alg` on `g` `reps` times from the same initial matching, timing
/// only the solve (initialization is shared and excluded, as the paper
/// times matching algorithms after Karp-Sipser).
pub fn time_algorithm(
    g: &BipartiteCsr,
    m0: &Matching,
    alg: Algorithm,
    opts: &SolveOptions,
    reps: usize,
) -> Timing {
    let reps = reps.max(1);
    let mut seconds = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let out = solve_from_in(g, m0.clone(), alg, opts, &mut SolveWorkspace::new());
        seconds.push(out.stats.elapsed.as_secs_f64());
        last = Some(out);
    }
    Timing {
        outcome: last.expect("reps >= 1"),
        seconds,
    }
}

/// Relative speedups against the slowest entry (Fig. 3's normalization:
/// the slowest algorithm for a graph has speedup 1.0).
pub fn relative_speedups(times: &[f64]) -> Vec<f64> {
    let slowest = times.iter().cloned().fold(f64::MIN, f64::max);
    times
        .iter()
        .map(|&t| if t > 0.0 { slowest / t } else { f64::INFINITY })
        .collect()
}

/// Geometric mean, the right average for speedup ratios.
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-300).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_statistics() {
        let s = Sample::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.std_dev - 2.0).abs() < 1e-12);
        assert!((s.sensitivity() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn sample_empty() {
        let s = Sample::of(&[]);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.sensitivity(), 0.0);
    }

    #[test]
    fn relative_speedups_normalize_to_slowest() {
        let s = relative_speedups(&[2.0, 1.0, 4.0]);
        assert_eq!(s, vec![2.0, 4.0, 1.0]);
    }

    #[test]
    fn geometric_mean_of_ratios() {
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), 0.0);
    }

    #[test]
    fn time_algorithm_runs() {
        let g = BipartiteCsr::from_edges(3, 3, &[(0, 0), (1, 1), (2, 2), (0, 1)]);
        let m0 = Matching::for_graph(&g);
        let t = time_algorithm(
            &g,
            &m0,
            Algorithm::HopcroftKarp,
            &SolveOptions::default(),
            3,
        );
        assert_eq!(t.seconds.len(), 3);
        assert_eq!(t.outcome.matching.cardinality(), 3);
    }
}
