//! Summary statistics that carry their sample count.
//!
//! Medians and quartiles follow Python's `statistics.median` and
//! `statistics.quantiles(n=4)` (the exclusive method), so the numbers the
//! benchmark prints match the ones a spread check computes from them.
//! Percentiles use the nearest-rank rule, and a percentile counts as
//! resolved only when at least [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie beyond a percentile for it to be resolved.
pub const MIN_BEYOND: usize = 10;

/// A sorted sample set.
#[derive(Clone, Debug)]
pub struct Summary {
    sorted: Vec<f64>,
}

impl Summary {
    /// Sorts a copy of `samples`. NaNs are a bug in the caller.
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
        Summary { sorted }
    }

    /// Number of samples.
    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    /// The median, or 0 for an empty set.
    pub fn median(&self) -> f64 {
        let n = self.n();
        match n {
            0 => 0.0,
            _ if n % 2 == 1 => self.sorted[n / 2],
            _ => (self.sorted[n / 2 - 1] + self.sorted[n / 2]) / 2.0,
        }
    }

    /// First and third quartile, by Python's exclusive method.
    pub fn quartiles(&self) -> (f64, f64) {
        let n = self.n();
        if n < 2 {
            let v = self.sorted.first().copied().unwrap_or(0.0);
            return (v, v);
        }
        let at = |i: usize| {
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (self.sorted[j - 1] * (4.0 - delta) + self.sorted[j] * delta) / 4.0
        };
        (at(1), at(3))
    }

    /// Nearest-rank percentile `p` in (0, 100], or 0 for an empty set.
    pub fn percentile(&self, p: f64) -> f64 {
        match self.rank(p) {
            0 => 0.0,
            r => self.sorted[r - 1],
        }
    }

    /// Whether at least [`MIN_BEYOND`] samples lie above the rank of `p`.
    pub fn resolved(&self, p: f64) -> bool {
        self.n() > 0 && self.n() - self.rank(p) >= MIN_BEYOND
    }

    /// 1-based nearest rank: the smallest rank covering `p` percent.
    fn rank(&self, p: f64) -> usize {
        let n = self.n();
        ((p / 100.0 * n as f64).ceil() as usize).clamp(1.min(n), n)
    }

    /// `median=… q1=… q3=… n=…`, the form every timing is printed in.
    pub fn describe(&self) -> String {
        let (q1, q3) = self.quartiles();
        format!(
            "median={:.4} q1={:.4} q3={:.4} n={}",
            self.median(),
            q1,
            q3,
            self.n()
        )
    }

    /// `p90=… n=… beyond=…`, marked `UNRESOLVED` when too few samples lie
    /// beyond the percentile.
    pub fn describe_percentile(&self, p: f64) -> String {
        format!(
            "p{p}={:.4} n={} beyond={}{}",
            self.percentile(p),
            self.n(),
            self.n() - self.rank(p),
            if self.resolved(p) { "" } else { " UNRESOLVED" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Summary {
        Summary::of(&(1..=n).map(|v| v as f64).collect::<Vec<_>>())
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(Summary::of(&[3.0, 1.0, 2.0]).median(), 2.0);
        assert_eq!(Summary::of(&[4.0, 1.0, 3.0, 2.0]).median(), 2.5);
        assert_eq!(Summary::of(&[]).median(), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(one_to(10).quartiles(), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            Summary::of(&[16.0, 1.0, 8.0, 2.0, 4.0]).quartiles(),
            (1.5, 12.0)
        );
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(Summary::of(&[1.0, 3.0]).quartiles(), (0.5, 3.5));
        assert_eq!(Summary::of(&[7.0]).quartiles(), (7.0, 7.0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        assert_eq!(one_to(100).percentile(90.0), 90.0);
        assert_eq!(one_to(100).percentile(99.0), 99.0);
        assert_eq!(one_to(10).percentile(90.0), 9.0);
        assert_eq!(one_to(3).percentile(50.0), 2.0);
        assert_eq!(one_to(1).percentile(99.0), 1.0);
        assert_eq!(Summary::of(&[]).percentile(50.0), 0.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert!(one_to(100).resolved(90.0));
        assert!(!one_to(99).resolved(90.0));
        assert!(one_to(1000).resolved(99.0));
        assert!(!one_to(999).resolved(99.0));
        assert!(!Summary::of(&[]).resolved(50.0));
        assert!(one_to(1000)
            .describe_percentile(99.0)
            .ends_with("beyond=10"));
        assert!(one_to(99).describe_percentile(90.0).ends_with("UNRESOLVED"));
    }

    #[test]
    fn describe_prints_the_sample_count() {
        assert_eq!(
            one_to(10).describe(),
            "median=5.5000 q1=2.7500 q3=8.2500 n=10"
        );
    }
}
