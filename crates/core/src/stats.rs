//! Instrumentation shared by all matching algorithms.
//!
//! The paper evaluates algorithms on hardware-independent counters as well
//! as wall-clock time:
//!
//! * **Fig. 1a** — number of traversed edges;
//! * **Fig. 1b** — number of phases;
//! * **Fig. 1c** — average augmenting path length;
//! * **Fig. 4** — search rate in MTEPS (traversed edges / second);
//! * **Fig. 6** — per-step runtime breakdown (TopDown, BottomUp, Augment,
//!   Tree-Grafting, Statistics);
//! * **Fig. 8** — frontier size per BFS level per phase, which is not an
//!   end-of-run counter: the MS-BFS engine streams it as
//!   [`TraceEvent::Level`](crate::trace::TraceEvent::Level) events.
//!
//! Every solver in this crate fills in a [`SearchStats`]; counters that do
//! not apply to an algorithm stay zero.

use std::time::Duration;

/// The step of the MS-BFS-Graft phase a time sample belongs to (Fig. 6).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Step {
    /// Top-down BFS expansion of the frontier.
    TopDown,
    /// Bottom-up BFS expansion over unvisited `Y` vertices.
    BottomUp,
    /// Augmenting the matching along discovered paths.
    Augment,
    /// Constructing the next frontier: by tree grafting, with its filter
    /// of the renewable `Y`, or by a rebuild.
    Graft,
    /// Collecting the activeX/renewableY statistics that drive the
    /// grafting decision (lines 2–4 of Algorithm 7): the MS-BFS engine
    /// sums its tree table's rows, after every phase that augments.
    Statistics,
    /// Anything else (allocation, initialization of pointer arrays, ...).
    Other,
}

/// Wall-clock time attributed to each step (Fig. 6).
#[derive(Clone, Copy, Debug, Default)]
pub struct Breakdown {
    /// Time in top-down BFS traversal.
    pub top_down: Duration,
    /// Time in bottom-up BFS traversal.
    pub bottom_up: Duration,
    /// Time augmenting the matching.
    pub augment: Duration,
    /// Time grafting / rebuilding frontiers.
    pub graft: Duration,
    /// Time gathering grafting statistics.
    pub statistics: Duration,
    /// Unattributed time.
    pub other: Duration,
}

impl Breakdown {
    /// Adds `d` to the bucket for `step`.
    pub fn add(&mut self, step: Step, d: Duration) {
        match step {
            Step::TopDown => self.top_down += d,
            Step::BottomUp => self.bottom_up += d,
            Step::Augment => self.augment += d,
            Step::Graft => self.graft += d,
            Step::Statistics => self.statistics += d,
            Step::Other => self.other += d,
        }
    }

    /// Total attributed time.
    pub fn total(&self) -> Duration {
        self.top_down + self.bottom_up + self.augment + self.graft + self.statistics + self.other
    }

    /// Time in graph search (top-down + bottom-up), the numerator of the
    /// "at least 40% of the time is spent on the BFS traversal"
    /// observation in §V-E and the Fig. 9 search-time fraction.
    pub fn search_time(&self) -> Duration {
        self.top_down + self.bottom_up
    }

    /// Fractions of total time per step, in Fig. 6's stacking order
    /// `[TopDown, BottomUp, Augment, Graft, Statistics, Other]`.
    pub fn fractions(&self) -> [f64; 6] {
        let t = self.total().as_secs_f64();
        if t == 0.0 {
            return [0.0; 6];
        }
        [
            self.top_down.as_secs_f64() / t,
            self.bottom_up.as_secs_f64() / t,
            self.augment.as_secs_f64() / t,
            self.graft.as_secs_f64() / t,
            self.statistics.as_secs_f64() / t,
            self.other.as_secs_f64() / t,
        ]
    }
}

/// Counters and timings collected during one solver run.
#[derive(Clone, Debug, Default)]
pub struct SearchStats {
    /// Directed edges inspected during searches (each scan of an adjacency
    /// entry counts once, matching the paper's TEPS accounting).
    pub edges_traversed: u64,
    /// Number of phases (repeat-until iterations for MS algorithms, number
    /// of single-source searches for SS algorithms).
    pub phases: u32,
    /// Number of augmenting paths applied.
    pub augmenting_paths: u64,
    /// Total length (in edges) of all applied augmenting paths.
    pub total_augmenting_path_edges: u64,
    /// Cardinality of the initial matching handed to the solver.
    pub initial_cardinality: usize,
    /// Cardinality of the final matching.
    pub final_cardinality: usize,
    /// Wall-clock duration of the solve (excluding initialization).
    pub elapsed: Duration,
    /// Per-step time attribution (meaningful for the MS-BFS engine).
    pub breakdown: Breakdown,
    /// Set when the solver stopped at a phase boundary because
    /// [`SolveOptions::stop`] asked it to (the service's deadline). The
    /// returned matching is valid but not certified maximum.
    ///
    /// [`SolveOptions::stop`]: crate::SolveOptions#structfield.stop
    pub timed_out: bool,
}

impl SearchStats {
    /// Mean augmenting path length in edges (Fig. 1c), or 0 if no path was
    /// applied.
    pub fn avg_augmenting_path_len(&self) -> f64 {
        if self.augmenting_paths == 0 {
            0.0
        } else {
            self.total_augmenting_path_edges as f64 / self.augmenting_paths as f64
        }
    }

    /// Search rate in millions of traversed edges per second (Fig. 4).
    pub fn mteps(&self) -> f64 {
        let s = self.elapsed.as_secs_f64();
        if s == 0.0 {
            0.0
        } else {
            self.edges_traversed as f64 / s / 1.0e6
        }
    }

    /// Fraction of attributed time spent in graph search (Fig. 9).
    pub fn search_fraction(&self) -> f64 {
        let t = self.breakdown.total().as_secs_f64();
        if t == 0.0 {
            0.0
        } else {
            self.breakdown.search_time().as_secs_f64() / t
        }
    }
}

/// A scoped stopwatch accumulating into a [`Breakdown`] bucket.
///
/// ```
/// use graft_core::stats::{Breakdown, Step, Stopwatch};
/// let mut b = Breakdown::default();
/// {
///     let _t = Stopwatch::start(&mut b, Step::TopDown);
///     // ... timed work ...
/// }
/// assert!(b.top_down >= std::time::Duration::ZERO);
/// ```
pub struct Stopwatch<'a> {
    breakdown: &'a mut Breakdown,
    step: Step,
    started: std::time::Instant,
}

impl<'a> Stopwatch<'a> {
    /// Starts timing `step`.
    pub fn start(breakdown: &'a mut Breakdown, step: Step) -> Self {
        Self {
            breakdown,
            step,
            started: std::time::Instant::now(),
        }
    }
}

impl Drop for Stopwatch<'_> {
    fn drop(&mut self) {
        self.breakdown.add(self.step, self.started.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_accumulates() {
        let mut b = Breakdown::default();
        b.add(Step::TopDown, Duration::from_millis(30));
        b.add(Step::BottomUp, Duration::from_millis(10));
        b.add(Step::TopDown, Duration::from_millis(10));
        b.add(Step::Augment, Duration::from_millis(15));
        b.add(Step::Graft, Duration::from_millis(15));
        b.add(Step::Statistics, Duration::from_millis(10));
        b.add(Step::Other, Duration::from_millis(10));
        assert_eq!(b.total(), Duration::from_millis(100));
        assert_eq!(b.search_time(), Duration::from_millis(50));
        let f = b.fractions();
        assert!((f[0] - 0.4).abs() < 1e-9);
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fractions_of_zero_total() {
        assert_eq!(Breakdown::default().fractions(), [0.0; 6]);
    }

    #[test]
    fn avg_path_length() {
        let mut s = SearchStats::default();
        assert_eq!(s.avg_augmenting_path_len(), 0.0);
        s.augmenting_paths = 4;
        s.total_augmenting_path_edges = 14;
        assert!((s.avg_augmenting_path_len() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn mteps_computation() {
        let mut s = SearchStats {
            edges_traversed: 2_000_000,
            elapsed: Duration::from_secs(1),
            ..Default::default()
        };
        assert!((s.mteps() - 2.0).abs() < 1e-9);
        s.elapsed = Duration::ZERO;
        assert_eq!(s.mteps(), 0.0);
    }

    #[test]
    fn stopwatch_times_scope() {
        let mut b = Breakdown::default();
        {
            let _t = Stopwatch::start(&mut b, Step::Graft);
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(b.graft >= Duration::from_millis(1));
        assert_eq!(b.top_down, Duration::ZERO);
    }

    #[test]
    fn search_fraction() {
        let mut s = SearchStats::default();
        s.breakdown.add(Step::TopDown, Duration::from_millis(60));
        s.breakdown.add(Step::Augment, Duration::from_millis(40));
        assert!((s.search_fraction() - 0.6).abs() < 1e-9);
    }
}
