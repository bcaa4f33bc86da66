//! Service-wide instrumentation: lock-free counters and latency
//! histograms, rendered as the flat `key=value` line `STATS` returns.
//!
//! Everything on the hot path (workers, connection threads) is atomics so
//! counting never takes a lock; `STATS` reads are relaxed snapshots,
//! which is fine for monitoring. The one exception is the per-graph solve
//! map, which is a short-critical-section `Mutex<HashMap>` touched once
//! per completed solve — graphs are named dynamically, so a fixed atomic
//! array cannot hold them.

use graft_core::Algorithm;
use graft_sim::{Clock, WallClock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Number of log2 latency buckets: bucket `i` counts values in
/// `[2^i, 2^(i+1))` microseconds, the last bucket is open-ended.
pub const HIST_BUCKETS: usize = 20;

/// A log2-bucketed latency histogram over microseconds.
#[derive(Default)]
pub struct Histogram {
    count: AtomicU64,
    sum_us: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Histogram {
    /// Records one observation of `us` microseconds.
    pub fn record(&self, us: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        let bucket = (64 - us.leading_zeros() as usize).min(HIST_BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// `(count, sum_us, buckets)` snapshot.
    pub fn snapshot(&self) -> (u64, u64, [u64; HIST_BUCKETS]) {
        let mut b = [0u64; HIST_BUCKETS];
        for (out, a) in b.iter_mut().zip(&self.buckets) {
            *out = a.load(Ordering::Relaxed);
        }
        (
            self.count.load(Ordering::Relaxed),
            self.sum_us.load(Ordering::Relaxed),
            b,
        )
    }
}

/// All counters the service exposes through `STATS`.
pub struct Metrics {
    /// The clock `uptime_us` is measured on — the server's (possibly
    /// virtual) clock, so simulated uptime is deterministic.
    clock: Arc<dyn Clock>,
    started: Instant,
    /// Jobs accepted into the queue.
    pub jobs_submitted: AtomicU64,
    /// Jobs that ran to completion (including ones that returned errors).
    pub jobs_completed: AtomicU64,
    /// Jobs rejected with `Overloaded`.
    pub jobs_rejected: AtomicU64,
    /// Jobs cut off by their deadline.
    pub jobs_timed_out: AtomicU64,
    /// Jobs whose handler panicked inside a worker (the panic was caught
    /// and turned into `ERR internal`; the worker survived).
    pub panics: AtomicU64,
    /// Jobs that completed with a typed error other than a panic.
    pub solves_err: AtomicU64,
    /// Cumulative solver threads occupied by completed solves: each solve
    /// adds its resolved `threads=k`, which is 1 for a serial algorithm
    /// (so `solve_threads_used / solves` is the mean parallelism the
    /// solves ran with).
    pub solve_threads_used: AtomicU64,
    /// Jobs currently queued (not yet picked up by a worker).
    pub queue_depth: AtomicUsize,
    /// Connections currently being served.
    pub connections_open: AtomicUsize,
    /// Connections refused at accept because the connection cap was hit.
    pub connections_shed: AtomicU64,
    /// Requests refused by byte-budget admission control (`ERR too-large`).
    pub admission_rejected: AtomicU64,
    /// Snapshots written successfully.
    pub snapshots_saved: AtomicU64,
    /// Snapshot save attempts that failed (I/O or injected faults).
    pub snapshot_errors: AtomicU64,
    /// Reply writes that failed because the client hung up mid-reply.
    pub write_errors: AtomicU64,
    /// `UPDATE`s that applied (including accepted no-ops).
    pub updates_ok: AtomicU64,
    /// `UPDATE`s rejected with a typed error (unknown graph, missing
    /// edge, out-of-range endpoint).
    pub updates_err: AtomicU64,
    /// Dynamic-matching overlay compactions (the tombstone-ratio
    /// policy), summed across graphs.
    pub rebuilds: AtomicU64,
    /// Time from submit to worker pickup.
    pub wait: Histogram,
    /// Time a worker spent solving.
    pub solve: Histogram,
    solves_per_algorithm: [AtomicU64; Algorithm::ALL.len()],
    /// Solve latency broken down by algorithm (same index space as
    /// `Algorithm::ALL`).
    latency_per_algorithm: [Histogram; Algorithm::ALL.len()],
    /// Completed solves per graph name.
    graph_solves: Mutex<HashMap<String, u64>>,
    /// Graceful drains that gave up before the queue emptied (the
    /// server exited with jobs still in flight).
    pub drain_timeouts: AtomicU64,
    /// Journal fsyncs performed (full saves plus policy-driven append
    /// fsyncs).
    pub fsync_count: AtomicU64,
    /// Boots that cut a corrupt journal tail at the first bad record.
    pub journal_truncations: AtomicU64,
    /// Journal append/fsync failures (the update stayed in memory; the
    /// client saw `ERR durability` under `--fsync always`).
    pub journal_errors: AtomicU64,
    /// Orphaned `*.tmp` snapshot files removed at boot.
    pub stale_tmp_removed: AtomicU64,
}

impl Metrics {
    /// Fresh zeroed metrics on the wall clock; `uptime_us` counts from
    /// here.
    pub fn new() -> Self {
        Self::with_clock(Arc::new(WallClock))
    }

    /// Fresh zeroed metrics whose `uptime_us` is measured on `clock`.
    pub fn with_clock(clock: Arc<dyn Clock>) -> Self {
        Self {
            started: clock.now(),
            clock,
            jobs_submitted: AtomicU64::new(0),
            jobs_completed: AtomicU64::new(0),
            jobs_rejected: AtomicU64::new(0),
            jobs_timed_out: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            solves_err: AtomicU64::new(0),
            solve_threads_used: AtomicU64::new(0),
            queue_depth: AtomicUsize::new(0),
            connections_open: AtomicUsize::new(0),
            connections_shed: AtomicU64::new(0),
            admission_rejected: AtomicU64::new(0),
            snapshots_saved: AtomicU64::new(0),
            snapshot_errors: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
            updates_ok: AtomicU64::new(0),
            updates_err: AtomicU64::new(0),
            rebuilds: AtomicU64::new(0),
            wait: Histogram::default(),
            solve: Histogram::default(),
            solves_per_algorithm: Default::default(),
            latency_per_algorithm: std::array::from_fn(|_| Histogram::default()),
            graph_solves: Mutex::new(HashMap::new()),
            drain_timeouts: AtomicU64::new(0),
            fsync_count: AtomicU64::new(0),
            journal_truncations: AtomicU64::new(0),
            journal_errors: AtomicU64::new(0),
            stale_tmp_removed: AtomicU64::new(0),
        }
    }

    fn alg_index(alg: Algorithm) -> usize {
        Algorithm::ALL
            .iter()
            .position(|a| *a == alg)
            .expect("algorithm not in ALL")
    }

    /// Counts one completed solve of `alg` on graph `graph` that took
    /// `us` microseconds.
    pub fn record_solve(&self, alg: Algorithm, graph: &str, us: u64) {
        let idx = Self::alg_index(alg);
        self.solves_per_algorithm[idx].fetch_add(1, Ordering::Relaxed);
        self.latency_per_algorithm[idx].record(us);
        let mut graphs = self.graph_solves.lock().expect("graph_solves poisoned");
        *graphs.entry(graph.to_string()).or_insert(0) += 1;
    }

    /// Completed solves of `alg` so far.
    pub fn solves_of(&self, alg: Algorithm) -> u64 {
        self.solves_per_algorithm[Self::alg_index(alg)].load(Ordering::Relaxed)
    }

    /// The per-algorithm latency histogram for `alg`.
    pub fn latency_of(&self, alg: Algorithm) -> &Histogram {
        &self.latency_per_algorithm[Self::alg_index(alg)]
    }

    /// Completed solves of graph `graph` so far.
    pub fn solves_of_graph(&self, graph: &str) -> u64 {
        self.graph_solves
            .lock()
            .expect("graph_solves poisoned")
            .get(graph)
            .copied()
            .unwrap_or(0)
    }

    /// Appends `key=value` pairs (space-separated, no leading space) to
    /// `out` — the body of the `STATS` reply.
    pub fn render(&self, out: &mut String) {
        use std::fmt::Write;
        let _ = write!(
            out,
            "uptime_us={} queue_depth={} submitted={} completed={} rejected={} timed_out={}",
            self.clock
                .now()
                .saturating_duration_since(self.started)
                .as_micros(),
            self.queue_depth.load(Ordering::Relaxed),
            self.jobs_submitted.load(Ordering::Relaxed),
            self.jobs_completed.load(Ordering::Relaxed),
            self.jobs_rejected.load(Ordering::Relaxed),
            self.jobs_timed_out.load(Ordering::Relaxed),
        );
        let (wc, ws, _) = self.wait.snapshot();
        let (sc, ss, _) = self.solve.snapshot();
        let _ = write!(
            out,
            " wait_count={wc} wait_us_sum={ws} solve_count={sc} solve_us_sum={ss}"
        );
        let mut solves_ok = 0u64;
        for i in 0..Algorithm::ALL.len() {
            solves_ok += self.solves_per_algorithm[i].load(Ordering::Relaxed);
        }
        let _ = write!(
            out,
            " solves_ok={solves_ok} solves_err={} panics={} solve_threads_used={}",
            self.solves_err.load(Ordering::Relaxed),
            self.panics.load(Ordering::Relaxed),
            self.solve_threads_used.load(Ordering::Relaxed),
        );
        let _ = write!(
            out,
            " connections_open={} connections_shed={} admission_rejected={}",
            self.connections_open.load(Ordering::Relaxed),
            self.connections_shed.load(Ordering::Relaxed),
            self.admission_rejected.load(Ordering::Relaxed),
        );
        let _ = write!(
            out,
            " snapshots_saved={} snapshot_errors={} write_errors={}",
            self.snapshots_saved.load(Ordering::Relaxed),
            self.snapshot_errors.load(Ordering::Relaxed),
            self.write_errors.load(Ordering::Relaxed),
        );
        let _ = write!(
            out,
            " updates_ok={} updates_err={} rebuilds={} drain_timeouts={}",
            self.updates_ok.load(Ordering::Relaxed),
            self.updates_err.load(Ordering::Relaxed),
            self.rebuilds.load(Ordering::Relaxed),
            self.drain_timeouts.load(Ordering::Relaxed),
        );
        let _ = write!(
            out,
            " fsync_count={} journal_truncations={} journal_errors={} stale_tmp_removed={}",
            self.fsync_count.load(Ordering::Relaxed),
            self.journal_truncations.load(Ordering::Relaxed),
            self.journal_errors.load(Ordering::Relaxed),
            self.stale_tmp_removed.load(Ordering::Relaxed),
        );
        for (i, alg) in Algorithm::ALL.iter().enumerate() {
            let n = self.solves_per_algorithm[i].load(Ordering::Relaxed);
            if n > 0 {
                let (lc, ls, _) = self.latency_per_algorithm[i].snapshot();
                let _ = write!(
                    out,
                    " solves[{name}]={n} solve_count[{name}]={lc} solve_us_sum[{name}]={ls}",
                    name = alg.cli_name()
                );
            }
        }
        let graphs = self.graph_solves.lock().expect("graph_solves poisoned");
        let mut names: Vec<&String> = graphs.keys().collect();
        names.sort();
        for name in names {
            let _ = write!(out, " graph_solves[{name}]={}", graphs[name]);
        }
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_sum() {
        let h = Histogram::default();
        h.record(0); // bucket 0
        h.record(1); // bucket 1
        h.record(1000); // 2^9..2^10 -> bucket 10
        let (count, sum, buckets) = h.snapshot();
        assert_eq!(count, 3);
        assert_eq!(sum, 1001);
        assert_eq!(buckets[0], 1);
        assert_eq!(buckets[1], 1);
        assert_eq!(buckets[10], 1);
    }

    #[test]
    fn huge_latency_lands_in_last_bucket() {
        let h = Histogram::default();
        h.record(u64::MAX);
        let (_, _, buckets) = h.snapshot();
        assert_eq!(buckets[HIST_BUCKETS - 1], 1);
    }

    #[test]
    fn per_algorithm_counts_and_render() {
        let m = Metrics::new();
        m.record_solve(Algorithm::MsBfsGraft, "a", 100);
        m.record_solve(Algorithm::MsBfsGraft, "b", 200);
        m.record_solve(Algorithm::HopcroftKarp, "a", 50);
        assert_eq!(m.solves_of(Algorithm::MsBfsGraft), 2);
        assert_eq!(m.solves_of(Algorithm::SsDfs), 0);
        let mut s = String::new();
        m.render(&mut s);
        assert!(s.contains("solves[ms-bfs-graft]=2"), "{s}");
        assert!(s.contains("solves[hk]=1"), "{s}");
        assert!(!s.contains("solves[ss-dfs]"), "{s}");
        assert!(s.contains("queue_depth=0"), "{s}");
        assert!(s.contains("solves_ok=3"), "{s}");
        assert!(s.contains("solves_err=0"), "{s}");
        assert!(s.contains("panics=0"), "{s}");
        assert!(s.contains("snapshots_saved=0"), "{s}");
        assert!(s.contains("updates_ok=0"), "{s}");
        assert!(s.contains("updates_err=0"), "{s}");
        assert!(s.contains("rebuilds=0"), "{s}");
        assert!(s.contains("solve_us_sum[ms-bfs-graft]=300"), "{s}");
        assert!(s.contains("graph_solves[a]=2"), "{s}");
        assert!(s.contains("graph_solves[b]=1"), "{s}");
    }

    #[test]
    fn per_graph_counts_sum_to_global() {
        let m = Metrics::new();
        for (alg, g) in [
            (Algorithm::MsBfsGraft, "x"),
            (Algorithm::MsBfsGraft, "x"),
            (Algorithm::PothenFan, "y"),
            (Algorithm::HopcroftKarp, "z"),
        ] {
            m.record_solve(alg, g, 1);
        }
        let per_graph: u64 = ["x", "y", "z"].iter().map(|g| m.solves_of_graph(g)).sum();
        let per_alg: u64 = Algorithm::ALL.iter().map(|a| m.solves_of(*a)).sum();
        assert_eq!(per_graph, 4);
        assert_eq!(per_alg, 4);
        let (count, sum, _) = m.latency_of(Algorithm::MsBfsGraft).snapshot();
        assert_eq!((count, sum), (2, 2));
    }
}
