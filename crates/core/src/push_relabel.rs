//! Push-relabel bipartite matching (serial and multithreaded), the PR
//! competitor of the paper (after Langguth, Manne, Sanders and Kaya,
//! Langguth, Manne, Uçar).
//!
//! Bipartite cardinality matching is unit-capacity max-flow, so the
//! generic push-relabel machinery specializes drastically: only the `Y`
//! vertices need distance labels, and processing an active (unmatched) `X`
//! vertex is a **double push** —
//!
//! 1. scan `x`'s neighbors for the minimum-label `y₁` (and the second
//!    minimum `d₂`),
//! 2. match `x` to `y₁`, stealing it from its previous mate (which becomes
//!    active again), and
//! 3. relabel `y₁` to `d₂ + 2` (its new residual distance-to-sink bound).
//!
//! A label reaching `limit = 2·min(nx,ny) + 3` certifies that no residual
//! (alternating) path to a free `Y` vertex exists, so the vertex can be
//! discarded. **Global relabeling** periodically recomputes exact labels
//! with a backward BFS from the free `Y` vertices; its frequency is the
//! tuning knob the paper sets to 2 (serial) and 16 (40 threads), and the
//! per-thread work batch bound is the paper's queue limit of 500.

use crate::stats::SearchStats;
use crate::trace::{TraceEvent, Tracer};
use crate::workspace::{PrBuffers, SolveWorkspace};
use crate::{Matching, RunOutcome};
use graft_graph::{BipartiteCsr, VertexId, NONE};
use rayon::prelude::*;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::Instant;

/// Active-vertex selection order for the serial solver.
///
/// Push-relabel correctness does not depend on the order actives are
/// processed, but performance does; the PR literature the paper builds on
/// (Kaya, Langguth, Manne, Uçar) compares exactly these disciplines.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PrOrder {
    /// First-in-first-out (the paper's configuration).
    #[default]
    Fifo,
    /// Process the active vertex with the highest (stalest-known) label
    /// first — drains provably-unmatchable vertices early.
    HighestLabel,
    /// Process the lowest-label active vertex first — augments along
    /// near-free vertices before labels grow.
    LowestLabel,
}

/// Tuning parameters for the push-relabel solvers.
#[derive(Clone, Copy, Debug)]
pub struct PushRelabelOptions {
    /// Global relabel after `n / frequency` pushes (paper: 2 on one
    /// thread, 16 on 40 threads).
    pub global_relabel_frequency: f64,
    /// Work-batch bound per thread between queue synchronizations in the
    /// parallel solver (paper: 500).
    pub queue_limit: usize,
    /// Active-vertex selection discipline (serial solver only; the
    /// parallel solver is round-based).
    pub order: PrOrder,
}

impl Default for PushRelabelOptions {
    fn default() -> Self {
        Self {
            global_relabel_frequency: 2.0,
            queue_limit: 500,
            order: PrOrder::Fifo,
        }
    }
}

/// The serial solver's active set under a selection discipline. Keys are
/// the labels known at insertion time; selection correctness does not
/// require fresh keys, so no revalidation is needed. The collections are
/// borrowed from the workspace (both arrive cleared).
enum ActiveSet<'a> {
    Fifo(&'a mut VecDeque<VertexId>),
    // Max-heap on (key, x); for lowest-label the key is negated at push.
    Heap(&'a mut BinaryHeap<(i64, VertexId)>, bool),
}

impl<'a> ActiveSet<'a> {
    fn new(
        order: PrOrder,
        fifo: &'a mut VecDeque<VertexId>,
        heap: &'a mut BinaryHeap<(i64, VertexId)>,
    ) -> Self {
        match order {
            PrOrder::Fifo => ActiveSet::Fifo(fifo),
            PrOrder::HighestLabel => ActiveSet::Heap(heap, false),
            PrOrder::LowestLabel => ActiveSet::Heap(heap, true),
        }
    }

    fn push(&mut self, x: VertexId, key: u32) {
        match self {
            ActiveSet::Fifo(q) => q.push_back(x),
            ActiveSet::Heap(h, negate) => {
                let k = if *negate { -(key as i64) } else { key as i64 };
                h.push((k, x));
            }
        }
    }

    fn pop(&mut self) -> Option<VertexId> {
        match self {
            ActiveSet::Fifo(q) => q.pop_front(),
            ActiveSet::Heap(h, _) => h.pop().map(|(_, x)| x),
        }
    }
}

#[inline]
fn label_limit(g: &BipartiteCsr) -> u32 {
    (2 * g.num_x().min(g.num_y()) + 3) as u32
}

/// Exact labels: `d[y]` = residual distance from `y` to the sink
/// (1 for free `Y` vertices, +2 per alternating `Y`-step), `limit` where
/// unreachable. Returns the number of edges scanned.
fn global_relabel(
    g: &BipartiteCsr,
    mate_x: &[VertexId],
    d_y: &mut [u32],
    limit: u32,
    matched_y: &mut [bool],
    queue: &mut VecDeque<VertexId>,
) -> u64 {
    let mut scanned = 0u64;
    for d in d_y.iter_mut() {
        *d = limit;
    }
    queue.clear();
    // A Y vertex is free iff no x points at it: detect via a marker sweep
    // instead of trusting a mate_y array (the parallel solver only
    // maintains mate_y authoritatively — callers pass a consistent mate_x
    // derived from it).
    for f in matched_y.iter_mut() {
        *f = false;
    }
    for &y in mate_x.iter().filter(|&&y| y != NONE) {
        matched_y[y as usize] = true;
    }
    for y in 0..g.num_y() as VertexId {
        if !matched_y[y as usize] {
            d_y[y as usize] = 1;
            queue.push_back(y);
        }
    }
    while let Some(y) = queue.pop_front() {
        let dy = d_y[y as usize];
        for &x in g.y_neighbors(y) {
            scanned += 1;
            // Residual arc x→y exists iff (x,y) is unmatched.
            if mate_x[x as usize] == y {
                continue;
            }
            let ym = mate_x[x as usize];
            if ym != NONE && d_y[ym as usize] == limit {
                d_y[ym as usize] = dy + 2;
                queue.push_back(ym);
            }
        }
    }
    scanned
}

/// Maximum matching by serial FIFO push-relabel with double pushes,
/// second-minimum relabeling and periodic global relabeling, with `tracer`
/// observing each phase. A PR "phase" is the span opened by one global
/// relabel: its event reports the pushes that landed on a free `Y` vertex
/// (the cardinality gains) and the edges scanned — relabel sweep included
/// — before the next relabel. Warm solves reuse the label array, the
/// relabel scratch and the active set of `ws`, performing no heap
/// allocations. PR needs no epoch versioning — the solve-opening global
/// relabel fully reinitializes every buffer.
pub(crate) fn push_relabel(
    g: &BipartiteCsr,
    mut m: Matching,
    opts: &PushRelabelOptions,
    tracer: &Tracer,
    ws: &mut SolveWorkspace,
) -> RunOutcome {
    let start = Instant::now();
    let mut stats = SearchStats {
        initial_cardinality: m.cardinality(),
        ..Default::default()
    };
    let limit = label_limit(g);
    let n = g.num_vertices().max(1);
    let relabel_threshold = ((n as f64 / opts.global_relabel_frequency.max(0.01)) as u64).max(1);

    let ny = g.num_y();
    ws.pr.begin_solve(ny);
    let PrBuffers {
        d_y,
        matched_y,
        bfs,
        fifo,
        heap,
    } = &mut ws.pr;
    let d_y = &mut d_y[..ny];
    let matched_y = &mut matched_y[..ny];
    let mut phase_t0 = tracer.is_enabled().then(Instant::now);
    let mut phase_edges_start = stats.edges_traversed;
    let mut phase_augs_start = stats.augmenting_paths;
    stats.edges_traversed += global_relabel(g, m.mates_x(), d_y, limit, matched_y, bfs);
    stats.phases += 1;

    let mut queue = ActiveSet::new(opts.order, fifo, heap);
    for x in m.unmatched_x().filter(|&x| g.x_degree(x) > 0) {
        queue.push(x, 0);
    }
    let mut pushes_since_relabel = 0u64;

    while let Some(x) = queue.pop() {
        if m.is_x_matched(x) {
            continue;
        }
        // Scan for minimum and second-minimum labels.
        let (mut y1, mut d1, mut d2) = (NONE, limit, limit);
        for &y in g.x_neighbors(x) {
            stats.edges_traversed += 1;
            let d = d_y[y as usize];
            if d < d1 {
                d2 = d1;
                d1 = d;
                y1 = y;
            } else if d < d2 {
                d2 = d;
            }
        }
        if y1 == NONE || d1 >= limit {
            continue; // certified unmatchable: drop x
        }
        let was_free = !m.is_y_matched(y1);
        let old = m.rematch(x, y1);
        d_y[y1 as usize] = d2.saturating_add(2).min(limit);
        if was_free {
            stats.augmenting_paths += 1;
        }
        if old != NONE {
            // Key the robbed vertex by the label of the slot it lost —
            // its own implicit label before rescanning.
            queue.push(old, d_y[y1 as usize]);
        }
        pushes_since_relabel += 1;
        if pushes_since_relabel >= relabel_threshold {
            tracer.emit(|| pr_phase_event(&stats, phase_edges_start, phase_augs_start, phase_t0));
            phase_t0 = tracer.is_enabled().then(Instant::now);
            phase_edges_start = stats.edges_traversed;
            phase_augs_start = stats.augmenting_paths;
            stats.edges_traversed += global_relabel(g, m.mates_x(), d_y, limit, matched_y, bfs);
            stats.phases += 1;
            pushes_since_relabel = 0;
        }
    }
    tracer.emit(|| pr_phase_event(&stats, phase_edges_start, phase_augs_start, phase_t0));

    stats.final_cardinality = m.cardinality();
    stats.elapsed = start.elapsed();
    RunOutcome { matching: m, stats }
}

/// The per-phase event of the serial PR solver: everything since the
/// phase-opening global relabel, attributed to phase `stats.phases`.
fn pr_phase_event(
    stats: &SearchStats,
    phase_edges_start: u64,
    phase_augs_start: u64,
    phase_t0: Option<Instant>,
) -> TraceEvent {
    TraceEvent::PhaseEnd {
        phase: u64::from(stats.phases),
        levels: 0,
        bottom_up_levels: 0,
        frontier_peak: 0,
        augmentations: stats.augmenting_paths - phase_augs_start,
        path_edges: 0,
        edges_traversed: stats.edges_traversed - phase_edges_start,
        elapsed_us: phase_t0.map_or(0, |t| t.elapsed().as_micros() as u64),
    }
}

/// Maximum matching by multithreaded push-relabel, on the ambient rayon
/// pool (the dispatcher installs a sized one around the call).
///
/// Round-based: each round processes the current active set in parallel
/// (work split in batches of at most `queue_limit`), with mate stealing
/// through `compare_exchange` on the authoritative `Y`-side mate array and
/// monotone label updates via `fetch_max`. Robbed `X` vertices self-repair
/// lazily when they are next processed. Between outer iterations an exact
/// global relabel re-certifies reachability; if an outer iteration makes no
/// progress (a theoretical possibility under label staleness), the solver
/// falls back to one exact serial push-relabel pass, preserving the
/// worst-case guarantees.
pub(crate) fn push_relabel_parallel(
    g: &BipartiteCsr,
    m: Matching,
    opts: &PushRelabelOptions,
) -> RunOutcome {
    let start = Instant::now();
    let mut stats = SearchStats {
        initial_cardinality: m.cardinality(),
        ..Default::default()
    };
    let limit = label_limit(g);

    let (mx, my) = m.into_mates();
    let mate_x: Vec<AtomicU32> = mx.into_iter().map(AtomicU32::new).collect();
    // Authoritative side: matches are established by CAS here.
    let mate_y: Vec<AtomicU32> = my.into_iter().map(AtomicU32::new).collect();
    let d_y: Vec<AtomicU32> = (0..g.num_y()).map(|_| AtomicU32::new(limit)).collect();
    let scanned = AtomicU64::new(0);

    let snapshot_mate_x = |mate_x: &[AtomicU32]| -> Vec<VertexId> {
        mate_x.iter().map(|a| a.load(Ordering::Relaxed)).collect()
    };

    let mut gr_matched = vec![false; g.num_y()];
    let mut gr_queue: VecDeque<VertexId> = VecDeque::new();
    loop {
        // ---- Repair sweep: clear stale mate pointers of robbed X
        // vertices whose requeue entry was dropped when the push budget
        // cut the rounds short. No other thread runs here, so the plain
        // stores cannot race.
        (0..g.num_x()).into_par_iter().for_each(|x| {
            let own = mate_x[x].load(Ordering::Relaxed);
            if own != NONE && mate_y[own as usize].load(Ordering::Relaxed) != x as VertexId {
                mate_x[x].store(NONE, Ordering::Relaxed);
            }
        });

        // ---- Exact global relabel (serial; also the certification). ----
        let mx_snap = snapshot_mate_x(&mate_x);
        let mut labels: Vec<u32> = vec![limit; g.num_y()];
        stats.edges_traversed += global_relabel(
            g,
            &mx_snap,
            &mut labels,
            limit,
            &mut gr_matched,
            &mut gr_queue,
        );
        stats.phases += 1;
        for (a, &v) in d_y.iter().zip(labels.iter()) {
            a.store(v, Ordering::Relaxed);
        }

        // Active X vertices that are still certifiably matchable.
        let active: Vec<VertexId> = (0..g.num_x() as VertexId)
            .into_par_iter()
            .filter(|&x| {
                if mate_x[x as usize].load(Ordering::Relaxed) != NONE {
                    return false;
                }
                g.x_neighbors(x)
                    .iter()
                    .any(|&y| d_y[y as usize].load(Ordering::Relaxed) < limit)
            })
            .collect();
        if active.is_empty() {
            break; // exact labels certify maximality
        }

        // ---- Parallel rounds over the active set. ----
        // Between exact relabels, only `n / frequency` pushes are allowed
        // (the paper's relabel-frequency knob): without this budget,
        // labels on deficient instances climb to the limit in +2 steps,
        // wasting O(n·limit) scans.
        let push_budget = ((g.num_vertices().max(1) as f64
            / opts.global_relabel_frequency.max(0.01)) as u64)
            .max(1);
        let mut pushes = 0u64;
        let mut frontier = active;
        while !frontier.is_empty() && pushes < push_budget {
            let results: Vec<(Vec<VertexId>, u64)> = frontier
                .par_chunks(opts.queue_limit.max(1))
                .map(|batch| {
                    let mut requeue = Vec::new();
                    let mut local_scanned = 0u64;
                    let mut local_pushes = 0u64;
                    for &x in batch {
                        local_pushes += pr_process_one(
                            g,
                            &mate_x,
                            &mate_y,
                            &d_y,
                            limit,
                            x,
                            &mut requeue,
                            &mut local_scanned,
                        );
                    }
                    scanned.fetch_add(local_scanned, Ordering::Relaxed);
                    (requeue, local_pushes)
                })
                .collect();
            let mut next = Vec::new();
            for (mut rq, p) in results {
                next.append(&mut rq);
                pushes += p;
            }
            frontier = next;
        }
        if pushes == 0 {
            // True stall: active vertices remain reachable under exact
            // labels but no push landed (only possible under extreme CAS
            // contention). Finish with the exact serial solver to preserve
            // the worst-case guarantees.
            let final_m = matching_from_atomic(g, &mate_y);
            let out = push_relabel(
                g,
                final_m,
                opts,
                &Tracer::disabled(),
                &mut SolveWorkspace::new(),
            );
            let mut stats = merge_stats(stats, out.stats);
            stats.edges_traversed += scanned.load(Ordering::Relaxed);
            stats.elapsed = start.elapsed();
            return RunOutcome {
                matching: out.matching,
                stats,
            };
        }
    }

    stats.edges_traversed += scanned.load(Ordering::Relaxed);
    let matching = matching_from_atomic(g, &mate_y);
    stats.final_cardinality = matching.cardinality();
    stats.elapsed = start.elapsed();
    RunOutcome { matching, stats }
}

/// One double-push attempt for `x`; pushes robbed/requeued vertices into
/// `requeue`. Returns the number of pushes performed (0 or 1).
#[allow(clippy::too_many_arguments)]
fn pr_process_one(
    g: &BipartiteCsr,
    mate_x: &[AtomicU32],
    mate_y: &[AtomicU32],
    d_y: &[AtomicU32],
    limit: u32,
    x: VertexId,
    requeue: &mut Vec<VertexId>,
    scanned: &mut u64,
) -> u64 {
    // Lazy self-repair: if we were robbed, clear our stale mate pointer.
    let own = mate_x[x as usize].load(Ordering::Relaxed);
    if own != NONE {
        if mate_y[own as usize].load(Ordering::Acquire) == x {
            return 0; // actually matched: nothing to do
        }
        mate_x[x as usize].store(NONE, Ordering::Relaxed);
    }

    // Bounded retries: every CAS failure means another thread made global
    // progress, so requeueing after a few attempts cannot livelock.
    for _attempt in 0..4 {
        let (mut y1, mut d1, mut d2) = (NONE, limit, limit);
        for &y in g.x_neighbors(x) {
            *scanned += 1;
            let d = d_y[y as usize].load(Ordering::Relaxed);
            if d < d1 {
                d2 = d1;
                d1 = d;
                y1 = y;
            } else if d < d2 {
                d2 = d;
            }
        }
        if y1 == NONE || d1 >= limit {
            return 0; // unmatchable under current labels; outer loop re-checks
        }
        let old = mate_y[y1 as usize].load(Ordering::Acquire);
        if old == x {
            mate_x[x as usize].store(y1, Ordering::Relaxed);
            return 0;
        }
        if mate_y[y1 as usize]
            .compare_exchange(old, x, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            mate_x[x as usize].store(y1, Ordering::Release);
            d_y[y1 as usize].fetch_max(d2.saturating_add(2).min(limit), Ordering::AcqRel);
            if old != NONE {
                // The robbed vertex self-repairs when processed.
                requeue.push(old);
            }
            return 1;
        }
        // CAS failed: labels/mates moved under us; rescan.
    }
    requeue.push(x);
    0
}

/// Builds a consistent [`Matching`] from the authoritative `Y`-side array.
fn matching_from_atomic(g: &BipartiteCsr, mate_y: &[AtomicU32]) -> Matching {
    let my: Vec<VertexId> = mate_y.iter().map(|a| a.load(Ordering::Acquire)).collect();
    let mut mx: Vec<VertexId> = vec![NONE; g.num_x()];
    for (y, &x) in my.iter().enumerate() {
        if x != NONE {
            debug_assert_eq!(mx[x as usize], NONE, "two Y vertices claim x={x}");
            mx[x as usize] = y as VertexId;
        }
    }
    Matching::from_mates(mx, my)
}

fn merge_stats(a: SearchStats, b: SearchStats) -> SearchStats {
    SearchStats {
        edges_traversed: a.edges_traversed + b.edges_traversed,
        phases: a.phases + b.phases,
        augmenting_paths: a.augmenting_paths + b.augmenting_paths,
        total_augmenting_path_edges: a.total_augmenting_path_edges + b.total_augmenting_path_edges,
        initial_cardinality: a.initial_cardinality,
        final_cardinality: b.final_cardinality,
        elapsed: a.elapsed + b.elapsed,
        breakdown: a.breakdown,
        timed_out: a.timed_out || b.timed_out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_maximum;
    use crate::{solve_from_in, Algorithm, SolveOptions};

    fn opts() -> PushRelabelOptions {
        PushRelabelOptions::default()
    }

    fn serial(g: &BipartiteCsr, m: Matching, opts: &PushRelabelOptions) -> RunOutcome {
        push_relabel(g, m, opts, &Tracer::disabled(), &mut SolveWorkspace::new())
    }

    /// One PR(par) solve in a `threads`-sized pool, through the dispatcher.
    fn par(g: &BipartiteCsr, m: Matching, opts: &PushRelabelOptions, threads: usize) -> RunOutcome {
        let opts = SolveOptions {
            threads,
            push_relabel: *opts,
            ..SolveOptions::default()
        };
        let alg = Algorithm::PushRelabelParallel;
        solve_from_in(g, m, alg, &opts, &mut SolveWorkspace::new())
    }

    #[test]
    fn pr_simple_path() {
        let g = BipartiteCsr::from_edges(2, 2, &[(0, 0), (1, 0), (1, 1)]);
        let out = serial(&g, Matching::for_graph(&g), &opts());
        assert_eq!(out.matching.cardinality(), 2);
        assert!(is_maximum(&g, &out.matching));
    }

    #[test]
    fn pr_steals_and_cascades() {
        let k = 50;
        let mut edges = Vec::new();
        for i in 0..k as VertexId {
            edges.push((i, i));
            if i > 0 {
                edges.push((i, i - 1));
            }
        }
        let g = BipartiteCsr::from_edges(k, k, &edges);
        let mut m0 = Matching::for_graph(&g);
        for i in 1..k as VertexId {
            m0.match_pair(i, i - 1);
        }
        let out = serial(&g, m0, &opts());
        assert_eq!(out.matching.cardinality(), k);
        assert!(is_maximum(&g, &out.matching));
    }

    #[test]
    fn pr_deficient_graph_drops_unmatchable() {
        let g = BipartiteCsr::from_edges(5, 2, &[(0, 0), (1, 0), (2, 0), (3, 1), (4, 1)]);
        let out = serial(&g, Matching::for_graph(&g), &opts());
        assert_eq!(out.matching.cardinality(), 2);
        assert!(is_maximum(&g, &out.matching));
    }

    #[test]
    fn pr_isolated_x_vertices() {
        let g = BipartiteCsr::from_edges(4, 2, &[(0, 0), (1, 1)]);
        let out = serial(&g, Matching::for_graph(&g), &opts());
        assert_eq!(out.matching.cardinality(), 2);
    }

    #[test]
    fn pr_agrees_with_hk_on_random_like_graph() {
        let g = BipartiteCsr::from_edges(
            8,
            8,
            &[
                (0, 1),
                (0, 5),
                (1, 1),
                (1, 2),
                (2, 0),
                (2, 7),
                (3, 3),
                (3, 4),
                (4, 4),
                (4, 6),
                (5, 2),
                (5, 3),
                (6, 6),
                (7, 0),
                (7, 5),
                (6, 7),
            ],
        );
        let hk = crate::hopcroft_karp(&g, Matching::for_graph(&g))
            .matching
            .cardinality();
        let pr = serial(&g, Matching::for_graph(&g), &opts())
            .matching
            .cardinality();
        assert_eq!(pr, hk);
    }

    #[test]
    fn pr_frequent_relabeling() {
        let g = BipartiteCsr::from_edges(3, 3, &[(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 0)]);
        let o = PushRelabelOptions {
            global_relabel_frequency: 100.0,
            ..opts()
        };
        let out = serial(&g, Matching::for_graph(&g), &o);
        assert_eq!(out.matching.cardinality(), 3);
        assert!(out.stats.phases >= 2);
    }

    #[test]
    fn pr_orders_all_reach_maximum() {
        let g = BipartiteCsr::from_edges(
            6,
            6,
            &[
                (0, 0),
                (0, 1),
                (1, 1),
                (1, 2),
                (2, 0),
                (2, 2),
                (3, 3),
                (3, 4),
                (4, 4),
                (4, 5),
                (5, 3),
                (5, 5),
                (0, 3),
            ],
        );
        let oracle = crate::hopcroft_karp(&g, Matching::for_graph(&g))
            .matching
            .cardinality();
        for order in [PrOrder::Fifo, PrOrder::HighestLabel, PrOrder::LowestLabel] {
            let o = PushRelabelOptions { order, ..opts() };
            let out = serial(&g, Matching::for_graph(&g), &o);
            assert_eq!(out.matching.cardinality(), oracle, "{order:?}");
            assert!(is_maximum(&g, &out.matching), "{order:?}");
        }
    }

    #[test]
    fn pr_orders_on_deficient_and_chain_instances() {
        // Deficient hub graph + adversarial chain: both shapes for all
        // disciplines.
        let hub = BipartiteCsr::from_edges(5, 2, &[(0, 0), (1, 0), (2, 0), (3, 1), (4, 1)]);
        let k = 40;
        let mut edges = Vec::new();
        for i in 0..k as VertexId {
            edges.push((i, i));
            if i > 0 {
                edges.push((i, i - 1));
            }
        }
        let chain = BipartiteCsr::from_edges(k, k, &edges);
        let mut chain_m0 = Matching::for_graph(&chain);
        for i in 1..k as VertexId {
            chain_m0.match_pair(i, i - 1);
        }
        for order in [PrOrder::Fifo, PrOrder::HighestLabel, PrOrder::LowestLabel] {
            let o = PushRelabelOptions { order, ..opts() };
            let a = serial(&hub, Matching::for_graph(&hub), &o);
            assert_eq!(a.matching.cardinality(), 2, "{order:?}");
            let b = serial(&chain, chain_m0.clone(), &o);
            assert_eq!(b.matching.cardinality(), k, "{order:?}");
        }
    }

    #[test]
    fn pr_parallel_simple() {
        let g = BipartiteCsr::from_edges(2, 2, &[(0, 0), (1, 0), (1, 1)]);
        let out = par(&g, Matching::for_graph(&g), &opts(), 2);
        assert_eq!(out.matching.cardinality(), 2);
        assert!(is_maximum(&g, &out.matching));
    }

    #[test]
    fn pr_parallel_contention() {
        // Heavy stealing: 60 X vertices over 40 Y vertices with overlap.
        let mut edges = Vec::new();
        for x in 0..60u32 {
            for k in 0..3u32 {
                edges.push((x, (x + k * 7) % 40));
            }
        }
        let g = BipartiteCsr::from_edges(60, 40, &edges);
        let o = PushRelabelOptions {
            queue_limit: 8,
            ..opts()
        };
        let out = par(&g, Matching::for_graph(&g), &o, 4);
        let oracle = crate::hopcroft_karp(&g, Matching::for_graph(&g))
            .matching
            .cardinality();
        assert_eq!(out.matching.cardinality(), oracle);
        assert!(is_maximum(&g, &out.matching));
    }

    #[test]
    fn pr_parallel_matches_serial() {
        let k: u32 = 64;
        let mut edges = Vec::new();
        for i in 0..k {
            edges.push((i, i));
            edges.push((i, (i + 3) % k));
        }
        let g = BipartiteCsr::from_edges(k as usize, k as usize, &edges);
        let s = serial(&g, Matching::for_graph(&g), &opts());
        let p = par(&g, Matching::for_graph(&g), &opts(), 3);
        assert_eq!(s.matching.cardinality(), p.matching.cardinality());
    }

    #[test]
    fn pr_empty_graph() {
        let g = BipartiteCsr::from_edges(0, 0, &[]);
        let out = serial(&g, Matching::for_graph(&g), &opts());
        assert_eq!(out.matching.cardinality(), 0);
    }
}
