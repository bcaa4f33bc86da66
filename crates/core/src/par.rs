//! The multithreaded MS-BFS-Graft engine (Algorithm 3 of the paper).
//!
//! This is the paper's contribution: a level-synchronous parallel
//! alternating BFS with direction optimization and tree grafting. The
//! parallel structure maps the paper's OpenMP implementation onto rayon:
//!
//! * **Private queues → fold/reduce.** The paper gives each thread a small
//!   private queue that spills into a shared global queue (the Graph500
//!   `omp-csr` scheme). Rayon's `fold` creates exactly that: a per-task
//!   local `Vec` filled lock-free, and `reduce` concatenates them into the
//!   global next frontier — no hot-path locks.
//! * **Vertex-disjoint trees → visited CAS.** A `Y` vertex joins exactly
//!   one tree because discovery happens through a `compare_exchange` on its
//!   visited flag. A cheap relaxed load screens out already-visited
//!   vertices before attempting the CAS, mirroring the paper's
//!   "check the flags before performing the atomic operations".
//! * **Benign `leaf` race.** Threads finding augmenting paths in the same
//!   tree all store to `leaf[root]`; the last write wins and exactly one
//!   path per tree is augmented. Free endpoints whose record was
//!   overwritten are recycled by the renewable-tree reset, so no matching
//!   opportunity is lost (the serial engine has the same overwrite
//!   semantics).
//! * **Bottom-up needs no atomics.** Each unvisited `Y` vertex is owned by
//!   one task, which is the only writer of its flags (§III-B).
//! * **Parallel augmentation.** Augmenting paths live in distinct trees and
//!   are therefore vertex-disjoint; each is flipped by one task.
//!
//! Memory ordering: claims use `AcqRel` CAS; all other pointer stores are
//! `Relaxed` and become visible to the next level / step through the
//! happens-before edges of the rayon joins that end every parallel region
//! (the level-synchronous barrier the paper relies on). Since the shim
//! gained a real work-stealing pool these joins are genuine cross-thread
//! barriers: every batch ends with the submitting thread acquiring a latch
//! mutex that each worker released after finishing its piece, so all
//! `Relaxed` stores from a level are ordered before every read in the next
//! level. The engine code needed no changes to run multithreaded; see
//! DESIGN.md §17 for the full argument.

use crate::ms_bfs::MsBfsOptions;
use crate::stats::{SearchStats, Step, Stopwatch};
use crate::trace::{emit_phase, GraftSummary, PhaseSummary, TraceEvent, Tracer};
use crate::workspace::{pack, unpack, SolveWorkspace};
use crate::{Matching, RunOutcome};
use graft_graph::{BipartiteCsr, VertexId, NONE};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::Instant;

struct Shared<'a> {
    g: &'a BipartiteCsr,
    /// Current workspace epoch: `visited[y] == epoch` ⇔ visited this
    /// solve; `root_x`/`leaf` entries are `(epoch << 32) | value` packed.
    epoch: u32,
    mate_x: &'a [AtomicU32],
    mate_y: &'a [AtomicU32],
    visited: &'a [AtomicU32],
    parent_y: &'a [AtomicU32],
    root_y: &'a [AtomicU32],
    root_x: &'a [AtomicU64],
    leaf: &'a [AtomicU64],
}

/// Accumulator for one BFS level: next frontier, newly visited count,
/// edges traversed.
type LevelAcc = (Vec<VertexId>, u64, u64);

fn merge(mut a: LevelAcc, mut b: LevelAcc) -> LevelAcc {
    // Append the smaller into the larger to keep the reduction linear.
    if a.0.len() < b.0.len() {
        std::mem::swap(&mut a, &mut b);
    }
    a.0.append(&mut b.0);
    (a.0, a.1 + b.1, a.2 + b.2)
}

impl Shared<'_> {
    #[inline]
    fn is_visited(&self, y: VertexId) -> bool {
        self.visited[y as usize].load(Ordering::Relaxed) == self.epoch
    }

    #[inline]
    fn root_of_x(&self, x: VertexId) -> VertexId {
        unpack(self.epoch, self.root_x[x as usize].load(Ordering::Relaxed))
    }

    #[inline]
    fn set_root_x(&self, x: VertexId, root: VertexId) {
        self.root_x[x as usize].store(pack(self.epoch, root), Ordering::Relaxed);
    }

    #[inline]
    fn leaf_of(&self, x: VertexId) -> VertexId {
        unpack(self.epoch, self.leaf[x as usize].load(Ordering::Relaxed))
    }

    /// Algorithm 5: pointer updates after the calling task has claimed `y`.
    #[inline]
    fn visit_claimed(&self, y: VertexId, x: VertexId, acc: &mut LevelAcc) {
        let root = self.root_of_x(x);
        self.parent_y[y as usize].store(x, Ordering::Relaxed);
        self.root_y[y as usize].store(root, Ordering::Relaxed);
        acc.1 += 1;
        let mate = self.mate_y[y as usize].load(Ordering::Relaxed);
        if mate != NONE {
            self.set_root_x(mate, root);
            acc.0.push(mate);
        } else {
            // Benign race: last writer wins, one augmenting path per tree.
            self.leaf[root as usize].store(pack(self.epoch, y), Ordering::Relaxed);
        }
    }

    /// `x` is in an active tree (root known and not yet renewable).
    #[inline]
    fn x_is_active(&self, x: VertexId) -> bool {
        let root = self.root_of_x(x);
        root != NONE && self.leaf_of(root) == NONE
    }

    /// Algorithm 4: one parallel top-down level.
    fn top_down(&self, frontier: &[VertexId]) -> LevelAcc {
        frontier
            .par_iter()
            .fold(
                || (Vec::new(), 0u64, 0u64),
                |mut acc, &x| {
                    if !self.x_is_active(x) {
                        return acc; // tree became renewable
                    }
                    for &y in self.g.x_neighbors(x) {
                        acc.2 += 1;
                        // Screen with a relaxed load before the CAS. The
                        // observed stale value (0 or an old epoch) is the
                        // CAS expectation: a lost race means another task
                        // already wrote the current epoch.
                        let cur = self.visited[y as usize].load(Ordering::Relaxed);
                        if cur == self.epoch {
                            continue;
                        }
                        if self.visited[y as usize]
                            .compare_exchange(cur, self.epoch, Ordering::AcqRel, Ordering::Relaxed)
                            .is_ok()
                        {
                            self.visit_claimed(y, x, &mut acc);
                        }
                    }
                    acc
                },
            )
            .reduce(|| (Vec::new(), 0, 0), merge)
    }

    /// Algorithm 6: one parallel bottom-up step over the candidate `Y`
    /// vertices `r` (unvisited vertices during BFS; renewable vertices
    /// during grafting). Each candidate is owned by one task, so its
    /// visited flag needs no atomics.
    fn bottom_up(&self, r: &[VertexId]) -> LevelAcc {
        r.par_iter()
            .fold(
                || (Vec::new(), 0u64, 0u64),
                |mut acc, &y| {
                    for &x in self.g.y_neighbors(y) {
                        acc.2 += 1;
                        if self.x_is_active(x) {
                            self.visited[y as usize].store(self.epoch, Ordering::Relaxed);
                            self.visit_claimed(y, x, &mut acc);
                            break; // stop exploring y's neighbors
                        }
                    }
                    acc
                },
            )
            .reduce(|| (Vec::new(), 0, 0), merge)
    }

    fn unvisited_y(&self) -> Vec<VertexId> {
        (0..self.g.num_y() as VertexId)
            .into_par_iter()
            .filter(|&y| !self.is_visited(y))
            .collect()
    }
}

/// Maximum matching by the parallel MS-BFS-Graft engine, on the ambient
/// rayon pool (the dispatcher installs a sized one around the call).
///
/// `opts` carries the α threshold and the direction-optimization /
/// grafting toggles (the Fig. 7 ablation axis also applies to the parallel
/// engine). `tracer` observes every level, phase, and graft decision; all
/// events are emitted from the driving thread at level/phase boundaries —
/// the parallel regions are untouched — so enabling tracing cannot change
/// scheduling-visible behavior. The large atomic per-vertex arrays live in
/// `ws` and are reused across solves under the epoch scheme (the visited
/// claim becomes a `compare_exchange(stale, epoch)`). The fold/reduce
/// frontier accumulators still allocate — they are inherent to the
/// private-queue scheme — so this engine is *allocation-light*, not
/// allocation-free.
pub(crate) fn ms_bfs_graft_parallel(
    g: &BipartiteCsr,
    m: Matching,
    opts: &MsBfsOptions,
    tracer: &Tracer,
    ws: &mut SolveWorkspace,
) -> RunOutcome {
    let start = Instant::now();
    let mut stats = SearchStats {
        initial_cardinality: m.cardinality(),
        ..Default::default()
    };

    let (nx, ny) = (g.num_x(), g.num_y());
    let epoch = ws.par.begin_solve(nx, ny);
    let (mut mx, mut my) = m.into_mates();
    for (a, &v) in ws.par.mate_x.iter().zip(mx.iter()) {
        a.store(v, Ordering::Relaxed);
    }
    for (a, &v) in ws.par.mate_y.iter().zip(my.iter()) {
        a.store(v, Ordering::Relaxed);
    }
    let sh = Shared {
        g,
        epoch,
        mate_x: &ws.par.mate_x[..nx],
        mate_y: &ws.par.mate_y[..ny],
        visited: &ws.par.visited[..ny],
        parent_y: &ws.par.parent_y[..ny],
        root_y: &ws.par.root_y[..ny],
        root_x: &ws.par.root_x[..nx],
        leaf: &ws.par.leaf[..nx],
    };

    // Initial frontier: unmatched X vertices become roots.
    let mut frontier: Vec<VertexId> = (0..g.num_x() as VertexId)
        .filter(|&x| sh.mate_x[x as usize].load(Ordering::Relaxed) == NONE)
        .collect();
    for &x in &frontier {
        sh.set_root_x(x, x);
    }
    let mut num_unvisited_y = g.num_y();
    // Cached unvisited-Y list for bottom-up levels: exact when present,
    // invalidated by the step-3 resets, filtered in parallel between
    // levels so repeated bottom-up levels do not rescan all of Y.
    let mut unvisited_cache: Option<Vec<VertexId>> = None;

    loop {
        if let Some(deadline) = opts.deadline {
            let now = match opts.now_hook {
                Some(h) => h.now(),
                None => Instant::now(),
            };
            if now >= deadline {
                stats.timed_out = true;
                break;
            }
        }
        if let Some(hook) = opts.phase_hook {
            hook.call(stats.phases);
        }
        stats.phases += 1;
        let mut p = PhaseSummary {
            phase: u64::from(stats.phases),
            ..Default::default()
        };
        let edges_at_start = stats.edges_traversed;
        let path_edges_at_start = stats.total_augmenting_path_edges;
        // Phase stopwatch exists only while tracing: the untraced hot
        // path must not pay for a clock read per phase.
        let phase_t0 = tracer.is_enabled().then(Instant::now);

        // ---- Step 1: grow the alternating BFS forest. ----
        while !frontier.is_empty() {
            let bottom_up = opts.direction_optimizing
                && (frontier.len() as f64) >= num_unvisited_y as f64 / opts.alpha;
            tracer.emit(|| TraceEvent::Level {
                phase: p.phase,
                level: p.levels,
                frontier: frontier.len() as u64,
                unvisited_y: num_unvisited_y as u64,
                bottom_up,
            });
            p.frontier_peak = p.frontier_peak.max(frontier.len() as u64);
            p.bottom_up_levels += u64::from(bottom_up);
            let (next, newly_visited, edges) = if bottom_up {
                let _t = Stopwatch::start(&mut stats.breakdown, Step::BottomUp);
                let r = match unvisited_cache.take() {
                    Some(list) => list
                        .into_par_iter()
                        .filter(|&y| !sh.is_visited(y))
                        .collect(),
                    None => sh.unvisited_y(),
                };
                let out = sh.bottom_up(&r);
                unvisited_cache = Some(r.into_par_iter().filter(|&y| !sh.is_visited(y)).collect());
                out
            } else {
                let _t = Stopwatch::start(&mut stats.breakdown, Step::TopDown);
                sh.top_down(&frontier)
            };
            num_unvisited_y -= newly_visited as usize;
            stats.edges_traversed += edges;
            frontier = next;
            p.levels += 1;
        }

        // ---- Step 2: parallel augmentation, one path per renewable tree. ----
        {
            let _t = Stopwatch::start(&mut stats.breakdown, Step::Augment);
            let roots: Vec<VertexId> = (0..g.num_x() as VertexId)
                .into_par_iter()
                .filter(|&x0| {
                    sh.mate_x[x0 as usize].load(Ordering::Relaxed) == NONE
                        && sh.root_of_x(x0) == x0
                        && sh.leaf_of(x0) != NONE
                })
                .collect();
            let (count, path_edges) = roots
                .par_iter()
                .map(|&x0| augment_tree(&sh, x0))
                .reduce(|| (0u64, 0u64), |a, b| (a.0 + b.0, a.1 + b.1));
            stats.augmenting_paths += count;
            stats.total_augmenting_path_edges += path_edges;
            p.augmentations = count;
        }
        p.path_edges = stats.total_augmenting_path_edges - path_edges_at_start;

        // ---- Step 3: rebuild the frontier (Algorithm 7). A phase
        // without augmenting paths proves the matching maximum. ----
        if p.augmentations > 0 {
            // Statistics gathering (timed separately, Fig. 6's "Statistics").
            let (active_x_count, renewable_y) = {
                let _t = Stopwatch::start(&mut stats.breakdown, Step::Statistics);
                let active_x_count = (0..g.num_x() as VertexId)
                    .into_par_iter()
                    .filter(|&x| sh.x_is_active(x))
                    .count();
                let renewable_y: Vec<VertexId> = (0..g.num_y() as VertexId)
                    .into_par_iter()
                    .filter(|&y| {
                        // The visited check must come first: `root_y` is only
                        // meaningful (and only guaranteed in-range after a
                        // graph change) for current-epoch vertices.
                        if !sh.is_visited(y) {
                            return false;
                        }
                        let r = sh.root_y[y as usize].load(Ordering::Relaxed);
                        r != NONE && sh.leaf_of(r) != NONE
                    })
                    .collect();
                (active_x_count, renewable_y)
            };

            let _t = Stopwatch::start(&mut stats.breakdown, Step::Graft);
            // The resets below un-visit vertices: invalidate the cache.
            // (Un-visits store 0 — epoch 0 is never issued — and happen only
            // in this join-delimited region, never concurrently with claims.)
            unvisited_cache = None;
            // Reset renewable Y vertices for reuse.
            renewable_y.par_iter().for_each(|&y| {
                sh.visited[y as usize].store(0, Ordering::Relaxed);
                sh.root_y[y as usize].store(NONE, Ordering::Relaxed);
                sh.parent_y[y as usize].store(NONE, Ordering::Relaxed);
            });
            num_unvisited_y += renewable_y.len();

            let graft_profitable =
                opts.grafting && active_x_count as f64 > renewable_y.len() as f64 / opts.alpha;
            p.graft = Some(GraftSummary {
                active_x: active_x_count as u64,
                renewable_y: renewable_y.len() as u64,
                grafted: graft_profitable,
            });
            frontier = if graft_profitable {
                let (next, newly_visited, edges) = sh.bottom_up(&renewable_y);
                num_unvisited_y -= newly_visited as usize;
                stats.edges_traversed += edges;
                next
            } else {
                // Destroy the forest and restart from the unmatched vertices.
                (0..g.num_y() as VertexId).into_par_iter().for_each(|y| {
                    if sh.is_visited(y) {
                        sh.visited[y as usize].store(0, Ordering::Relaxed);
                        sh.root_y[y as usize].store(NONE, Ordering::Relaxed);
                        sh.parent_y[y as usize].store(NONE, Ordering::Relaxed);
                    }
                });
                (0..g.num_x()).into_par_iter().for_each(|x| {
                    sh.root_x[x].store(0, Ordering::Relaxed);
                    sh.leaf[x].store(0, Ordering::Relaxed);
                });
                num_unvisited_y = g.num_y();
                let f: Vec<VertexId> = (0..g.num_x() as VertexId)
                    .into_par_iter()
                    .filter(|&x| sh.mate_x[x as usize].load(Ordering::Relaxed) == NONE)
                    .collect();
                f.par_iter().for_each(|&x| sh.set_root_x(x, x));
                f
            };
        }
        p.edges_traversed = stats.edges_traversed - edges_at_start;
        p.elapsed_us = phase_t0.map_or(0, |t| t.elapsed().as_micros() as u64);
        emit_phase(tracer, &p);
        if p.graft.is_none() {
            break;
        }
    }

    // Load the result back into the mate vectors taken from the input
    // matching — no fresh allocation on the warm path.
    for (v, a) in mx.iter_mut().zip(sh.mate_x.iter()) {
        *v = a.load(Ordering::Relaxed);
    }
    for (v, a) in my.iter_mut().zip(sh.mate_y.iter()) {
        *v = a.load(Ordering::Relaxed);
    }
    let matching = Matching::from_mates(mx, my);
    stats.final_cardinality = matching.cardinality();
    stats.elapsed = start.elapsed();
    RunOutcome { matching, stats }
}

/// Flips the unique augmenting path of the renewable tree rooted at `x0`.
/// Returns `(1, path length in edges)`.
///
/// Paths of distinct trees are vertex-disjoint, so the relaxed stores of
/// concurrent augmentations never touch the same slots; the rayon join
/// publishes them to the grafting step.
fn augment_tree(sh: &Shared<'_>, x0: VertexId) -> (u64, u64) {
    let leaf = sh.leaf_of(x0);
    let mut edges = 0u64;
    let mut y = leaf;
    loop {
        let x = sh.parent_y[y as usize].load(Ordering::Relaxed);
        let next_y = sh.mate_x[x as usize].load(Ordering::Relaxed);
        sh.mate_y[y as usize].store(x, Ordering::Relaxed);
        sh.mate_x[x as usize].store(y, Ordering::Relaxed);
        edges += 1;
        if x == x0 {
            break;
        }
        y = next_y;
        edges += 1;
    }
    (1, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_maximum;
    use crate::{solve_from_in, Algorithm, SolveOptions};

    /// One parallel solve in a `threads`-sized pool, through the dispatcher.
    fn par(g: &BipartiteCsr, m: Matching, opts: &MsBfsOptions, threads: usize) -> RunOutcome {
        let opts = SolveOptions {
            threads,
            ms_bfs: *opts,
            ..SolveOptions::default()
        };
        let alg = Algorithm::MsBfsGraftParallel;
        solve_from_in(g, m, alg, &opts, &mut SolveWorkspace::new())
    }

    fn configs() -> [MsBfsOptions; 3] {
        [
            MsBfsOptions::plain(),
            MsBfsOptions::dir_opt_only(),
            MsBfsOptions::graft(),
        ]
    }

    fn chain(k: u32) -> BipartiteCsr {
        let mut edges = Vec::new();
        for i in 0..k {
            edges.push((i, i));
            if i > 0 {
                edges.push((i, i - 1));
            }
        }
        BipartiteCsr::from_edges(k as usize, k as usize, &edges)
    }

    #[test]
    fn parallel_graft_simple() {
        let g = BipartiteCsr::from_edges(2, 2, &[(0, 0), (1, 0), (1, 1)]);
        let out = par(&g, Matching::for_graph(&g), &MsBfsOptions::graft(), 2);
        assert_eq!(out.matching.cardinality(), 2);
        assert!(is_maximum(&g, &out.matching));
    }

    #[test]
    fn parallel_all_configs_on_chain() {
        let g = chain(120);
        for opts in configs() {
            let out = par(&g, Matching::for_graph(&g), &opts, 4);
            assert_eq!(out.matching.cardinality(), 120, "{opts:?}");
            assert!(is_maximum(&g, &out.matching));
        }
    }

    #[test]
    fn parallel_deficient_graph() {
        let mut edges = Vec::new();
        for x in 0..80u32 {
            edges.push((x, x % 5));
            edges.push((x, 5 + (x % 3)));
        }
        let g = BipartiteCsr::from_edges(80, 8, &edges);
        let oracle = crate::hopcroft_karp(&g, Matching::for_graph(&g))
            .matching
            .cardinality();
        for opts in configs() {
            let out = par(&g, Matching::for_graph(&g), &opts, 3);
            assert_eq!(out.matching.cardinality(), oracle, "{opts:?}");
            assert!(is_maximum(&g, &out.matching));
        }
    }

    #[test]
    fn parallel_matches_serial_engine() {
        let g = chain(64);
        let mut m0 = Matching::for_graph(&g);
        for i in 1..64u32 {
            m0.match_pair(i, i - 1);
        }
        let s = crate::ms_bfs::ms_bfs_serial(
            &g,
            m0.clone(),
            &MsBfsOptions::graft(),
            &Tracer::disabled(),
            &mut SolveWorkspace::new(),
        );
        let p = par(&g, m0, &MsBfsOptions::graft(), 2);
        assert_eq!(s.matching.cardinality(), p.matching.cardinality());
        assert!(is_maximum(&g, &p.matching));
    }

    #[test]
    fn parallel_with_karp_sipser_init() {
        let g = chain(100);
        let m0 = crate::init::Initializer::KarpSipser.run(&g, 42);
        let out = par(&g, m0, &MsBfsOptions::graft(), 2);
        assert!(is_maximum(&g, &out.matching));
        assert_eq!(out.matching.cardinality(), 100);
    }

    #[test]
    fn parallel_repeated_runs_same_cardinality() {
        // Scheduling nondeterminism must never change the result size.
        let mut edges = Vec::new();
        for x in 0..60u32 {
            edges.push((x, (x * 7) % 40));
            edges.push((x, (x * 13 + 5) % 40));
            edges.push((x, (x * 3 + 11) % 40));
        }
        let g = BipartiteCsr::from_edges(60, 40, &edges);
        let oracle = crate::hopcroft_karp(&g, Matching::for_graph(&g))
            .matching
            .cardinality();
        for _ in 0..5 {
            let out = par(&g, Matching::for_graph(&g), &MsBfsOptions::graft(), 4);
            assert_eq!(out.matching.cardinality(), oracle);
            assert!(is_maximum(&g, &out.matching));
        }
    }

    #[test]
    fn parallel_empty_graph() {
        let g = BipartiteCsr::from_edges(0, 5, &[]);
        let out = par(&g, Matching::for_graph(&g), &MsBfsOptions::graft(), 2);
        assert_eq!(out.matching.cardinality(), 0);
    }

    #[test]
    fn parallel_expired_deadline_stops_before_first_phase() {
        let g = chain(30);
        let opts = MsBfsOptions {
            deadline: Some(Instant::now() - std::time::Duration::from_millis(1)),
            ..MsBfsOptions::graft()
        };
        let out = par(&g, Matching::for_graph(&g), &opts, 2);
        assert!(out.stats.timed_out);
        assert_eq!(out.stats.phases, 0);
        assert_eq!(out.matching.cardinality(), 0);
    }
}
