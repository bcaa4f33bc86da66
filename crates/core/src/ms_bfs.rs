//! The MS-BFS engine (Algorithms 3–7 of the paper): multi-source
//! alternating BFS with direction optimization and tree grafting, serial
//! and multithreaded.
//!
//! One engine runs all four MS algorithms. The [`MsBfsOptions`] toggles
//! are exactly the ablation axis of Fig. 7:
//!
//! | configuration | paper name |
//! |---|---|
//! | `direction_optimizing = false, grafting = false` | MS-BFS |
//! | `direction_optimizing = true, grafting = false` | MS-BFS + direction optimization |
//! | `direction_optimizing = true, grafting = true` | **MS-BFS-Graft** |
//!
//! ## Phase anatomy (Algorithm 3)
//!
//! Each phase (1) grows an alternating BFS forest from the frontier until
//! it is empty, choosing top-down vs. bottom-up per level by the frontier
//! size against `numUnvisitedY / α`; (2) augments the matching along the
//! one augmenting path recorded per *renewable* tree (`leaf[root] ≠ NONE`);
//! (3) rebuilds the next frontier, either by **grafting** the `Y` vertices
//! of renewable trees onto active trees (a bottom-up step restricted to
//! `renewableY`) or, when grafting would not pay (`|activeX| ≤
//! |renewableY|/α`), by destroying the forest and restarting from the
//! unmatched `X` vertices.
//!
//! ## Pointer roles (§III-B)
//!
//! * `visited[y]` — `y` belongs to some tree this phase (trees stay
//!   vertex-disjoint);
//! * `parent[y]` — the `X` parent through which `y` was discovered;
//! * `root[v]` — the unmatched root of the tree containing `v`;
//! * `leaf[x₀]` — `NONE` while `T(x₀)` is *active*; the free `Y` endpoint
//!   of the discovered augmenting path once the tree is *renewable*.
//!
//! Matched `X` vertices are only ever reached through their unique mate,
//! so they need neither a visited flag nor a parent pointer.
//!
//! ## Inline and pool steps
//!
//! Each step (a BFS level, the augmentation, the statistics, the graft)
//! is a loop over vertices around a per-vertex kernel, and each step
//! decides for itself where it runs. The serial algorithms, and
//! `MsBfsGraftParallel` in a one-thread pool, run every loop *inline* on
//! the calling thread, in vertex order, over vectors reused from the
//! workspace: byte-deterministic, and allocation-free when warm. In a
//! pool solve a step also runs inline when its work is below
//! `INLINE_WORK`: 1 + degree per item of a BFS level or graft, one per
//! item of an O(n) step. A pool batch has a fixed cost, and a
//! high-diameter graph runs thousands of levels too small to pay it.
//! Every other loop is a rayon parallel iterator, which maps the paper's
//! OpenMP implementation onto rayon:
//!
//! * **Private queues → fold/reduce.** Each task fills a local frontier
//!   `Vec` lock-free, like the paper's per-thread queues (the Graph500
//!   `omp-csr` scheme), and `reduce` concatenates them.
//! * **Vertex-disjoint trees → visited CAS.** A `Y` vertex joins one tree
//!   through a `compare_exchange` on its visited flag, screened by a
//!   relaxed load first ("check the flags before performing the atomic
//!   operations"). Inline, one thread runs the level, so a claim is a
//!   load and a store.
//! * **Benign `leaf` race.** Tasks finding paths in the same tree all
//!   store to `leaf[root]`; the last write wins and one path per tree is
//!   augmented. Overwritten endpoints are recycled by the renewable-tree
//!   reset, so no matching opportunity is lost.
//! * **Bottom-up needs no CAS.** Each candidate `Y` is owned by one task,
//!   the only writer of its flags (§III-B).
//! * **Parallel augmentation.** Paths of distinct trees are
//!   vertex-disjoint; each is flipped by one task.
//!
//! Claims use `AcqRel`; every other store is `Relaxed` and reaches the
//! next step through the latch that ends each parallel batch, the
//! level-synchronous barrier the paper relies on (DESIGN.md §17). An
//! inline step of a pool solve claims with a load and a store too: one
//! thread runs the whole step, the latch that ended the previous pool
//! batch already orders every earlier write, and the next batch's tasks
//! are published after the step's writes.

use crate::stats::{SearchStats, Step, Stopwatch};
use crate::trace::{emit_phase, GraftSummary, PhaseSummary, TraceEvent, Tracer};
use crate::workspace::{pack, unpack, SolveWorkspace};
use crate::{Matching, RunOutcome};
use graft_graph::{BipartiteCsr, VertexId, NONE};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::Instant;

/// A cooperative phase-boundary observer, invoked at the same point the
/// engines check [`MsBfsOptions::deadline`]: once before every phase,
/// with the number of completed phases as argument.
///
/// The `&'static` borrow keeps [`MsBfsOptions`] `Copy`; long-lived
/// callers (the service's fault-injection plan) leak one allocation per
/// process to obtain it. The hook may sleep (delay injection) or panic
/// (fault injection) — the engines make no attempt to catch unwinds,
/// that is the caller's job.
#[derive(Clone, Copy)]
pub struct PhaseHook(pub &'static (dyn Fn(u32) + Sync));

impl PhaseHook {
    /// Invokes the hook for the phase about to start.
    #[inline]
    pub fn call(&self, phases_done: u32) {
        (self.0)(phases_done)
    }
}

impl std::fmt::Debug for PhaseHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("PhaseHook(..)")
    }
}

/// A replacement time source for the [`MsBfsOptions::deadline`] checks.
///
/// The engines compare `now_hook` (or `Instant::now` when unset) against
/// the deadline at every phase boundary; a simulation harness installs a
/// virtual clock here so cooperative cancellation runs on simulated time.
/// Like [`PhaseHook`], the `&'static` borrow keeps the options `Copy` —
/// long-lived callers leak one allocation per process.
#[derive(Clone, Copy)]
pub struct NowHook(pub &'static (dyn Fn() -> Instant + Sync));

impl NowHook {
    /// The hook's idea of "now".
    #[inline]
    pub fn now(&self) -> Instant {
        (self.0)()
    }
}

impl std::fmt::Debug for NowHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("NowHook(..)")
    }
}

/// Configuration of the MS-BFS engine.
#[derive(Clone, Copy, Debug)]
pub struct MsBfsOptions {
    /// Direction-optimization threshold α: top-down is used while
    /// `|F| < numUnvisitedY / α`, and the graft-vs-rebuild decision uses
    /// `|activeX| > |renewableY| / α`. The paper found α ≈ 5 best.
    pub alpha: f64,
    /// Enable direction-optimizing BFS (bottom-up steps).
    pub direction_optimizing: bool,
    /// Enable tree grafting between phases.
    pub grafting: bool,
    /// Cooperative cancellation: when set, the engine checks the clock at
    /// every phase boundary and stops early once the deadline has passed,
    /// returning the (valid, maximal-so-far) matching with
    /// [`SearchStats::timed_out`](crate::stats::SearchStats::timed_out)
    /// set. The matching is *not* guaranteed maximum in that case.
    pub deadline: Option<Instant>,
    /// Observer called at every phase boundary, immediately after the
    /// deadline check (the same cooperative cancellation point). `None`
    /// costs one branch per phase; the service's fault-injection harness
    /// uses it to panic or stall a solve mid-run.
    pub phase_hook: Option<PhaseHook>,
    /// Time source for the deadline checks; `None` means `Instant::now`.
    /// The simulation harness points this at its virtual clock so that
    /// deadlines expire on simulated time.
    pub now_hook: Option<NowHook>,
}

impl Default for MsBfsOptions {
    fn default() -> Self {
        Self {
            alpha: 5.0,
            direction_optimizing: true,
            grafting: true,
            deadline: None,
            phase_hook: None,
            now_hook: None,
        }
    }
}

impl MsBfsOptions {
    /// Plain MS-BFS: always top-down, rebuild every phase.
    pub fn plain() -> Self {
        Self {
            direction_optimizing: false,
            grafting: false,
            ..Self::default()
        }
    }

    /// MS-BFS with direction-optimization but no grafting (Fig. 7 middle
    /// bar).
    pub fn dir_opt_only() -> Self {
        Self {
            direction_optimizing: true,
            grafting: false,
            ..Self::default()
        }
    }

    /// The full MS-BFS-Graft configuration (default).
    pub fn graft() -> Self {
        Self::default()
    }
}

/// The work below which a step of a pool solve runs inline on the driving
/// thread. Work is 1 + degree per item of a BFS level or graft, and one
/// per item of an O(n) step.
///
/// A pool batch has a fixed cost: a double `Box` per piece, an mpsc
/// channel, a latch and a worker wake-up, and its pieces claim by CAS into
/// fresh vectors. On road_usa:small a two-thread batch added 5–15 µs per
/// level, while inline work costs roughly 8–11 ns per edge (88–126 MTEPS
/// at one thread), so a level of a few hundred edges, the common case on
/// a high-diameter graph, costs less inline than its batch alone. Above
/// that the second thread pays off only gradually: on a 2-vCPU host,
/// cutoffs of 4,096, 16,384 and 65,536 all made two-thread solves of
/// road_usa:small and kkt_power:medium no slower than one-thread ones,
/// and 65,536 gave the best two-thread Fig. 5 speedups (class medians
/// 0.87–0.91, against 0.76–0.80 at 4,096).
const INLINE_WORK: usize = 65_536;

/// The engine's view of the workspace's atomic per-vertex arrays.
struct Shared<'a> {
    g: &'a BipartiteCsr,
    /// Run every step on the calling thread (a serial algorithm or a
    /// one-thread pool); otherwise each step picks by its work.
    inline: bool,
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

/// Output of one BFS level or graft: the next frontier, the number of
/// newly visited `Y` vertices, and the edges traversed.
#[derive(Default)]
struct LevelAcc {
    next: Vec<VertexId>,
    visited: u64,
    edges: u64,
}

impl LevelAcc {
    fn merge(mut self, mut other: Self) -> Self {
        // Append the smaller into the larger to keep the reduction linear.
        if self.next.len() < other.next.len() {
            std::mem::swap(&mut self, &mut other);
        }
        self.next.append(&mut other.next);
        self.visited += other.visited;
        self.edges += other.edges;
        self
    }
}

impl Shared<'_> {
    #[inline]
    fn is_visited(&self, y: VertexId) -> bool {
        self.visited[y as usize].load(Ordering::Relaxed) == self.epoch
    }

    #[inline]
    fn is_free_x(&self, x: VertexId) -> bool {
        self.mate_x[x as usize].load(Ordering::Relaxed) == NONE
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

    /// The root of `x`'s tree if that tree is active (not yet renewable),
    /// else `NONE`.
    #[inline]
    fn active_root(&self, x: VertexId) -> VertexId {
        let root = self.root_of_x(x);
        if root != NONE && self.leaf_of(root) == NONE {
            root
        } else {
            NONE
        }
    }

    /// Takes `y` out of its tree, if it is in one. Un-visits store 0
    /// (epoch 0 is never issued) and happen only between levels, never
    /// concurrently with claims.
    #[inline]
    fn unvisit(&self, y: VertexId) {
        if !self.is_visited(y) {
            return;
        }
        self.visited[y as usize].store(0, Ordering::Relaxed);
        self.root_y[y as usize].store(NONE, Ordering::Relaxed);
        self.parent_y[y as usize].store(NONE, Ordering::Relaxed);
    }

    /// Algorithm 5: pointer updates after the caller claimed `y` for the
    /// tree `root` of its parent `x`.
    #[inline]
    fn visit_claimed(&self, y: VertexId, x: VertexId, root: VertexId, acc: &mut LevelAcc) {
        self.parent_y[y as usize].store(x, Ordering::Relaxed);
        self.root_y[y as usize].store(root, Ordering::Relaxed);
        acc.visited += 1;
        let mate = self.mate_y[y as usize].load(Ordering::Relaxed);
        if mate != NONE {
            self.set_root_x(mate, root);
            acc.next.push(mate);
        } else {
            // Benign race: last writer wins, one augmenting path per tree.
            self.leaf[root as usize].store(pack(self.epoch, y), Ordering::Relaxed);
        }
    }

    /// Algorithm 4 for the frontier vertex `x`. A claim screens `y` with a
    /// relaxed load, then is a `compare_exchange` from the observed stale
    /// value (0 or an old epoch) with `CAS`, as concurrent tasks need, or
    /// a plain store, exact when one thread runs the whole level.
    #[inline(always)]
    fn top_down_vertex<const CAS: bool>(&self, x: VertexId, acc: &mut LevelAcc) {
        let root = self.active_root(x);
        if root == NONE {
            return; // the tree became renewable
        }
        for &y in self.g.x_neighbors(x) {
            acc.edges += 1;
            let flag = &self.visited[y as usize];
            let cur = flag.load(Ordering::Relaxed);
            if cur == self.epoch {
                continue;
            }
            let claimed = if CAS {
                let (ok, err) = (Ordering::AcqRel, Ordering::Relaxed);
                flag.compare_exchange(cur, self.epoch, ok, err).is_ok()
            } else {
                flag.store(self.epoch, Ordering::Relaxed);
                true
            };
            if claimed {
                self.visit_claimed(y, x, root, acc);
            }
        }
    }

    /// Algorithm 6 for the candidate `y` (unvisited during BFS, renewable
    /// during grafting): `y` joins the first active tree among its
    /// neighbors' trees. Only its owning task writes its flags.
    #[inline(always)]
    fn bottom_up_vertex(&self, y: VertexId, acc: &mut LevelAcc) {
        for &x in self.g.y_neighbors(y) {
            acc.edges += 1;
            let root = self.active_root(x);
            if root != NONE {
                self.visited[y as usize].store(self.epoch, Ordering::Relaxed);
                self.visit_claimed(y, x, root, acc);
                break; // stop exploring y's neighbors (Algorithm 6 line 7)
            }
        }
    }

    /// Whether the BFS step over `items` runs inline: always in an inline
    /// solve, else when its work, the sum over `items` of 1 + degree, is
    /// below [`INLINE_WORK`]. The sum stops at the cutoff, so the check
    /// reads at most `INLINE_WORK` degrees.
    fn level_inline<const BOTTOM_UP: bool>(&self, items: &[VertexId]) -> bool {
        let mut work = 0;
        let inline = self.inline
            || items.iter().all(|&v| {
                work += 1 + if BOTTOM_UP {
                    self.g.y_degree(v)
                } else {
                    self.g.x_degree(v)
                };
                work < INLINE_WORK
            });
        #[cfg(test)]
        tests::count_step(tests::LEVEL, inline);
        inline
    }

    /// Whether an O(n) step over `n` items runs inline: always in an
    /// inline solve, else when `n` is below [`INLINE_WORK`].
    fn scan_inline(&self, n: usize) -> bool {
        let inline = self.inline || n < INLINE_WORK;
        #[cfg(test)]
        tests::count_step(tests::SCAN, inline);
        inline
    }

    /// One BFS step into `acc`: bottom-up over the candidate `Y` in
    /// `items`, or top-down from the frontier `items`.
    fn level<const BOTTOM_UP: bool>(&self, items: &[VertexId], acc: &mut LevelAcc) {
        if self.level_inline::<BOTTOM_UP>(items) {
            (acc.visited, acc.edges) = (0, 0);
            acc.next.clear();
            for &v in items {
                if BOTTOM_UP {
                    self.bottom_up_vertex(v, acc);
                } else {
                    self.top_down_vertex::<false>(v, acc);
                }
            }
        } else {
            // Per-task accumulators, concatenated by `reduce`.
            *acc = items
                .par_iter()
                .fold(LevelAcc::default, |mut a, &v| {
                    if BOTTOM_UP {
                        self.bottom_up_vertex(v, &mut a);
                    } else {
                        self.top_down_vertex::<true>(v, &mut a);
                    }
                    a
                })
                .reduce(LevelAcc::default, LevelAcc::merge);
        }
    }

    /// Replaces `out` with the ids in `0..n` that satisfy `f`, ascending.
    fn filter_ids(&self, n: usize, out: &mut Vec<VertexId>, f: impl Fn(VertexId) -> bool + Sync) {
        if self.scan_inline(n) {
            out.clear();
            out.extend((0..n as VertexId).filter(|&v| f(v)));
        } else {
            *out = (0..n as VertexId)
                .into_par_iter()
                .filter(|&v| f(v))
                .collect();
        }
    }

    /// Keeps the entries of `list` that satisfy `f`, in order.
    fn retain(&self, list: &mut Vec<VertexId>, f: impl Fn(VertexId) -> bool + Sync) {
        if self.scan_inline(list.len()) {
            list.retain(|&v| f(v));
        } else {
            *list = std::mem::take(list)
                .into_par_iter()
                .filter(|&v| f(v))
                .collect();
        }
    }

    /// The number of ids in `0..n` that satisfy `f`.
    fn count_ids(&self, n: usize, f: impl Fn(VertexId) -> bool + Sync) -> usize {
        if self.scan_inline(n) {
            (0..n as VertexId).filter(|&v| f(v)).count()
        } else {
            (0..n as VertexId).into_par_iter().filter(|&v| f(v)).count()
        }
    }

    /// Runs `f` on every entry of `items`.
    fn for_each(&self, items: &[VertexId], f: impl Fn(VertexId) + Sync) {
        if self.scan_inline(items.len()) {
            items.iter().for_each(|&v| f(v));
        } else {
            items.par_iter().for_each(|&v| f(v));
        }
    }

    /// Runs `f` on every id in `0..n`.
    fn for_each_id(&self, n: usize, f: impl Fn(VertexId) + Sync) {
        if self.scan_inline(n) {
            (0..n as VertexId).for_each(f);
        } else {
            (0..n as VertexId).into_par_iter().for_each(f);
        }
    }

    /// Every unmatched `X` vertex roots its own tree in the new `frontier`.
    fn plant_roots(&self, frontier: &mut Vec<VertexId>) {
        self.filter_ids(self.g.num_x(), frontier, |x| self.is_free_x(x));
        self.for_each(frontier, |x| self.set_root_x(x, x));
    }

    /// Step 2: flips the path of every tree in `roots`; returns the total
    /// path length in edges.
    fn augment(&self, roots: &[VertexId]) -> u64 {
        if self.scan_inline(roots.len()) {
            roots.iter().map(|&x0| self.augment_tree(x0)).sum()
        } else {
            roots.par_iter().map(|&x0| self.augment_tree(x0)).sum()
        }
    }

    /// Flips the augmenting path of the renewable tree rooted at `x0`;
    /// returns its length in edges. Paths of distinct trees are
    /// vertex-disjoint, so concurrent flips never touch the same slots.
    fn augment_tree(&self, x0: VertexId) -> u64 {
        let mut edges = 0u64;
        let mut y = self.leaf_of(x0);
        loop {
            let x = self.parent_y[y as usize].load(Ordering::Relaxed);
            let next_y = self.mate_x[x as usize].load(Ordering::Relaxed);
            self.mate_y[y as usize].store(x, Ordering::Relaxed);
            self.mate_x[x as usize].store(y, Ordering::Relaxed);
            edges += 1;
            if x == x0 {
                return edges;
            }
            y = next_y;
            edges += 1;
        }
    }
}

/// Maximum matching by the MS-BFS engine configured by `opts`, from `m`.
///
/// With `parallel` false (the serial algorithms) every step runs inline,
/// whatever pool is installed; otherwise on the ambient rayon pool, or
/// inline if it has one thread or the step's work is below
/// [`INLINE_WORK`]. Tracer events come from the driving
/// thread between steps and only read engine state, so a disabled tracer
/// changes nothing (`tests/trace_noninterference.rs`). A warm inline solve
/// does not allocate (`tests/workspace_alloc.rs`), and every solve equals
/// a fresh-workspace one (`tests/workspace_reuse.rs`).
pub(crate) fn ms_bfs(
    g: &BipartiteCsr,
    m: Matching,
    opts: &MsBfsOptions,
    parallel: bool,
    tracer: &Tracer,
    ws: &mut SolveWorkspace,
) -> RunOutcome {
    let start = Instant::now();
    let mut stats = SearchStats {
        initial_cardinality: m.cardinality(),
        ..Default::default()
    };

    let (nx, ny) = (g.num_x(), g.num_y());
    let inline = !parallel || rayon::current_num_threads() == 1;
    let b = &mut ws.par;
    let epoch = b.begin_solve(nx, ny, inline);
    // The vectors leave the workspace while `sh` borrows its arrays. Only
    // an inline solve returns them; the inline steps of a pool solve grow
    // the ones they touch, and the solve drops them.
    let mut frontier = std::mem::take(&mut b.frontier);
    let mut acc = LevelAcc {
        next: std::mem::take(&mut b.next),
        ..LevelAcc::default()
    };
    let mut unvisited = std::mem::take(&mut b.unvisited);
    let mut renewable = std::mem::take(&mut b.renewable);
    let mut roots = std::mem::take(&mut b.roots);
    let (mut mx, mut my) = m.into_mates();
    let mates_in = b.mate_x.iter().zip(&mx).chain(b.mate_y.iter().zip(&my));
    mates_in.for_each(|(a, &v)| a.store(v, Ordering::Relaxed));
    let sh = Shared {
        g,
        inline,
        epoch,
        mate_x: &b.mate_x[..nx],
        mate_y: &b.mate_y[..ny],
        visited: &b.visited[..ny],
        parent_y: &b.parent_y[..ny],
        root_y: &b.root_y[..ny],
        root_x: &b.root_x[..nx],
        leaf: &b.leaf[..nx],
    };

    sh.plant_roots(&mut frontier);
    let mut num_unvisited_y = ny;
    // `unvisited` caches the unvisited Y for bottom-up levels: exact while
    // `unvisited_valid`, invalidated by the step-3 resets, and filtered
    // between levels so repeated bottom-up levels do not rescan all of Y.
    let mut unvisited_valid = false;

    loop {
        if let Some(deadline) = opts.deadline {
            let now = opts.now_hook.map_or_else(Instant::now, |h| h.now());
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
            if bottom_up {
                let _t = Stopwatch::start(&mut stats.breakdown, Step::BottomUp);
                if unvisited_valid {
                    sh.retain(&mut unvisited, |y| !sh.is_visited(y));
                } else {
                    sh.filter_ids(ny, &mut unvisited, |y| !sh.is_visited(y));
                }
                sh.level::<true>(&unvisited, &mut acc);
                sh.retain(&mut unvisited, |y| !sh.is_visited(y));
                unvisited_valid = true;
            } else {
                let _t = Stopwatch::start(&mut stats.breakdown, Step::TopDown);
                sh.level::<false>(&frontier, &mut acc);
            }
            num_unvisited_y -= acc.visited as usize;
            stats.edges_traversed += acc.edges;
            std::mem::swap(&mut frontier, &mut acc.next);
            p.levels += 1;
        }

        // ---- Step 2: augment along one path per renewable tree. ----
        {
            let _t = Stopwatch::start(&mut stats.breakdown, Step::Augment);
            sh.filter_ids(nx, &mut roots, |x0| {
                sh.is_free_x(x0) && sh.root_of_x(x0) == x0 && sh.leaf_of(x0) != NONE
            });
            p.augmentations = roots.len() as u64;
            p.path_edges = sh.augment(&roots);
            stats.augmenting_paths += p.augmentations;
            stats.total_augmenting_path_edges += p.path_edges;
        }

        // ---- Step 3: rebuild the frontier (Algorithm 7). A phase
        // without augmenting paths proves the matching maximum. ----
        if p.augmentations > 0 {
            let active_x = {
                let _t = Stopwatch::start(&mut stats.breakdown, Step::Statistics);
                let active_x = sh.count_ids(nx, |x| sh.active_root(x) != NONE);
                // The visited check must come first: `root_y` is only
                // meaningful (and only guaranteed in-range after a graph
                // change) for current-epoch vertices.
                sh.filter_ids(ny, &mut renewable, |y| {
                    sh.is_visited(y) && {
                        let r = sh.root_y[y as usize].load(Ordering::Relaxed);
                        r != NONE && sh.leaf_of(r) != NONE
                    }
                });
                active_x
            };

            let _t = Stopwatch::start(&mut stats.breakdown, Step::Graft);
            // The resets below un-visit vertices: invalidate the cache.
            unvisited_valid = false;
            sh.for_each(&renewable, |y| sh.unvisit(y));
            num_unvisited_y += renewable.len();

            let graft_profitable =
                opts.grafting && active_x as f64 > renewable.len() as f64 / opts.alpha;
            p.graft = Some(GraftSummary {
                active_x: active_x as u64,
                renewable_y: renewable.len() as u64,
                grafted: graft_profitable,
            });
            if graft_profitable {
                // Tree grafting: a bottom-up step restricted to the
                // renewable Y vertices; any of them adjacent to an active
                // tree is adopted and its mate joins the new frontier.
                sh.level::<true>(&renewable, &mut acc);
                num_unvisited_y -= acc.visited as usize;
                stats.edges_traversed += acc.edges;
                std::mem::swap(&mut frontier, &mut acc.next);
            } else {
                // Destroy the forest and restart from the unmatched vertices.
                sh.for_each_id(ny, |y| sh.unvisit(y));
                sh.for_each_id(nx, |x| {
                    sh.root_x[x as usize].store(0, Ordering::Relaxed);
                    sh.leaf[x as usize].store(0, Ordering::Relaxed);
                });
                num_unvisited_y = ny;
                sh.plant_roots(&mut frontier);
            }
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
    let mates_out = mx
        .iter_mut()
        .zip(sh.mate_x)
        .chain(my.iter_mut().zip(sh.mate_y));
    mates_out.for_each(|(v, a)| *v = a.load(Ordering::Relaxed));
    if inline {
        b.frontier = frontier;
        b.next = acc.next;
        b.unvisited = unvisited;
        b.renewable = renewable;
        b.roots = roots;
    }
    // The parallel algorithm re-validates the mates its tasks wrote.
    let matching = if parallel {
        Matching::from_mates(mx, my)
    } else {
        let counted = stats.initial_cardinality + stats.augmenting_paths as usize;
        Matching::from_counted_mates(mx, my, counted)
    };
    stats.final_cardinality = matching.cardinality();
    stats.elapsed = start.elapsed();
    RunOutcome { matching, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_maximum;
    use crate::{solve_from_in, Algorithm, SolveOptions};
    use std::cell::Cell;

    /// Step kinds counted by [`count_step`]: a BFS level or graft, and an
    /// O(n) step.
    pub(super) const LEVEL: usize = 0;
    pub(super) const SCAN: usize = 1;

    thread_local! {
        /// Steps driven from this thread, as `[kind][pool, inline]`.
        static STEPS: Cell<[[u32; 2]; 2]> = const { Cell::new([[0; 2]; 2]) };
    }

    /// Records where a step of `kind` ran.
    pub(super) fn count_step(kind: usize, inline: bool) {
        STEPS.with(|s| {
            let mut steps = s.get();
            steps[kind][usize::from(inline)] += 1;
            s.set(steps);
        });
    }

    /// One solve with the serial flag: every step inline.
    fn serial(g: &BipartiteCsr, m: Matching, opts: &MsBfsOptions) -> RunOutcome {
        ms_bfs(
            g,
            m,
            opts,
            false,
            &Tracer::disabled(),
            &mut SolveWorkspace::new(),
        )
    }

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

    fn all_configs() -> [MsBfsOptions; 3] {
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

    /// The worked example of Fig. 2: 6 X vertices, 6 Y vertices.
    /// x1..x6 → 0-indexed x0..x5, same for y.
    fn fig2_graph() -> BipartiteCsr {
        BipartiteCsr::from_edges(
            6,
            6,
            &[
                (0, 0), // x1-y1
                (0, 1), // x1-y2
                (1, 1), // x2-y2  (matched in the example's initial matching)
                (1, 2), // x2-y3
                (2, 0), // x3-y1  (matched)
                (2, 2), // x3-y3
                (3, 1), // x4-y2
                (3, 3), // x4-y4  (matched)
                (4, 2), // x5-y3  (matched... actually x5-y5 matched)
                (4, 4), // x5-y5
                (5, 3), // x6-y4
                (5, 5), // x6-y6
            ],
        )
    }

    #[test]
    fn fig2_example_reaches_maximum() {
        let g = fig2_graph();
        // The maximal matching of Fig. 2(a): (x2,y2), (x3,y1), (x4,y4), (x5,y5).
        let mut m0 = Matching::for_graph(&g);
        m0.match_pair(1, 1);
        m0.match_pair(2, 0);
        m0.match_pair(3, 3);
        m0.match_pair(4, 4);
        for opts in all_configs() {
            let out = serial(&g, m0.clone(), &opts);
            assert!(is_maximum(&g, &out.matching), "not maximum under {opts:?}");
            assert_eq!(out.matching.cardinality(), 6);
        }
    }

    #[test]
    fn all_configs_agree_on_hard_graphs() {
        let graphs = [
            BipartiteCsr::from_edges(4, 2, &[(0, 0), (1, 0), (2, 0), (2, 1), (3, 1)]),
            BipartiteCsr::from_edges(1, 1, &[(0, 0)]),
            BipartiteCsr::from_edges(3, 3, &[]),
            BipartiteCsr::from_edges(
                5,
                5,
                &[
                    (0, 0),
                    (0, 1),
                    (1, 0),
                    (2, 1),
                    (2, 2),
                    (3, 2),
                    (3, 3),
                    (4, 3),
                    (4, 4),
                    (0, 4),
                ],
            ),
        ];
        for g in &graphs {
            let oracle = crate::hopcroft_karp(g, Matching::for_graph(g))
                .matching
                .cardinality();
            for opts in all_configs() {
                let out = serial(g, Matching::for_graph(g), &opts);
                assert_eq!(out.matching.cardinality(), oracle, "config {opts:?}");
                assert!(is_maximum(g, &out.matching));
            }
        }
    }

    #[test]
    fn long_chain_all_configs() {
        let k = 80;
        let g = chain(k as VertexId);
        let mut m0 = Matching::for_graph(&g);
        for i in 1..k as VertexId {
            m0.match_pair(i, i - 1);
        }
        for opts in all_configs() {
            let out = serial(&g, m0.clone(), &opts);
            assert_eq!(out.matching.cardinality(), k, "config {opts:?}");
        }
    }

    #[test]
    fn grafting_reduces_traversals_on_low_matching_graph() {
        // Deficient graph: a few hubs serve many X vertices; most X stay
        // unmatched, so ungrafted MS-BFS rebuilds dead trees every phase.
        let mut edges = Vec::new();
        let nx = 300u32;
        for x in 0..nx {
            edges.push((x, x % 10));
            edges.push((x, 10 + (x % 7)));
        }
        // A tail of private vertices creating some augmenting-path churn.
        for i in 0..10u32 {
            edges.push((i, 17 + i));
        }
        let g = BipartiteCsr::from_edges(nx as usize, 27, &edges);
        let plain = serial(&g, Matching::for_graph(&g), &MsBfsOptions::plain());
        let graft = serial(&g, Matching::for_graph(&g), &MsBfsOptions::graft());
        assert_eq!(plain.matching.cardinality(), graft.matching.cardinality());
        assert!(
            graft.stats.edges_traversed <= plain.stats.edges_traversed,
            "grafting should not traverse more edges: {} vs {}",
            graft.stats.edges_traversed,
            plain.stats.edges_traversed
        );
    }

    #[test]
    fn fig2_phase_trace_is_stable() {
        // Regression pin of the engine's deterministic behavior on the
        // paper's Fig. 2 instance: with direction optimization both free
        // roots resolve in one phase (two disjoint augmenting paths of
        // lengths 1 and 3), and the second phase certifies termination.
        use crate::solve_from_traced_in;
        use crate::trace::{replay, MemorySink};
        let g = fig2_graph();
        let mut m0 = Matching::for_graph(&g);
        m0.match_pair(1, 1);
        m0.match_pair(2, 0);
        m0.match_pair(3, 3);
        m0.match_pair(4, 4);
        let sink = std::sync::Arc::new(MemorySink::new());
        let out = solve_from_traced_in(
            &g,
            m0,
            Algorithm::MsBfsGraft,
            &SolveOptions::default(),
            &Tracer::to_sink(sink.clone()),
            &mut SolveWorkspace::new(),
        );
        assert_eq!(out.matching.cardinality(), 6);
        let runs = replay(&sink.take()).expect("trace replays");
        let t = &runs[0].phases;
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].augmentations, 2);
        assert_eq!(t[0].path_edges, 4); // lengths 1 + 3
        let graft = t[0].graft.expect("phase 1 decides graft vs rebuild");
        assert_eq!(graft.renewable_y, 5);
        assert_eq!(graft.active_x, 0); // every tree found a path
        assert_eq!(t[1].augmentations, 0); // certification phase
    }

    #[test]
    fn stats_consistency() {
        let g = fig2_graph();
        let out = serial(&g, Matching::for_graph(&g), &MsBfsOptions::graft());
        assert_eq!(
            out.stats.final_cardinality - out.stats.initial_cardinality,
            out.stats.augmenting_paths as usize
        );
        assert!(out.stats.phases >= 1);
    }

    #[test]
    fn expired_deadline_stops_before_first_phase() {
        let g = fig2_graph();
        let opts = MsBfsOptions {
            deadline: Some(Instant::now() - std::time::Duration::from_millis(1)),
            ..MsBfsOptions::graft()
        };
        let out = serial(&g, Matching::for_graph(&g), &opts);
        assert!(out.stats.timed_out);
        assert_eq!(out.stats.phases, 0);
        assert_eq!(out.matching.cardinality(), 0); // initial matching returned
    }

    #[test]
    fn generous_deadline_does_not_time_out() {
        let g = fig2_graph();
        let opts = MsBfsOptions {
            deadline: Some(Instant::now() + std::time::Duration::from_secs(3600)),
            ..MsBfsOptions::graft()
        };
        let out = serial(&g, Matching::for_graph(&g), &opts);
        assert!(!out.stats.timed_out);
        assert_eq!(out.matching.cardinality(), 6);
    }

    #[test]
    fn phase_hook_fires_once_per_phase() {
        use std::sync::atomic::{AtomicU32, Ordering};
        static CALLS: AtomicU32 = AtomicU32::new(0);
        static LAST: AtomicU32 = AtomicU32::new(u32::MAX);
        let opts = MsBfsOptions {
            phase_hook: Some(PhaseHook(&|done| {
                CALLS.fetch_add(1, Ordering::Relaxed);
                LAST.store(done, Ordering::Relaxed);
            })),
            ..MsBfsOptions::graft()
        };
        let g = fig2_graph();
        let out = serial(&g, Matching::for_graph(&g), &opts);
        assert_eq!(out.matching.cardinality(), 6);
        assert_eq!(CALLS.load(Ordering::Relaxed), out.stats.phases);
        assert_eq!(LAST.load(Ordering::Relaxed), out.stats.phases - 1);
    }

    #[test]
    fn panicking_phase_hook_unwinds_out_of_the_engine() {
        let opts = MsBfsOptions {
            phase_hook: Some(PhaseHook(&|_| panic!("injected"))),
            ..MsBfsOptions::graft()
        };
        let g = fig2_graph();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            serial(&g, Matching::for_graph(&g), &opts)
        }));
        assert!(r.is_err());
    }

    #[test]
    fn starts_from_perfect_matching() {
        let g = BipartiteCsr::from_edges(2, 2, &[(0, 0), (1, 1)]);
        let mut m0 = Matching::for_graph(&g);
        m0.match_pair(0, 0);
        m0.match_pair(1, 1);
        let out = serial(&g, m0, &MsBfsOptions::graft());
        assert_eq!(out.stats.phases, 1); // one phase discovers nothing
        assert_eq!(out.stats.augmenting_paths, 0);
        assert_eq!(out.matching.cardinality(), 2);
    }

    #[test]
    fn pool_solves_run_steps_on_both_sides_of_the_cutoff() {
        // Sized from the cutoff, clamped so that a cutoff of 0 or
        // `usize::MAX` still builds a graph (and fails the test). `hubs`
        // free X own `deg` free Y each, so the first level's work is at
        // least twice the cutoff. Beside them, a chain of `len >= cutoff`
        // pairs matched off by one: its free X walks one small level at a
        // time to the free Y at the far end, and every O(n) step over X
        // or Y exceeds the cutoff.
        let c = INLINE_WORK.clamp(1024, 1 << 17) as VertexId;
        let (hubs, len) = (256, c);
        let deg = (2 * c).div_ceil(hubs);
        let (x0, y0) = (hubs, hubs * deg);
        let mut edges = Vec::new();
        for h in 0..hubs {
            edges.extend((0..deg).map(|d| (h, h * deg + d)));
        }
        for i in 0..len {
            edges.push((x0 + i, y0 + i));
            if i > 0 {
                edges.push((x0 + i, y0 + i - 1));
            }
        }
        let g = BipartiteCsr::from_edges((x0 + len) as usize, (y0 + len) as usize, &edges);
        let mut m0 = Matching::for_graph(&g);
        for i in 1..len {
            m0.match_pair(x0 + i, y0 + i - 1);
        }
        let want = serial(&g, m0.clone(), &MsBfsOptions::graft());
        assert_eq!(want.matching.cardinality(), (hubs + len) as usize);
        for threads in [2, 4] {
            for rep in 0..3 {
                STEPS.with(|s| s.set([[0; 2]; 2]));
                let out = par(&g, m0.clone(), &MsBfsOptions::graft(), threads);
                let steps = STEPS.with(Cell::get);
                let ctx = format!("{threads} threads, rep {rep}, [pool, inline] {steps:?}");
                for (kind, name) in [(LEVEL, "level"), (SCAN, "O(n) step")] {
                    assert!(steps[kind][0] > 0, "no {name} ran on the pool: {ctx}");
                    assert!(steps[kind][1] > 0, "no {name} ran inline: {ctx}");
                }
                crate::verify::certify_maximum(&g, &out.matching)
                    .unwrap_or_else(|e| panic!("König certificate failed: {e}: {ctx}"));
                assert_eq!(
                    out.matching.cardinality(),
                    want.matching.cardinality(),
                    "{ctx}"
                );
            }
        }
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
        for opts in all_configs() {
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
        for opts in all_configs() {
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
        let s = solve_from_in(
            &g,
            m0.clone(),
            Algorithm::MsBfsGraft,
            &SolveOptions::default(),
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
