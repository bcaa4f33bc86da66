//! Reusable per-solve buffers: the [`SolveWorkspace`].
//!
//! The paper's scalability argument hinges on keeping the hot loop out of
//! the allocator (§III-B: thread-private queues that "fit in the local
//! cache"), yet a naive engine rebuilds every per-vertex array — `parent`,
//! `root`, `leaf`, `visited`, the frontier vectors — from scratch on every
//! solve. A resident service (`graft-svc`) pays that cost on every warm
//! request. The workspace owns those arrays across solves, so a warm
//! one-thread solve performs **zero heap allocations** (locked by
//! `tests/workspace_alloc.rs`).
//!
//! ## The epoch trick: reuse without O(n) clears
//!
//! Recycling buffers is only a win if it does not trade the allocation
//! for an O(n) `memset` per solve. Every per-vertex mark is therefore
//! *versioned* by a solve epoch that advances at the start of each solve:
//!
//! * `visited[y]` stores the epoch in which `y` was visited; `y` is
//!   visited iff `visited[y] == epoch`, and un-visiting writes `0`
//!   (epoch `0` is never issued).
//! * `root[x]` is read for *arbitrary* vertices (per edge in the
//!   bottom-up step), so it cannot be guarded by a visited check. It is
//!   packed as `(epoch << 32) | value` in a `u64`: a stale entry fails the
//!   epoch compare and reads as [`NONE`].
//! * `parent[y]` and the `Y`-side `root[y]` are only ever read behind a
//!   current-epoch visited check, so they need no versioning at all —
//!   stale values are unreachable, even across solves on *different*
//!   graphs (where a stale id could otherwise be out of range).
//!
//! The MS-BFS engine's `root` entries hold tree ids, which index its tree
//! table. That table is per forest, not per vertex: each forest plants
//! the rows it uses before any is read, so no row needs an epoch.
//!
//! When the epoch counter would wrap (once per 2³² epochs), the marks are
//! fully cleared once and the epoch restarts — amortized cost zero. The
//! MS-BFS engine also advances its epoch to rebuild its forest within a
//! solve (`next_epoch`), so there the wrap can fall mid-solve.
//!
//! ## Scope
//!
//! The algorithms that draw on the workspace (MS-BFS in all three
//! configurations, Pothen-Fan, push-relabel, and their parallel twins at
//! one thread, where the dispatcher builds no pool) run allocation-free
//! on a warm workspace. Each engine serves a serial and a parallel
//! algorithm from one arena: the three MS-BFS configurations and
//! MS-BFS-Graft(par) share `MsBuffers`, PF and PF(par) share
//! `PfBuffers`, and PR and PR(par) share `PrBuffers`. No arena holds
//! mates: each engine converts the caller's matching's mate vectors to
//! atomics in place and back. A solve whose every step runs inline
//! reuses its arena's vectors. On a pool of two or more threads an
//! engine still reuses its atomic per-vertex arrays, but its fold/reduce
//! accumulators (frontiers, DFS stacks, requeued vertices) allocate, and
//! the MS-BFS steps it runs inline because their work is below the
//! cutoff grow the vectors they touch, which the solve then drops rather
//! than keeping them in the arena. Hopcroft-Karp and the single-source baselines ignore the
//! workspace (see [`crate::solve_from_traced_in`]).
//!
//! The augmenting searches of [`crate::augment`] run on the MS arena too:
//! its `visited`, `parent_y` and `root_x` marks, and its `frontier` and
//! `next`. Each search opens a new epoch the way a solve does, so a
//! workspace that has solved a graph with MS-BFS runs its searches on
//! that graph without growing.

use crate::ms_bfs::Tree;
use crate::pothen_fan as pf;
use graft_graph::{VertexId, NONE};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Packs `value` under `epoch` for the versioned `root_x` arrays.
#[inline]
pub(crate) fn pack(epoch: u32, value: VertexId) -> u64 {
    (u64::from(epoch) << 32) | u64::from(value)
}

/// Reads a packed entry: the stored value if it belongs to `epoch`,
/// otherwise [`NONE`] (the entry is stale from an earlier solve).
#[inline]
pub(crate) fn unpack(epoch: u32, packed: u64) -> VertexId {
    if (packed >> 32) as u32 == epoch {
        packed as VertexId
    } else {
        NONE
    }
}

/// The epoch after `epoch` for a stamped arena. At `u32::MAX` it calls
/// `clear`, which resets every mark the arena stamps, once, and restarts
/// at 1. An MS solve or search opens with one, and so does each rebuild
/// of an MS forest; a PF solve opens with one.
pub(crate) fn next_epoch(epoch: u32, clear: impl FnOnce()) -> u32 {
    if epoch < u32::MAX {
        return epoch + 1;
    }
    clear();
    1
}

/// Ensures `v` can hold `want` elements without reallocating.
fn reserve_to<T>(v: &mut Vec<T>, want: usize) {
    if v.capacity() < want {
        v.reserve(want - v.len());
    }
}

/// Buffers of the MS-BFS engine (all four MS algorithms) and of the
/// augmenting searches of [`crate::augment`]: the atomic per-vertex
/// arrays, versioned by the epoch, the tree table, and the vectors of the
/// inline steps. The mates are not here: the engine converts the input
/// matching's own vectors to atomics in place, and a search reads the
/// caller's matching. A search stamps `visited` and `root_x` with its
/// epoch and keeps its parent pointers in `parent_y` and `root_x`.
#[derive(Debug, Default)]
pub(crate) struct MsBuffers {
    pub(crate) epoch: u32,
    pub(crate) visited: Vec<AtomicU32>,
    pub(crate) parent_y: Vec<AtomicU32>,
    /// The tree id of each `Y` and, epoch-packed, of each `X`.
    pub(crate) root_y: Vec<AtomicU32>,
    pub(crate) root_x: Vec<AtomicU64>,
    /// One row per tree of the current forest, indexed by tree id. The
    /// engine grows it to the free `X` of a solve's input matching, the
    /// most trees a forest of that solve has.
    pub(crate) trees: Vec<Tree>,
    /// The frontier and next frontier (they ping-pong), the cached
    /// unvisited `Y`, the renewable `Y`, and the ids of the trees that
    /// augment.
    pub(crate) frontier: Vec<VertexId>,
    pub(crate) next: Vec<VertexId>,
    pub(crate) unvisited: Vec<VertexId>,
    pub(crate) renewable: Vec<VertexId>,
    pub(crate) augmented: Vec<VertexId>,
}

impl MsBuffers {
    /// Opens an MS solve or a search on an `nx`×`ny` graph: advances the
    /// epoch and stores it at once, so every mark of earlier solves and
    /// searches turns stale, grows the per-vertex arrays, and returns the
    /// new epoch. No O(n) clear happens except at the epoch wrap. The
    /// vectors are reserved only for a solve whose steps run `inline`, as
    /// a search's do. The engine advances the epoch again at each rebuild
    /// and stores each in `epoch` at once.
    pub(crate) fn begin_solve(&mut self, nx: usize, ny: usize, inline: bool) -> u32 {
        self.epoch = next_epoch(self.epoch, || Self::clear(&self.visited, &self.root_x));
        if self.visited.len() < ny {
            self.visited.resize_with(ny, || AtomicU32::new(0));
            self.parent_y.resize_with(ny, || AtomicU32::new(NONE));
            self.root_y.resize_with(ny, || AtomicU32::new(NONE));
        }
        if self.root_x.len() < nx {
            self.root_x.resize_with(nx, || AtomicU64::new(0));
        }
        // Each vector holds a set of distinct X or Y vertices, or of trees.
        // Capacities are reserved up front rather than left to amortized
        // growth: `frontier`/`next` swap roles every level, so a buffer
        // can face a larger level in solve k+1 than it ever held in solve
        // k even on the identical instance, which would reallocate on the
        // warm path.
        if inline {
            reserve_to(&mut self.frontier, nx);
            reserve_to(&mut self.next, nx);
            reserve_to(&mut self.unvisited, ny);
            reserve_to(&mut self.renewable, ny);
            reserve_to(&mut self.augmented, nx);
        }
        self.epoch
    }

    /// The epoch wrap's clear: resets the marks this arena stamps.
    pub(crate) fn clear(visited: &[AtomicU32], root_x: &[AtomicU64]) {
        visited.iter().for_each(|v| v.store(0, Ordering::Relaxed));
        root_x.iter().for_each(|v| v.store(0, Ordering::Relaxed));
    }

    fn bytes(&self) -> usize {
        use std::mem::size_of;
        (self.visited.capacity() + self.parent_y.capacity() + self.root_y.capacity())
            * size_of::<AtomicU32>()
            + self.root_x.capacity() * size_of::<AtomicU64>()
            + self.trees.capacity() * size_of::<Tree>()
            + (self.frontier.capacity()
                + self.next.capacity()
                + self.unvisited.capacity()
                + self.renewable.capacity()
                + self.augmented.capacity())
                * size_of::<VertexId>()
    }
}

/// A Pothen-Fan DFS frame: `(x, scan cursor, y used to enter x)`.
pub(crate) type Frame = (VertexId, usize, VertexId);

/// Buffers of the Pothen-Fan engine (PF and PF(par)). PF already
/// phase-stamps its visited flags; the workspace extends the stamp with
/// the solve epoch (`(epoch << 32) | phase`) so it survives across solves,
/// and versions the monotone lookahead cursors the same way (`(epoch <<
/// 32) | cursor` — a stale cursor reads as 0, restarting the O(m)-total
/// scan). Both are atomics from the engine's graft-check seam, which pass
/// straight through to std outside a checker run.
#[derive(Debug, Default)]
pub(crate) struct PfBuffers {
    pub(crate) epoch: u32,
    /// `visited[y] == pack(epoch, phase)` ⇔ visited in the current phase.
    pub(crate) visited: Vec<pf::AtomicU64>,
    /// Epoch-packed monotone lookahead cursor per `X` vertex.
    pub(crate) lookahead: Vec<pf::AtomicU64>,
    /// Per-phase DFS roots (the unmatched `X` vertices).
    pub(crate) roots: Vec<VertexId>,
    /// The DFS stack of an inline phase.
    pub(crate) stack: Vec<Frame>,
}

impl PfBuffers {
    /// See [`MsBuffers::begin_solve`]; returns the new epoch.
    pub(crate) fn begin_solve(&mut self, nx: usize, ny: usize) -> u32 {
        self.epoch = next_epoch(self.epoch, || {
            // Instrumented atomics have no `get_mut`: store instead.
            let clear = |v: &pf::AtomicU64| v.store(0, pf::Ordering::Relaxed);
            self.visited.iter().for_each(clear);
            self.lookahead.iter().for_each(clear);
        });
        if self.visited.len() < ny {
            self.visited.resize_with(ny, Default::default);
        }
        if self.lookahead.len() < nx {
            self.lookahead.resize_with(nx, Default::default);
        }
        // Roots hold at most every X vertex; the DFS stack holds one frame
        // per X vertex on the current alternating path. Reserving up front
        // keeps the warm path off the allocator even when a later solve
        // pushes deeper than any earlier one did.
        reserve_to(&mut self.roots, nx);
        reserve_to(&mut self.stack, nx);
        self.roots.clear();
        self.stack.clear();
        self.epoch
    }

    fn bytes(&self) -> usize {
        use std::mem::size_of;
        (self.visited.capacity() + self.lookahead.capacity()) * size_of::<pf::AtomicU64>()
            + self.roots.capacity() * size_of::<VertexId>()
            + self.stack.capacity() * size_of::<Frame>()
    }
}

/// Buffers of the push-relabel engine (PR and PR(par)). PR needs no epoch
/// trick: the solve-opening global relabel writes every label, and each
/// vector is cleared before use.
#[derive(Debug, Default)]
pub(crate) struct PrBuffers {
    /// Distance labels of the `Y` vertices.
    pub(crate) label: Vec<AtomicU32>,
    /// The global relabel's BFS queue.
    pub(crate) queue: Vec<VertexId>,
    /// The active `X` vertices, and those requeued while they run.
    pub(crate) active: Vec<VertexId>,
    pub(crate) next: Vec<VertexId>,
}

impl PrBuffers {
    pub(crate) fn begin_solve(&mut self, nx: usize, ny: usize) {
        if self.label.len() < ny {
            self.label.resize_with(ny, Default::default);
        }
        // Each holds a set of distinct vertices. Reserved up front for the
        // reason given in `MsBuffers::begin_solve`.
        reserve_to(&mut self.queue, ny);
        reserve_to(&mut self.active, nx);
        reserve_to(&mut self.next, nx);
        self.queue.clear();
        self.active.clear();
        self.next.clear();
    }

    fn bytes(&self) -> usize {
        use std::mem::size_of;
        self.label.capacity() * size_of::<AtomicU32>()
            + (self.queue.capacity() + self.active.capacity() + self.next.capacity())
                * size_of::<VertexId>()
    }
}

/// Reusable solver workspace: every per-vertex buffer and frontier vector
/// the engines need, owned across solves.
///
/// Create one with [`SolveWorkspace::new`] and pass it to
/// [`crate::solve_from_in`] / [`crate::solve_from_traced_in`]. The
/// buffers grow lazily to the largest graph seen, each engine touching
/// only its own arena, and an epoch/versioned scheme makes reuse safe
/// with no O(n) clears between solves — even across solves on
/// *different* graphs. The module-level docs in
/// `workspace.rs` state the epoch invariants each arena relies on.
///
/// A workspace is plain mutable state: it is `Send` (hand it to another
/// thread between solves) but deliberately not `Sync` — one solve borrows
/// it exclusively. `graft-svc` gives each worker thread its own.
///
/// ```
/// use graft_core::{solve_from_in, Algorithm, Matching, SolveOptions, SolveWorkspace};
/// use graft_graph::BipartiteCsr;
///
/// let g = BipartiteCsr::from_edges(2, 2, &[(0, 0), (1, 0), (1, 1)]);
/// let (alg, opts) = (Algorithm::MsBfsGraft, SolveOptions::default());
/// let mut ws = SolveWorkspace::new();
/// let first = solve_from_in(&g, Matching::for_graph(&g), alg, &opts, &mut ws);
/// let warm = solve_from_in(&g, Matching::for_graph(&g), alg, &opts, &mut ws);
/// assert_eq!(first.matching.cardinality(), warm.matching.cardinality());
/// ```
#[derive(Debug, Default)]
pub struct SolveWorkspace {
    pub(crate) ms: MsBuffers,
    pub(crate) pf: PfBuffers,
    pub(crate) pr: PrBuffers,
}

impl SolveWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Releases all buffer memory. The next solve re-grows from empty —
    /// `graft-svc` workers call this after an `EVICT` so a workspace
    /// sized for an evicted giant does not pin its footprint forever.
    pub fn shrink(&mut self) {
        *self = Self::default();
    }

    /// Current heap footprint of the owned buffers, in bytes, the MS-BFS
    /// tree table included.
    pub fn footprint_bytes(&self) -> usize {
        self.ms.bytes() + self.pf.bytes() + self.pr.bytes()
    }

    /// Jumps every epoch counter to `u32::MAX`, so the *next* solve takes
    /// the once-per-2³²-solves full-clear path. Test hook only: the wrap
    /// is unreachable in bounded time otherwise, and its coverage must
    /// not depend on `pub(crate)` access.
    #[doc(hidden)]
    pub fn force_epoch_wrap(&mut self) {
        self.ms.epoch = u32::MAX;
        self.pf.epoch = u32::MAX;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{replay, MemorySink, RunSummary};
    use crate::verify::is_maximum;
    use crate::{augment_from_free_x, augment_from_x, augment_from_y};
    use crate::{solve_from_in, solve_from_traced_in, Algorithm, Matching, RunOutcome};
    use crate::{SolveOptions, Tracer};
    use graft_graph::BipartiteCsr;
    use std::sync::Arc;

    /// One solve into `ws`, with its replayed trace.
    fn traced(
        g: &BipartiteCsr,
        m0: Matching,
        alg: Algorithm,
        ws: &mut SolveWorkspace,
    ) -> (RunOutcome, RunSummary) {
        let sink = Arc::new(MemorySink::new());
        let tracer = Tracer::to_sink(sink.clone());
        let out = solve_from_traced_in(g, m0, alg, &SolveOptions::default(), &tracer, ws);
        let run = replay(&sink.take()).expect("trace replays").remove(0);
        (out, run)
    }

    #[test]
    fn pack_unpack_roundtrip_and_staleness() {
        assert_eq!(unpack(3, pack(3, 17)), 17);
        assert_eq!(unpack(3, pack(3, NONE)), NONE);
        assert_eq!(unpack(4, pack(3, 17)), NONE, "stale epoch reads NONE");
        assert_eq!(unpack(1, 0), NONE, "zeroed entry reads NONE");
        assert_eq!(unpack(u32::MAX, pack(u32::MAX, 5)), 5);
    }

    #[test]
    fn footprint_grows_and_shrinks() {
        let g = BipartiteCsr::from_edges(64, 64, &[(0, 0), (1, 1), (2, 1), (2, 2)]);
        let mut ws = SolveWorkspace::new();
        assert_eq!(ws.footprint_bytes(), 0);
        let opts = SolveOptions::default();
        let mut m = solve_from_in(
            &g,
            Matching::for_graph(&g),
            Algorithm::MsBfsGraft,
            &opts,
            &mut ws,
        )
        .matching;
        let grown = ws.footprint_bytes();
        assert!(grown > 0);
        // The repair searches run on the arena the solve grew: unmatch
        // (2, 2) and search from each end, then from every free X.
        m.unmatch_x(2);
        assert!(augment_from_x(&g, &mut m, 2, &mut ws).augmented());
        m.unmatch_x(2);
        assert!(augment_from_y(&g, &mut m, 2, &mut ws).augmented());
        assert!(!augment_from_free_x(&g, &mut m, &mut ws).augmented());
        assert_eq!(
            ws.footprint_bytes(),
            grown,
            "the searches grew the workspace"
        );
        ws.shrink();
        assert_eq!(ws.footprint_bytes(), 0);
    }

    /// Epoch wrap must fully clear the versioned marks: force the counter
    /// to the wrap point and check solves stay correct straight through it.
    #[test]
    fn epoch_wrap_is_survivable() {
        let g = BipartiteCsr::from_edges(
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
        );
        let mut ws = SolveWorkspace::new();
        // Seed the buffers with real marks, then jump to the wrap point.
        traced(&g, Matching::for_graph(&g), Algorithm::MsBfsGraft, &mut ws);
        ws.pf.epoch = u32::MAX - 1;
        ws.ms.epoch = u32::MAX - 1;
        // An MS solve advances `ms.epoch` once, and once per rebuild.
        let mut advances = 0;
        for _ in 0..4 {
            for alg in [
                Algorithm::MsBfsGraft,
                Algorithm::PothenFan,
                Algorithm::PothenFanParallel,
                Algorithm::MsBfsGraftParallel,
            ] {
                let (out, run) = traced(&g, Matching::for_graph(&g), alg, &mut ws);
                assert_eq!(out.matching.cardinality(), 5, "{alg:?}");
                assert!(is_maximum(&g, &out.matching));
                if run.alpha > 0.0 {
                    advances += 1 + run.graft_counts().1;
                }
            }
        }
        // From `u32::MAX - 1` the first advance reaches `u32::MAX`, the
        // second wraps to 1, and each later one adds 1.
        assert!(advances >= 2);
        assert_eq!(
            u64::from(ws.ms.epoch),
            advances - 1,
            "wrapped and restarted"
        );
    }

    /// A rebuild advances the epoch mid-solve, so the wrap can fall inside
    /// a solve: its clear must hide the marks of earlier forests of the
    /// same solve as well as those of earlier solves.
    #[test]
    fn epoch_wrap_inside_a_solve_is_invisible() {
        let g = graft_gen::suite::by_name("road_usa")
            .unwrap()
            .build(graft_gen::Scale::Tiny);
        let m0 = crate::init::Initializer::KarpSipser.run(&g, 1);
        for alg in [Algorithm::MsBfs, Algorithm::MsBfsGraft] {
            let (fresh, run) = traced(&g, m0.clone(), alg, &mut SolveWorkspace::new());
            let rebuilds = run.graft_counts().1;
            assert!(rebuilds >= 3, "{alg:?}: {rebuilds} rebuilds");
            // Marks of a solve from the empty matching, whose forests
            // differ from this solve's under the same epochs.
            let mut ws = SolveWorkspace::new();
            traced(&g, Matching::for_graph(&g), alg, &mut ws);
            // The solve starts at `u32::MAX` and its first rebuild wraps.
            ws.ms.epoch = u32::MAX - 1;
            let (wrapped, _) = traced(&g, m0.clone(), alg, &mut ws);
            assert_eq!(ws.ms.epoch as u64, rebuilds, "{alg:?}");
            assert_eq!(
                wrapped.matching.mates_x(),
                fresh.matching.mates_x(),
                "{alg:?}"
            );
            assert_eq!(
                wrapped.matching.mates_y(),
                fresh.matching.mates_y(),
                "{alg:?}"
            );
            let (a, b) = (&wrapped.stats, &fresh.stats);
            assert_eq!(a.edges_traversed, b.edges_traversed, "{alg:?}");
            assert_eq!(a.phases, b.phases, "{alg:?}");
            assert_eq!(a.augmenting_paths, b.augmenting_paths, "{alg:?}");
            assert_eq!(
                a.total_augmenting_path_edges, b.total_augmenting_path_edges,
                "{alg:?}"
            );
        }
    }

    /// A solve abandoned by a panic at a phase boundary, after rebuilds,
    /// leaves its workspace as good as a fresh one.
    #[test]
    fn solve_after_a_panicked_solve_is_exact() {
        let g = graft_gen::suite::by_name("road_usa")
            .unwrap()
            .build(graft_gen::Scale::Tiny);
        let m0 = crate::init::Initializer::KarpSipser.run(&g, 1);
        let alg = Algorithm::MsBfs;
        let (fresh, _) = traced(&g, m0.clone(), alg, &mut SolveWorkspace::new());
        let mut ws = SolveWorkspace::new();
        let opts = SolveOptions {
            stop: crate::Stop(&|phase| phase == 5 && panic!("phase boundary fault")),
            ..SolveOptions::default()
        };
        let run =
            std::panic::AssertUnwindSafe(|| solve_from_in(&g, m0.clone(), alg, &opts, &mut ws));
        assert!(std::panic::catch_unwind(run).is_err());
        // Stale marks can trap the next solve in a loop: bound its wait.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(traced(&g, m0, alg, &mut ws));
        });
        let wait = std::time::Duration::from_secs(60);
        let (after, _) = rx.recv_timeout(wait).expect("the next solve finishes");
        assert_eq!(after.matching.mates_x(), fresh.matching.mates_x());
        assert_eq!(after.stats.edges_traversed, fresh.stats.edges_traversed);
        assert_eq!(after.stats.phases, fresh.stats.phases);
    }

    /// A workspace grown on a large graph must stay correct on a smaller
    /// one (stale out-of-range ids must never be dereferenced).
    #[test]
    fn large_then_small_graph_reuse() {
        let mut edges = Vec::new();
        for x in 0..300u32 {
            edges.push((x, (x * 7) % 200));
            edges.push((x, (x * 13 + 3) % 200));
        }
        let big = BipartiteCsr::from_edges(300, 200, &edges);
        let small = BipartiteCsr::from_edges(2, 2, &[(0, 0), (1, 0), (1, 1)]);
        let opts = SolveOptions::default();
        let mut ws = SolveWorkspace::new();
        for alg in [
            Algorithm::MsBfsGraft,
            Algorithm::PothenFan,
            Algorithm::PushRelabel,
            Algorithm::PothenFanParallel,
            Algorithm::MsBfsGraftParallel,
        ] {
            solve_from_in(&big, Matching::for_graph(&big), alg, &opts, &mut ws);
            let out = solve_from_in(&small, Matching::for_graph(&small), alg, &opts, &mut ws);
            assert_eq!(out.matching.cardinality(), 2, "{alg:?}");
            assert!(is_maximum(&small, &out.matching));
        }
    }
}
