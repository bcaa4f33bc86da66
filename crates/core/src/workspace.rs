//! Reusable per-solve buffers: the [`SolveWorkspace`].
//!
//! The paper's scalability argument hinges on keeping the hot loop out of
//! the allocator (§III-B: thread-private queues that "fit in the local
//! cache"), yet a naive engine rebuilds every per-vertex array — `parent`,
//! `root`, `leaf`, `visited`, the frontier vectors — from scratch on every
//! solve. A resident service (`graft-svc`) pays that cost on every warm
//! request. The workspace owns those arrays across solves, so a warm
//! solve performs **zero heap allocations** in the serial algorithms
//! (locked by `tests/workspace_alloc.rs`).
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
//! * `root[x]` and `leaf[x]` are read for *arbitrary* vertices (per edge
//!   in the bottom-up step), so they cannot be guarded by a visited
//!   check. They are packed as `(epoch << 32) | value` in a `u64`: a
//!   stale entry fails the epoch compare and reads as [`NONE`].
//! * `parent[y]` and the `Y`-side `root[y]` are only ever read behind a
//!   current-epoch visited check, so they need no versioning at all —
//!   stale values are unreachable, even across solves on *different*
//!   graphs (where a stale id could otherwise be out of range).
//!
//! When the epoch counter would wrap (once per 2³² solves), the marks are
//! fully cleared once and the epoch restarts — amortized cost zero.
//!
//! ## Scope
//!
//! The serial algorithms that draw on the workspace (MS-BFS in all three
//! configurations, Pothen-Fan, serial push-relabel) run allocation-free on
//! a warm workspace. Two engines serve a serial and a parallel algorithm
//! each from one arena: the three MS-BFS configurations and
//! MS-BFS-Graft(par) share `ParBuffers`, and PF and PF(par) share
//! `PfBuffers`. Neither arena holds mates: each engine converts the
//! caller's matching's mate vectors to atomics in place and back. A solve
//! whose every step runs inline reuses its arena's vectors. On a pool of
//! two or more threads an engine still reuses its atomic per-vertex
//! arrays, but its fold/reduce accumulators (frontiers, DFS stacks)
//! allocate, and the MS-BFS steps it runs inline because their work is
//! below the cutoff grow the vectors they touch, which the solve then
//! drops rather than keeping them in the arena. Parallel push-relabel,
//! Hopcroft-Karp and the single-source baselines ignore the workspace (see
//! [`crate::solve_from_traced_in`]). The augmenting searches of
//! [`crate::augment`] use `MsBuffers`.

use crate::pothen_fan as pf;
use graft_graph::{VertexId, NONE};
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicU32, AtomicU64};

/// Packs `value` under `epoch` for the versioned `root`/`leaf` arrays.
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

/// Ensures `v` can hold `want` elements without reallocating.
fn reserve_to<T>(v: &mut Vec<T>, want: usize) {
    if v.capacity() < want {
        v.reserve(want - v.len());
    }
}

/// Buffers of the single-source augmenting searches in [`crate::augment`].
#[derive(Debug, Default)]
pub(crate) struct MsBuffers {
    /// Current solve epoch; `0` means "never used".
    pub(crate) epoch: u32,
    /// `visited[y] == epoch` ⇔ `y` was reached by the current search.
    pub(crate) visited: Vec<u32>,
    /// `X` parent of `y`; read only behind a visited check.
    pub(crate) parent_y: Vec<VertexId>,
    /// Epoch-packed tree root of `x` (read per edge — cannot be guarded).
    pub(crate) root_x: Vec<u64>,
    /// Current BFS frontier (ping-pongs with `next`).
    pub(crate) frontier: Vec<VertexId>,
    /// Next BFS frontier (ping-pongs with `frontier`).
    pub(crate) next: Vec<VertexId>,
    /// Augmenting-path reconstruction buffer.
    pub(crate) path: Vec<VertexId>,
}

impl MsBuffers {
    /// Starts a search on an `nx`×`ny` graph: advances the epoch (every
    /// mark from earlier searches becomes stale) and grows the buffers.
    /// No O(n) clear happens except on the 2³²-solve epoch wrap.
    pub(crate) fn begin_solve(&mut self, nx: usize, ny: usize) {
        if self.epoch == u32::MAX {
            self.visited.iter_mut().for_each(|v| *v = 0);
            self.root_x.iter_mut().for_each(|v| *v = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        if self.visited.len() < ny {
            self.visited.resize(ny, 0);
            self.parent_y.resize(ny, NONE);
        }
        if self.root_x.len() < nx {
            self.root_x.resize(nx, 0);
        }
        // Frontier capacities are reserved up front rather than left to
        // amortized growth: `frontier`/`next` swap roles every level, so
        // a buffer can face a larger level in solve k+1 than it ever held
        // in solve k even on the identical instance — which would
        // reallocate on the warm path.
        reserve_to(&mut self.frontier, nx);
        reserve_to(&mut self.next, nx);
        // An augmenting path alternates X and Y vertices, so its length
        // is bounded by twice the smaller side plus the free endpoint.
        reserve_to(&mut self.path, 2 * nx.min(ny) + 1);
        self.frontier.clear();
        self.next.clear();
        self.path.clear();
    }

    #[inline]
    pub(crate) fn is_visited(&self, y: VertexId) -> bool {
        self.visited[y as usize] == self.epoch
    }

    #[inline]
    pub(crate) fn set_visited(&mut self, y: VertexId) {
        self.visited[y as usize] = self.epoch;
    }

    #[inline]
    pub(crate) fn root_of_x(&self, x: VertexId) -> VertexId {
        unpack(self.epoch, self.root_x[x as usize])
    }

    #[inline]
    pub(crate) fn set_root_x(&mut self, x: VertexId, root: VertexId) {
        self.root_x[x as usize] = pack(self.epoch, root);
    }

    fn bytes(&self) -> usize {
        use std::mem::size_of;
        self.visited.capacity() * size_of::<u32>()
            + self.root_x.capacity() * size_of::<u64>()
            + (self.parent_y.capacity()
                + self.frontier.capacity()
                + self.next.capacity()
                + self.path.capacity())
                * size_of::<VertexId>()
    }
}

/// Buffers of the MS-BFS engine (all four MS algorithms): the atomic
/// per-vertex arrays, versioned by the solve epoch, and the vectors of
/// the inline steps. The mates are not here: the engine converts the
/// input matching's own vectors to atomics in place.
#[derive(Debug, Default)]
pub(crate) struct ParBuffers {
    pub(crate) epoch: u32,
    pub(crate) visited: Vec<AtomicU32>,
    pub(crate) parent_y: Vec<AtomicU32>,
    pub(crate) root_y: Vec<AtomicU32>,
    pub(crate) root_x: Vec<AtomicU64>,
    pub(crate) leaf: Vec<AtomicU64>,
    /// The frontier and next frontier (they ping-pong), the cached
    /// unvisited `Y`, the renewable `Y`, and the renewable trees' roots.
    pub(crate) frontier: Vec<VertexId>,
    pub(crate) next: Vec<VertexId>,
    pub(crate) unvisited: Vec<VertexId>,
    pub(crate) renewable: Vec<VertexId>,
    pub(crate) roots: Vec<VertexId>,
}

impl ParBuffers {
    /// See [`MsBuffers::begin_solve`]; returns the new epoch. Reserves the
    /// vectors only for a solve whose steps run `inline`.
    pub(crate) fn begin_solve(&mut self, nx: usize, ny: usize, inline: bool) -> u32 {
        if self.epoch == u32::MAX {
            self.visited.iter_mut().for_each(|v| *v.get_mut() = 0);
            self.root_x.iter_mut().for_each(|v| *v.get_mut() = 0);
            self.leaf.iter_mut().for_each(|v| *v.get_mut() = 0);
            self.epoch = 0;
        }
        self.epoch += 1;
        if self.visited.len() < ny {
            self.visited.resize_with(ny, || AtomicU32::new(0));
            self.parent_y.resize_with(ny, || AtomicU32::new(NONE));
            self.root_y.resize_with(ny, || AtomicU32::new(NONE));
        }
        if self.root_x.len() < nx {
            self.root_x.resize_with(nx, || AtomicU64::new(0));
            self.leaf.resize_with(nx, || AtomicU64::new(0));
        }
        // Each vector holds a set of distinct X or Y vertices. Reserved up
        // front for the reason given in `MsBuffers::begin_solve`.
        if inline {
            reserve_to(&mut self.frontier, nx);
            reserve_to(&mut self.next, nx);
            reserve_to(&mut self.unvisited, ny);
            reserve_to(&mut self.renewable, ny);
            reserve_to(&mut self.roots, nx);
        }
        self.epoch
    }

    fn bytes(&self) -> usize {
        use std::mem::size_of;
        (self.visited.capacity() + self.parent_y.capacity() + self.root_y.capacity())
            * size_of::<AtomicU32>()
            + (self.root_x.capacity() + self.leaf.capacity()) * size_of::<AtomicU64>()
            + (self.frontier.capacity()
                + self.next.capacity()
                + self.unvisited.capacity()
                + self.renewable.capacity()
                + self.roots.capacity())
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
        if self.epoch == u32::MAX {
            // Instrumented atomics have no `get_mut`: store instead.
            let clear = |v: &pf::AtomicU64| v.store(0, pf::Ordering::Relaxed);
            self.visited.iter().for_each(clear);
            self.lookahead.iter().for_each(clear);
            self.epoch = 0;
        }
        self.epoch += 1;
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

/// Buffers of the serial push-relabel engine. PR needs no epoch trick:
/// every buffer is fully (re)initialized by the solve-opening global
/// relabel, so plain reuse already makes the warm path allocation-free.
#[derive(Debug, Default)]
pub(crate) struct PrBuffers {
    /// Distance labels of the `Y` vertices.
    pub(crate) d_y: Vec<u32>,
    /// Scratch marker sweep of `global_relabel`.
    pub(crate) matched_y: Vec<bool>,
    /// Scratch BFS queue of `global_relabel`.
    pub(crate) bfs: VecDeque<VertexId>,
    /// FIFO active set (the paper's configuration).
    pub(crate) fifo: VecDeque<VertexId>,
    /// Keyed active set for the highest/lowest-label disciplines.
    pub(crate) heap: BinaryHeap<(i64, VertexId)>,
}

impl PrBuffers {
    pub(crate) fn begin_solve(&mut self, ny: usize) {
        if self.d_y.len() < ny {
            self.d_y.resize(ny, 0);
            self.matched_y.resize(ny, false);
        }
        // Every queue holds at most each Y vertex once.
        if self.bfs.capacity() < ny {
            self.bfs.reserve(ny - self.bfs.len());
        }
        if self.fifo.capacity() < ny {
            self.fifo.reserve(ny - self.fifo.len());
        }
        if self.heap.capacity() < ny {
            self.heap.reserve(ny - self.heap.len());
        }
        self.bfs.clear();
        self.fifo.clear();
        self.heap.clear();
    }

    fn bytes(&self) -> usize {
        use std::mem::size_of;
        self.d_y.capacity() * size_of::<u32>()
            + self.matched_y.capacity()
            + (self.bfs.capacity() + self.fifo.capacity()) * size_of::<VertexId>()
            + self.heap.capacity() * size_of::<(i64, VertexId)>()
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
    pub(crate) par: ParBuffers,
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

    /// Current heap footprint of the owned buffers, in bytes.
    pub fn footprint_bytes(&self) -> usize {
        self.ms.bytes() + self.par.bytes() + self.pf.bytes() + self.pr.bytes()
    }

    /// Jumps every epoch counter to `u32::MAX`, so the *next* solve takes
    /// the once-per-2³²-solves full-clear path. Test hook only: the wrap
    /// is unreachable in bounded time otherwise, and its coverage must
    /// not depend on `pub(crate)` access.
    #[doc(hidden)]
    pub fn force_epoch_wrap(&mut self) {
        self.ms.epoch = u32::MAX;
        self.par.epoch = u32::MAX;
        self.pf.epoch = u32::MAX;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_maximum;
    use crate::{solve_from_in, Algorithm, Matching, SolveOptions};
    use graft_graph::BipartiteCsr;

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
        solve_from_in(
            &g,
            Matching::for_graph(&g),
            Algorithm::MsBfsGraft,
            &opts,
            &mut ws,
        );
        assert!(ws.footprint_bytes() > 0);
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
        let opts = SolveOptions::default();
        let mut ws = SolveWorkspace::new();
        // Seed the buffers with real marks, then jump to the wrap point.
        solve_from_in(
            &g,
            Matching::for_graph(&g),
            Algorithm::MsBfsGraft,
            &opts,
            &mut ws,
        );
        ws.pf.epoch = u32::MAX - 1;
        ws.par.epoch = u32::MAX - 1;
        for _ in 0..4 {
            for alg in [
                Algorithm::MsBfsGraft,
                Algorithm::PothenFan,
                Algorithm::PothenFanParallel,
                Algorithm::MsBfsGraftParallel,
            ] {
                let out = solve_from_in(&g, Matching::for_graph(&g), alg, &opts, &mut ws);
                assert_eq!(out.matching.cardinality(), 5, "{alg:?}");
                assert!(is_maximum(&g, &out.matching));
            }
        }
        assert!(
            ws.par.epoch >= 1 && ws.par.epoch < 10,
            "wrapped and restarted"
        );
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
