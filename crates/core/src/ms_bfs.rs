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
//! it is empty, choosing top-down vs. bottom-up per level; (2) augments
//! the matching along the one augmenting path recorded per *renewable*
//! tree (one whose leaf is set); (3) rebuilds the next frontier, either by
//! **grafting** the `Y` vertices of renewable trees onto active trees (a
//! bottom-up step restricted to `renewableY`) or by destroying the forest
//! and restarting from the unmatched `X` vertices.
//!
//! ## The switch rules weigh edges
//!
//! The paper switches by vertex counts at α ≈ 5: bottom-up when `|F| ≥
//! numUnvisitedY / α`, graft when `|activeX| > |renewableY| / α`. Both
//! steps scan adjacency lists, so this engine weighs the edges each choice
//! may scan instead, as direction-optimizing BFS does (Beamer; Buluç et
//! al.), with [`direction_rule`] and [`graft_rule`]:
//!
//! * a level runs bottom-up iff `Σdeg(F) ≥ Σdeg(unvisited Y) / α`: the
//!   top-down scan of the frontier against the most a bottom-up scan of
//!   the unvisited `Y` reads;
//! * the next frontier is grafted iff `Σdeg(activeX) > Σdeg(renewableY) /
//!   α`: the re-growth of the active trees a graft saves against the most
//!   it scans.
//!
//! At the default α = 1 neither step runs unless it may scan no more
//! edges than it saves. Every sum is a running count. Each claim
//! subtracts its `Y`'s degree from the unvisited sum and adds its mate's
//! to the frontier's, and the graft adds back the renewable `Y` it
//! un-visits. The active and renewable sums come from the tree table.
//!
//! ## The tree table
//!
//! Every tree of the forest has a dense id and a row in the workspace's
//! tree table, a `Tree`: its root, its leaf, and the number and degree
//! sum of its `X` and of its `Y` vertices. The claims keep the sums: each
//! claimed `Y` and its mate count in their tree's row. A run of claims
//! into one tree, as a frontier vertex's are, reaches the row in one add.
//! So the facts a phase needs about its k trees cost O(k), not O(n):
//!
//! * Augment takes the rows whose leaf is set and whose root is still
//!   free. Rows are numbered in ascending root order, so the inline
//!   flips run in the order a scan of `X` would give.
//! * Statistics sums the active rows' `X` and the renewable rows' `Y`.
//! * A rebuild advances the workspace epoch, so every `visited` and
//!   `root_x` mark of the old forest turns stale at once. Then it
//!   re-plants the active rows, whose roots are exactly the free `X`, as
//!   a table of one-vertex trees.
//!
//! The first plant of a solve reads the free `X` through
//! [`Matching::unmatched_x`], which skips a block of matched mates with
//! one test, inline at every width; the same read sizes the table. A warm
//! solve from a maximum matching reads no more than that. After it, only
//! three steps scan all of `X` or `Y`: a graft's filter of the renewable
//! `Y`, a bottom-up level's refill of its unvisited-`Y` cache, and the
//! epoch wrap.
//!
//! ## Pointer roles (§III-B)
//!
//! * `visited[y]` — `y` belongs to some tree this phase (trees stay
//!   vertex-disjoint);
//! * `parent[y]` — the `X` parent through which `y` was discovered;
//! * `root[v]` — the id of the tree containing `v`, whose row names its
//!   unmatched root;
//! * the row's `leaf` — `NONE` while the tree is *active*; the free `Y`
//!   endpoint of the discovered augmenting path once it is *renewable*.
//!
//! Matched `X` vertices are only ever reached through their unique mate,
//! so they need neither a visited flag nor a parent pointer.
//!
//! ## Inline and pool steps
//!
//! Each step (a BFS level, the augmentation, the statistics, the graft)
//! is a loop over vertices or trees around a per-item kernel, and each
//! step decides for itself where it runs. The serial algorithms, and
//! `MsBfsGraftParallel` at one thread, run every loop *inline* on the
//! calling thread, in vertex order, over vectors reused from the
//! workspace: byte-deterministic, and allocation-free when warm. In a
//! pool solve a step also runs inline when its work is below
//! `INLINE_WORK`: 1 + degree per item of a BFS level or graft, one per
//! item of any other step. A pool batch has a fixed cost, and a
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
//!   store to its row's `leaf`; the last write wins and one path per tree
//!   is augmented. Overwritten endpoints are recycled by the
//!   renewable-tree reset, so no matching opportunity is lost.
//! * **Row sums by `fetch_add`.** Tasks claiming into the same tree add
//!   their runs to its row with `fetch_add`; inline, an add is a load and
//!   a store.
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

use crate::stats::{Step, Stopwatch};
use crate::trace::{direction_rule, graft_rule, GraftSummary, PhaseSummary, TraceEvent};
use crate::workspace::{next_epoch, pack, unpack, MsBuffers, SolveWorkspace};
use crate::{Matching, Run};
use graft_graph::{BipartiteCsr, VertexId, NONE};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Configuration of the MS-BFS engine.
#[derive(Clone, Copy, Debug)]
pub struct MsBfsOptions {
    /// The threshold α of both switch rules, in edges: a level runs
    /// bottom-up iff `Σdeg(F) ≥ Σdeg(unvisited Y) / α`, and the next
    /// frontier is grafted iff `Σdeg(active X) > Σdeg(renewable Y) / α`.
    /// At the default α = 1 a bottom-up level or a graft runs only when
    /// the edges it may scan are no more than those it saves. The paper
    /// compares vertex counts at α ≈ 5.
    pub alpha: f64,
    /// Enable direction-optimizing BFS (bottom-up steps).
    pub direction_optimizing: bool,
    /// Enable tree grafting between phases.
    pub grafting: bool,
}

impl Default for MsBfsOptions {
    fn default() -> Self {
        Self {
            alpha: 1.0,
            direction_optimizing: true,
            grafting: true,
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
/// per item of any other step.
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
/// 0.87–0.91, against 0.76–0.80 at 4,096). The parallel Karp-Sipser
/// initializer runs serially below the same work, counted as `n + m`.
pub(crate) const INLINE_WORK: usize = 65_536;

/// One tree of the forest: a row of the workspace's tree table, indexed by
/// the tree's id. It holds the tree's root, the free `Y` its augmenting
/// path ends at (`NONE` while the tree is active), and the number and
/// degree sum of its `X` and of its `Y` vertices. A tree gains vertices
/// only through claims, which add them here. A graft moves `X` out of
/// renewable trees without subtracting them, so a row's `X` sums hold
/// only while it is active, the only time they are read.
#[derive(Debug, Default)]
pub(crate) struct Tree {
    root: AtomicU32,
    leaf: AtomicU32,
    x: AtomicU64,
    x_edges: AtomicU64,
    y: AtomicU64,
    y_edges: AtomicU64,
}

impl Tree {
    #[inline]
    fn root(&self) -> VertexId {
        self.root.load(Ordering::Relaxed)
    }

    #[inline]
    fn leaf(&self) -> VertexId {
        self.leaf.load(Ordering::Relaxed)
    }

    #[inline]
    fn is_active(&self) -> bool {
        self.leaf() == NONE
    }

    /// Makes this row the active one-vertex tree of `root`, of degree
    /// `deg`.
    fn plant(&self, root: VertexId, deg: u64) {
        let r = Ordering::Relaxed;
        self.root.store(root, r);
        self.leaf.store(NONE, r);
        self.x.store(1, r);
        self.x_edges.store(deg, r);
        self.y.store(0, r);
        self.y_edges.store(0, r);
    }

    /// Adds the claims that raised the counts of a [`LevelAcc`] from
    /// `before` to `after` (see [`LevelAcc::claims`]): with `CAS` by
    /// `fetch_add`, as concurrent tasks need, else by a load and a store.
    fn add<const CAS: bool>(&self, before: [u64; 4], after: [u64; 4]) {
        let sums = [&self.y, &self.y_edges, &self.x, &self.x_edges];
        for ((sum, a), b) in sums.into_iter().zip(after).zip(before) {
            if CAS {
                sum.fetch_add(a - b, Ordering::Relaxed);
            } else {
                sum.store(sum.load(Ordering::Relaxed) + a - b, Ordering::Relaxed);
            }
        }
    }
}

/// The engine's view of the matching's mates, converted to atomics, and
/// of the workspace's atomic per-vertex arrays and tree table.
struct Shared<'a> {
    g: &'a BipartiteCsr,
    /// Run every step on the calling thread (a one-thread solve);
    /// otherwise each step picks by its work.
    inline: bool,
    /// Current workspace epoch: `visited[y] == epoch` ⇔ visited in the
    /// current forest; `root_x` entries are `(epoch << 32) | tree`
    /// packed. A rebuild advances it. `visited` and `root_x` span the
    /// whole workspace, so that the wrap's clear reaches every mark.
    epoch: u32,
    mate_x: &'a [AtomicU32],
    mate_y: &'a [AtomicU32],
    visited: &'a [AtomicU32],
    parent_y: &'a [AtomicU32],
    root_y: &'a [AtomicU32],
    root_x: &'a [AtomicU64],
    /// The current forest's rows, one per tree id.
    trees: &'a [Tree],
}

/// Output of one BFS level or graft: the next frontier and the sum of its
/// degrees, the number of newly visited `Y` vertices and the sum of their
/// degrees, and the edges traversed.
#[derive(Default)]
struct LevelAcc {
    next: Vec<VertexId>,
    next_edges: u64,
    visited: u64,
    visited_edges: u64,
    edges: u64,
    /// The tree that the latest claims went to, and [`LevelAcc::claims`]
    /// before the first of them: a run of claims not yet added to the
    /// tree's row (see [`Shared::flush`]).
    run: Option<(VertexId, [u64; 4])>,
}

impl LevelAcc {
    fn merge(mut self, mut other: Self) -> Self {
        // Append the smaller into the larger to keep the reduction linear.
        if self.next.len() < other.next.len() {
            std::mem::swap(&mut self, &mut other);
        }
        self.next.append(&mut other.next);
        self.next_edges += other.next_edges;
        self.visited += other.visited;
        self.visited_edges += other.visited_edges;
        self.edges += other.edges;
        self
    }

    /// The counts that claims raise, in the order [`Tree::add`] takes
    /// them: the claimed `Y` and their degrees, the mates pushed to the
    /// next frontier and theirs.
    #[inline]
    fn claims(&self) -> [u64; 4] {
        let mates = self.next.len() as u64;
        [self.visited, self.visited_edges, mates, self.next_edges]
    }
}

/// Whether a step over `n` items that is not a BFS step runs inline:
/// always in an inline solve, else when `n` is below [`INLINE_WORK`].
fn scan_inline(inline: bool, n: usize) -> bool {
    let inline = inline || n < INLINE_WORK;
    #[cfg(test)]
    tests::count_step(tests::SCAN, inline);
    inline
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
    fn tree_of_x(&self, x: VertexId) -> VertexId {
        unpack(self.epoch, self.root_x[x as usize].load(Ordering::Relaxed))
    }

    #[inline]
    fn set_tree_x(&self, x: VertexId, tree: VertexId) {
        self.root_x[x as usize].store(pack(self.epoch, tree), Ordering::Relaxed);
    }

    #[inline]
    fn tree(&self, id: VertexId) -> &Tree {
        &self.trees[id as usize]
    }

    /// The id of `x`'s tree if that tree is active (not yet renewable),
    /// else `NONE`.
    #[inline]
    fn active_tree(&self, x: VertexId) -> VertexId {
        let tree = self.tree_of_x(x);
        if tree != NONE && self.tree(tree).is_active() {
            tree
        } else {
            NONE
        }
    }

    /// Whether `y` is in a renewable tree. The visited check comes first:
    /// `root_y` is meaningful (and in range after a graph change) only
    /// for current-epoch vertices.
    #[inline]
    fn is_renewable_y(&self, y: VertexId) -> bool {
        self.is_visited(y) && {
            let tree = self.root_y[y as usize].load(Ordering::Relaxed);
            tree != NONE && !self.tree(tree).is_active()
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

    /// Adds the run of claims in `acc`, if any, to its tree's row, by
    /// `fetch_add` with `CAS`. A level flushes its runs before it ends.
    #[inline]
    fn flush<const CAS: bool>(&self, acc: &mut LevelAcc) {
        if let Some((tree, before)) = acc.run.take() {
            self.tree(tree).add::<CAS>(before, acc.claims());
        }
    }

    /// Algorithm 5: pointer updates after the caller claimed `y` for the
    /// tree `tree` of its parent `x`. The claim joins `acc`'s run if that
    /// is `tree`'s, else flushes it and starts one: consecutive claims
    /// mostly go to one tree, and its row takes them in one add.
    #[inline]
    fn visit_claimed<const CAS: bool>(
        &self,
        y: VertexId,
        x: VertexId,
        tree: VertexId,
        acc: &mut LevelAcc,
    ) {
        if !matches!(acc.run, Some((t, _)) if t == tree) {
            self.flush::<CAS>(acc);
            acc.run = Some((tree, acc.claims()));
        }
        self.parent_y[y as usize].store(x, Ordering::Relaxed);
        self.root_y[y as usize].store(tree, Ordering::Relaxed);
        acc.visited += 1;
        acc.visited_edges += self.g.y_degree(y) as u64;
        let mate = self.mate_y[y as usize].load(Ordering::Relaxed);
        if mate != NONE {
            self.set_tree_x(mate, tree);
            acc.next.push(mate);
            acc.next_edges += self.g.x_degree(mate) as u64;
        } else {
            // Benign race: last writer wins, one augmenting path per tree.
            self.tree(tree).leaf.store(y, Ordering::Relaxed);
        }
    }

    /// Algorithm 4 for the frontier vertex `x`. A claim screens `y` with a
    /// relaxed load, then is a `compare_exchange` from the observed stale
    /// value (0 or an old epoch) with `CAS`, as concurrent tasks need, or
    /// a plain store, exact when one thread runs the whole level.
    #[inline(always)]
    fn top_down_vertex<const CAS: bool>(&self, x: VertexId, acc: &mut LevelAcc) {
        let tree = self.active_tree(x);
        if tree == NONE {
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
                self.visit_claimed::<CAS>(y, x, tree, acc);
            }
        }
    }

    /// Algorithm 6 for the candidate `y` (unvisited during BFS, renewable
    /// during grafting): `y` joins the first active tree among its
    /// neighbors' trees. Only its owning task writes its flags; with
    /// `CAS`, concurrent tasks share the tree rows.
    #[inline(always)]
    fn bottom_up_vertex<const CAS: bool>(&self, y: VertexId, acc: &mut LevelAcc) {
        for &x in self.g.y_neighbors(y) {
            acc.edges += 1;
            let tree = self.active_tree(x);
            if tree != NONE {
                self.visited[y as usize].store(self.epoch, Ordering::Relaxed);
                self.visit_claimed::<CAS>(y, x, tree, acc);
                break; // stop exploring y's neighbors (Algorithm 6 line 7)
            }
        }
    }

    /// Whether a BFS step over `items`, whose degrees sum to `edges`, runs
    /// inline: always in an inline solve, else when its work, the sum over
    /// `items` of 1 + degree, is below [`INLINE_WORK`].
    fn level_inline(&self, items: &[VertexId], edges: u64) -> bool {
        let inline = self.inline || items.len() as u64 + edges < INLINE_WORK as u64;
        #[cfg(test)]
        tests::count_step(tests::LEVEL, inline);
        inline
    }

    /// One BFS step into `acc`: bottom-up over the candidate `Y` in
    /// `items`, or top-down from the frontier `items`; `edges` is the sum
    /// of their degrees.
    fn level<const BOTTOM_UP: bool>(&self, items: &[VertexId], edges: u64, acc: &mut LevelAcc) {
        if self.level_inline(items, edges) {
            acc.next.clear();
            (acc.next_edges, acc.visited, acc.visited_edges, acc.edges) = (0, 0, 0, 0);
            for &v in items {
                if BOTTOM_UP {
                    self.bottom_up_vertex::<false>(v, acc);
                } else {
                    self.top_down_vertex::<false>(v, acc);
                }
            }
            self.flush::<false>(acc);
        } else {
            // Per-task accumulators, concatenated by `reduce`, which
            // flushes the run each one ends with.
            *acc = items
                .par_iter()
                .fold(LevelAcc::default, |mut a, &v| {
                    if BOTTOM_UP {
                        self.bottom_up_vertex::<true>(v, &mut a);
                    } else {
                        self.top_down_vertex::<true>(v, &mut a);
                    }
                    a
                })
                .reduce(LevelAcc::default, |mut a, mut b| {
                    self.flush::<true>(&mut a);
                    self.flush::<true>(&mut b);
                    a.merge(b)
                });
        }
    }

    /// Replaces `out` with the ids in `0..n` that satisfy `f`, ascending.
    fn filter_ids(&self, n: usize, out: &mut Vec<VertexId>, f: impl Fn(VertexId) -> bool + Sync) {
        #[cfg(test)]
        crate::tests_support::count_range(n);
        if scan_inline(self.inline, n) {
            out.clear();
            out.extend((0..n as VertexId).filter(|&v| f(v)));
        } else {
            *out = (0..n as VertexId)
                .into_par_iter()
                .filter(|&v| f(v))
                .collect();
        }
    }

    /// Replaces `out` with the values `f` maps the current trees to, in
    /// tree order; `f` takes a tree's id and row.
    fn filter_trees(
        &self,
        out: &mut Vec<VertexId>,
        f: impl Fn(VertexId, &Tree) -> Option<VertexId> + Sync,
    ) {
        let one = |(id, row): (usize, &Tree)| f(id as VertexId, row);
        if scan_inline(self.inline, self.trees.len()) {
            out.clear();
            out.extend(self.trees.iter().enumerate().filter_map(one));
        } else {
            *out = self.trees.par_iter().enumerate().filter_map(one).collect();
        }
    }

    /// Keeps the entries of `list` that satisfy `f`, in order.
    fn retain(&self, list: &mut Vec<VertexId>, f: impl Fn(VertexId) -> bool + Sync) {
        if scan_inline(self.inline, list.len()) {
            list.retain(|&v| f(v));
        } else {
            *list = std::mem::take(list)
                .into_par_iter()
                .filter(|&v| f(v))
                .collect();
        }
    }

    /// The sums of `f` over the entries of `items`, component-wise.
    fn sum<T: Sync, const N: usize>(
        &self,
        items: &[T],
        f: impl Fn(&T) -> [u64; N] + Sync,
    ) -> [u64; N] {
        let add = |a: [u64; N], b: [u64; N]| std::array::from_fn(|i| a[i] + b[i]);
        if scan_inline(self.inline, items.len()) {
            items.iter().map(&f).fold([0; N], add)
        } else {
            items.par_iter().map(&f).reduce(|| [0; N], add)
        }
    }

    /// Runs `f` on every entry of `items`.
    fn for_each(&self, items: &[VertexId], f: impl Fn(VertexId) + Sync) {
        if scan_inline(self.inline, items.len()) {
            items.iter().for_each(|&v| f(v));
        } else {
            items.par_iter().for_each(|&v| f(v));
        }
    }

    /// Plants one tree per vertex of the new `frontier`, all free `X`:
    /// tree `t` is the one-vertex tree of `frontier[t]`. The caller has
    /// set `trees` to the first `frontier.len()` rows. Returns the sum of
    /// the roots' degrees.
    fn plant(&self, frontier: &[VertexId]) -> u64 {
        let one = |(id, &x): (usize, &VertexId)| {
            let deg = self.g.x_degree(x) as u64;
            self.trees[id].plant(x, deg);
            self.set_tree_x(x, id as VertexId);
            deg
        };
        if scan_inline(self.inline, frontier.len()) {
            frontier.iter().enumerate().map(one).sum()
        } else {
            frontier.par_iter().enumerate().map(one).sum()
        }
    }

    /// Flips the augmenting path of the renewable tree `tree`; returns
    /// its length in edges. Paths of distinct trees are vertex-disjoint,
    /// so concurrent flips never touch the same slots.
    fn augment_tree(&self, tree: VertexId) -> u64 {
        let row = self.tree(tree);
        let (x0, mut y) = (row.root(), row.leaf());
        let mut edges = 0u64;
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

    /// `(active_x, active_edges, renewable_y, renewable_edges)` counted
    /// over every `X` and `Y`, as the tree table's sums must give them:
    /// the debug-build oracle of the Statistics step.
    fn recount(&self) -> [u64; 4] {
        let (g, mut sums) = (self.g, [0; 4]);
        for x in (0..g.num_x() as VertexId).filter(|&x| self.active_tree(x) != NONE) {
            sums[0] += 1;
            sums[1] += g.x_degree(x) as u64;
        }
        for y in (0..g.num_y() as VertexId).filter(|&y| self.is_renewable_y(y)) {
            sums[2] += 1;
            sums[3] += g.y_degree(y) as u64;
        }
        sums
    }
}

/// Maximum matching by the MS-BFS engine configured by `opts`, from `m`.
///
/// In a one-thread solve (`run.inline`) every step runs inline, whatever
/// pool is installed; otherwise on the ambient rayon pool, or inline if
/// the step's work is below [`INLINE_WORK`]. Tracer events come from the
/// driving thread between steps and only read engine state, so a disabled
/// tracer changes nothing (`tests/trace_noninterference.rs`). A warm
/// inline solve does not allocate (`tests/workspace_alloc.rs`), and every
/// solve equals a fresh-workspace one (`tests/workspace_reuse.rs`).
pub(crate) fn ms_bfs(
    g: &BipartiteCsr,
    m: Matching,
    opts: &MsBfsOptions,
    run: &mut Run,
    ws: &mut SolveWorkspace,
) -> Matching {
    let (nx, ny) = (g.num_x(), g.num_y());
    let (inline, tracer) = (run.inline, run.tracer);
    let b = &mut ws.ms;
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
    let mut augmented = std::mem::take(&mut b.augmented);
    // The first forest: every unmatched X roots its own tree. The free X
    // are read once, inline at every width, by the matching's own scan;
    // its mates then become the engine's atomics in place, and back after
    // the solve: no copy and no allocation. The same read sizes the tree
    // table.
    frontier.clear();
    frontier.extend(m.unmatched_x());
    let (mx, my) = m.into_mates();
    if b.trees.len() < frontier.len() {
        b.trees.resize_with(frontier.len(), Tree::default);
    }
    let mate_x: Vec<AtomicU32> = mx.into_iter().map(AtomicU32::new).collect();
    let mate_y: Vec<AtomicU32> = my.into_iter().map(AtomicU32::new).collect();
    let mut sh = Shared {
        g,
        inline,
        epoch,
        mate_x: &mate_x,
        mate_y: &mate_y,
        visited: &b.visited,
        parent_y: &b.parent_y[..ny],
        root_y: &b.root_y[..ny],
        root_x: &b.root_x,
        trees: &b.trees[..frontier.len()],
    };

    // The two switch rules weigh edges: the degrees of the frontier and
    // of the unvisited Y are running sums, kept by the steps that change
    // those sets, so no rule reads a degree of its own.
    let mut frontier_edges = sh.plant(&frontier);
    let mut num_unvisited_y = ny;
    let mut unvisited_edges = g.num_edges() as u64;
    // `unvisited` caches the unvisited Y for bottom-up levels: exact while
    // `unvisited_valid`, invalidated by step 3, and filtered between
    // levels so repeated bottom-up levels do not rescan all of Y.
    let mut unvisited_valid = false;

    loop {
        if run.poll() {
            break;
        }
        let mut p = PhaseSummary {
            phase: run.begin_phase(),
            ..Default::default()
        };

        // ---- Step 1: grow the alternating BFS forest. ----
        while !frontier.is_empty() {
            let bottom_up = opts.direction_optimizing
                && direction_rule(frontier_edges, unvisited_edges, opts.alpha);
            tracer.emit(|| TraceEvent::Level {
                phase: p.phase,
                level: p.levels,
                frontier: frontier.len() as u64,
                unvisited_y: num_unvisited_y as u64,
                frontier_edges,
                unvisited_edges,
                bottom_up,
            });
            p.frontier_peak = p.frontier_peak.max(frontier.len() as u64);
            p.bottom_up_levels += u64::from(bottom_up);
            if bottom_up {
                let _t = Stopwatch::start(&mut run.stats.breakdown, Step::BottomUp);
                if unvisited_valid {
                    sh.retain(&mut unvisited, |y| !sh.is_visited(y));
                } else {
                    sh.filter_ids(ny, &mut unvisited, |y| !sh.is_visited(y));
                }
                sh.level::<true>(&unvisited, unvisited_edges, &mut acc);
                sh.retain(&mut unvisited, |y| !sh.is_visited(y));
                unvisited_valid = true;
            } else {
                let _t = Stopwatch::start(&mut run.stats.breakdown, Step::TopDown);
                sh.level::<false>(&frontier, frontier_edges, &mut acc);
            }
            num_unvisited_y -= acc.visited as usize;
            unvisited_edges -= acc.visited_edges;
            frontier_edges = acc.next_edges;
            p.edges_traversed += acc.edges;
            std::mem::swap(&mut frontier, &mut acc.next);
            p.levels += 1;
        }

        // ---- Step 2: augment along one path per renewable tree: the
        // trees whose leaf is set and whose root is still free (a tree
        // renewable in an earlier phase has flipped its path). ----
        {
            let _t = Stopwatch::start(&mut run.stats.breakdown, Step::Augment);
            sh.filter_trees(&mut augmented, |id, row| {
                (!row.is_active() && sh.is_free_x(row.root())).then_some(id)
            });
            p.augmentations = augmented.len() as u64;
            [p.path_edges] = sh.sum(&augmented, |&id| [sh.augment_tree(id)]);
        }

        // ---- Step 3: rebuild the frontier (Algorithm 7). A phase
        // without augmenting paths proves the matching maximum. ----
        if p.augmentations > 0 {
            // The grafting decision and the trace read the sums of the
            // active trees' X and of this phase's renewable trees' Y, the
            // ones just augmented.
            let graft = {
                let _t = Stopwatch::start(&mut run.stats.breakdown, Step::Statistics);
                let [active_x, active_edges] = sh.sum(sh.trees, |row| {
                    let r = Ordering::Relaxed;
                    if row.is_active() {
                        [row.x.load(r), row.x_edges.load(r)]
                    } else {
                        [0, 0]
                    }
                });
                let [renewable_y, renewable_edges] = sh.sum(&augmented, |&id| {
                    let (row, r) = (sh.tree(id), Ordering::Relaxed);
                    [row.y.load(r), row.y_edges.load(r)]
                });
                let sums = [active_x, active_edges, renewable_y, renewable_edges];
                debug_assert_eq!(sh.recount(), sums, "tree table sums, phase {}", p.phase);
                GraftSummary {
                    active_x,
                    renewable_y,
                    active_edges,
                    renewable_edges,
                    grafted: graft_rule(active_edges, renewable_edges, opts.alpha, opts.grafting),
                }
            };
            p.graft = Some(graft);

            let _t = Stopwatch::start(&mut run.stats.breakdown, Step::Graft);
            // Both branches un-visit vertices: invalidate the cache.
            unvisited_valid = false;
            if graft.grafted {
                // Tree grafting: a bottom-up step restricted to the
                // renewable Y vertices; any of them adjacent to an
                // active tree is adopted and its mate joins the new
                // frontier.
                sh.filter_ids(ny, &mut renewable, |y| sh.is_renewable_y(y));
                debug_assert_eq!(renewable.len() as u64, graft.renewable_y);
                sh.for_each(&renewable, |y| sh.unvisit(y));
                num_unvisited_y += renewable.len();
                unvisited_edges += graft.renewable_edges;
                sh.level::<true>(&renewable, graft.renewable_edges, &mut acc);
                num_unvisited_y -= acc.visited as usize;
                unvisited_edges -= acc.visited_edges;
                frontier_edges = acc.next_edges;
                p.edges_traversed += acc.edges;
                std::mem::swap(&mut frontier, &mut acc.next);
            } else {
                // Destroy the forest: a new epoch un-visits every Y and
                // clears every root at once. Then restart from the
                // unmatched X, the roots of the active trees, in order.
                sh.epoch = next_epoch(sh.epoch, || MsBuffers::clear(sh.visited, sh.root_x));
                // Recorded at once: a solve that a panic at a later
                // phase boundary abandons must not leave marks of an
                // epoch that the next solve would issue again.
                b.epoch = sh.epoch;
                sh.filter_trees(&mut frontier, |_, row| row.is_active().then(|| row.root()));
                sh.trees = &b.trees[..frontier.len()];
                num_unvisited_y = ny;
                unvisited_edges = g.num_edges() as u64;
                frontier_edges = sh.plant(&frontier);
            }
        }
        run.end_phase(&mut p);
        if p.augmentations == 0 {
            break;
        }
    }

    let mx = mate_x.into_iter().map(AtomicU32::into_inner).collect();
    let my = mate_y.into_iter().map(AtomicU32::into_inner).collect();
    if inline {
        b.frontier = frontier;
        b.next = acc.next;
        b.unvisited = unvisited;
        b.renewable = renewable;
        b.augmented = augmented;
    }
    run.matching(mx, my)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests_support::ranges_of;
    use crate::trace::{RunSummary, Tracer};
    use crate::verify::is_maximum;
    use crate::{solve_from_in, Algorithm, RunOutcome, SolveOptions};
    use std::cell::Cell;

    /// Step kinds counted by [`count_step`]: a BFS level or graft, and any
    /// other step.
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

    /// One solve of `alg` configured by `opts` through the dispatcher, in
    /// a `threads`-sized pool for the parallel algorithm.
    fn run(
        g: &BipartiteCsr,
        m: Matching,
        opts: &MsBfsOptions,
        alg: Algorithm,
        threads: usize,
    ) -> RunOutcome {
        let opts = SolveOptions {
            threads,
            ms_bfs: *opts,
            ..SolveOptions::default()
        };
        solve_from_in(g, m, alg, &opts, &mut SolveWorkspace::new())
    }

    /// One serial solve: every step inline.
    fn serial(g: &BipartiteCsr, m: Matching, opts: &MsBfsOptions) -> RunOutcome {
        run(g, m, opts, Algorithm::MsBfsGraft, 0)
    }

    /// One parallel solve in a `threads`-sized pool.
    fn par(g: &BipartiteCsr, m: Matching, opts: &MsBfsOptions, threads: usize) -> RunOutcome {
        run(g, m, opts, Algorithm::MsBfsGraftParallel, threads)
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

    /// A level's `(frontier, frontier_edges, unvisited_edges, bottom_up)`.
    type Level = (u64, u64, u64, bool);

    /// The levels of a traced MS-BFS-Graft solve, its replayed run, and the
    /// lengths of the whole-side scans the solve drove.
    fn levels_of(g: &BipartiteCsr, m0: Matching) -> (Vec<Level>, RunSummary, Vec<usize>) {
        use crate::solve_from_traced_in;
        use crate::trace::{replay, MemorySink};
        let sink = std::sync::Arc::new(MemorySink::new());
        let (out, ranges) = ranges_of(|| {
            solve_from_traced_in(
                g,
                m0,
                Algorithm::MsBfsGraft,
                &SolveOptions::default(),
                &Tracer::to_sink(sink.clone()),
                &mut SolveWorkspace::new(),
            )
        });
        crate::verify::certify_maximum(g, &out.matching).unwrap();
        let events = sink.take();
        let levels = events
            .iter()
            .filter_map(|ev| match *ev {
                TraceEvent::Level {
                    frontier,
                    frontier_edges,
                    unvisited_edges,
                    bottom_up,
                    ..
                } => Some((frontier, frontier_edges, unvisited_edges, bottom_up)),
                _ => None,
            })
            .collect();
        (levels, replay(&events).unwrap().remove(0), ranges)
    }

    #[test]
    fn uniform_degree_frontier_stays_top_down() {
        // A 2-regular cycle, x_i ~ y_i, y_(i+1), with x2..x9 matched. The
        // 2 free X are 10 unvisited Y / 5, which the paper's vertex rule
        // takes bottom-up, but they hold 4 of the 20 edges.
        let n = 10;
        let edges: Vec<_> = (0..n).flat_map(|i| [(i, i), (i, (i + 1) % n)]).collect();
        let g = BipartiteCsr::from_edges(n as usize, n as usize, &edges);
        let mut m0 = Matching::for_graph(&g);
        for i in 2..n {
            m0.match_pair(i, i);
        }
        let (levels, ..) = levels_of(&g, m0);
        assert_eq!(levels[0], (2, 4, 20, false));
    }

    #[test]
    fn hub_frontier_goes_bottom_up() {
        // Free x0 - y0, matched to the hub x1, whose 8 other neighbours
        // are free leaves. Level 1's frontier is the hub alone: 9 edges
        // against the 8 of the unvisited leaves.
        let mut edges = vec![(0, 0)];
        edges.extend((0..9).map(|y| (1, y)));
        let g = BipartiteCsr::from_edges(2, 9, &edges);
        let mut m0 = Matching::for_graph(&g);
        m0.match_pair(1, 0);
        let (levels, ..) = levels_of(&g, m0);
        assert_eq!(levels[..2], [(1, 1, 10, false), (1, 9, 8, true)]);
    }

    /// x0 - y0 free; the free hub x1 reaches y1..y5, matched to x2..x6;
    /// x2 also reaches y0. Phase 1 augments x0 - y0 and leaves the tree of
    /// x1 active. With `extra` more matched pairs x_j - y_(j-1) whose X
    /// also reach y0, the renewable y0 weighs 2 + `extra` edges.
    fn graft_graph(extra: u32) -> (BipartiteCsr, Matching) {
        let mut edges = vec![(0, 0), (2, 0)];
        edges.extend((1..=5).map(|y| (1, y)));
        edges.extend((2..7 + extra).map(|x| (x, x - 1)));
        edges.extend((7..7 + extra).map(|x| (x, 0)));
        let (nx, ny) = (7 + extra as usize, 6 + extra as usize);
        let g = BipartiteCsr::from_edges(nx, ny, &edges);
        let mut m0 = Matching::for_graph(&g);
        for x in 2..7 + extra {
            m0.match_pair(x, x - 1);
        }
        (g, m0)
    }

    #[test]
    fn graft_and_rebuild_are_decided_on_edges() {
        // The active tree holds x1..x6 and 11 edges. Alone, the renewable
        // y0 has 2 edges: graft, and the next frontier is y0's mate x0,
        // with every Y visited. With ten more X reaching y0, its 12 edges
        // outweigh the tree's: rebuild, from x1 over every edge again,
        // though 6 active X against 1 renewable Y would graft by vertices.
        for (extra, renewable_edges, grafted) in [(0, 2, true), (10, 12, false)] {
            let (g, m0) = graft_graph(extra);
            let (levels, run, _) = levels_of(&g, m0);
            let want = GraftSummary {
                active_x: 6,
                renewable_y: 1,
                active_edges: 11,
                renewable_edges,
                grafted,
            };
            assert_eq!(run.phases[0].graft, Some(want));
            let next = if grafted {
                (1, 1, 0, true)
            } else {
                (1, 5, g.num_edges() as u64, false)
            };
            assert_eq!(levels[2], next);
        }
    }

    #[test]
    fn phases_scan_trees_not_vertices() {
        // From the seed-1 Karp-Sipser start, road_usa:tiny rebuilds its
        // forest at least three times and neither grafts nor runs a
        // bottom-up level. Plant, Augment, Statistics and the rebuild
        // then loop over the trees: the solve reads all of X once, for
        // the first plant's roots, and scans no other vertex range.
        let g = graft_gen::suite::by_name("road_usa")
            .unwrap()
            .build(graft_gen::Scale::Tiny);
        let m0 = crate::init::Initializer::KarpSipser.run(&g, 1);
        let (levels, run, ranges) = levels_of(&g, m0);
        let (grafts, rebuilds) = run.graft_counts();
        assert_eq!(grafts, 0);
        assert!(rebuilds >= 3, "{rebuilds} rebuilds");
        assert!(levels.iter().all(|l| !l.3), "a level ran bottom-up");
        let (nx, ny) = (g.num_x(), g.num_y());
        assert_eq!(ranges, [nx], "scans of 0..n, nx = {nx}, ny = {ny}");
    }

    #[test]
    fn a_warm_solve_from_a_perfect_matching_reads_x_once() {
        let g = chain(1000);
        let perfect = serial(&g, Matching::for_graph(&g), &MsBfsOptions::graft()).matching;
        assert_eq!(perfect.cardinality(), 1000);
        let (alg, opts) = (Algorithm::MsBfsGraft, SolveOptions::default());
        let mut ws = SolveWorkspace::new();
        solve_from_in(&g, perfect.clone(), alg, &opts, &mut ws);
        let (out, ranges) = ranges_of(|| solve_from_in(&g, perfect, alg, &opts, &mut ws));
        assert_eq!((out.stats.phases, out.stats.augmenting_paths), (1, 0));
        assert_eq!(ranges, [g.num_x()]);
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
        // free X own `deg` Y each, so the first level's work is at least
        // twice the cutoff. The Y of even hubs are free; those of odd hubs
        // are matched to private X of degree 1, so the first level's
        // tasks add mates to the odd hubs' rows, and the Statistics step
        // reads those rows (debug builds recount them). Beside them, a
        // chain of `len >= cutoff` pairs matched off by one: its free X
        // walks one small level at a time to the free Y at the far end.
        // Augment's filter and Statistics read the rows of all `hubs + 1`
        // trees, above the cutoff; the sums over the `hubs / 2 + 1` trees
        // that augment, and the rebuild's plant of the odd hubs, run
        // below it.
        let c = INLINE_WORK.clamp(1024, 1 << 17) as VertexId;
        let (hubs, len) = (c, c);
        let deg = (2 * c).div_ceil(hubs);
        let (x0, y0) = (hubs, hubs * deg);
        let private = x0 + len;
        let mut edges = Vec::new();
        let mut matched = Vec::new();
        for h in 0..hubs {
            edges.extend((0..deg).map(|d| (h, h * deg + d)));
            if h % 2 == 1 {
                let first = private + h / 2 * deg;
                matched.extend((0..deg).map(|d| (first + d, h * deg + d)));
            }
        }
        edges.extend(&matched);
        for i in 0..len {
            edges.push((x0 + i, y0 + i));
            if i > 0 {
                edges.push((x0 + i, y0 + i - 1));
                matched.push((x0 + i, y0 + i - 1));
            }
        }
        let nx = private + hubs / 2 * deg;
        let g = BipartiteCsr::from_edges(nx as usize, (y0 + len) as usize, &edges);
        let mut m0 = Matching::for_graph(&g);
        for &(x, y) in &matched {
            m0.match_pair(x, y);
        }
        let want = serial(&g, m0.clone(), &MsBfsOptions::graft());
        // The even hubs, the private X and the chain match; the odd hubs
        // stay free.
        let cardinality = hubs / 2 + hubs / 2 * deg + len;
        assert_eq!(want.matching.cardinality(), cardinality as usize);
        for threads in [2, 4] {
            for rep in 0..3 {
                STEPS.with(|s| s.set([[0; 2]; 2]));
                let out = par(&g, m0.clone(), &MsBfsOptions::graft(), threads);
                let steps = STEPS.with(Cell::get);
                let ctx = format!("{threads} threads, rep {rep}, [pool, inline] {steps:?}");
                for (kind, name) in [(LEVEL, "level"), (SCAN, "other step")] {
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
}
