//! The serial MS-BFS engine with direction-optimizing BFS and tree
//! grafting (Algorithms 3–7 of the paper).
//!
//! One engine implements three of the paper's algorithms through the
//! [`MsBfsOptions`] toggles, which is exactly the ablation axis of Fig. 7:
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

use crate::ss::reconstruct_into;
use crate::stats::{SearchStats, Step};
use crate::trace::{emit_phase, GraftSummary, PhaseSummary, TraceEvent, Tracer};
use crate::workspace::{MsBuffers, SolveWorkspace};
use crate::{Matching, RunOutcome};
use graft_graph::{BipartiteCsr, VertexId, NONE};
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

/// Configuration of the MS-BFS engine (serial and parallel).
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

struct Engine<'a> {
    g: &'a BipartiteCsr,
    m: Matching,
    opts: MsBfsOptions,
    /// Per-vertex buffers, borrowed from the caller's workspace. The
    /// epoch was already advanced by `begin_solve`, so every mark from
    /// earlier solves reads as unvisited/NONE without any O(n) clear
    /// (see [`crate::SolveWorkspace`]). The unvisited-`Y` cache lives
    /// here too: exact when `unvisited_valid`, rebuilt from a full scan
    /// after a graft/destroy reset invalidates it, and filtered
    /// incrementally between bottom-up levels of one phase so repeated
    /// levels do not rescan all of `Y`.
    ws: &'a mut MsBuffers,
    num_unvisited_y: usize,
    stats: SearchStats,
    tracer: Tracer,
}

/// Maximum matching by the serial MS-BFS engine configured by `opts`,
/// with `tracer` observing every level, phase, and graft decision and the
/// per-vertex buffers drawn from `ws`. Event closures only read engine
/// state, so a disabled tracer changes nothing (pinned by
/// `tests/trace_noninterference.rs`). On a warm workspace the engine
/// performs no heap allocation at all (pinned by
/// `tests/workspace_alloc.rs`), and the result is identical to a
/// fresh-workspace solve (pinned by `tests/workspace_reuse.rs`).
pub(crate) fn ms_bfs_serial(
    g: &BipartiteCsr,
    m: Matching,
    opts: &MsBfsOptions,
    tracer: &Tracer,
    ws: &mut SolveWorkspace,
) -> RunOutcome {
    let start = Instant::now();
    ws.ms.begin_solve(g.num_x(), g.num_y());
    let mut e = Engine {
        g,
        stats: SearchStats {
            initial_cardinality: m.cardinality(),
            ..Default::default()
        },
        m,
        opts: *opts,
        ws: &mut ws.ms,
        num_unvisited_y: g.num_y(),
        tracer: tracer.clone(),
    };
    e.run();
    let Engine { m, mut stats, .. } = e;
    stats.final_cardinality = m.cardinality();
    stats.elapsed = start.elapsed();
    RunOutcome { matching: m, stats }
}

impl Engine<'_> {
    fn run(&mut self) {
        // The frontier ping-pong buffers are taken out of the workspace
        // for the whole run (the borrow checker cannot see that the
        // engine never touches them through `self.ws`), and returned at
        // the end so their capacity survives into the next solve.
        let mut frontier = std::mem::take(&mut self.ws.frontier);
        let mut next = std::mem::take(&mut self.ws.next);
        // Initial frontier: all unmatched X vertices become roots.
        frontier.extend(self.m.unmatched_x());
        for &x in &frontier {
            self.ws.set_root_x(x, x);
        }

        loop {
            if let Some(deadline) = self.opts.deadline {
                let now = match self.opts.now_hook {
                    Some(h) => h.now(),
                    None => Instant::now(),
                };
                if now >= deadline {
                    self.stats.timed_out = true;
                    break;
                }
            }
            if let Some(hook) = self.opts.phase_hook {
                hook.call(self.stats.phases);
            }
            self.stats.phases += 1;
            let mut p = PhaseSummary {
                phase: u64::from(self.stats.phases),
                ..Default::default()
            };
            let edges_at_start = self.stats.edges_traversed;
            let path_edges_at_start = self.stats.total_augmenting_path_edges;
            // Phase stopwatch exists only while tracing: the untraced hot
            // path must not pay for a clock read per phase.
            let phase_t0 = self.tracer.is_enabled().then(Instant::now);

            // ---- Step 1: grow the alternating BFS forest. ----
            while !frontier.is_empty() {
                let bottom_up = self.opts.direction_optimizing
                    && (frontier.len() as f64) >= self.num_unvisited_y as f64 / self.opts.alpha;
                self.tracer.emit(|| TraceEvent::Level {
                    phase: p.phase,
                    level: p.levels,
                    frontier: frontier.len() as u64,
                    unvisited_y: self.num_unvisited_y as u64,
                    bottom_up,
                });
                p.frontier_peak = p.frontier_peak.max(frontier.len() as u64);
                p.bottom_up_levels += u64::from(bottom_up);
                let t0 = Instant::now();
                next.clear();
                let step = if bottom_up {
                    self.bottom_up_level(&mut next);
                    Step::BottomUp
                } else {
                    self.top_down_level(&frontier, &mut next);
                    Step::TopDown
                };
                self.stats.breakdown.add(step, t0.elapsed());
                std::mem::swap(&mut frontier, &mut next);
                p.levels += 1;
            }

            // ---- Step 2: augment along one path per renewable tree. ----
            let t0 = Instant::now();
            p.augmentations = self.augment_all();
            self.stats.breakdown.add(Step::Augment, t0.elapsed());
            p.path_edges = self.stats.total_augmenting_path_edges - path_edges_at_start;

            // ---- Step 3: rebuild the frontier (Algorithm 7). A phase
            // without augmenting paths proves the matching maximum. ----
            if p.augmentations > 0 {
                p.graft = Some(self.rebuild_frontier(&mut frontier));
            }
            p.edges_traversed = self.stats.edges_traversed - edges_at_start;
            p.elapsed_us = phase_t0.map_or(0, |t| t.elapsed().as_micros() as u64);
            emit_phase(&self.tracer, &p);
            if p.graft.is_none() {
                break;
            }
        }
        self.ws.frontier = frontier;
        self.ws.next = next;
    }

    /// Algorithm 4: expand the frontier top-down into `next`.
    fn top_down_level(&mut self, frontier: &[VertexId], next: &mut Vec<VertexId>) {
        let g = self.g;
        for &x in frontier {
            // The tree may have turned renewable earlier this level.
            let root = self.ws.root_of_x(x);
            if self.ws.leaf_of(root) != NONE {
                continue;
            }
            for &y in g.x_neighbors(x) {
                self.stats.edges_traversed += 1;
                if !self.ws.is_visited(y) {
                    self.visit(y, x, next);
                }
            }
        }
    }

    /// Algorithm 6: expand bottom-up over the unvisited `Y` vertices.
    fn bottom_up_level(&mut self, next: &mut Vec<VertexId>) {
        let mut candidates = std::mem::take(&mut self.ws.unvisited);
        if self.ws.unvisited_valid {
            candidates.retain(|&y| !self.ws.is_visited(y));
        } else {
            candidates.clear();
            candidates.extend((0..self.g.num_y() as VertexId).filter(|&y| !self.ws.is_visited(y)));
        }
        // Indexed loop: `adopt_into_active` needs `&mut self` while the
        // candidate list is iterated.
        #[allow(clippy::needless_range_loop)]
        for i in 0..candidates.len() {
            let y = candidates[i];
            self.adopt_into_active(y, next);
        }
        candidates.retain(|&y| !self.ws.is_visited(y));
        self.ws.unvisited = candidates;
        self.ws.unvisited_valid = true;
    }

    /// Scans the neighbors of the unvisited vertex `y` for a member of an
    /// active tree; on success `y` (and its mate) join that tree.
    fn adopt_into_active(&mut self, y: VertexId, next: &mut Vec<VertexId>) {
        let g = self.g;
        for &x in g.y_neighbors(y) {
            self.stats.edges_traversed += 1;
            let root = self.ws.root_of_x(x);
            if root != NONE && self.ws.leaf_of(root) == NONE {
                self.visit(y, x, next);
                return; // stop exploring y's neighbors (Algorithm 6 line 7)
            }
        }
    }

    /// Algorithm 5: record `y`'s discovery from `x`, extending the tree.
    fn visit(&mut self, y: VertexId, x: VertexId, next: &mut Vec<VertexId>) {
        debug_assert!(!self.ws.is_visited(y));
        self.ws.set_visited(y);
        self.num_unvisited_y -= 1;
        self.ws.parent_y[y as usize] = x;
        let root = self.ws.root_of_x(x);
        self.ws.root_y[y as usize] = root;
        let mate = self.m.mate_of_y(y);
        if mate != NONE {
            self.ws.set_root_x(mate, root);
            next.push(mate);
        } else {
            // Augmenting path found: mark T(root) renewable. Later finds in
            // the same tree overwrite — one path per tree survives.
            self.ws.set_leaf(root, y);
        }
    }

    /// Step 2: augment every renewable tree; returns the number of paths.
    fn augment_all(&mut self) -> u64 {
        let mut count = 0u64;
        let mut path = std::mem::take(&mut self.ws.path);
        for x0 in 0..self.g.num_x() as VertexId {
            let leaf = self.ws.leaf_of(x0);
            if self.m.is_x_matched(x0) || self.ws.root_of_x(x0) != x0 || leaf == NONE {
                continue;
            }
            reconstruct_into(&self.m, &self.ws.parent_y, leaf, &mut path);
            debug_assert_eq!(path[0], x0);
            self.stats.total_augmenting_path_edges += (path.len() - 1) as u64;
            self.m.augment(&path);
            count += 1;
        }
        self.ws.path = path;
        self.stats.augmenting_paths += count;
        count
    }

    /// Algorithm 7: construct the next phase's frontier (into `frontier`)
    /// by tree grafting, or destroy the forest and restart from the
    /// unmatched vertices. Returns the decision and the statistics that
    /// drove it.
    fn rebuild_frontier(&mut self, frontier: &mut Vec<VertexId>) -> GraftSummary {
        // -- Statistics driving the decision (timed separately: Fig. 6). --
        let t_stats = Instant::now();
        let active_x = (0..self.g.num_x() as VertexId)
            .filter(|&x| {
                let r = self.ws.root_of_x(x);
                r != NONE && self.ws.leaf_of(r) == NONE
            })
            .count();
        let mut renewable_y = std::mem::take(&mut self.ws.renewable);
        renewable_y.clear();
        // The visited check must come first: `root_y` is only meaningful
        // (and only guaranteed in-range after a graph change) for
        // vertices visited in the current epoch.
        renewable_y.extend((0..self.g.num_y() as VertexId).filter(|&y| {
            if !self.ws.is_visited(y) {
                return false;
            }
            let r = self.ws.root_y[y as usize];
            r != NONE && self.ws.leaf_of(r) != NONE
        }));
        self.stats
            .breakdown
            .add(Step::Statistics, t_stats.elapsed());

        let t_graft = Instant::now();
        // Resets below un-visit vertices: the cached unvisited list is no
        // longer a superset and must be rebuilt at the next bottom-up.
        self.ws.unvisited_valid = false;
        // Reset the renewable Y vertices so they can be reused.
        for &y in &renewable_y {
            self.ws.unvisit(y);
            self.num_unvisited_y += 1;
            self.ws.root_y[y as usize] = NONE;
            self.ws.parent_y[y as usize] = NONE;
        }

        let renewable_count = renewable_y.len();
        let graft_profitable =
            self.opts.grafting && active_x as f64 > renewable_count as f64 / self.opts.alpha;

        frontier.clear();
        if graft_profitable {
            // Tree grafting: bottom-up step restricted to the renewable Y
            // vertices; any of them adjacent to an active tree is adopted
            // and its mate becomes part of the new frontier.
            for &y in &renewable_y {
                self.adopt_into_active(y, frontier);
            }
        } else {
            // Destroy everything and restart from the unmatched vertices.
            for y in 0..self.g.num_y() as VertexId {
                if self.ws.is_visited(y) {
                    self.ws.unvisit(y);
                    self.num_unvisited_y += 1;
                    self.ws.root_y[y as usize] = NONE;
                    self.ws.parent_y[y as usize] = NONE;
                }
            }
            for x in 0..self.g.num_x() as VertexId {
                self.ws.clear_root_x(x);
                self.ws.clear_leaf(x);
            }
            frontier.extend(self.m.unmatched_x());
            for &x in frontier.iter() {
                self.ws.set_root_x(x, x);
            }
        }
        self.ws.renewable = renewable_y;
        self.stats.breakdown.add(Step::Graft, t_graft.elapsed());
        GraftSummary {
            active_x: active_x as u64,
            renewable_y: renewable_count as u64,
            grafted: graft_profitable,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_maximum;

    fn serial(g: &BipartiteCsr, m: Matching, opts: &MsBfsOptions) -> RunOutcome {
        ms_bfs_serial(g, m, opts, &Tracer::disabled(), &mut SolveWorkspace::new())
    }

    fn all_configs() -> [MsBfsOptions; 3] {
        [
            MsBfsOptions::plain(),
            MsBfsOptions::dir_opt_only(),
            MsBfsOptions::graft(),
        ]
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
        use crate::trace::{replay, MemorySink};
        use crate::{solve_from_traced_in, Algorithm, SolveOptions};
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
}
