//! The push-relabel engine (PR and PR(par)), the PR competitor of the
//! paper (after Langguth, Manne, Sanders and Kaya, Langguth, Manne, Uçar),
//! serial and multithreaded.
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
//! discarded. **Global relabeling** recomputes exact labels with a
//! backward BFS from the free `Y` vertices after every `n / frequency`
//! pushes; the paper sets the frequency to 2 on one thread and 16 on 40.
//!
//! One kernel, `Shared::push`, serves both algorithms. PR, and PR(par) at
//! one thread, run inline on the calling thread in FIFO order,
//! where a steal is a load and a store. Otherwise the active set runs in
//! rounds, each split into batches of at most [`QUEUE_LIMIT`] vertices
//! (the paper's queue limit) for the pool: a steal is a
//! `compare_exchange` on the authoritative `mate_y`, and a label rises by
//! `fetch_max`.

use crate::trace::PhaseSummary;
use crate::workspace::SolveWorkspace;
use crate::{Matching, Run};
use graft_graph::{BipartiteCsr, VertexId, NONE};
use rayon::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

/// Most vertices in one batch of a pool round (the paper's queue limit).
const QUEUE_LIMIT: usize = 500;

/// Tuning parameters for the push-relabel engine.
#[derive(Clone, Copy, Debug)]
pub struct PushRelabelOptions {
    /// Global relabel after `n / frequency` pushes (paper: 2 on one
    /// thread, 16 on 40 threads).
    pub global_relabel_frequency: f64,
}

impl Default for PushRelabelOptions {
    fn default() -> Self {
        Self {
            global_relabel_frequency: 2.0,
        }
    }
}

/// The engine's view of the mates, converted from the input matching, and
/// of the workspace's labels.
struct Shared<'a> {
    g: &'a BipartiteCsr,
    limit: u32,
    mate_x: &'a [AtomicU32],
    mate_y: &'a [AtomicU32],
    label: &'a [AtomicU32],
}

impl Shared<'_> {
    /// One double push from the free `x`; counts its scans and gain into
    /// `p`, queues the robbed vertex into `requeue`, and returns whether
    /// it pushed. With `CAS` a steal is a `compare_exchange` on `mate_y`,
    /// as concurrent pushes need: the robbed `X` keeps its stale mate until
    /// it pushes again or [`Shared::reseed`] clears it, and a push that
    /// keeps losing its `Y` requeues `x` itself. Without, a steal is a
    /// load and a store and clears the robbed mate at once.
    fn push<const CAS: bool>(
        &self,
        x: VertexId,
        requeue: &mut Vec<VertexId>,
        p: &mut PhaseSummary,
    ) -> bool {
        let nbrs = self.g.x_neighbors(x);
        // A lost CAS means another push landed, so giving up after a few
        // cannot livelock.
        for _ in 0..if CAS { 4 } else { 1 } {
            // Each scan reads the whole list: count it once.
            p.edges_traversed += nbrs.len() as u64;
            let (mut y1, mut d1, mut d2) = (NONE, self.limit, self.limit);
            for &y in nbrs {
                let d = self.label[y as usize].load(Ordering::Relaxed);
                if d < d1 {
                    (y1, d1, d2) = (y, d, d1);
                } else if d < d2 {
                    d2 = d;
                }
            }
            if d1 >= self.limit {
                return false; // unmatchable under these labels: drop x
            }
            // Relaxed suffices: in a round, the CAS alone decides who holds
            // y1, a task writes only its own x's mate, labels are read as
            // bounds, and the join that ends the round orders every write.
            let slot = &self.mate_y[y1 as usize];
            let old = slot.load(Ordering::Relaxed);
            // `y1` names `x` only after `x`'s own push, and `x` is
            // processed only while it is free.
            debug_assert_ne!(old, x, "x={x} is processed while matched");
            if !CAS {
                slot.store(x, Ordering::Relaxed);
                if old != NONE {
                    self.mate_x[old as usize].store(NONE, Ordering::Relaxed);
                }
            } else if slot
                .compare_exchange(old, x, Ordering::AcqRel, Ordering::Relaxed)
                .is_err()
            {
                continue; // another push took y1: rescan
            }
            self.mate_x[x as usize].store(y1, Ordering::Relaxed);
            let d = d2.saturating_add(2).min(self.limit);
            if CAS {
                self.label[y1 as usize].fetch_max(d, Ordering::Relaxed);
            } else {
                self.label[y1 as usize].store(d, Ordering::Relaxed);
            }
            if old == NONE {
                p.augmentations += 1;
            } else {
                requeue.push(old);
            }
            return true;
        }
        requeue.push(x);
        false
    }

    /// One pool round over `active`, in batches of at most [`QUEUE_LIMIT`]
    /// vertices: leaves the requeued vertices in `next` and returns the
    /// pushes. The join that ends it orders every write for the next.
    fn round(&self, active: &[VertexId], next: &mut Vec<VertexId>, p: &mut PhaseSummary) -> u64 {
        let task = |batch: &[VertexId]| {
            let (mut requeue, mut q, mut pushes) = (Vec::new(), PhaseSummary::default(), 0);
            for &x in batch {
                pushes += u64::from(self.push::<true>(x, &mut requeue, &mut q));
            }
            (requeue, q, pushes)
        };
        let tasks: Vec<_> = active.par_chunks(QUEUE_LIMIT).map(task).collect();
        next.clear();
        let mut pushes = 0;
        for (requeue, q, n) in tasks {
            next.extend(requeue);
            p.augmentations += q.augmentations;
            p.edges_traversed += q.edges_traversed;
            pushes += n;
        }
        pushes
    }

    /// Re-seeds `active` with every free `X` of positive degree, clearing
    /// the stale mate of each robbed one on the way (`mate_y` is
    /// authoritative).
    fn reseed(&self, active: &mut Vec<VertexId>) {
        active.clear();
        for (x, mate) in (0..).zip(self.mate_x) {
            let y = mate.load(Ordering::Relaxed);
            if y == NONE || self.mate_y[y as usize].load(Ordering::Relaxed) != x {
                mate.store(NONE, Ordering::Relaxed);
                if self.g.x_degree(x) > 0 {
                    active.push(x);
                }
            }
        }
    }

    /// Exact labels: `label[y]` is the residual distance from `y` to a
    /// free `Y` (1 for a free `y`, +2 per alternating step), `limit` where
    /// there is none. A free `Y` is one whose `mate_y` is `NONE`, and the
    /// BFS steps through `mate_x`, which must hold no stale mate. `queue`
    /// holds each `Y` at most once. Returns the edges scanned.
    fn relabel(&self, queue: &mut Vec<VertexId>) -> u64 {
        queue.clear();
        for (y, (label, mate)) in (0..).zip(self.label.iter().zip(self.mate_y)) {
            let free = mate.load(Ordering::Relaxed) == NONE;
            label.store(if free { 1 } else { self.limit }, Ordering::Relaxed);
            if free {
                queue.push(y);
            }
        }
        let (mut head, mut edges) = (0, 0);
        while let Some(&y) = queue.get(head) {
            head += 1;
            let dy = self.label[y as usize].load(Ordering::Relaxed);
            let nbrs = self.g.y_neighbors(y);
            edges += nbrs.len() as u64;
            for &x in nbrs {
                // The residual arc x→y exists iff (x, y) is unmatched.
                let ym = self.mate_x[x as usize].load(Ordering::Relaxed);
                if ym != NONE && ym != y {
                    let label = &self.label[ym as usize];
                    if label.load(Ordering::Relaxed) == self.limit {
                        label.store(dy + 2, Ordering::Relaxed);
                        queue.push(ym);
                    }
                }
            }
        }
        edges
    }
}

/// Maximum matching by push-relabel with double pushes, second-minimum
/// relabeling and a global relabel after every `n / frequency` pushes,
/// with the run's tracer observing each phase: the span that one global
/// relabel opens, its sweep included. The run's stop is polled before
/// every global relabel, the solve-opening one included.
///
/// In a one-thread solve (`run.inline`: PR, or PR(par) at one thread) the
/// solve runs inline, whatever pool is installed; otherwise on the
/// ambient rayon pool. Inline, the active `X` vertices run in FIFO order
/// with the budget checked before each push; on the pool, in rounds, with
/// the budget checked between them. The matching's mate vectors become
/// the engine's atomics in place, and the labels, relabel queue and active
/// sets live in `ws`: a warm inline solve does not allocate.
pub(crate) fn push_relabel(
    g: &BipartiteCsr,
    m: Matching,
    opts: &PushRelabelOptions,
    run: &mut Run,
    ws: &mut SolveWorkspace,
) -> Matching {
    let (nx, ny) = (g.num_x(), g.num_y());
    let inline = run.inline;
    let n = g.num_vertices().max(1) as f64;
    let budget = ((n / opts.global_relabel_frequency.max(0.01)) as u64).max(1);
    let b = &mut ws.pr;
    b.begin_solve(nx, ny);
    let mut active = std::mem::take(&mut b.active);
    let mut next = std::mem::take(&mut b.next);
    let mut queue = std::mem::take(&mut b.queue);
    let (mx, my) = m.into_mates();
    let mate_x: Vec<AtomicU32> = mx.into_iter().map(AtomicU32::new).collect();
    let mate_y: Vec<AtomicU32> = my.into_iter().map(AtomicU32::new).collect();
    let sh = Shared {
        g,
        limit: (2 * nx.min(ny) + 3) as u32,
        mate_x: &mate_x,
        mate_y: &mate_y,
        label: &b.label[..ny],
    };

    // Inline, `active[head..]` and then `next` form the FIFO queue: when
    // the budget runs out mid-round, the rest of the round runs first
    // after the relabel, then the vertices it requeued. The pool re-seeds
    // before every relabel, which also leaves a stopped solve's mates
    // consistent.
    let (mut head, mut done) = (0, false);
    while !done {
        if !inline || run.stats.phases == 0 {
            sh.reseed(&mut active);
            head = 0;
        }
        if run.poll() {
            break;
        }
        run.begin_phase();
        let mut p = PhaseSummary {
            edges_traversed: sh.relabel(&mut queue),
            ..PhaseSummary::default()
        };
        let mut pushes = 0;
        if inline {
            while pushes < budget {
                if head == active.len() {
                    if next.is_empty() {
                        done = true; // every free X dropped: maximum
                        break;
                    }
                    std::mem::swap(&mut active, &mut next);
                    next.clear();
                    head = 0;
                }
                pushes += u64::from(sh.push::<false>(active[head], &mut next, &mut p));
                head += 1;
            }
        } else {
            // The first round runs against exact labels, over every free X
            // of positive degree. If it pushes nothing, no CAS lost either
            // (a lost CAS means another push landed), so every vertex was
            // dropped under exact labels: no augmenting path is left. Any
            // other first round pushes, so the solve cannot stall. Racing
            // pushes can leave a label above its true distance, so a later
            // round's drops certify nothing until the next relabel.
            for round in 0.. {
                let n = sh.round(&active, &mut next, &mut p);
                std::mem::swap(&mut active, &mut next);
                pushes += n;
                if round == 0 && n == 0 {
                    done = true;
                    break;
                }
                if active.is_empty() || pushes >= budget {
                    break;
                }
            }
        }
        run.end_phase(&mut p);
    }
    (b.active, b.next, b.queue) = (active, next, queue);

    let mx = mate_x.into_iter().map(AtomicU32::into_inner).collect();
    let my = mate_y.into_iter().map(AtomicU32::into_inner).collect();
    run.matching(mx, my)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_maximum;
    use crate::{solve_from_in, Algorithm, RunOutcome, SolveOptions, Stop};

    fn opts() -> PushRelabelOptions {
        PushRelabelOptions::default()
    }

    /// One PR solve through the dispatcher.
    fn serial(g: &BipartiteCsr, m: Matching, opts: &PushRelabelOptions) -> RunOutcome {
        let opts = SolveOptions {
            push_relabel: *opts,
            ..SolveOptions::default()
        };
        let alg = Algorithm::PushRelabel;
        solve_from_in(g, m, alg, &opts, &mut SolveWorkspace::new())
    }

    /// One PR(par) solve in a `threads`-sized pool, through the dispatcher.
    fn par(g: &BipartiteCsr, m: Matching, opts: SolveOptions, threads: usize) -> RunOutcome {
        let opts = SolveOptions { threads, ..opts };
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
        };
        let out = serial(&g, Matching::for_graph(&g), &o);
        assert_eq!(out.matching.cardinality(), 3);
        assert!(out.stats.phases >= 2);
    }

    #[test]
    fn pr_parallel_simple() {
        let g = BipartiteCsr::from_edges(2, 2, &[(0, 0), (1, 0), (1, 1)]);
        let out = par(&g, Matching::for_graph(&g), SolveOptions::default(), 2);
        assert_eq!(out.matching.cardinality(), 2);
        assert!(is_maximum(&g, &out.matching));
    }

    #[test]
    fn pr_parallel_contention() {
        // Heavy stealing: 20,000 X vertices over 13,000 Y vertices with
        // overlap. The pool plans a round by its vertices and splits it
        // down to single batches of `QUEUE_LIMIT`, so the first round's
        // 40 batches run as 16 pieces, four per thread.
        let mut edges = Vec::new();
        for x in 0..20_000u32 {
            for k in 0..3u32 {
                edges.push((x, (x + k * 7) % 13_000));
            }
        }
        let g = BipartiteCsr::from_edges(20_000, 13_000, &edges);
        let out = par(&g, Matching::for_graph(&g), SolveOptions::default(), 4);
        let oracle = crate::hopcroft_karp(&g, Matching::for_graph(&g))
            .matching
            .cardinality();
        assert_eq!(out.matching.cardinality(), oracle);
        assert!(is_maximum(&g, &out.matching));
        // Stopped after its first phase, the solve leaves robbed vertices
        // whose stale mates it must clear before it returns.
        let stop = SolveOptions {
            stop: Stop(&|phases| phases >= 1),
            ..SolveOptions::default()
        };
        let out = par(&g, Matching::for_graph(&g), stop, 4);
        assert!(out.stats.timed_out);
        assert_eq!(out.stats.phases, 1);
        out.matching.validate(&g).unwrap();
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
        let p = par(&g, Matching::for_graph(&g), SolveOptions::default(), 3);
        assert_eq!(s.matching.cardinality(), p.matching.cardinality());
    }

    #[test]
    fn pr_empty_graph() {
        let g = BipartiteCsr::from_edges(0, 0, &[]);
        let out = serial(&g, Matching::for_graph(&g), &opts());
        assert_eq!(out.matching.cardinality(), 0);
    }
}
