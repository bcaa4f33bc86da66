//! The Pothen-Fan engine (PF and PF(par)): multi-source DFS with lookahead
//! and fairness, serial and multithreaded.
//!
//! Each phase runs a DFS from every unmatched `X` vertex. Per-phase
//! `visited` stamps on `Y` keep the DFS trees vertex-disjoint, so a phase
//! augments along a maximal set of vertex-disjoint augmenting paths.
//! *Lookahead*: before descending, `x` scans for a free `Y` with a
//! monotone per-vertex cursor (O(m) work over the run), and stamps the
//! one it finds visited so that no later search of the phase enters the
//! path it ends. *Fairness*: the descent scans adjacency lists in
//! alternating direction on even and odd phases (the "PF with fairness"
//! the paper benchmarks, after Duff, Kaya & Uçar).
//!
//! One kernel, `Shared::dfs`, serves both algorithms. PF, and PF(par) in a
//! one-thread pool, run each phase inline on the calling thread, root by
//! root, where a claim is a load and a store. Otherwise each root is a
//! rayon task (the parallel PF of Azad, Halappanavar, Rajamanickam, Boman,
//! Khan & Pothen): a visited `Y` and a free `Y` are claimed by
//! `compare_exchange`, and a matched pair is adopted only once it is
//! stable (see the check). A path flip touches only its search's claims,
//! and the join that ends the phase publishes it. One long DFS can
//! serialize the tail of a phase: the load imbalance the paper reports
//! (§V-B) and the variability experiment reproduces.

use crate::stats::SearchStats;
use crate::trace::{emit_phase, PhaseSummary, Tracer};
use crate::workspace::{pack, Frame, SolveWorkspace};
use crate::{Matching, RunOutcome, Stop};
use graft_graph::{BipartiteCsr, VertexId, NONE};
use rayon::prelude::*;
use std::time::Instant;

// Under `--cfg graft_check` the mates, stamps and cursors are graft-check's
// instrumented atomics, so the model suite explores the real search
// protocol. Outside the checker they are std's.
#[cfg(not(graft_check))]
pub(crate) use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

#[cfg(graft_check)]
pub(crate) use graft_check::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// The engine's view of the mates, converted from the input matching, and
/// of the workspace's `(epoch << 32) | value` visited stamps and lookahead
/// cursors.
struct Shared<'a> {
    g: &'a BipartiteCsr,
    epoch: u32,
    mate_x: &'a [AtomicU32],
    mate_y: &'a [AtomicU32],
    visited: &'a [AtomicU64],
    lookahead: &'a [AtomicU64],
}

impl Shared<'_> {
    /// One lookahead-DFS from the root `x0` in the phase stamped `stamp`;
    /// flips the augmenting path it finds and counts its work into `p`.
    /// With `CAS` a claim is a `compare_exchange`, as concurrent searches
    /// need, else a load and a store. Kept out of line: inlined into the
    /// phase loop, one-thread PF ran about 5% slower on road_usa:small
    /// (2-vCPU host).
    #[inline(never)]
    fn dfs<const CAS: bool>(
        &self,
        stamp: u64,
        fair_reverse: bool,
        x0: VertexId,
        stack: &mut Vec<Frame>,
        p: &mut PhaseSummary,
    ) {
        // Counted in a local, which stays in a register, and added to `p`
        // on the way out.
        let mut edges = 0;
        let (ok, err) = (Ordering::AcqRel, Ordering::Relaxed);
        stack.clear();
        stack.push((x0, 0, NONE));
        'frames: while let Some(top) = stack.last_mut() {
            let (x, nbrs) = (top.0, self.g.x_neighbors(top.0));
            // Lookahead: resume x's cursor (a stale one from an earlier
            // solve reads as 0) and claim the first free Y; a CAS loser
            // scans on. Only the search holding x moves its cursor.
            let slot = &self.lookahead[x as usize];
            let packed = slot.load(Ordering::Relaxed);
            let fresh = (packed >> 32) as u32 == self.epoch;
            let mut cursor = if fresh { packed as u32 } else { 0 };
            let mut free_y = NONE;
            while (cursor as usize) < nbrs.len() {
                let y = nbrs[cursor as usize];
                cursor += 1;
                edges += 1;
                let mate = &self.mate_y[y as usize];
                if mate.load(Ordering::Relaxed) == NONE
                    && (!CAS || mate.compare_exchange(NONE, x, ok, err).is_ok())
                {
                    free_y = y;
                    break;
                }
            }
            slot.store(pack(self.epoch, cursor), Ordering::Relaxed);
            if free_y != NONE {
                self.visited[free_y as usize].store(stamp, Ordering::Relaxed);
                p.augmentations += 1;
                p.path_edges += self.flip(free_y, stack);
                break;
            }
            // Descend, scanning in the phase's fairness direction. Every
            // neighbour is below x's exhausted lookahead cursor, so it was
            // matched when scanned, and a matched Y stays matched.
            while top.1 < nbrs.len() {
                let i = top.1;
                top.1 += 1;
                let y = nbrs[if fair_reverse { nbrs.len() - 1 - i } else { i }];
                edges += 1;
                let flag = &self.visited[y as usize];
                let seen = flag.load(Ordering::Relaxed);
                if seen == stamp {
                    continue;
                }
                if !CAS {
                    flag.store(stamp, Ordering::Relaxed);
                } else if flag.compare_exchange(seen, stamp, ok, err).is_err() {
                    continue; // another search claimed y concurrently
                }
                let mate = self.mate_y[y as usize].load(Ordering::Relaxed);
                debug_assert_ne!(mate, NONE, "free vertices are caught by lookahead");
                // Adopt only a *stable* pair. If `mate` does not point back
                // at `y`, another search free-claimed `y` an instant ago and
                // is still flipping its path: adopting `mate` would put it
                // on two stacks. A relaxed load suffices: `mate_x[mate] = y`
                // is written only after the claim that set `mate_y[y]`, and
                // a stale mismatch merely skips an edge the next phase sees.
                #[cfg(graft_check)]
                let check =
                    !check_api::DISABLE_STABILITY_CHECK.load(std::sync::atomic::Ordering::Relaxed);
                #[cfg(not(graft_check))]
                let check = true;
                if CAS && check && self.mate_x[mate as usize].load(Ordering::Relaxed) != y {
                    continue;
                }
                stack.push((mate, 0, y));
                continue 'frames;
            }
            stack.pop();
        }
        p.edges_traversed += edges;
    }

    /// Flips the augmenting path that `stack` spells out down to the free
    /// `y`, emptying the stack; returns its length in edges. Its vertices
    /// are the search's own claims, so plain stores suffice.
    fn flip(&self, mut y: VertexId, stack: &mut Vec<Frame>) -> u64 {
        let mut edges = 1;
        while let Some((x, _, via)) = stack.pop() {
            self.mate_y[y as usize].store(x, Ordering::Relaxed);
            self.mate_x[x as usize].store(y, Ordering::Relaxed);
            y = via;
            edges += if y == NONE { 0 } else { 2 };
        }
        edges
    }
}

/// Maximum matching by Pothen-Fan with fairness and lookahead, from `m`,
/// with `tracer` observing each phase (PF has no BFS levels).
///
/// With `parallel` false (PF) every phase runs inline, whatever pool is
/// installed; otherwise (PF(par)) on the ambient rayon pool, or inline if
/// it has one thread. The matching's mate vectors become the engine's
/// atomics in place, and the stamps, cursors, roots and inline stack live
/// in `ws`: a warm inline solve does not allocate.
pub(crate) fn pothen_fan(
    g: &BipartiteCsr,
    m: Matching,
    parallel: bool,
    stop: Stop<'_>,
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
    let b = &mut ws.pf;
    let epoch = b.begin_solve(nx, ny);
    let mut roots = std::mem::take(&mut b.roots);
    let mut stack = std::mem::take(&mut b.stack);
    let (mx, my) = m.into_mates();
    let mate_x: Vec<AtomicU32> = mx.into_iter().map(AtomicU32::new).collect();
    let mate_y: Vec<AtomicU32> = my.into_iter().map(AtomicU32::new).collect();
    let sh = Shared {
        g,
        epoch,
        mate_x: &mate_x,
        mate_y: &mate_y,
        visited: &b.visited[..ny],
        lookahead: &b.lookahead[..nx],
    };

    for phase in 1.. {
        roots.clear();
        roots.extend(
            (0..nx as VertexId).filter(|&x| sh.mate_x[x as usize].load(Ordering::Relaxed) == NONE),
        );
        if roots.is_empty() || stop.poll(&mut stats) {
            break;
        }
        let phase_t0 = tracer.is_enabled().then(Instant::now);
        let (stamp, fair_reverse) = (pack(epoch, phase), phase.is_multiple_of(2));
        let mut p = if inline {
            let mut p = PhaseSummary::default();
            for &x0 in &roots {
                sh.dfs::<false>(stamp, fair_reverse, x0, &mut stack, &mut p);
            }
            p
        } else {
            // Per-task counts and stacks; `reduce` sums the counts.
            let search = |(mut p, mut stack): (PhaseSummary, Vec<Frame>), &x0| {
                sh.dfs::<true>(stamp, fair_reverse, x0, &mut stack, &mut p);
                (p, stack)
            };
            let tasks = roots.par_iter().fold(Default::default, search);
            tasks
                .map(|(p, _)| p)
                .reduce(PhaseSummary::default, |a, b| PhaseSummary {
                    augmentations: a.augmentations + b.augmentations,
                    path_edges: a.path_edges + b.path_edges,
                    edges_traversed: a.edges_traversed + b.edges_traversed,
                    ..a
                })
        };
        stats.phases += 1;
        stats.augmenting_paths += p.augmentations;
        stats.total_augmenting_path_edges += p.path_edges;
        stats.edges_traversed += p.edges_traversed;
        p.phase = u64::from(stats.phases);
        p.elapsed_us = phase_t0.map_or(0, |t| t.elapsed().as_micros() as u64);
        emit_phase(tracer, &p);
        if p.augmentations == 0 {
            break;
        }
    }
    (b.roots, b.stack) = (roots, stack);

    let mx = mate_x.into_iter().map(AtomicU32::into_inner).collect();
    let my = mate_y.into_iter().map(AtomicU32::into_inner).collect();
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

/// Test-only surface for the graft-check model suite: own the search
/// state of a solve from the empty matching, run one phase-1 search
/// exactly as a pool task would, and read the mates back.
#[cfg(graft_check)]
pub mod check_api {
    use super::*;

    /// When set, the pool-side descent adopts a pair without confirming
    /// `mate_x[mate] == y`, reintroducing the adoption race. A plain std
    /// atomic on purpose: this is test configuration, not modeled state,
    /// so reading it adds no scheduling points.
    pub static DISABLE_STABILITY_CHECK: std::sync::atomic::AtomicBool =
        std::sync::atomic::AtomicBool::new(false);

    /// The arrays a solve on a graph lends the engine, owned: `mate_x` and
    /// `mate_y`, then the visited stamps and lookahead cursors.
    pub struct Arena<'a>(&'a BipartiteCsr, [Vec<AtomicU32>; 2], [Vec<AtomicU64>; 2]);

    /// Search state for `g` from the empty matching.
    pub fn make_shared(g: &BipartiteCsr) -> Arena<'_> {
        let (nx, ny) = (g.num_x(), g.num_y());
        let mates = [nx, ny].map(|n| (0..n).map(|_| AtomicU32::new(NONE)).collect());
        let marks = [ny, nx].map(|n| (0..n).map(|_| AtomicU64::new(0)).collect());
        Arena(g, mates, marks)
    }

    /// One phase-1 search from root `x0` (forward fairness) in epoch 1;
    /// returns `(augmented, path_edges, edges_traversed)`.
    pub fn run_search(a: &Arena<'_>, x0: VertexId) -> (u64, u64, u64) {
        let Arena(g, [mate_x, mate_y], [visited, lookahead]) = a;
        let (epoch, mut p) = (1, PhaseSummary::default());
        let sh = Shared {
            g,
            epoch,
            mate_x,
            mate_y,
            visited,
            lookahead,
        };
        sh.dfs::<true>(pack(epoch, 1), false, x0, &mut Vec::new(), &mut p);
        (p.augmentations, p.path_edges, p.edges_traversed)
    }

    /// Snapshot `(mate_x, mate_y)`.
    pub fn mates(a: &Arena<'_>) -> (Vec<VertexId>, Vec<VertexId>) {
        let load = |m: &[AtomicU32]| m.iter().map(|v| v.load(Ordering::Relaxed)).collect();
        let Arena(_, [mate_x, mate_y], _) = a;
        (load(mate_x), load(mate_y))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_maximum;
    use crate::{solve_from_in, Algorithm, SolveOptions};

    fn run_pf(g: &BipartiteCsr, m: Matching) -> RunOutcome {
        pothen_fan(
            g,
            m,
            false,
            Stop::default(),
            &Tracer::disabled(),
            &mut SolveWorkspace::new(),
        )
    }

    /// One PF(par) solve in a `threads`-sized pool, through the dispatcher.
    fn pf_par(g: &BipartiteCsr, m: Matching, threads: usize) -> RunOutcome {
        let opts = SolveOptions {
            threads,
            ..SolveOptions::default()
        };
        let alg = Algorithm::PothenFanParallel;
        solve_from_in(g, m, alg, &opts, &mut SolveWorkspace::new())
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
    fn pf_simple_path() {
        let g = BipartiteCsr::from_edges(2, 2, &[(0, 0), (1, 0), (1, 1)]);
        let out = run_pf(&g, Matching::for_graph(&g));
        assert_eq!(out.matching.cardinality(), 2);
        assert!(is_maximum(&g, &out.matching));
    }

    #[test]
    fn pf_lookahead_finds_free_immediately() {
        // Complete bipartite: lookahead matches everything in one phase
        // with length-1 paths.
        let mut edges = Vec::new();
        for x in 0..5u32 {
            for y in 0..5u32 {
                edges.push((x, y));
            }
        }
        let g = BipartiteCsr::from_edges(5, 5, &edges);
        let out = run_pf(&g, Matching::for_graph(&g));
        assert_eq!(out.matching.cardinality(), 5);
        assert_eq!(out.stats.total_augmenting_path_edges, 5);
    }

    #[test]
    fn pf_long_chain_from_adversarial_start() {
        let k = 60;
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
        let out = run_pf(&g, m0);
        assert_eq!(out.matching.cardinality(), k);
        assert!(is_maximum(&g, &out.matching));
    }

    #[test]
    fn pf_terminates_on_deficient_graph() {
        // 4 X vertices all competing for 2 Y vertices.
        let g = BipartiteCsr::from_edges(4, 2, &[(0, 0), (1, 0), (2, 0), (2, 1), (3, 1)]);
        let out = run_pf(&g, Matching::for_graph(&g));
        assert_eq!(out.matching.cardinality(), 2);
        assert!(is_maximum(&g, &out.matching));
    }

    #[test]
    fn pf_agrees_with_hk() {
        let g = BipartiteCsr::from_edges(
            6,
            6,
            &[
                (0, 1),
                (0, 2),
                (1, 0),
                (1, 3),
                (2, 2),
                (3, 4),
                (4, 4),
                (4, 5),
                (5, 5),
                (2, 0),
            ],
        );
        let pf = run_pf(&g, Matching::for_graph(&g));
        let hk = crate::hopcroft_karp(&g, Matching::for_graph(&g));
        assert_eq!(pf.matching.cardinality(), hk.matching.cardinality());
    }

    #[test]
    fn pf_stats_phases_positive() {
        let g = BipartiteCsr::from_edges(2, 2, &[(0, 0), (1, 1)]);
        let out = run_pf(&g, Matching::for_graph(&g));
        assert!(out.stats.phases >= 1);
        assert_eq!(out.stats.augmenting_paths, 2);
    }

    #[test]
    fn parallel_pf_simple() {
        let g = BipartiteCsr::from_edges(2, 2, &[(0, 0), (1, 0), (1, 1)]);
        let out = pf_par(&g, Matching::for_graph(&g), 2);
        assert_eq!(out.matching.cardinality(), 2);
        assert!(is_maximum(&g, &out.matching));
    }

    #[test]
    fn parallel_pf_chain() {
        let g = chain(100);
        let out = pf_par(&g, Matching::for_graph(&g), 4);
        assert_eq!(out.matching.cardinality(), 100);
        assert!(is_maximum(&g, &out.matching));
    }

    #[test]
    fn parallel_pf_contention_on_scarce_y() {
        // Many X vertices racing for 3 free Y vertices.
        let mut edges = Vec::new();
        for x in 0..50u32 {
            for y in 0..3u32 {
                edges.push((x, y));
            }
        }
        let g = BipartiteCsr::from_edges(50, 3, &edges);
        let out = pf_par(&g, Matching::for_graph(&g), 4);
        assert_eq!(out.matching.cardinality(), 3);
        assert!(is_maximum(&g, &out.matching));
    }

    #[test]
    fn parallel_pf_matches_serial_cardinality() {
        let g = chain(64);
        let serial = run_pf(&g, Matching::for_graph(&g));
        let par = pf_par(&g, Matching::for_graph(&g), 3);
        assert_eq!(serial.matching.cardinality(), par.matching.cardinality());
    }

    #[test]
    fn parallel_pf_from_initializer() {
        let g = chain(40);
        let m0 = crate::init::Initializer::KarpSipser.run(&g, 3);
        let out = pf_par(&g, m0, 2);
        assert!(is_maximum(&g, &out.matching));
    }

    #[test]
    fn parallel_pf_ambient_pool() {
        let g = chain(16);
        let out = pf_par(&g, Matching::for_graph(&g), 0);
        assert_eq!(out.matching.cardinality(), 16);
    }
}
