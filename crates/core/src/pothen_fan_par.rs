//! Multithreaded Pothen-Fan (the parallel DFS competitor of the paper,
//! after Azad, Halappanavar, Rajamanickam, Boman, Khan & Pothen).
//!
//! Parallelization is **coarse-grained**: in each phase, every unmatched
//! `X` vertex is searched by a rayon task running the same
//! lookahead-DFS as the serial variant. Vertex-disjointness of the
//! concurrent DFS trees is enforced with phase-stamped atomic `visited`
//! claims on `Y` vertices, and free vertices are claimed by a
//! `compare_exchange` on the `Y`-side mate slot, so two searches can never
//! finish on the same free vertex.
//!
//! Interior path flips only touch `Y` vertices the search claimed and `X`
//! vertices entered through them, so the relaxed stores cannot race; the
//! rayon phase barrier publishes them to the next phase. The one subtlety
//! is a *freshly matched* pair: between a winner's free-vertex CAS and the
//! completion of its path flip, `mate_y[y]` already names an `X` whose own
//! slot still points elsewhere — descending through such a pair would put
//! that `X` on two stacks at once. The descent therefore adopts a mate
//! only when `mate_x[mate] == y` confirms the pair is stable (see the
//! comment at the check). This granularity
//! is exactly why the paper finds PF load-imbalanced (§V-B): one long DFS
//! serializes the tail of every phase — the behavior the variability
//! experiment reproduces.

use crate::stats::SearchStats;
use crate::{Matching, RunOutcome};
use graft_graph::{BipartiteCsr, VertexId, NONE};
use rayon::prelude::*;
use std::time::Instant;

// Under `--cfg graft_check` the mate/visited/lookahead atomics become their
// graft-check instrumented twins, so the model suite explores the real
// search protocol. Outside the checker they pass straight through to std.
#[cfg(not(graft_check))]
use std::sync::atomic::{AtomicU32, Ordering};

#[cfg(graft_check)]
use graft_check::sync::atomic::{AtomicU32, Ordering};

/// Shared search state: one atomic slot per vertex for mates, phase-stamped
/// visited claims, and the per-`X` lookahead cursors. Public only so the
/// graft-check model suite can drive `dfs_task` directly; fields stay
/// private and normal builds cannot reach the type at all.
pub struct Shared<'a> {
    g: &'a BipartiteCsr,
    mate_x: Vec<AtomicU32>,
    mate_y: Vec<AtomicU32>,
    visited: Vec<AtomicU32>,
    lookahead: Vec<AtomicU32>,
}

/// Maximum matching by multithreaded Pothen-Fan with fairness + lookahead,
/// on the ambient rayon pool (the dispatcher installs a sized one around
/// the call).
pub(crate) fn pothen_fan_parallel(g: &BipartiteCsr, m: Matching) -> RunOutcome {
    let start = Instant::now();
    let mut stats = SearchStats {
        initial_cardinality: m.cardinality(),
        ..Default::default()
    };

    let (mx, my) = m.into_mates();
    let sh = Shared {
        g,
        mate_x: mx.into_iter().map(AtomicU32::new).collect(),
        mate_y: my.into_iter().map(AtomicU32::new).collect(),
        visited: (0..g.num_y()).map(|_| AtomicU32::new(0)).collect(),
        lookahead: (0..g.num_x()).map(|_| AtomicU32::new(0)).collect(),
    };

    let mut phase: u32 = 0;
    loop {
        phase += 1;
        let roots: Vec<VertexId> = (0..g.num_x() as VertexId)
            .filter(|&x| sh.mate_x[x as usize].load(Ordering::Relaxed) == NONE)
            .collect();
        if roots.is_empty() {
            break;
        }
        let fair_reverse = phase.is_multiple_of(2);

        // (augments, path edges, traversed edges) per task, reduced.
        let (aug, path_edges, traversed) = roots
            .par_iter()
            .map(|&x0| dfs_task(&sh, phase, fair_reverse, x0))
            .reduce(
                || (0u64, 0u64, 0u64),
                |a, b| (a.0 + b.0, a.1 + b.1, a.2 + b.2),
            );
        stats.phases += 1;
        stats.augmenting_paths += aug;
        stats.total_augmenting_path_edges += path_edges;
        stats.edges_traversed += traversed;
        if aug == 0 {
            break;
        }
    }

    let mate_x: Vec<VertexId> = sh
        .mate_x
        .iter()
        .map(|a| a.load(Ordering::Relaxed))
        .collect();
    let mate_y: Vec<VertexId> = sh
        .mate_y
        .iter()
        .map(|a| a.load(Ordering::Relaxed))
        .collect();
    let matching = Matching::from_mates(mate_x, mate_y);
    stats.final_cardinality = matching.cardinality();
    stats.elapsed = start.elapsed();
    RunOutcome { matching, stats }
}

/// One concurrent lookahead-DFS; returns `(augmented, path_edges, edges_traversed)`.
fn dfs_task(sh: &Shared<'_>, phase: u32, fair_reverse: bool, x0: VertexId) -> (u64, u64, u64) {
    let g = sh.g;
    let mut traversed = 0u64;
    let mut stack: Vec<(VertexId, usize, VertexId)> = vec![(x0, 0, NONE)];

    while !stack.is_empty() {
        let (x, _, _) = *stack.last().unwrap();
        let nbrs = g.x_neighbors(x);

        // Lookahead with a shared monotone cursor. Invariant: every entry
        // strictly below the cursor is matched (and stays matched), so no
        // free vertex can ever be skipped.
        let la = &sh.lookahead[x as usize];
        let mut claimed_free = NONE;
        loop {
            let i = la.load(Ordering::Relaxed) as usize;
            if i >= nbrs.len() {
                break;
            }
            la.store(i as u32 + 1, Ordering::Relaxed);
            let y = nbrs[i];
            traversed += 1;
            if sh.mate_y[y as usize].load(Ordering::Relaxed) != NONE {
                continue;
            }
            // Claim the free vertex: the CAS loser rescans.
            if sh.mate_y[y as usize]
                .compare_exchange(NONE, x, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
            {
                claimed_free = y;
                break;
            }
        }
        if claimed_free != NONE {
            // Flip the path spelled out by the stack. Every interior vertex
            // is exclusively owned by this search (visited / free-CAS
            // claims), so plain stores suffice.
            let mut cur_y = claimed_free;
            let mut edges = 1u64;
            while let Some((fx, _, via)) = stack.pop() {
                sh.mate_y[cur_y as usize].store(fx, Ordering::Relaxed);
                sh.mate_x[fx as usize].store(cur_y, Ordering::Relaxed);
                cur_y = via;
                if cur_y != NONE {
                    edges += 2;
                }
            }
            return (1, edges, traversed);
        }

        // DFS descent with phase-stamped visited claims.
        let top = stack.last_mut().unwrap();
        let mut advanced = false;
        while top.1 < nbrs.len() {
            let i = top.1;
            top.1 += 1;
            let y = if fair_reverse {
                nbrs[nbrs.len() - 1 - i]
            } else {
                nbrs[i]
            };
            traversed += 1;
            let v = &sh.visited[y as usize];
            let seen = v.load(Ordering::Relaxed);
            if seen == phase {
                continue;
            }
            if v.compare_exchange(seen, phase, Ordering::AcqRel, Ordering::Relaxed)
                .is_err()
            {
                continue; // another search claimed y concurrently
            }
            let mate = sh.mate_y[y as usize].load(Ordering::Relaxed);
            if mate == NONE {
                // y became free-claimed... cannot happen: free vertices are
                // never claimed via `visited`; they are matched by the
                // free-CAS before any mate load can observe NONE here only
                // if y was free all along — in that case claim it now.
                if sh.mate_y[y as usize]
                    .compare_exchange(NONE, x, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
                {
                    let mut cur_y = y;
                    let mut edges = 1u64;
                    while let Some((fx, _, via)) = stack.pop() {
                        sh.mate_y[cur_y as usize].store(fx, Ordering::Relaxed);
                        sh.mate_x[fx as usize].store(cur_y, Ordering::Relaxed);
                        cur_y = via;
                        if cur_y != NONE {
                            edges += 2;
                        }
                    }
                    return (1, edges, traversed);
                }
                continue;
            }
            // Only descend through a *stable* matched edge. If `mate` does
            // not point back at `y`, another search free-claimed `y` an
            // instant ago and is still flipping its path: adopting the X
            // side now would put one vertex on two stacks and interleave
            // two flips over the same mate slots. A relaxed load is enough:
            // `mate_x[mate] == y` is only ever written *after* the claim
            // that set `mate_y[y] = mate`, and once both slots agree the
            // claiming search never writes either again — while a stale
            // mismatch merely makes us skip a matched edge the next phase
            // will see consistently.
            // Mutation knob (model-check builds only): when set, descend
            // without the check — reintroducing the adoption race the
            // graft-check regression suite must find.
            #[cfg(graft_check)]
            let check_stability =
                !check_api::DISABLE_STABILITY_CHECK.load(std::sync::atomic::Ordering::Relaxed);
            #[cfg(not(graft_check))]
            let check_stability = true;
            if check_stability && sh.mate_x[mate as usize].load(Ordering::Relaxed) != y {
                continue;
            }
            stack.push((mate, 0, y));
            advanced = true;
            break;
        }
        if !advanced {
            stack.pop();
        }
    }
    (0, 0, traversed)
}

/// Test-only surface for the graft-check model suite: build the shared
/// search state, run one `dfs_task` exactly as a pool task would, and
/// snapshot the mate arrays for post-execution invariant checks.
#[cfg(graft_check)]
pub mod check_api {
    use super::*;

    /// When set, `dfs_task` descends through freshly matched pairs without
    /// confirming `mate_x[mate] == y` — reintroducing the adoption race the
    /// stability check exists to prevent. A plain std atomic on purpose:
    /// this is test configuration, not modeled state, so reading it adds no
    /// scheduling points.
    pub static DISABLE_STABILITY_CHECK: std::sync::atomic::AtomicBool =
        std::sync::atomic::AtomicBool::new(false);

    /// Shared search state for `g` starting from an empty matching.
    pub fn make_shared(g: &BipartiteCsr) -> Shared<'_> {
        Shared {
            g,
            mate_x: (0..g.num_x()).map(|_| AtomicU32::new(NONE)).collect(),
            mate_y: (0..g.num_y()).map(|_| AtomicU32::new(NONE)).collect(),
            visited: (0..g.num_y()).map(|_| AtomicU32::new(0)).collect(),
            lookahead: (0..g.num_x()).map(|_| AtomicU32::new(0)).collect(),
        }
    }

    /// One phase-1 search from root `x0` (forward fairness), exactly the
    /// closure a pool task runs.
    pub fn run_search(sh: &Shared<'_>, x0: VertexId) -> (u64, u64, u64) {
        dfs_task(sh, 1, false, x0)
    }

    /// Snapshot `(mate_x, mate_y)`.
    pub fn mates(sh: &Shared<'_>) -> (Vec<VertexId>, Vec<VertexId>) {
        (
            sh.mate_x
                .iter()
                .map(|a| a.load(Ordering::Relaxed))
                .collect(),
            sh.mate_y
                .iter()
                .map(|a| a.load(Ordering::Relaxed))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_maximum;
    use crate::{solve_from_in, Algorithm, SolveOptions, SolveWorkspace};

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
        let serial = crate::pothen_fan::pothen_fan(
            &g,
            Matching::for_graph(&g),
            &crate::Tracer::disabled(),
            &mut SolveWorkspace::new(),
        );
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
