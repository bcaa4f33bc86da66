//! The Pothen-Fan algorithm (serial): multi-source DFS with lookahead and
//! fairness.
//!
//! PF runs in phases. Each phase performs a DFS from every unmatched `X`
//! vertex; the DFS trees are kept vertex-disjoint by per-phase `visited`
//! flags on `Y`, so each phase augments along a maximal set of
//! vertex-disjoint augmenting paths. Two classic refinements:
//!
//! * **Lookahead** — before descending, a vertex `x` first scans for an
//!   adjacent *free* `Y` vertex using a monotone per-vertex cursor, so the
//!   total lookahead work over the whole run is `O(m)`.
//! * **Fairness** — the DFS scans adjacency lists in alternating direction
//!   on even/odd phases, which avoids pathological revisiting orders
//!   (this is the "PF with fairness" variant the paper benchmarks,
//!   following Duff, Kaya & Uçar).
//!
//! The parallel variant lives in `pothen_fan_par.rs`.

use crate::stats::SearchStats;
use crate::trace::{TraceEvent, Tracer};
use crate::workspace::{pack, SolveWorkspace};
use crate::{Matching, RunOutcome, Stop};
use graft_graph::{BipartiteCsr, VertexId, NONE};
use std::time::Instant;

/// Maximum matching by serial Pothen-Fan with fairness and lookahead,
/// with `tracer` observing each phase (PF has no BFS levels, so phases are
/// the only inner structure it reports). Warm solves reuse the visited
/// stamps, lookahead cursors, root list and DFS stack of `ws`, performing
/// no heap allocations.
pub(crate) fn pothen_fan(
    g: &BipartiteCsr,
    mut m: Matching,
    stop: Stop<'_>,
    tracer: &Tracer,
    ws: &mut SolveWorkspace,
) -> RunOutcome {
    let start = Instant::now();
    let mut stats = SearchStats {
        initial_cardinality: m.cardinality(),
        ..Default::default()
    };

    // Phase-stamped visited flags, extended with the workspace epoch:
    // visited[y] == (epoch, phase) means visited in the current phase.
    // Avoids an O(ny) clear per phase *and* per solve.
    let epoch = ws.pf.begin_solve(g.num_x(), g.num_y());
    let wsr = &mut ws.pf;
    let mut roots = std::mem::take(&mut wsr.roots);
    let mut stack = std::mem::take(&mut wsr.stack);
    let mut phase: u32 = 0;

    loop {
        phase += 1;
        let mut augmented_this_phase = 0u64;
        roots.clear();
        roots.extend(m.unmatched_x());
        if roots.is_empty() || stop.poll(&mut stats) {
            break;
        }
        let phase_t0 = tracer.is_enabled().then(Instant::now);
        let edges_at_start = stats.edges_traversed;
        let path_edges_at_start = stats.total_augmenting_path_edges;
        let fair_reverse = phase.is_multiple_of(2);
        for &x0 in &roots {
            if dfs_lookahead(
                g,
                &mut m,
                &mut wsr.visited,
                &mut wsr.lookahead,
                epoch,
                phase,
                fair_reverse,
                x0,
                &mut stack,
                &mut stats,
            ) {
                augmented_this_phase += 1;
            }
        }
        stats.phases += 1;
        stats.augmenting_paths += augmented_this_phase;
        tracer.emit(|| TraceEvent::PhaseEnd {
            phase: u64::from(stats.phases),
            levels: 0,
            bottom_up_levels: 0,
            frontier_peak: 0,
            augmentations: augmented_this_phase,
            path_edges: stats.total_augmenting_path_edges - path_edges_at_start,
            edges_traversed: stats.edges_traversed - edges_at_start,
            elapsed_us: phase_t0.map_or(0, |t| t.elapsed().as_micros() as u64),
        });
        if augmented_this_phase == 0 {
            break;
        }
    }
    wsr.roots = roots;
    wsr.stack = stack;

    stats.final_cardinality = m.cardinality();
    stats.elapsed = start.elapsed();
    RunOutcome { matching: m, stats }
}

/// One DFS-with-lookahead search from `x0`; augments in place on success.
#[allow(clippy::too_many_arguments)]
fn dfs_lookahead(
    g: &BipartiteCsr,
    m: &mut Matching,
    visited: &mut [u64],
    lookahead: &mut [u64],
    epoch: u32,
    phase: u32,
    fair_reverse: bool,
    x0: VertexId,
    stack: &mut Vec<(VertexId, usize, VertexId)>,
    stats: &mut SearchStats,
) -> bool {
    let stamp = pack(epoch, phase);
    // Frame: (x, scan cursor, y used to enter this frame).
    stack.clear();
    stack.push((x0, 0, NONE));
    while !stack.is_empty() {
        let (x, _, _) = *stack.last().unwrap();
        let nbrs = g.x_neighbors(x);

        // Lookahead: monotone scan of x's adjacency for a free Y vertex.
        // The cursor is epoch-packed; a stale one from an earlier solve
        // reads as 0, restarting the O(m)-total scan for this solve.
        let mut cursor = if (lookahead[x as usize] >> 32) as u32 == epoch {
            lookahead[x as usize] as u32
        } else {
            0
        };
        let mut free_y = NONE;
        while (cursor as usize) < nbrs.len() {
            let y = nbrs[cursor as usize];
            cursor += 1;
            stats.edges_traversed += 1;
            if !m.is_y_matched(y) {
                free_y = y;
                break;
            }
        }
        lookahead[x as usize] = pack(epoch, cursor);
        if free_y != NONE {
            // Mark it visited so sibling searches in this phase skip it,
            // and flip the path spelled out by the stack.
            visited[free_y as usize] = stamp;
            let mut cur_y = free_y;
            let mut edges = 1u64;
            while let Some((fx, _, via)) = stack.pop() {
                m.rematch(fx, cur_y);
                cur_y = via;
                if cur_y != NONE {
                    edges += 2;
                }
            }
            stats.total_augmenting_path_edges += edges;
            return true;
        }

        // Regular DFS step with fairness direction.
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
            stats.edges_traversed += 1;
            if visited[y as usize] == stamp {
                continue;
            }
            visited[y as usize] = stamp;
            let mate = m.mate_of_y(y);
            debug_assert_ne!(mate, NONE, "free vertices are caught by lookahead");
            stack.push((mate, 0, y));
            advanced = true;
            break;
        }
        if !advanced {
            stack.pop();
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_maximum;

    fn run_pf(g: &BipartiteCsr, m: Matching) -> RunOutcome {
        pothen_fan(
            g,
            m,
            Stop::default(),
            &Tracer::disabled(),
            &mut SolveWorkspace::new(),
        )
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
}
