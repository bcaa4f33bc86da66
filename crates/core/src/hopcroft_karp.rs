//! The Hopcroft-Karp algorithm.
//!
//! HK runs in phases; each phase finds a **maximal set of vertex-disjoint
//! shortest augmenting paths** via one BFS (computing the layered distance
//! structure) followed by layered DFS extraction. The number of phases is
//! `O(√n)`, giving the `O(m√n)` bound — the best known for bipartite
//! matching — but, as Fig. 1b of the paper observes, HK typically needs
//! *more* phases than MS-BFS in practice because it only augments along
//! shortest paths.
//!
//! This implementation doubles as the **test oracle**: its output
//! cardinality is certified by the König cover in the integration tests,
//! and every other algorithm is checked against it.

use crate::stats::SearchStats;
use crate::{Matching, RunOutcome, Stop};
use graft_graph::{BipartiteCsr, VertexId, NONE};
use std::collections::VecDeque;
use std::time::Instant;

const INF: u32 = u32::MAX;

/// Maximum matching by Hopcroft-Karp, starting from `m`.
///
/// ```
/// use graft_core::{hopcroft_karp, Matching};
/// use graft_graph::BipartiteCsr;
///
/// let g = BipartiteCsr::from_edges(2, 2, &[(0, 0), (1, 0), (1, 1)]);
/// let out = hopcroft_karp(&g, Matching::for_graph(&g));
/// assert_eq!(out.matching.cardinality(), 2);
/// ```
pub fn hopcroft_karp(g: &BipartiteCsr, m: Matching) -> RunOutcome {
    hopcroft_karp_until(g, m, Stop::default())
}

/// [`hopcroft_karp`], polling `stop` before each layering BFS.
pub(crate) fn hopcroft_karp_until(g: &BipartiteCsr, mut m: Matching, stop: Stop<'_>) -> RunOutcome {
    let start = Instant::now();
    let mut stats = SearchStats {
        initial_cardinality: m.cardinality(),
        ..Default::default()
    };

    let nx = g.num_x();
    let mut dist: Vec<u32> = vec![INF; nx];
    let mut queue: VecDeque<VertexId> = VecDeque::new();

    while !stop.poll(&mut stats) {
        // ---- BFS phase: layered distances over X vertices. ----
        queue.clear();
        for (x, d) in dist.iter_mut().enumerate() {
            if m.is_x_matched(x as VertexId) {
                *d = INF;
            } else {
                *d = 0;
                queue.push_back(x as VertexId);
            }
        }
        // Distance (in X-layers) at which the first free Y vertex appears.
        let mut dist_free = INF;
        while let Some(x) = queue.pop_front() {
            if dist[x as usize] >= dist_free {
                continue; // deeper than the shortest augmenting path
            }
            for &y in g.x_neighbors(x) {
                stats.edges_traversed += 1;
                let mate = m.mate_of_y(y);
                if mate == NONE {
                    if dist_free == INF {
                        dist_free = dist[x as usize] + 1;
                    }
                } else if dist[mate as usize] == INF {
                    dist[mate as usize] = dist[x as usize] + 1;
                    queue.push_back(mate);
                }
            }
        }
        if dist_free == INF {
            break; // no augmenting path: matching is maximum
        }
        stats.phases += 1;

        // ---- DFS phase: extract a maximal set of disjoint shortest paths. ----
        let roots: Vec<VertexId> = m.unmatched_x().collect();
        for x0 in roots {
            if dfs_augment(g, &mut m, &mut dist, dist_free, x0, &mut stats) {
                // Path length in edges = 2·dist_free − 1.
                stats.augmenting_paths += 1;
                stats.total_augmenting_path_edges += (2 * dist_free - 1) as u64;
            }
        }
    }

    stats.final_cardinality = m.cardinality();
    stats.elapsed = start.elapsed();
    RunOutcome { matching: m, stats }
}

/// Iterative layered DFS from `x0`; augments in place on success.
fn dfs_augment(
    g: &BipartiteCsr,
    m: &mut Matching,
    dist: &mut [u32],
    dist_free: u32,
    x0: VertexId,
    stats: &mut SearchStats,
) -> bool {
    // Frame: (x, next neighbor index, y-edge used to enter this frame).
    let mut stack: Vec<(VertexId, usize, VertexId)> = vec![(x0, 0, NONE)];
    while let Some(top) = stack.last_mut() {
        let (x, i, _) = *top;
        top.1 += 1;
        let nbrs = g.x_neighbors(x);
        if i >= nbrs.len() {
            // Exhausted: remove x from this phase's layered structure.
            dist[x as usize] = INF;
            stack.pop();
            continue;
        }
        let y = nbrs[i];
        stats.edges_traversed += 1;
        let mate = m.mate_of_y(y);
        if mate == NONE {
            if dist[x as usize] + 1 != dist_free {
                continue; // only shortest paths may end here
            }
            // Success: flip along the stacked frames.
            let mut cur_y = y;
            while let Some((fx, _, via)) = stack.pop() {
                m.rematch(fx, cur_y);
                dist[fx as usize] = INF; // vertex-disjointness within phase
                cur_y = via;
            }
            return true;
        }
        if dist[mate as usize] == dist[x as usize] + 1 {
            stack.push((mate, 0, y));
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_maximum;

    #[test]
    fn hk_simple() {
        let g = BipartiteCsr::from_edges(2, 2, &[(0, 0), (1, 0), (1, 1)]);
        let out = hopcroft_karp(&g, Matching::for_graph(&g));
        assert_eq!(out.matching.cardinality(), 2);
        assert!(is_maximum(&g, &out.matching));
    }

    #[test]
    fn hk_complete_bipartite() {
        let mut edges = Vec::new();
        for x in 0..6u32 {
            for y in 0..6u32 {
                edges.push((x, y));
            }
        }
        let g = BipartiteCsr::from_edges(6, 6, &edges);
        let out = hopcroft_karp(&g, Matching::for_graph(&g));
        assert_eq!(out.matching.cardinality(), 6);
        // All shortest paths have length 1: a single phase suffices.
        assert_eq!(out.stats.phases, 1);
        assert_eq!(out.stats.total_augmenting_path_edges, 6);
    }

    #[test]
    fn hk_finds_disjoint_paths_per_phase() {
        // Two independent length-3 paths; one phase must augment both.
        let g = BipartiteCsr::from_edges(4, 4, &[(0, 0), (1, 0), (1, 1), (2, 2), (3, 2), (3, 3)]);
        let mut m0 = Matching::for_graph(&g);
        m0.match_pair(1, 0);
        m0.match_pair(3, 2);
        let out = hopcroft_karp(&g, m0);
        assert_eq!(out.matching.cardinality(), 4);
        assert_eq!(out.stats.phases, 1);
        assert_eq!(out.stats.augmenting_paths, 2);
        assert_eq!(out.stats.total_augmenting_path_edges, 6);
    }

    #[test]
    fn hk_increasing_path_lengths() {
        // Chain graph requiring several phases of growing path length when
        // started from an adversarial matching.
        let k = 30;
        let mut edges = Vec::new();
        for i in 0..k as VertexId {
            edges.push((i, i));
            if i > 0 {
                edges.push((i, i - 1));
            }
        }
        let g = BipartiteCsr::from_edges(k, k, &edges);
        let out = hopcroft_karp(&g, Matching::for_graph(&g));
        assert_eq!(out.matching.cardinality(), k);
        assert!(is_maximum(&g, &out.matching));
    }

    #[test]
    fn hk_unbalanced_sides() {
        let g = BipartiteCsr::from_edges(2, 5, &[(0, 4), (1, 4), (1, 0)]);
        let out = hopcroft_karp(&g, Matching::for_graph(&g));
        assert_eq!(out.matching.cardinality(), 2);
        assert!(is_maximum(&g, &out.matching));
    }

    #[test]
    fn hk_no_edges() {
        let g = BipartiteCsr::from_edges(3, 3, &[]);
        let out = hopcroft_karp(&g, Matching::for_graph(&g));
        assert_eq!(out.matching.cardinality(), 0);
        assert_eq!(out.stats.phases, 0);
    }

    #[test]
    fn hk_from_partial_matching() {
        let g = BipartiteCsr::from_edges(3, 3, &[(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)]);
        let mut m0 = Matching::for_graph(&g);
        m0.match_pair(1, 0);
        m0.match_pair(2, 1);
        let out = hopcroft_karp(&g, m0);
        assert_eq!(out.matching.cardinality(), 3);
        assert!(is_maximum(&g, &out.matching));
    }
}
