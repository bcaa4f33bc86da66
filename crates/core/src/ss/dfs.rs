//! Single-source DFS augmenting-path search (SS-DFS).

use crate::stats::SearchStats;
use crate::{Matching, RunOutcome, Stop};
use graft_graph::{BipartiteCsr, VertexId, NONE};
use std::time::Instant;

/// Maximum matching by repeated single-source DFS with the failed-tree
/// discard rule.
///
/// The DFS is iterative (explicit stack of `(x, next-neighbor-index)`
/// frames) so that the long augmenting paths of Fig. 1c cannot overflow the
/// call stack. As in [`ss_bfs`](super::ss_bfs), failed search trees stay
/// hidden forever; successful searches un-hide only their own vertices.
pub(crate) fn ss_dfs(g: &BipartiteCsr, mut m: Matching, stop: Stop<'_>) -> RunOutcome {
    let start = Instant::now();
    let mut stats = SearchStats {
        initial_cardinality: m.cardinality(),
        ..Default::default()
    };

    let mut visited = vec![false; g.num_y()];
    let mut touched: Vec<VertexId> = Vec::new();
    // DFS frames: the X vertex and the index of the next neighbor to scan.
    let mut stack: Vec<(VertexId, usize)> = Vec::new();

    let roots: Vec<VertexId> = m.unmatched_x().collect();
    for x0 in roots {
        if stop.poll(&mut stats) {
            break;
        }
        stats.phases += 1;
        stack.clear();
        touched.clear();
        stack.push((x0, 0));
        let mut end_y = NONE;

        'search: while let Some(top) = stack.last_mut() {
            let x = top.0;
            let i = top.1;
            top.1 += 1;
            let nbrs = g.x_neighbors(x);
            if i >= nbrs.len() {
                stack.pop();
                continue;
            }
            let y = nbrs[i];
            stats.edges_traversed += 1;
            if visited[y as usize] {
                continue;
            }
            visited[y as usize] = true;
            touched.push(y);
            let mate = m.mate_of_y(y);
            if mate == NONE {
                end_y = y;
                break 'search;
            }
            stack.push((mate, 0));
        }

        if end_y != NONE {
            // The stack spells out the alternating path: interleave the
            // stacked X vertices with the matched edges used to enter them.
            let mut path = Vec::with_capacity(2 * stack.len());
            path.push(stack[0].0);
            for &(x, _) in &stack[1..] {
                path.push(m.mate_of_x(x));
                path.push(x);
            }
            path.push(end_y);
            stats.augmenting_paths += 1;
            stats.total_augmenting_path_edges += (path.len() - 1) as u64;
            m.augment(&path);
            for &y in &touched {
                visited[y as usize] = false;
            }
        }
    }

    stats.final_cardinality = m.cardinality();
    stats.elapsed = start.elapsed();
    RunOutcome { matching: m, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_maximum;

    #[test]
    fn dfs_matches_simple_path() {
        let g = BipartiteCsr::from_edges(2, 2, &[(0, 0), (1, 0), (1, 1)]);
        let out = ss_dfs(&g, Matching::for_graph(&g), Stop::default());
        assert_eq!(out.matching.cardinality(), 2);
        assert!(is_maximum(&g, &out.matching));
    }

    #[test]
    fn dfs_long_alternating_chain() {
        // Chain of length 2k: forces deep DFS with backtracking.
        let k = 200;
        let mut edges = Vec::new();
        for i in 0..k as VertexId {
            edges.push((i, i));
            if i > 0 {
                edges.push((i, i - 1));
            }
        }
        let g = BipartiteCsr::from_edges(k, k, &edges);
        // Adversarial init: match each x_i to y_{i-1}, leaving x0 free and
        // one long augmenting path.
        let mut m0 = Matching::for_graph(&g);
        for i in 1..k as VertexId {
            m0.match_pair(i, i - 1);
        }
        let out = ss_dfs(&g, m0, Stop::default());
        assert_eq!(out.matching.cardinality(), k);
        assert!(is_maximum(&g, &out.matching));
        assert_eq!(out.stats.augmenting_paths, 1);
        assert_eq!(out.stats.total_augmenting_path_edges as usize, 2 * k - 1);
    }

    #[test]
    fn dfs_with_backtracking() {
        // x0 explores a dead branch before finding the free vertex.
        let g = BipartiteCsr::from_edges(3, 3, &[(0, 0), (0, 2), (1, 0), (2, 2), (2, 1)]);
        let mut m0 = Matching::for_graph(&g);
        m0.match_pair(1, 0);
        m0.match_pair(2, 2);
        let out = ss_dfs(&g, m0, Stop::default());
        assert_eq!(out.matching.cardinality(), 3);
        assert!(is_maximum(&g, &out.matching));
    }

    #[test]
    fn dfs_empty_graph() {
        let g = BipartiteCsr::from_edges(2, 2, &[]);
        let out = ss_dfs(&g, Matching::for_graph(&g), Stop::default());
        assert_eq!(out.matching.cardinality(), 0);
    }

    #[test]
    fn dfs_agrees_with_bfs_cardinality() {
        let g = BipartiteCsr::from_edges(
            5,
            5,
            &[
                (0, 0),
                (0, 1),
                (1, 1),
                (1, 2),
                (2, 0),
                (3, 3),
                (3, 4),
                (4, 4),
                (2, 3),
            ],
        );
        let a = ss_dfs(&g, Matching::for_graph(&g), Stop::default())
            .matching
            .cardinality();
        let b = crate::ss::ss_bfs(&g, Matching::for_graph(&g), Stop::default())
            .matching
            .cardinality();
        assert_eq!(a, b);
    }
}
