//! Single-source BFS augmenting-path search (SS-BFS).

use crate::stats::SearchStats;
use crate::{Matching, RunOutcome, Stop};
use graft_graph::{BipartiteCsr, VertexId, NONE};
use std::collections::VecDeque;
use std::time::Instant;

/// Maximum matching by repeated single-source BFS with the failed-tree
/// discard rule.
///
/// For each unmatched `x₀` in id order, grows an alternating BFS tree over
/// previously unvisited `Y` vertices. On success the matching is augmented
/// along the discovered shortest (within the tree) path and the visited
/// flags touched by *this* search are cleared; on failure the flags stay
/// set, permanently discarding the dead tree (§II-C).
pub(crate) fn ss_bfs(g: &BipartiteCsr, mut m: Matching, stop: Stop<'_>) -> RunOutcome {
    let start = Instant::now();
    let mut stats = SearchStats {
        initial_cardinality: m.cardinality(),
        ..Default::default()
    };

    let mut visited = vec![false; g.num_y()];
    let mut parent_y: Vec<VertexId> = vec![NONE; g.num_y()];
    let mut queue: VecDeque<VertexId> = VecDeque::new();
    let mut touched: Vec<VertexId> = Vec::new();

    let roots: Vec<VertexId> = m.unmatched_x().collect();
    for x0 in roots {
        if stop.poll(&mut stats) {
            break;
        }
        stats.phases += 1;
        queue.clear();
        touched.clear();
        queue.push_back(x0);
        let mut end_y = NONE;

        'search: while let Some(x) = queue.pop_front() {
            for &y in g.x_neighbors(x) {
                stats.edges_traversed += 1;
                if visited[y as usize] {
                    continue;
                }
                visited[y as usize] = true;
                touched.push(y);
                parent_y[y as usize] = x;
                let mate = m.mate_of_y(y);
                if mate == NONE {
                    end_y = y;
                    break 'search;
                }
                queue.push_back(mate);
            }
        }

        if end_y != NONE {
            let path = reconstruct(&m, &parent_y, end_y);
            stats.augmenting_paths += 1;
            stats.total_augmenting_path_edges += (path.len() - 1) as u64;
            m.augment(&path);
            // Success: un-hide the vertices this search visited.
            for &y in &touched {
                visited[y as usize] = false;
            }
        }
        // Failure: leave `visited` set — T(x₀) is discarded forever.
    }

    stats.final_cardinality = m.cardinality();
    stats.elapsed = start.elapsed();
    RunOutcome { matching: m, stats }
}

/// Walks parent/mate pointers back from the unmatched endpoint `end_y` and
/// returns the interleaved path `[x₀, y₁, …, end_y]`.
pub(crate) fn reconstruct(m: &Matching, parent_y: &[VertexId], end_y: VertexId) -> Vec<VertexId> {
    let mut path = vec![end_y];
    let mut x = parent_y[end_y as usize];
    loop {
        path.push(x);
        let y = m.mate_of_x(x);
        if y == NONE {
            break;
        }
        path.push(y);
        x = parent_y[y as usize];
    }
    path.reverse();
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::is_maximum;

    #[test]
    fn perfect_matching_on_cycle() {
        // 8-cycle x0-y0-x1-y1-x2-y2-x3-y3-x0.
        let g = BipartiteCsr::from_edges(
            4,
            4,
            &[
                (0, 0),
                (1, 0),
                (1, 1),
                (2, 1),
                (2, 2),
                (3, 2),
                (3, 3),
                (0, 3),
            ],
        );
        let out = ss_bfs(&g, Matching::for_graph(&g), Stop::default());
        assert_eq!(out.matching.cardinality(), 4);
        assert!(is_maximum(&g, &out.matching));
    }

    #[test]
    fn stats_are_filled() {
        let g = BipartiteCsr::from_edges(2, 2, &[(0, 0), (1, 0), (1, 1)]);
        let out = ss_bfs(&g, Matching::for_graph(&g), Stop::default());
        assert_eq!(out.stats.initial_cardinality, 0);
        assert_eq!(out.stats.final_cardinality, 2);
        assert_eq!(out.stats.phases, 2);
        assert_eq!(out.stats.augmenting_paths, 2);
        assert!(out.stats.edges_traversed >= 2);
    }

    #[test]
    fn respects_initial_matching() {
        let g = BipartiteCsr::from_edges(2, 2, &[(0, 0), (1, 0), (1, 1)]);
        let mut m0 = Matching::for_graph(&g);
        m0.match_pair(1, 0); // forces an augmentation through x1
        let out = ss_bfs(&g, m0, Stop::default());
        assert_eq!(out.matching.cardinality(), 2);
        assert!(is_maximum(&g, &out.matching));
    }

    #[test]
    fn unmatchable_graph() {
        let g = BipartiteCsr::from_edges(3, 1, &[(0, 0), (1, 0), (2, 0)]);
        let out = ss_bfs(&g, Matching::for_graph(&g), Stop::default());
        assert_eq!(out.matching.cardinality(), 1);
        assert!(is_maximum(&g, &out.matching));
    }

    #[test]
    fn finds_length_five_path() {
        // Forces the path x0-y0-x1-y1-x2-y2 after greedy-ish init.
        let g = BipartiteCsr::from_edges(3, 3, &[(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)]);
        let mut m0 = Matching::for_graph(&g);
        m0.match_pair(1, 0);
        m0.match_pair(2, 1);
        let out = ss_bfs(&g, m0, Stop::default());
        assert_eq!(out.matching.cardinality(), 3);
        assert_eq!(out.stats.total_augmenting_path_edges, 5);
    }
}
