//! Single-source (SS) augmenting-path algorithms (Algorithm 1 of the
//! paper).
//!
//! SS algorithms search for one augmenting path at a time, from one
//! unmatched `X` vertex. Their crucial property (§II-C): when a search from
//! `x₀` **fails**, no vertex of the search tree `T(x₀)` can lie on any
//! future augmenting path, so the tree is *discarded* — its `visited` flags
//! are never cleared and those vertices are hidden from all later searches.
//! When a search **succeeds**, only the vertices traversed by that search
//! are un-hidden (reset), because augmentation changes the matching inside
//! that tree only.
//!
//! This discard rule is what makes SS-BFS traverse few edges on graphs with
//! low matching number (Fig. 1a) — and it is exactly the property that
//! multi-source algorithms lose, motivating tree grafting.

mod bfs;
mod dfs;

pub(crate) use bfs::ss_bfs;
pub(crate) use dfs::ss_dfs;

#[cfg(test)]
mod tests {
    use crate::init::Initializer;
    use crate::tests_support::solve_from;
    use crate::verify::is_maximum;
    use crate::Algorithm;
    use graft_graph::BipartiteCsr;

    fn hard_graph() -> BipartiteCsr {
        // A graph where greedy choices force long augmenting paths.
        BipartiteCsr::from_edges(
            4,
            4,
            &[(0, 0), (0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)],
        )
    }

    #[test]
    fn both_solvers_reach_maximum() {
        let g = hard_graph();
        for init in [
            Initializer::None,
            Initializer::Greedy,
            Initializer::KarpSipser,
        ] {
            let m0 = init.run(&g, 5);
            let b = solve_from(&g, m0.clone(), Algorithm::SsBfs);
            let d = solve_from(&g, m0, Algorithm::SsDfs);
            assert!(
                is_maximum(&g, &b.matching),
                "ss_bfs not maximum with {init:?}"
            );
            assert!(
                is_maximum(&g, &d.matching),
                "ss_dfs not maximum with {init:?}"
            );
            assert_eq!(b.matching.cardinality(), d.matching.cardinality());
        }
    }

    #[test]
    fn discard_rule_skips_dead_trees() {
        // x1..x3 all compete for the single y0: after the first failure the
        // dead tree is hidden, so later searches traverse almost nothing.
        let g = BipartiteCsr::from_edges(4, 1, &[(0, 0), (1, 0), (2, 0), (3, 0)]);
        let out = solve_from(&g, crate::Matching::for_graph(&g), Algorithm::SsBfs);
        assert_eq!(out.matching.cardinality(), 1);
        // First search matches (0,0) [1 edge]; second traverses y0's
        // adjacency once and fails; the remaining two searches see y0
        // hidden and traverse at most its own edge scan.
        assert!(
            out.stats.edges_traversed <= 8,
            "discard rule should bound traversals, got {}",
            out.stats.edges_traversed
        );
    }
}
