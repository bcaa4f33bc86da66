//! Property-based tests over random bipartite graphs: the core
//! correctness invariants of the whole stack.

use ms_bfs_graft::prelude::*;
use proptest::prelude::*;

/// Strategy: a random bipartite graph with up to 40+40 vertices and a
/// variable edge budget (possibly zero, possibly dense).
fn arb_graph() -> impl Strategy<Value = BipartiteCsr> {
    (1usize..40, 1usize..40).prop_flat_map(|(nx, ny)| {
        let max_edges = (nx * ny).min(300);
        proptest::collection::vec((0..nx as u32, 0..ny as u32), 0..=max_edges)
            .prop_map(move |edges| BipartiteCsr::from_edges(nx, ny, &edges))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn all_algorithms_agree_and_certify(g in arb_graph(), seed in 0u64..1000) {
        let opts = SolveOptions { seed, threads: 2, ..SolveOptions::default() };
        let oracle = solve(&g, Algorithm::HopcroftKarp, &opts);
        matching::verify::certify_maximum(&g, &oracle.matching).unwrap();
        for alg in Algorithm::ALL {
            let out = solve(&g, alg, &opts);
            prop_assert_eq!(
                out.matching.cardinality(),
                oracle.matching.cardinality(),
                "{} disagrees", alg.name()
            );
            prop_assert!(out.matching.validate(&g).is_ok());
        }
    }

    #[test]
    fn karp_sipser_is_valid_maximal_and_half(g in arb_graph(), seed in 0u64..100) {
        let ks = matching::init::Initializer::KarpSipser.run(&g, seed);
        prop_assert!(ks.validate(&g).is_ok());
        prop_assert!(matching::init::is_maximal(&g, &ks));
        let max = solve(&g, Algorithm::HopcroftKarp, &SolveOptions::default())
            .matching.cardinality();
        prop_assert!(2 * ks.cardinality() >= max, "KS below half: {} vs {}", ks.cardinality(), max);
    }

    #[test]
    fn karp_sipser_two_is_valid_maximal_and_half(g in arb_graph(), seed in 0u64..100) {
        let ks2 = matching::init::Initializer::KarpSipserTwo.run(&g, seed);
        prop_assert!(ks2.validate(&g).is_ok());
        prop_assert!(matching::init::is_maximal(&g, &ks2));
        let max = solve(&g, Algorithm::HopcroftKarp, &SolveOptions::default())
            .matching.cardinality();
        prop_assert!(
            2 * ks2.cardinality() >= max,
            "KS2 below half: {} vs {}",
            ks2.cardinality(),
            max
        );
        // Solving from the KS2 start still reaches the maximum.
        let out = solve_from_in(&g, ks2, Algorithm::MsBfsGraft, &SolveOptions::default(), &mut SolveWorkspace::new());
        prop_assert_eq!(out.matching.cardinality(), max);
    }

    #[test]
    fn koenig_cover_is_minimum(g in arb_graph()) {
        let m = solve(&g, Algorithm::HopcroftKarp, &SolveOptions::default()).matching;
        let cover = matching::verify::certify_maximum(&g, &m).unwrap();
        prop_assert!(cover.covers(&g));
        prop_assert_eq!(cover.size(), m.cardinality());
    }

    #[test]
    fn augmenting_path_oracle_matches_certificate(g in arb_graph(), seed in 0u64..50) {
        let m = matching::init::Initializer::KarpSipser.run(&g, seed);
        let has_path = matching::verify::find_augmenting_path(&g, &m).is_some();
        let is_max = matching::verify::is_maximum(&g, &m);
        prop_assert_eq!(has_path, !is_max, "Berge's theorem: maximum ⇔ no augmenting path");
    }

    #[test]
    fn mtx_roundtrip(g in arb_graph()) {
        let mut buf = Vec::new();
        graph::mtx::write_mtx(&g, &mut buf).unwrap();
        let h = graph::mtx::read_mtx(buf.as_slice()).unwrap();
        prop_assert_eq!(g, h);
    }

    #[test]
    fn transpose_preserves_matching_number(g in arb_graph()) {
        let a = solve(&g, Algorithm::HopcroftKarp, &SolveOptions::default())
            .matching.cardinality();
        let b = solve(&g.transposed(), Algorithm::HopcroftKarp, &SolveOptions::default())
            .matching.cardinality();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn relabeling_is_isomorphism(g in arb_graph(), seed in 0u64..50) {
        let rel = graph::Relabeling::random(g.num_x(), g.num_y(), seed);
        let h = rel.apply(&g);
        prop_assert_eq!(h.num_edges(), g.num_edges());
        let back = rel.inverse().apply(&h);
        prop_assert_eq!(back, g);
    }

    #[test]
    fn dm_decomposition_invariants(g in arb_graph()) {
        let dm = DmDecomposition::compute(&g);
        // Parts partition the vertex sets.
        let (rh, rs, rv) = dm.row_counts();
        prop_assert_eq!(rh + rs + rv, g.num_x());
        let (ch, cs, cv) = dm.col_counts();
        prop_assert_eq!(ch + cs + cv, g.num_y());
        // The square part carries a perfect matching: equal sizes and all
        // square rows matched to square columns.
        prop_assert_eq!(rs, cs);
        let blocks_total: usize = dm.square_blocks.iter().map(|b| b.len()).sum();
        prop_assert_eq!(blocks_total, rs);
        // The BTF permutation must verify the zero-structure.
        let btf = dm.btf(&g);
        prop_assert!(btf.verify(&g).is_ok());
    }

    #[test]
    fn two_maximum_matchings_differ_by_balanced_components(g in arb_graph(), seed in 0u64..100) {
        // Berge: the symmetric difference of two maximum matchings
        // contains no augmenting path for either, so every component is
        // balanced (equal A/B edge counts).
        let opts_a = SolveOptions { seed, ..SolveOptions::default() };
        let opts_b = SolveOptions {
            seed: seed.wrapping_add(17),
            initializer: matching::init::Initializer::RandomGreedy,
            ..SolveOptions::default()
        };
        let ma = solve(&g, Algorithm::MsBfsGraft, &opts_a).matching;
        let mb = solve(&g, Algorithm::PushRelabel, &opts_b).matching;
        prop_assert_eq!(ma.cardinality(), mb.cardinality());
        for comp in matching::diff::symmetric_difference(&ma, &mb) {
            prop_assert_eq!(
                comp.imbalance(), 0,
                "unbalanced component between two maximum matchings"
            );
        }
    }

    #[test]
    fn diff_components_partition_diff_edges(g in arb_graph(), seed in 0u64..50) {
        let ma = matching::init::Initializer::RandomGreedy.run(&g, seed);
        let mb = matching::init::Initializer::KarpSipser.run(&g, seed);
        let comps = matching::diff::symmetric_difference(&ma, &mb);
        // Count diff edges directly.
        let mut expected = 0usize;
        for x in 0..g.num_x() as u32 {
            let (ya, yb) = (ma.mate_of_x(x), mb.mate_of_x(x));
            if ya != yb {
                expected += usize::from(ya != NONE) + usize::from(yb != NONE);
            }
        }
        let got: usize = comps.iter().map(|c| c.edges.len()).sum();
        prop_assert_eq!(got, expected);
        // No edge appears twice.
        let mut all: Vec<_> = comps
            .iter()
            .flat_map(|c| c.edges.iter().map(|&(x, y, s)| (x, y, s == matching::diff::Side::A)))
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        prop_assert_eq!(all.len(), n, "duplicate edge in decomposition");
    }

    #[test]
    fn parallel_engines_deterministic_cardinality(g in arb_graph()) {
        let opts = SolveOptions { threads: 3, ..SolveOptions::default() };
        let c1 = solve(&g, Algorithm::MsBfsGraftParallel, &opts).matching.cardinality();
        let c2 = solve(&g, Algorithm::MsBfsGraftParallel, &opts).matching.cardinality();
        prop_assert_eq!(c1, c2, "cardinality must be schedule-independent");
    }
}
