//! Cross-crate integration: every algorithm, on every suite analog, from
//! every initializer, must produce a certified maximum matching of the
//! same cardinality.

use ms_bfs_graft::prelude::*;

#[test]
fn suite_graphs_all_algorithms_certified() {
    for entry in gen::suite::suite() {
        let g = entry.build(gen::Scale::Tiny);
        let opts = SolveOptions {
            threads: 2,
            ..SolveOptions::default()
        };
        let oracle = solve(&g, Algorithm::HopcroftKarp, &opts)
            .matching
            .cardinality();
        for alg in Algorithm::ALL {
            let out = solve(&g, alg, &opts);
            assert_eq!(
                out.matching.cardinality(),
                oracle,
                "{} on {} disagrees with HK",
                alg.name(),
                entry.name
            );
            matching::verify::certify_maximum(&g, &out.matching).unwrap_or_else(|e| {
                panic!("{} on {}: certificate failed: {e}", alg.name(), entry.name)
            });
        }
    }
}

#[test]
fn initializers_do_not_change_the_answer() {
    let entry = gen::suite::by_name("cit-Patents").unwrap();
    let g = entry.build(gen::Scale::Tiny);
    let mut cards = Vec::new();
    for init in [
        matching::init::Initializer::None,
        matching::init::Initializer::Greedy,
        matching::init::Initializer::KarpSipser,
    ] {
        let opts = SolveOptions {
            initializer: init,
            threads: 2,
            ..SolveOptions::default()
        };
        let out = solve(&g, Algorithm::MsBfsGraftParallel, &opts);
        matching::verify::certify_maximum(&g, &out.matching).unwrap();
        cards.push(out.matching.cardinality());
    }
    assert!(cards.windows(2).all(|w| w[0] == w[1]), "{cards:?}");
}

#[test]
fn relabeling_preserves_matching_number() {
    let entry = gen::suite::by_name("wikipedia").unwrap();
    let g = entry.build(gen::Scale::Tiny);
    let base = solve(&g, Algorithm::MsBfsGraft, &SolveOptions::default())
        .matching
        .cardinality();
    for seed in 0..3 {
        let rel = graph::Relabeling::random(g.num_x(), g.num_y(), seed);
        let h = rel.apply(&g);
        let c = solve(&h, Algorithm::MsBfsGraft, &SolveOptions::default())
            .matching
            .cardinality();
        assert_eq!(
            c, base,
            "isomorphic graph must have the same matching number"
        );
    }
}

#[test]
fn stats_are_consistent_across_suite() {
    for entry in gen::suite::suite() {
        let g = entry.build(gen::Scale::Tiny);
        for threads in [1, 2] {
            let opts = SolveOptions {
                threads,
                ..SolveOptions::default()
            };
            for alg in Algorithm::ALL {
                let s = solve(&g, alg, &opts).stats;
                let ctx = format!("{} on {} at {threads} threads", alg.name(), entry.name);
                assert_eq!(
                    s.final_cardinality - s.initial_cardinality,
                    s.augmenting_paths as usize,
                    "{ctx}: every augmenting path adds exactly one edge"
                );
                // SS, PF and HK can run no phase from a Karp-Sipser start;
                // the MS engine always runs a certifying one and PR always
                // opens with a global relabel.
                let always_a_phase = matches!(
                    alg,
                    Algorithm::MsBfs
                        | Algorithm::MsBfsDirOpt
                        | Algorithm::MsBfsGraft
                        | Algorithm::MsBfsGraftParallel
                        | Algorithm::PushRelabel
                        | Algorithm::PushRelabelParallel
                );
                assert!(!always_a_phase || s.phases >= 1, "{ctx}");
                // PR pushes record no path edges. Augmenting paths have odd
                // length >= 1.
                let records_paths =
                    !matches!(alg, Algorithm::PushRelabel | Algorithm::PushRelabelParallel);
                if records_paths && s.augmenting_paths > 0 {
                    assert!(s.total_augmenting_path_edges >= s.augmenting_paths, "{ctx}");
                    assert!(s.avg_augmenting_path_len() >= 1.0, "{ctx}");
                }
            }
        }
    }
}

/// From a maximum matching every algorithm, at one and two threads,
/// finds no augmenting path, completes, and returns its input mate for
/// mate: the fact that lets the service keep a warm solve's result in
/// place of the cached matching it started from.
#[test]
fn a_solve_from_a_maximum_matching_changes_no_mate() {
    for entry in gen::suite::suite() {
        let g = entry.build(gen::Scale::Tiny);
        let max = matching::hopcroft_karp(&g, Matching::for_graph(&g)).matching;
        for threads in [1, 2] {
            let opts = SolveOptions {
                threads,
                ..SolveOptions::default()
            };
            for alg in Algorithm::ALL {
                let ctx = format!("{} on {} at {threads} threads", alg.name(), entry.name);
                let out = solve_from_in(&g, max.clone(), alg, &opts, &mut SolveWorkspace::new());
                assert_eq!(out.stats.augmenting_paths, 0, "{ctx}");
                assert!(!out.stats.timed_out, "{ctx}");
                assert!(out.matching == max, "{ctx}: the mates moved");
            }
        }
    }
}

#[test]
fn mtx_roundtrip_preserves_matching_number() {
    let entry = gen::suite::by_name("amazon0312").unwrap();
    let g = entry.build(gen::Scale::Tiny);
    let mut buf = Vec::new();
    graph::mtx::write_mtx(&g, &mut buf).unwrap();
    let h = graph::mtx::read_mtx(buf.as_slice()).unwrap();
    assert_eq!(g, h);
    let a = solve(&g, Algorithm::HopcroftKarp, &SolveOptions::default())
        .matching
        .cardinality();
    let b = solve(&h, Algorithm::HopcroftKarp, &SolveOptions::default())
        .matching
        .cardinality();
    assert_eq!(a, b);
}
