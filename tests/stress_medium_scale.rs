//! Opt-in stress tests at medium scale (hundreds of thousands of
//! vertices). Excluded from the default run; execute with
//!
//! ```text
//! cargo test --release --test stress_medium_scale -- --ignored
//! ```

use ms_bfs_graft::prelude::*;

#[test]
#[ignore = "medium-scale stress; run with --release -- --ignored"]
fn medium_suite_all_parallel_algorithms() {
    for entry in gen::suite::suite() {
        let g = entry.build(gen::Scale::Medium);
        let m0 = matching::init::Initializer::RandomGreedy.run(&g, 1);
        let opts = SolveOptions {
            threads: 0,
            ..SolveOptions::default()
        };
        let reference = solve_from_in(
            &g,
            m0.clone(),
            Algorithm::MsBfsGraftParallel,
            &opts,
            &mut SolveWorkspace::new(),
        );
        matching::verify::certify_maximum(&g, &reference.matching)
            .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
        for alg in [Algorithm::PothenFanParallel, Algorithm::PushRelabelParallel] {
            let out = solve_from_in(&g, m0.clone(), alg, &opts, &mut SolveWorkspace::new());
            assert_eq!(
                out.matching.cardinality(),
                reference.matching.cardinality(),
                "{} on {}",
                alg.name(),
                entry.name
            );
        }
        println!(
            "{}: |V|={} |E|={} |M|={} in {:?}",
            entry.name,
            g.num_vertices(),
            g.num_edges(),
            reference.matching.cardinality(),
            reference.stats.elapsed
        );
    }
}

#[test]
#[ignore = "medium-scale stress; run with --release -- --ignored"]
fn medium_distributed_agrees() {
    let g = gen::suite::by_name("cit-Patents")
        .unwrap()
        .build(gen::Scale::Medium);
    let m0 = matching::init::Initializer::RandomGreedy.run(&g, 1);
    let shared = solve_from_in(
        &g,
        m0.clone(),
        Algorithm::MsBfsGraftParallel,
        &SolveOptions::default(),
        &mut SolveWorkspace::new(),
    );
    let dist = distributed_ms_bfs_graft(&g, m0, 8);
    assert_eq!(shared.matching.cardinality(), dist.matching.cardinality());
    matching::verify::certify_maximum(&g, &dist.matching).unwrap();
}

#[test]
#[ignore = "medium-scale stress; run with --release -- --ignored"]
fn million_edge_chain_worst_case() {
    let k = 500_000;
    let g = gen::pathological::long_chain(k);
    let mut m0 = Matching::for_graph(&g);
    for (x, y) in gen::pathological::long_chain_adversarial_matching(k) {
        m0.match_pair(x, y);
    }
    let out = solve_from_in(
        &g,
        m0,
        Algorithm::MsBfsGraft,
        &SolveOptions::default(),
        &mut SolveWorkspace::new(),
    );
    assert_eq!(out.matching.cardinality(), k);
    assert_eq!(out.stats.total_augmenting_path_edges as usize, 2 * k - 1);
}
