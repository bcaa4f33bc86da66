//! Every algorithm against the adversarial instance family: the worst
//! cases each algorithm family is known to stumble on must still end in a
//! certified maximum matching.

use ms_bfs_graft::gen::pathological as path;
use ms_bfs_graft::prelude::*;

fn assert_all_algorithms_max(g: &BipartiteCsr, m0: &Matching, expected: usize, label: &str) {
    let opts = SolveOptions {
        threads: 2,
        ..SolveOptions::default()
    };
    for alg in Algorithm::ALL {
        let out = solve_from_in(g, m0.clone(), alg, &opts, &mut SolveWorkspace::new());
        assert_eq!(
            out.matching.cardinality(),
            expected,
            "{label}: {}",
            alg.name()
        );
        matching::verify::certify_maximum(g, &out.matching)
            .unwrap_or_else(|e| panic!("{label}: {}: {e}", alg.name()));
    }
    // Distributed engine too.
    for ranks in [1, 4] {
        let out = distributed_ms_bfs_graft(g, m0.clone(), ranks);
        assert_eq!(
            out.matching.cardinality(),
            expected,
            "{label}: dist p={ranks}"
        );
    }
}

#[test]
fn long_chain_single_maximal_path() {
    let k = 120;
    let g = path::long_chain(k);
    let mut m0 = Matching::for_graph(&g);
    for (x, y) in path::long_chain_adversarial_matching(k) {
        m0.match_pair(x, y);
    }
    assert_all_algorithms_max(&g, &m0, k, "long_chain");
}

#[test]
fn long_chain_path_length_is_worst_case() {
    let k = 100;
    let g = path::long_chain(k);
    let mut m0 = Matching::for_graph(&g);
    for (x, y) in path::long_chain_adversarial_matching(k) {
        m0.match_pair(x, y);
    }
    let out = solve_from_in(
        &g,
        m0,
        Algorithm::MsBfsGraft,
        &SolveOptions::default(),
        &mut SolveWorkspace::new(),
    );
    assert_eq!(out.stats.augmenting_paths, 1);
    assert_eq!(out.stats.total_augmenting_path_edges as usize, 2 * k - 1);
}

#[test]
fn crown_defeats_first_fit_but_not_the_solvers() {
    let k = 40;
    let g = path::crown(k);
    // First-fit greedy falls into the trap on every pair.
    let greedy = matching::init::greedy_maximal(&g);
    assert_eq!(
        greedy.cardinality(),
        k,
        "greedy matches only the shared vertices"
    );
    assert_all_algorithms_max(&g, &greedy, 2 * k, "crown");
}

#[test]
fn hub_contention_massive_races() {
    let g = path::hub_contention(300, 4);
    let m0 = Matching::for_graph(&g);
    assert_all_algorithms_max(&g, &m0, 4, "hub_contention");
}

#[test]
fn comb_parallel_disjoint_long_paths() {
    let (teeth, len) = (12, 20);
    let g = path::comb(teeth, len);
    let mut m0 = Matching::for_graph(&g);
    for (x, y) in path::comb_adversarial_matching(teeth, len) {
        m0.match_pair(x, y);
    }
    assert_all_algorithms_max(&g, &m0, teeth * len, "comb");
    // One phase of the MS engine must augment all teeth simultaneously.
    let mut m1 = Matching::for_graph(&g);
    for (x, y) in path::comb_adversarial_matching(teeth, len) {
        m1.match_pair(x, y);
    }
    let out = solve_from_in(
        &g,
        m1,
        Algorithm::MsBfsGraftParallel,
        &SolveOptions::default(),
        &mut SolveWorkspace::new(),
    );
    assert_eq!(out.stats.augmenting_paths, teeth as u64);
    assert!(
        out.stats.phases <= 2,
        "disjoint paths should land in one search phase"
    );
}

#[test]
fn grid_ladder_even_cycle() {
    let g = path::grid_ladder(64);
    let m0 = Matching::for_graph(&g);
    assert_all_algorithms_max(&g, &m0, 64, "grid_ladder");
}
