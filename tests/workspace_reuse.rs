//! Differential tests for workspace reuse: a single [`SolveWorkspace`]
//! recycled across many solves — different graphs, different engines,
//! interleaved — must produce byte-identical matchings and search
//! statistics to fresh-workspace solves. This is the contract that lets
//! graft-svc keep one workspace per worker for the life of the process.

use matching::{augment_from_free_x, augment_from_x, augment_from_y, AugmentOutcome};
use ms_bfs_graft::prelude::*;

/// Every engine, the parallel ones included: on one thread all of them
/// are deterministic, and each must be workspace-oblivious in its
/// observable behavior.
const ENGINES: &[Algorithm] = &[
    Algorithm::SsDfs,
    Algorithm::SsBfs,
    Algorithm::PothenFan,
    Algorithm::PothenFanParallel,
    Algorithm::HopcroftKarp,
    Algorithm::MsBfs,
    Algorithm::MsBfsDirOpt,
    Algorithm::MsBfsGraft,
    Algorithm::MsBfsGraftParallel,
    Algorithm::PushRelabel,
    Algorithm::PushRelabelParallel,
];

/// Three graphs of deliberately different shapes and sizes, ordered
/// big → small → big so reuse crosses both shrinking and growing
/// transitions (the epoch scheme must hide every stale entry, including
/// out-of-range vertex ids left by the larger graph).
fn graphs() -> Vec<BipartiteCsr> {
    vec![
        gen::preferential_attachment(1800, 1500, 4, 0.6, 42),
        BipartiteCsr::from_edges(
            4,
            4,
            &[(0, 0), (0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)],
        ),
        gen::preferential_attachment(1000, 1300, 3, 0.3, 7),
    ]
}

/// Runs `body` on an installed 1-thread pool. Byte-exact equality is a
/// property of the sequential schedule only: at two or more threads the
/// parallel engines race (CAS claims, the benign `leaf` race) and may
/// return a different maximum matching each run. Every test here states
/// that contract itself, so it holds whatever `GRAFT_THREADS` says.
fn on_one_thread<R>(body: impl FnOnce() -> R) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap()
        .install(body)
}

fn assert_same_outcome(alg: Algorithm, round: usize, gi: usize, a: &RunOutcome, b: &RunOutcome) {
    let ctx = format!("{} round {round} graph {gi}", alg.name());
    assert_eq!(
        a.matching.mates_x(),
        b.matching.mates_x(),
        "{ctx}: mates_x diverged"
    );
    assert_eq!(
        a.matching.mates_y(),
        b.matching.mates_y(),
        "{ctx}: mates_y diverged"
    );
    // Counter-for-counter equality; wall-clock fields are excluded.
    assert_eq!(a.stats.edges_traversed, b.stats.edges_traversed, "{ctx}");
    assert_eq!(a.stats.phases, b.stats.phases, "{ctx}");
    assert_eq!(a.stats.augmenting_paths, b.stats.augmenting_paths, "{ctx}");
    assert_eq!(
        a.stats.total_augmenting_path_edges, b.stats.total_augmenting_path_edges,
        "{ctx}"
    );
    assert_eq!(
        a.stats.initial_cardinality, b.stats.initial_cardinality,
        "{ctx}"
    );
    assert_eq!(
        a.stats.final_cardinality, b.stats.final_cardinality,
        "{ctx}"
    );
}

/// A fixed sequence of the repair searches of a dynamic matching from
/// `m0` on `ws`: from a free `X`, from every free `X` and from a free
/// `Y`, three times. Each search gives its outcome and the mates after it.
fn repair_searches(
    g: &BipartiteCsr,
    m0: &Matching,
    ws: &mut SolveWorkspace,
) -> Vec<(AugmentOutcome, Vec<VertexId>)> {
    let mut m = m0.clone();
    let mut out = Vec::new();
    for round in 0..3 {
        let x = m.unmatched_x().nth(round);
        if let Some(x) = x {
            out.push((augment_from_x(g, &mut m, x, ws), m.mates_x().to_vec()));
        }
        out.push((augment_from_free_x(g, &mut m, ws), m.mates_x().to_vec()));
        let y = m.unmatched_y().filter(|&y| g.y_degree(y) > 0).nth(round);
        if let Some(y) = y {
            out.push((augment_from_y(g, &mut m, y, ws), m.mates_x().to_vec()));
        }
    }
    out
}

/// One workspace, every engine, three graphs, three rounds: 99 recycled
/// solves all matching their fresh twins exactly. The repair searches,
/// which share the MS-BFS arena, run on the same workspace after each
/// graph's solves and match theirs too.
#[test]
fn recycled_workspace_matches_fresh_solves_exactly() {
    on_one_thread(|| {
        let gs = graphs();
        let inits: Vec<Matching> = gs
            .iter()
            .map(|g| matching::init::Initializer::KarpSipser.run(g, 0xBEEF))
            .collect();
        // Maximal matchings leave the searches paths to flip.
        let maximal: Vec<Matching> = gs
            .iter()
            .map(|g| matching::init::Initializer::Greedy.run(g, 5))
            .collect();
        let opts = SolveOptions {
            initializer: matching::init::Initializer::None,
            ..SolveOptions::default()
        };
        let mut ws = SolveWorkspace::new();
        for round in 0..3 {
            // Interleave: engines in the inner loop so consecutive solves on
            // the shared workspace switch engine AND graph every time.
            for (gi, (g, m0)) in gs.iter().zip(&inits).enumerate() {
                for &alg in ENGINES {
                    let fresh =
                        solve_from_in(g, m0.clone(), alg, &opts, &mut SolveWorkspace::new());
                    let reused = solve_from_in(g, m0.clone(), alg, &opts, &mut ws);
                    assert_same_outcome(alg, round, gi, &fresh, &reused);
                }
                let fresh = repair_searches(g, &maximal[gi], &mut SolveWorkspace::new());
                let reused = repair_searches(g, &maximal[gi], &mut ws);
                assert_eq!(reused, fresh, "repair searches, round {round} graph {gi}");
            }
        }
    });
}

/// Three consecutive recycled solves of the *same* instance are
/// reproducible among themselves (no state leaks between back-to-back
/// runs on an already-warm workspace).
#[test]
fn consecutive_warm_solves_are_reproducible() {
    on_one_thread(|| {
        let g = gen::preferential_attachment(1200, 1200, 4, 0.5, 11);
        let m0 = matching::init::Initializer::Greedy.run(&g, 3);
        let opts = SolveOptions {
            initializer: matching::init::Initializer::None,
            ..SolveOptions::default()
        };
        for &alg in ENGINES {
            let mut ws = SolveWorkspace::new();
            let first = solve_from_in(&g, m0.clone(), alg, &opts, &mut ws);
            for rep in 1..3 {
                let again = solve_from_in(&g, m0.clone(), alg, &opts, &mut ws);
                assert_same_outcome(alg, rep, 0, &first, &again);
            }
        }
    });
}

/// `solve_from_in` from the configured initializer agrees with `solve`
/// for a recycled workspace, and shrink() between solves is harmless.
#[test]
fn solve_in_and_shrink_roundtrip() {
    on_one_thread(|| {
        let g = gen::preferential_attachment(900, 1100, 3, 0.4, 5);
        let opts = SolveOptions::default();
        let mut ws = SolveWorkspace::new();
        let m0 = opts.initializer.run(&g, opts.seed);
        for &alg in &[Algorithm::MsBfsGraft, Algorithm::PothenFan] {
            let fresh = solve(&g, alg, &opts);
            let reused = solve_from_in(&g, m0.clone(), alg, &opts, &mut ws);
            assert_eq!(fresh.matching.mates_x(), reused.matching.mates_x());
            ws.shrink();
            let after_shrink = solve_from_in(&g, m0.clone(), alg, &opts, &mut ws);
            assert_eq!(fresh.matching.mates_x(), after_shrink.matching.mates_x());
        }
    });
}
