//! Epoch-wrap coverage for [`SolveWorkspace`]: the versioned-visited
//! scheme avoids O(n) clears by bumping an epoch per solve, which means
//! once every 2³² solves the counter hits `u32::MAX` and the *one* full
//! clear must run. That branch is unreachable in bounded time through
//! normal use, so `force_epoch_wrap` (a `#[doc(hidden)]` test hook)
//! pins the counters at the wrap point and these tests drive every
//! engine straight through it, demanding byte-identical outcomes
//! against fresh-workspace solves — before the wrap, across it, and for
//! several solves after.

use matching::{augment_from_free_x, augment_from_x, augment_from_y, AugmentOutcome};
use ms_bfs_graft::prelude::*;

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

fn assert_same_outcome(alg: Algorithm, stage: &str, a: &RunOutcome, b: &RunOutcome) {
    let ctx = format!("{} at stage `{stage}`", alg.name());
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
    assert_eq!(a.stats.edges_traversed, b.stats.edges_traversed, "{ctx}");
    assert_eq!(a.stats.phases, b.stats.phases, "{ctx}");
    assert_eq!(a.stats.augmenting_paths, b.stats.augmenting_paths, "{ctx}");
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

/// Every engine solves identically on a workspace whose very next solve
/// crosses the wrap — dirty marks from a *different* graph included, so
/// the full clear (not epoch staleness) is what hides them. The repair
/// searches, which run on the MS-BFS arena, do too.
#[test]
fn wrap_with_dirty_marks_from_another_graph_is_invisible() {
    on_one_thread(|| {
        let big = gen::preferential_attachment(1600, 1400, 4, 0.6, 42);
        let small = gen::preferential_attachment(700, 900, 3, 0.4, 7);
        let m0_big = matching::init::Initializer::KarpSipser.run(&big, 1);
        let m0_small = matching::init::Initializer::KarpSipser.run(&small, 0xBEEF);
        let opts = SolveOptions {
            initializer: matching::init::Initializer::None,
            ..SolveOptions::default()
        };
        for &alg in &Algorithm::ALL {
            let mut ws = SolveWorkspace::new();
            // Fill the buffers with real marks from the bigger graph, then
            // pin the counters at the wrap point.
            solve_from_in(&big, m0_big.clone(), alg, &opts, &mut ws);
            ws.force_epoch_wrap();
            let fresh = solve_from_in(
                &small,
                m0_small.clone(),
                alg,
                &opts,
                &mut SolveWorkspace::new(),
            );
            let wrapped = solve_from_in(&small, m0_small.clone(), alg, &opts, &mut ws);
            assert_same_outcome(alg, "the wrapping solve", &fresh, &wrapped);
            // Life after the wrap: the restarted epoch stream stays exact.
            for rep in 0..3 {
                let again = solve_from_in(&small, m0_small.clone(), alg, &opts, &mut ws);
                assert_same_outcome(alg, &format!("post-wrap rep {rep}"), &fresh, &again);
            }
        }
        // The repair searches from a maximal matching, which leaves them
        // paths to flip. The first one wraps.
        let m = matching::init::Initializer::Greedy.run(&small, 5);
        let fresh = repair_searches(&small, &m, &mut SolveWorkspace::new());
        let mut ws = SolveWorkspace::new();
        solve_from_in(&big, m0_big.clone(), Algorithm::MsBfsGraft, &opts, &mut ws);
        ws.force_epoch_wrap();
        let wrapped = repair_searches(&small, &m, &mut ws);
        assert_eq!(wrapped.len(), fresh.len());
        for (i, (a, b)) in wrapped.iter().zip(&fresh).enumerate() {
            assert_eq!(a, b, "repair search {i} after the wrap");
        }
    });
}

/// Wrapping repeatedly (every single solve) is pathological but must
/// still be correct — the clear itself must leave no residue.
#[test]
fn back_to_back_wraps_stay_exact() {
    on_one_thread(|| {
        let g = gen::preferential_attachment(1000, 1000, 3, 0.5, 11);
        let m0 = matching::init::Initializer::Greedy.run(&g, 3);
        let opts = SolveOptions {
            initializer: matching::init::Initializer::None,
            ..SolveOptions::default()
        };
        for &alg in &[
            Algorithm::MsBfsGraft,
            Algorithm::MsBfsGraftParallel,
            Algorithm::PothenFan,
            Algorithm::HopcroftKarp,
        ] {
            let fresh = solve_from_in(&g, m0.clone(), alg, &opts, &mut SolveWorkspace::new());
            let mut ws = SolveWorkspace::new();
            for rep in 0..4 {
                ws.force_epoch_wrap();
                let wrapped = solve_from_in(&g, m0.clone(), alg, &opts, &mut ws);
                assert_same_outcome(alg, &format!("wrap {rep}"), &fresh, &wrapped);
            }
        }
    });
}
