//! Integration tests for the *paper-level* claims that are hardware
//! independent: class structure of the suite, grafting's edge-traversal
//! savings, frontier-shape effects, and the discard-rule advantage of SS
//! algorithms — the mechanisms behind Figs. 1, 7 and 8.

use ms_bfs_graft::prelude::*;
use std::sync::Arc;

/// Solve from the empty matching: the phase dynamics of the paper's
/// figures only appear when the solver has real augmenting work to do
/// (Karp-Sipser solves the synthetic analogs outright — see DESIGN.md §5).
fn solve_stats(g: &BipartiteCsr, alg: Algorithm) -> matching::stats::SearchStats {
    let opts = SolveOptions {
        initializer: matching::init::Initializer::None,
        ..SolveOptions::default()
    };
    solve(g, alg, &opts).stats
}

/// Solves with a memory trace sink and returns the outcome together with
/// the Fig. 8 record of the run: `(phase, frontier size, bottom_up)` for
/// every BFS level, read from the `Level` trace events.
fn solve_levels(
    g: &BipartiteCsr,
    alg: Algorithm,
    opts: &SolveOptions,
) -> (RunOutcome, Vec<(u64, u64, bool)>) {
    let sink = Arc::new(matching::trace::MemorySink::new());
    let tracer = Tracer::to_sink(sink.clone());
    let out = solve_from_traced_in(g, None, alg, opts, &tracer, &mut SolveWorkspace::new());
    let levels = sink
        .take()
        .into_iter()
        .filter_map(|ev| match ev {
            matching::trace::TraceEvent::Level {
                phase,
                frontier,
                bottom_up,
                ..
            } => Some((phase, frontier, bottom_up)),
            _ => None,
        })
        .collect();
    (out, levels)
}

#[test]
fn suite_classes_have_expected_matching_fractions() {
    for entry in gen::suite::suite() {
        let g = entry.build(gen::Scale::Tiny);
        let out = solve(&g, Algorithm::HopcroftKarp, &SolveOptions::default());
        let frac = out.matching.matching_fraction(&g);
        match entry.class {
            gen::suite::GraphClass::Scientific => assert!(
                frac > 0.9,
                "{}: scientific class must have near-perfect matching, got {frac:.3}",
                entry.name
            ),
            gen::suite::GraphClass::ScaleFree => assert!(
                frac > 0.4,
                "{}: scale-free class keeps a substantial matching, got {frac:.3}",
                entry.name
            ),
            gen::suite::GraphClass::Web => assert!(
                frac < 0.6,
                "{}: web class must have low matching number, got {frac:.3}",
                entry.name
            ),
        }
    }
}

#[test]
fn grafting_saves_traversals_on_low_matching_graphs() {
    // The paper's central claim (Fig. 7): on the web class, grafting
    // avoids rebuilding dead trees, cutting edge traversals.
    for name in ["wikipedia", "wb-edu", "web-Google"] {
        let g = gen::suite::by_name(name).unwrap().build(gen::Scale::Tiny);
        let plain = solve_stats(&g, Algorithm::MsBfs);
        let graft = solve_stats(&g, Algorithm::MsBfsGraft);
        assert!(
            (graft.edges_traversed as f64) < 0.9 * plain.edges_traversed as f64,
            "{name}: grafting should cut traversals meaningfully: {} vs {}",
            graft.edges_traversed,
            plain.edges_traversed
        );
    }
}

#[test]
fn ms_bfs_uses_fewer_phases_than_hopcroft_karp() {
    // Fig. 1b: HK augments only along shortest paths, so it needs at
    // least as many phases as MS-BFS on skewed instances.
    let g = gen::suite::by_name("cit-Patents")
        .unwrap()
        .build(gen::Scale::Tiny);
    let hk = solve_stats(&g, Algorithm::HopcroftKarp);
    let ms = solve_stats(&g, Algorithm::MsBfsGraft);
    assert!(
        ms.phases <= hk.phases + 1,
        "MS-BFS-Graft phases ({}) should not exceed HK phases ({}) by more than slack",
        ms.phases,
        hk.phases
    );
}

#[test]
fn dfs_paths_are_longer_than_bfs_paths() {
    // Fig. 1c: BFS-based algorithms find shorter augmenting paths than
    // DFS-based ones.
    let g = gen::suite::by_name("cit-Patents")
        .unwrap()
        .build(gen::Scale::Tiny);
    let dfs = solve_stats(&g, Algorithm::SsDfs);
    let bfs = solve_stats(&g, Algorithm::SsBfs);
    if dfs.augmenting_paths > 0 && bfs.augmenting_paths > 0 {
        assert!(
            dfs.avg_augmenting_path_len() >= bfs.avg_augmenting_path_len(),
            "DFS avg path {} < BFS avg path {}",
            dfs.avg_augmenting_path_len(),
            bfs.avg_augmenting_path_len()
        );
    }
}

#[test]
fn grafted_frontiers_start_large_and_shrink() {
    // Fig. 8: with grafting, later phases begin with a large frontier
    // that monotonically shrinks; without grafting each phase starts with
    // exactly the unmatched vertices.
    let g = gen::suite::by_name("coPapersDBLP")
        .unwrap()
        .build(gen::Scale::Tiny);
    let opts = SolveOptions {
        initializer: matching::init::Initializer::None,
        ..SolveOptions::default()
    };
    let (_, history) = solve_levels(&g, Algorithm::MsBfsGraft, &opts);
    assert!(!history.is_empty());
    // Find a grafted phase (phase ≥ 2) and check its first level is its
    // maximum (the shrink-only shape).
    let max_phase = history.iter().map(|s| s.0).max().unwrap();
    let mut saw_grafted_phase = false;
    for phase in 2..=max_phase {
        let levels: Vec<u64> = history
            .iter()
            .filter(|s| s.0 == phase)
            .map(|s| s.1)
            .collect();
        if levels.len() >= 2 {
            let first = levels[0];
            let peak = *levels.iter().max().unwrap();
            if first == peak {
                saw_grafted_phase = true;
            }
        }
    }
    // On this scale-free analog grafting kicks in after the first couple
    // of phases; at least one phase must show the shrink-only shape
    // (tolerant: the decision heuristic may rebuild in early phases).
    if max_phase >= 2 {
        assert!(
            saw_grafted_phase,
            "no phase showed the grafted large-frontier shape in {max_phase} phases"
        );
    }
}

#[test]
fn ss_bfs_discard_rule_beats_ms_bfs_on_web_graphs() {
    // §II-C / Fig. 1a: on low-matching graphs, SS-BFS's discard rule
    // traverses fewer edges than plain MS-BFS (which rebuilds dead trees).
    let g = gen::suite::by_name("wb-edu")
        .unwrap()
        .build(gen::Scale::Tiny);
    let ss = solve_stats(&g, Algorithm::SsBfs);
    let ms = solve_stats(&g, Algorithm::MsBfs);
    assert!(
        ss.edges_traversed < ms.edges_traversed,
        "SS-BFS ({}) should beat plain MS-BFS ({}) on low-matching graphs",
        ss.edges_traversed,
        ms.edges_traversed
    );
}

#[test]
fn alpha_parameter_affects_direction_choice() {
    // With α → 0 the engine always goes bottom-up on the first level
    // (frontier ≥ unvisited/α trivially); with a huge α it stays top-down.
    let g = gen::suite::by_name("coPapersDBLP")
        .unwrap()
        .build(gen::Scale::Tiny);
    let run = |alpha: f64| {
        let opts = SolveOptions {
            initializer: matching::init::Initializer::None,
            ms_bfs: MsBfsOptions {
                alpha,
                ..MsBfsOptions::graft()
            },
            ..SolveOptions::default()
        };
        solve_levels(&g, Algorithm::MsBfsGraft, &opts)
    };
    // Top-down is used while |F| < unvisitedY/α: a tiny α makes the
    // threshold huge (always top-down); a huge α forces bottom-up.
    let (tiny_alpha, tiny_levels) = run(1e-9);
    let (huge_alpha, huge_levels) = run(1e9);
    assert!(tiny_levels.iter().all(|s| !s.2));
    assert!(huge_levels.iter().all(|s| s.2));
    assert_eq!(
        tiny_alpha.matching.cardinality(),
        huge_alpha.matching.cardinality(),
        "α must not change the result"
    );
}
