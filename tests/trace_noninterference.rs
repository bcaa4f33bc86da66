//! Tracing must be an observer, never a participant: for every algorithm,
//! a traced run and an untraced run from the same starting matching must
//! return **byte-identical** matchings and identical search-statistic
//! aggregates. This is the differential harness that keeps the
//! `graft-trace` layer honest — any accidental behavioral coupling (a
//! trace-gated branch that also changes engine state, a stopwatch that
//! perturbs a decision) shows up as a diff here.

use ms_bfs_graft::prelude::*;
use std::sync::Arc;

/// Deterministic instances spanning the generator families.
fn instances() -> Vec<(String, BipartiteCsr)> {
    let mut v = Vec::new();
    for name in ["kkt_power", "wikipedia"] {
        let g = gen::suite::by_name(name).unwrap().build(gen::Scale::Tiny);
        v.push((format!("suite:{name}"), g));
    }
    v.push((
        "pref_attach".into(),
        gen::preferential_attachment(600, 600, 3, 0.5, 7),
    ));
    v
}

fn assert_same_run(label: &str, traced: &RunOutcome, untraced: &RunOutcome) {
    assert_eq!(
        traced.matching.edges().collect::<Vec<_>>(),
        untraced.matching.edges().collect::<Vec<_>>(),
        "{label}: traced and untraced matchings differ"
    );
    let (t, u) = (&traced.stats, &untraced.stats);
    assert_eq!(t.phases, u.phases, "{label}: phases");
    assert_eq!(t.augmenting_paths, u.augmenting_paths, "{label}: paths");
    assert_eq!(t.edges_traversed, u.edges_traversed, "{label}: edges");
    assert_eq!(
        t.total_augmenting_path_edges, u.total_augmenting_path_edges,
        "{label}: path edges"
    );
    assert_eq!(
        t.initial_cardinality, u.initial_cardinality,
        "{label}: |M0|"
    );
    assert_eq!(t.final_cardinality, u.final_cardinality, "{label}: |M|");
    assert_eq!(t.timed_out, u.timed_out, "{label}: timed_out");
}

#[test]
fn traced_runs_are_byte_identical_for_every_algorithm() {
    for (gname, g) in instances() {
        let m0 = matching::init::Initializer::RandomGreedy.run(&g, 42);
        for alg in Algorithm::ALL {
            let label = format!("{gname}/{}", alg.cli_name());
            let opts = SolveOptions {
                initializer: matching::init::Initializer::None,
                threads: 1, // pin parallel algorithms to one thread
                ..SolveOptions::default()
            };
            let sink = Arc::new(matching::trace::MemorySink::new());
            let tracer = Tracer::to_sink(Arc::clone(&sink) as _);
            let traced = solve_from_traced_in(
                &g,
                m0.clone(),
                alg,
                &opts,
                &tracer,
                &mut SolveWorkspace::new(),
            );
            let untraced = solve_from_in(&g, m0.clone(), alg, &opts, &mut SolveWorkspace::new());
            assert_same_run(&label, &traced, &untraced);

            // Every traced run brackets itself and replays cleanly.
            let events = sink.snapshot();
            assert!(events.len() >= 2, "{label}: missing run events");
            let runs = matching::trace::replay(&events)
                .unwrap_or_else(|e| panic!("{label}: replay failed: {e}"));
            assert_eq!(runs.len(), 1, "{label}: expected one run");
            assert_eq!(
                runs[0].final_cardinality,
                traced.matching.cardinality() as u64,
                "{label}: trace disagrees with result"
            );
        }
    }
}

#[test]
fn disabled_tracer_matches_plain_entry_points() {
    let g = gen::suite::by_name("kkt_power")
        .unwrap()
        .build(gen::Scale::Tiny);
    for alg in [
        Algorithm::MsBfsGraft,
        Algorithm::PothenFan,
        Algorithm::PushRelabel,
    ] {
        let opts = SolveOptions::default();
        let m0 = opts.initializer.run(&g, opts.seed);
        let off = Tracer::disabled();
        let a = solve_from_traced_in(&g, m0, alg, &opts, &off, &mut SolveWorkspace::new());
        let b = matching::solve(&g, alg, &opts);
        assert_same_run(alg.cli_name(), &a, &b);
    }
}
