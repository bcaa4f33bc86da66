//! Property-based tests of the trace layer: every JSONL trace captured
//! from a real solve must satisfy the paper's structural invariants when
//! replayed — levels strictly increase within a phase, the recorded
//! direction decision matches `frontier_edges >= unvisited_edges / α` at
//! every level, and phase-reported augmentations sum to the
//! matching-cardinality delta. JSON serialization round-trips every event
//! bit-for-bit.

use ms_bfs_graft::prelude::*;
use proptest::prelude::*;
use std::io::BufReader;
use std::sync::Arc;

use matching::trace::{direction_rule, read_jsonl, replay, MemorySink, TraceEvent};

fn arb_graph() -> impl Strategy<Value = BipartiteCsr> {
    (1usize..40, 1usize..40).prop_flat_map(|(nx, ny)| {
        let max_edges = (nx * ny).min(300);
        proptest::collection::vec((0..nx as u32, 0..ny as u32), 0..=max_edges)
            .prop_map(move |edges| BipartiteCsr::from_edges(nx, ny, &edges))
    })
}

fn arb_ms_algorithm() -> impl Strategy<Value = Algorithm> {
    prop_oneof![
        Just(Algorithm::MsBfs),
        Just(Algorithm::MsBfsDirOpt),
        Just(Algorithm::MsBfsGraft),
        Just(Algorithm::MsBfsGraftParallel),
        Just(Algorithm::PothenFan),
        Just(Algorithm::PushRelabel),
    ]
}

/// Captures one traced solve as an event stream.
fn capture(g: &BipartiteCsr, alg: Algorithm, seed: u64) -> (Vec<TraceEvent>, RunOutcome) {
    let opts = SolveOptions {
        seed,
        threads: 1,
        ..SolveOptions::default()
    };
    let sink = Arc::new(MemorySink::new());
    let tracer = Tracer::to_sink(Arc::clone(&sink) as _);
    let out = solve_from_traced_in(g, None, alg, &opts, &tracer, &mut SolveWorkspace::new());
    (sink.take(), out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn replayed_traces_satisfy_all_invariants(
        g in arb_graph(),
        alg in arb_ms_algorithm(),
        seed in 0u64..500,
    ) {
        let (events, out) = capture(&g, alg, seed);
        // `replay` enforces the full invariant set internally (levels
        // consecutive within a phase, direction rule at each level,
        // graft rule per phase, augmentation sums); a violation is an Err.
        let runs = replay(&events).map_err(|e| {
            TestCaseError::fail(format!("{} replay: {e}", alg.cli_name()))
        })?;
        prop_assert_eq!(runs.len(), 1);
        let run = &runs[0];
        prop_assert_eq!(run.final_cardinality, out.matching.cardinality() as u64);
        prop_assert_eq!(run.augmenting_paths, out.stats.augmenting_paths);

        // Independent spot-checks on the raw stream (not via replay):
        // levels strictly increase within each phase, the unvisited edges
        // start at every edge and only fall within a phase, and each
        // recorded direction decision matches the α crossover rule.
        let mut last: Option<(u64, u64, u64)> = None;
        for ev in &events {
            if let TraceEvent::Level {
                phase, level, frontier, frontier_edges, unvisited_edges, bottom_up, ..
            } = ev {
                if let Some((lp, ll, lu)) = last {
                    if lp == *phase {
                        prop_assert!(*level > ll, "levels must increase within phase {phase}");
                        prop_assert!(*unvisited_edges <= lu, "unvisited edges grew in phase {phase}");
                    }
                }
                if (*phase, *level) == (1, 0) {
                    prop_assert_eq!(*unvisited_edges, g.num_edges() as u64);
                }
                last = Some((*phase, *level, *unvisited_edges));
                prop_assert!(*frontier > 0, "empty frontiers are never recorded");
                if run.direction_optimizing {
                    prop_assert_eq!(
                        *bottom_up,
                        direction_rule(*frontier_edges, *unvisited_edges, run.alpha),
                        "direction decision at phase {} level {}", phase, level
                    );
                } else {
                    prop_assert!(!bottom_up);
                }
            }
        }

        // Phase-reported augmentations sum to the cardinality delta.
        if !run.phases.is_empty() {
            let total: u64 = run.phases.iter().map(|p| p.augmentations).sum();
            prop_assert_eq!(total, run.final_cardinality - run.initial_cardinality);
        }
    }

    #[test]
    fn jsonl_round_trip_preserves_every_event(
        g in arb_graph(),
        alg in arb_ms_algorithm(),
        seed in 0u64..500,
    ) {
        let (events, _) = capture(&g, alg, seed);
        let mut text = String::new();
        for ev in &events {
            text.push_str(&ev.to_json());
            text.push('\n');
        }
        let parsed = read_jsonl(BufReader::new(text.as_bytes()))
            .map_err(|e| TestCaseError::fail(format!("parse: {e}")))?;
        prop_assert_eq!(parsed, events);
    }
}

/// The paper's engine, parallel Pothen-Fan and parallel push-relabel, at
/// two real threads. The trace is the only per-phase record of a run, so
/// under genuine concurrency, not just on one thread, every stream must
/// replay, close with the run's own counters, and account every traversed
/// edge and every augmentation to exactly one phase. PF and PR have no
/// work cutoff, so their two-thread phases run on the pool.
#[test]
fn two_thread_parallel_graft_traces_replay_and_add_up() {
    let suite = |name| gen::suite::by_name(name).unwrap().build(gen::Scale::Tiny);
    let graphs = [
        ("kkt_power:tiny", suite("kkt_power")),
        ("coPapersDBLP:tiny", suite("coPapersDBLP")),
        (
            "preferential_attachment(600, 600, 3, 0.5, 7)",
            gen::preferential_attachment(600, 600, 3, 0.5, 7),
        ),
    ];
    let opts = SolveOptions {
        threads: 2,
        ..SolveOptions::default()
    };
    for (name, g) in &graphs {
        for alg in [
            Algorithm::MsBfsGraftParallel,
            Algorithm::PothenFanParallel,
            Algorithm::PushRelabelParallel,
        ] {
            for rep in 0..8 {
                let ctx = format!("{} on {name} rep {rep}", alg.name());
                let sink = Arc::new(MemorySink::new());
                let tracer = Tracer::to_sink(Arc::clone(&sink) as _);
                let out =
                    solve_from_traced_in(g, None, alg, &opts, &tracer, &mut SolveWorkspace::new());
                let runs = replay(&sink.take()).unwrap_or_else(|e| panic!("{ctx}: {e}"));
                assert_eq!(runs.len(), 1, "{ctx}");
                let run = &runs[0];
                assert_eq!(run.total_phases, u64::from(out.stats.phases), "{ctx}");
                assert_eq!(run.phases.len() as u64, run.total_phases, "{ctx}");
                assert_eq!(run.augmenting_paths, out.stats.augmenting_paths, "{ctx}");
                assert_eq!(run.edges_traversed, out.stats.edges_traversed, "{ctx}");
                assert_eq!(
                    run.final_cardinality,
                    out.matching.cardinality() as u64,
                    "{ctx}"
                );
                let phase_edges: u64 = run.phases.iter().map(|p| p.edges_traversed).sum();
                assert_eq!(phase_edges, run.edges_traversed, "{ctx}");
                let phase_augs: u64 = run.phases.iter().map(|p| p.augmentations).sum();
                assert_eq!(phase_augs, run.augmenting_paths, "{ctx}");
            }
        }
    }
}
