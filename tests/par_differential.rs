//! Differential testing of the parallel engines against their serial
//! counterparts across real thread counts.
//!
//! With the rayon shim now executing genuinely concurrently, the key
//! invariant is that concurrency changes the *schedule*, never the
//! *answer*: every parallel engine, on every graph shape, at every thread
//! width, must produce a valid maximum matching of the same cardinality
//! as its serial twin — certified both ways (König cover and Berge "no
//! augmenting path"). A 1-thread solve must additionally be bit-for-bit
//! deterministic (the shim guarantees the exact sequential code path).
//!
//! The CI concurrency-stress step loops this binary with varied
//! `GRAFT_DIFF_SEED` values under `GRAFT_THREADS=4`, so the initializer
//! seed is env-overridable.

use ms_bfs_graft::prelude::*;

/// Thread widths exercised; mirrors the scaling benchmark sweep.
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Three structurally distinct suite shapes: near-regular mesh-like
/// (kkt_power), skewed power-law (RMAT), and bow-tie web (wikipedia).
const GRAPHS: [&str; 3] = ["kkt_power", "RMAT", "wikipedia"];

/// (parallel engine, serial twin) pairs under test.
const ENGINE_PAIRS: [(Algorithm, Algorithm); 3] = [
    (Algorithm::PothenFanParallel, Algorithm::PothenFan),
    (Algorithm::MsBfsGraftParallel, Algorithm::MsBfsGraft),
    (Algorithm::PushRelabelParallel, Algorithm::PushRelabel),
];

/// Base initializer seed; the stress loop varies it per iteration.
fn base_seed() -> u64 {
    std::env::var("GRAFT_DIFF_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

fn opts(threads: usize, seed: u64) -> SolveOptions<'static> {
    SolveOptions {
        threads,
        seed,
        ..SolveOptions::default()
    }
}

/// Full mate vector — equality here is "byte-identical matching", much
/// stronger than equal cardinality.
fn mates(g: &graph::BipartiteCsr, m: &Matching) -> Vec<u32> {
    (0..g.num_x() as u32).map(|x| m.mate_of_x(x)).collect()
}

/// Every counter of a solve: its stats without the wall-clock fields.
fn counters(out: &RunOutcome) -> [u64; 6] {
    let s = &out.stats;
    [
        s.edges_traversed,
        u64::from(s.phases),
        s.augmenting_paths,
        s.total_augmenting_path_edges,
        s.initial_cardinality as u64,
        s.final_cardinality as u64,
    ]
}

#[test]
fn parallel_engines_match_serial_at_every_width() {
    let seeds = [base_seed(), base_seed().wrapping_add(17)];
    for name in GRAPHS {
        let g = gen::suite::by_name(name).unwrap().build(gen::Scale::Tiny);
        for seed in seeds {
            for (par, serial) in ENGINE_PAIRS {
                let baseline = solve(&g, serial, &opts(1, seed));
                baseline.matching.validate(&g).unwrap();
                let want = baseline.matching.cardinality();
                for t in THREAD_COUNTS {
                    let out = solve(&g, par, &opts(t, seed));
                    let ctx = format!("{} on {name} seed={seed} threads={t}", par.name());
                    out.matching
                        .validate(&g)
                        .unwrap_or_else(|e| panic!("{ctx}: invalid matching: {e}"));
                    assert_eq!(
                        out.matching.cardinality(),
                        want,
                        "{ctx}: cardinality disagrees with serial {}",
                        serial.name()
                    );
                    // König certificate: a vertex cover of equal size.
                    matching::verify::certify_maximum(&g, &out.matching)
                        .unwrap_or_else(|e| panic!("{ctx}: König certificate failed: {e}"));
                    // Berge certificate: no augmenting path survives.
                    assert!(
                        matching::verify::find_augmenting_path(&g, &out.matching).is_none(),
                        "{ctx}: augmenting path exists — matching not maximum"
                    );
                    // One engine runs both MS-BFS-Graft algorithms, and one
                    // both Pothen-Fan algorithms, inline at width 1.
                    let one_engine = matches!(
                        par,
                        Algorithm::MsBfsGraftParallel | Algorithm::PothenFanParallel
                    );
                    if t == 1 && one_engine {
                        assert_eq!(
                            mates(&g, &out.matching),
                            mates(&g, &baseline.matching),
                            "{ctx}: mates differ from {}",
                            serial.name()
                        );
                        assert_eq!(
                            counters(&out),
                            counters(&baseline),
                            "{ctx}: counters differ from {}",
                            serial.name()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn one_thread_solves_are_bit_identical() {
    // threads=1 takes the exact sequential code path in the shim, so two
    // runs must agree on every mate, not just on cardinality — this is
    // the anchor that keeps recorded artifacts reproducible.
    let seed = base_seed();
    for name in GRAPHS {
        let g = gen::suite::by_name(name).unwrap().build(gen::Scale::Tiny);
        for (par, _) in ENGINE_PAIRS {
            let a = solve(&g, par, &opts(1, seed));
            let b = solve(&g, par, &opts(1, seed));
            assert_eq!(
                mates(&g, &a.matching),
                mates(&g, &b.matching),
                "{} on {name}: threads=1 reruns disagree",
                par.name()
            );
        }
    }
}

#[test]
fn one_thread_parallel_engines_match_installed_singleton_pool() {
    // Pinning threads=1 through SolveOptions and running inside an
    // explicitly installed 1-thread pool are the same configuration by
    // two routes; both must yield the same mates.
    let seed = base_seed();
    let g = gen::suite::by_name("RMAT").unwrap().build(gen::Scale::Tiny);
    for (par, _) in ENGINE_PAIRS {
        let direct = solve(&g, par, &opts(1, seed));
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let installed = pool.install(|| solve(&g, par, &opts(0, seed)));
        assert_eq!(
            mates(&g, &direct.matching),
            mates(&g, &installed.matching),
            "{}: threads=1 vs installed 1-thread pool disagree",
            par.name()
        );
    }
}

#[test]
fn serial_engines_never_use_an_installed_pool() {
    // The serial MS-BFS algorithms and Pothen-Fan run every step inline on
    // the calling thread, so a 4-thread pool around the solve changes
    // nothing: the result equals the 1-thread solve mate for mate and
    // counter for counter. Small scale gives frontiers and root sets large
    // enough for the pool to split, so a serial solve that reached it
    // would show.
    let seed = base_seed();
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .unwrap();
    for name in GRAPHS {
        let g = gen::suite::by_name(name).unwrap().build(gen::Scale::Small);
        for alg in [
            Algorithm::MsBfs,
            Algorithm::MsBfsDirOpt,
            Algorithm::MsBfsGraft,
            Algorithm::PothenFan,
        ] {
            let alone = solve(&g, alg, &opts(1, seed));
            let pooled = pool.install(|| solve(&g, alg, &opts(0, seed)));
            let ctx = format!("{} on {name}", alg.name());
            assert_eq!(
                mates(&g, &alone.matching),
                mates(&g, &pooled.matching),
                "{ctx}: mates differ inside a 4-thread pool"
            );
            assert_eq!(
                counters(&alone),
                counters(&pooled),
                "{ctx}: counters differ inside a 4-thread pool"
            );
        }
    }
}
