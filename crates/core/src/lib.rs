//! # graft-core — maximum cardinality bipartite matching algorithms
//!
//! A Rust reproduction of *"A Parallel Tree Grafting Algorithm for Maximum
//! Cardinality Matching in Bipartite Graphs"* (Azad, Buluç, Pothen,
//! IPDPS 2015), together with every baseline the paper evaluates against:
//!
//! | algorithm | [`Algorithm`] | kind |
//! |---|---|---|
//! | SS-DFS | `SsDfs` | serial, single-source |
//! | SS-BFS | `SsBfs` | serial, single-source |
//! | Pothen-Fan (fairness + lookahead) | `PothenFan` / `PothenFanParallel` | serial / parallel multi-source DFS |
//! | Hopcroft-Karp | `HopcroftKarp` (also [`hopcroft_karp`], the oracle) | serial, `O(m√n)` |
//! | Push-relabel | `PushRelabel` / `PushRelabelParallel` | serial / parallel |
//! | MS-BFS (+ direction opt., + grafting) | `MsBfs` / `MsBfsDirOpt` / `MsBfsGraft` | the MS-BFS engine with toggles, inline on one thread |
//! | **MS-BFS-Graft** | `MsBfsGraftParallel` | the same engine on the thread pool, steps below its work cutoff inline: the paper's parallel contribution |
//!
//! Every solve goes through one dispatcher, [`solve_from_traced_in`]: it
//! starts from a [`Matching`] — typically the Karp-Sipser maximal matching
//! ([`init::Initializer`]) as in the paper — sizes the thread pool for the
//! parallel algorithms, and returns a [`RunOutcome`] bundling the final
//! matching with the instrumentation ([`stats::SearchStats`]) that the
//! experiment harness uses to regenerate the paper's figures. [`solve`]
//! and [`solve_from_in`] are its two shorthands.
//!
//! ```
//! use graft_core::{solve, Algorithm, SolveOptions};
//! use graft_graph::BipartiteCsr;
//!
//! let g = BipartiteCsr::from_edges(2, 2, &[(0, 0), (1, 0), (1, 1)]);
//! let out = solve(&g, Algorithm::MsBfsGraftParallel, &SolveOptions::default());
//! assert_eq!(out.matching.cardinality(), 2);
//! assert!(graft_core::verify::is_maximum(&g, &out.matching));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod augment;
pub mod diff;
pub mod init;
pub mod json;
mod matching;
pub mod ms_bfs;
mod pothen_fan;
mod pothen_fan_par;
mod push_relabel;
mod ss;
pub mod stats;
pub mod trace;
pub mod verify;
mod workspace;

mod hopcroft_karp;

#[cfg(test)]
pub(crate) mod tests_support {
    use graft_graph::{BipartiteCsr, GraphBuilder, VertexId};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Seeded random bipartite graph for unit tests.
    pub fn random_graph(nx: usize, ny: usize, m: usize, seed: u64) -> BipartiteCsr {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut b = GraphBuilder::with_capacity(nx, ny, m);
        for _ in 0..m {
            b.add_edge(
                rng.gen_range(0..nx) as VertexId,
                rng.gen_range(0..ny) as VertexId,
            );
        }
        b.build()
    }
}

pub use augment::{
    augment_from_free_x, augment_from_x, augment_from_y, AugmentOutcome, XYAdjacency,
};
pub use hopcroft_karp::hopcroft_karp;
pub use matching::Matching;
pub use ms_bfs::{MsBfsOptions, NowHook, PhaseHook};
// Search internals for the graft-check model suite; invisible otherwise.
#[cfg(graft_check)]
#[doc(hidden)]
pub use pothen_fan_par::check_api as pf_check_api;
pub use push_relabel::{PrOrder, PushRelabelOptions};
pub use trace::Tracer;
pub use workspace::SolveWorkspace;

use ms_bfs::ms_bfs;
use pothen_fan::pothen_fan;
use pothen_fan_par::pothen_fan_parallel;
use push_relabel::{push_relabel, push_relabel_parallel};
use ss::{ss_bfs, ss_dfs};

use graft_graph::BipartiteCsr;
use stats::SearchStats;
use trace::TraceEvent;

/// The result of one solver run: the matching plus instrumentation.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// The (maximum) matching computed by the solver.
    pub matching: Matching,
    /// Counters and timings collected during the run.
    pub stats: SearchStats,
}

/// Every algorithm exposed by the crate, for table-driven experiments.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Single-source DFS.
    SsDfs,
    /// Single-source BFS.
    SsBfs,
    /// Serial Pothen-Fan with fairness and lookahead.
    PothenFan,
    /// Multithreaded Pothen-Fan.
    PothenFanParallel,
    /// Hopcroft-Karp.
    HopcroftKarp,
    /// Serial MS-BFS, always top-down, no grafting.
    MsBfs,
    /// Serial MS-BFS with direction-optimizing BFS.
    MsBfsDirOpt,
    /// Serial MS-BFS-Graft (direction optimization + tree grafting).
    MsBfsGraft,
    /// Parallel MS-BFS-Graft — the paper's contribution.
    MsBfsGraftParallel,
    /// Serial push-relabel.
    PushRelabel,
    /// Multithreaded push-relabel.
    PushRelabelParallel,
}

impl Algorithm {
    /// All variants, in the order the experiment tables print them.
    pub const ALL: [Algorithm; 11] = [
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

    /// The serial algorithms compared in Fig. 1.
    pub const SERIAL: [Algorithm; 6] = [
        Algorithm::SsDfs,
        Algorithm::SsBfs,
        Algorithm::PothenFan,
        Algorithm::HopcroftKarp,
        Algorithm::MsBfs,
        Algorithm::MsBfsGraft,
    ];

    /// Display name matching the paper's terminology.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::SsDfs => "SS-DFS",
            Algorithm::SsBfs => "SS-BFS",
            Algorithm::PothenFan => "PF",
            Algorithm::PothenFanParallel => "PF(par)",
            Algorithm::HopcroftKarp => "HK",
            Algorithm::MsBfs => "MS-BFS",
            Algorithm::MsBfsDirOpt => "MS-BFS-DO",
            Algorithm::MsBfsGraft => "MS-BFS-Graft",
            Algorithm::MsBfsGraftParallel => "MS-BFS-Graft(par)",
            Algorithm::PushRelabel => "PR",
            Algorithm::PushRelabelParallel => "PR(par)",
        }
    }

    /// Whether the algorithm uses threads.
    pub fn is_parallel(self) -> bool {
        matches!(
            self,
            Algorithm::PothenFanParallel
                | Algorithm::MsBfsGraftParallel
                | Algorithm::PushRelabelParallel
        )
    }

    /// Stable lowercase identifier used by the CLI and the service
    /// protocol (`graftmatch --algorithm`, `SOLVE <graph> <algorithm>`).
    pub fn cli_name(self) -> &'static str {
        match self {
            Algorithm::SsDfs => "ss-dfs",
            Algorithm::SsBfs => "ss-bfs",
            Algorithm::PothenFan => "pf",
            Algorithm::PothenFanParallel => "pf-par",
            Algorithm::HopcroftKarp => "hk",
            Algorithm::MsBfs => "ms-bfs",
            Algorithm::MsBfsDirOpt => "ms-bfs-do",
            Algorithm::MsBfsGraft => "ms-bfs-graft",
            Algorithm::MsBfsGraftParallel => "ms-bfs-graft-par",
            Algorithm::PushRelabel => "pr",
            Algorithm::PushRelabelParallel => "pr-par",
        }
    }

    /// Parses a [`cli_name`](Self::cli_name) identifier (case-insensitive).
    pub fn parse(s: &str) -> Option<Algorithm> {
        let s = s.to_ascii_lowercase();
        Algorithm::ALL.into_iter().find(|a| a.cli_name() == s)
    }
}

/// Options for the [`solve_from_traced_in`] dispatcher.
#[derive(Clone, Copy, Debug)]
pub struct SolveOptions {
    /// Initial maximal matching (paper default: Karp-Sipser).
    pub initializer: init::Initializer,
    /// Seed for the initializer's random choices.
    pub seed: u64,
    /// Thread count for the parallel algorithms: the dispatcher runs the
    /// engine in a pool of this size (0 = the ambient rayon pool). The
    /// serial algorithms ignore it and never get a pool.
    pub threads: usize,
    /// MS-BFS engine configuration.
    pub ms_bfs: MsBfsOptions,
    /// Push-relabel configuration.
    pub push_relabel: PushRelabelOptions,
}

impl Default for SolveOptions {
    fn default() -> Self {
        Self {
            initializer: init::Initializer::KarpSipser,
            seed: 1,
            threads: 0,
            ms_bfs: MsBfsOptions::default(),
            push_relabel: PushRelabelOptions::default(),
        }
    }
}

/// Runs `algorithm` on `g` after computing the configured initial
/// matching, in a fresh workspace and without a tracer.
pub fn solve(g: &BipartiteCsr, algorithm: Algorithm, opts: &SolveOptions) -> RunOutcome {
    let m0 = opts.initializer.run(g, opts.seed);
    solve_from_in(g, m0, algorithm, opts, &mut SolveWorkspace::new())
}

/// [`solve_from_traced_in`] without a tracer.
pub fn solve_from_in(
    g: &BipartiteCsr,
    m0: Matching,
    algorithm: Algorithm,
    opts: &SolveOptions,
    ws: &mut SolveWorkspace,
) -> RunOutcome {
    solve_from_traced_in(g, m0, algorithm, opts, &Tracer::disabled(), ws)
}

/// The effective MS-BFS engine configuration for `algorithm` (None for
/// non-MS algorithms). This is the single source of truth for the
/// Fig. 7 ablation axis: which toggles each CLI algorithm actually runs
/// with, and what the trace layer reports in its `run_start` events.
fn effective_ms_opts(algorithm: Algorithm, opts: &SolveOptions) -> Option<MsBfsOptions> {
    match algorithm {
        Algorithm::MsBfs => Some(MsBfsOptions {
            direction_optimizing: false,
            grafting: false,
            ..opts.ms_bfs
        }),
        Algorithm::MsBfsDirOpt => Some(MsBfsOptions {
            direction_optimizing: true,
            grafting: false,
            ..opts.ms_bfs
        }),
        Algorithm::MsBfsGraft | Algorithm::MsBfsGraftParallel => Some(opts.ms_bfs),
        _ => None,
    }
}

/// Runs `algorithm` on `g` starting from `m0`: the one function that calls
/// an engine.
///
/// `tracer` observes the run: a `run_start` / `run_end` pair around the
/// solve, plus whatever inner events the algorithm's engine emits (levels
/// and phases for the MS-BFS engine, phases for Pothen-Fan and serial
/// push-relabel). A disabled tracer builds no event and reads no clock.
///
/// A parallel algorithm with `opts.threads > 0` runs in a rayon pool of
/// that many threads, built for this call; with `threads = 0` it uses the
/// caller's ambient pool. Serial algorithms never get or use a pool.
///
/// The per-vertex arrays and frontier vectors live in `ws` and are
/// recycled across calls via an epoch/versioned-visited scheme, so a warm
/// solve performs no `O(n)` clears and (for the serial algorithms that
/// draw on `ws`) no heap allocations at all; the matching and
/// [`stats::SearchStats`] counters are the same as from a fresh
/// workspace. The four MS-BFS algorithms, Pothen-Fan and serial
/// push-relabel draw on `ws`; the remaining algorithms ignore it (they
/// are baselines/oracles, not service hot paths).
pub fn solve_from_traced_in(
    g: &BipartiteCsr,
    m0: Matching,
    algorithm: Algorithm,
    opts: &SolveOptions,
    tracer: &Tracer,
    ws: &mut SolveWorkspace,
) -> RunOutcome {
    let ms_opts = effective_ms_opts(algorithm, opts);
    tracer.emit(|| TraceEvent::RunStart {
        algorithm: algorithm.cli_name().to_string(),
        nx: g.num_x() as u64,
        ny: g.num_y() as u64,
        edges: g.num_edges() as u64,
        initial_cardinality: m0.cardinality() as u64,
        alpha: ms_opts.map_or(0.0, |o| o.alpha),
        direction_optimizing: ms_opts.is_some_and(|o| o.direction_optimizing),
        grafting: ms_opts.is_some_and(|o| o.grafting),
    });
    let engine = || match algorithm {
        Algorithm::SsDfs => ss_dfs(g, m0),
        Algorithm::SsBfs => ss_bfs(g, m0),
        Algorithm::PothenFan => pothen_fan(g, m0, tracer, ws),
        Algorithm::PothenFanParallel => pothen_fan_parallel(g, m0),
        Algorithm::HopcroftKarp => hopcroft_karp(g, m0),
        Algorithm::MsBfs
        | Algorithm::MsBfsDirOpt
        | Algorithm::MsBfsGraft
        | Algorithm::MsBfsGraftParallel => {
            let ms_opts = ms_opts.expect("MS algorithm");
            ms_bfs(g, m0, &ms_opts, algorithm.is_parallel(), tracer, ws)
        }
        Algorithm::PushRelabel => push_relabel(g, m0, &opts.push_relabel, tracer, ws),
        Algorithm::PushRelabelParallel => push_relabel_parallel(g, m0, &opts.push_relabel),
    };
    let out = if algorithm.is_parallel() && opts.threads > 0 {
        rayon::ThreadPoolBuilder::new()
            .num_threads(opts.threads)
            .build()
            .expect("failed to build rayon pool")
            .install(engine)
    } else {
        engine()
    };
    tracer.emit(|| TraceEvent::RunEnd {
        final_cardinality: out.stats.final_cardinality as u64,
        phases: u64::from(out.stats.phases),
        augmenting_paths: out.stats.augmenting_paths,
        edges_traversed: out.stats.edges_traversed,
        elapsed_us: out.stats.elapsed.as_micros() as u64,
        timed_out: out.stats.timed_out,
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_every_algorithm_agrees() {
        let g = BipartiteCsr::from_edges(
            6,
            6,
            &[
                (0, 0),
                (0, 1),
                (1, 1),
                (1, 2),
                (2, 0),
                (2, 2),
                (3, 3),
                (3, 4),
                (4, 4),
                (4, 5),
                (5, 3),
                (5, 5),
                (0, 3),
            ],
        );
        let opts = SolveOptions {
            threads: 2,
            ..Default::default()
        };
        let oracle = solve(&g, Algorithm::HopcroftKarp, &opts)
            .matching
            .cardinality();
        for alg in Algorithm::ALL {
            let out = solve(&g, alg, &opts);
            assert_eq!(out.matching.cardinality(), oracle, "{}", alg.name());
            assert!(verify::is_maximum(&g, &out.matching), "{}", alg.name());
        }
    }

    #[test]
    fn algorithm_names_unique() {
        let mut names: Vec<_> = Algorithm::ALL.iter().map(|a| a.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Algorithm::ALL.len());
    }

    #[test]
    fn parallel_flags() {
        assert!(Algorithm::MsBfsGraftParallel.is_parallel());
        assert!(!Algorithm::MsBfsGraft.is_parallel());
    }

    #[test]
    fn every_ms_algorithm_reads_the_deadline_through_now_hook() {
        // The deadline is an hour away on the real clock but already past
        // on the hook's clock, so every engine that honors deadlines must
        // stop before its first phase.
        use std::time::{Duration, Instant};
        let g = BipartiteCsr::from_edges(2, 2, &[(0, 0), (1, 0), (1, 1)]);
        let opts = SolveOptions {
            ms_bfs: MsBfsOptions {
                deadline: Some(Instant::now() + Duration::from_secs(3600)),
                now_hook: Some(NowHook(&|| Instant::now() + Duration::from_secs(7200))),
                ..MsBfsOptions::default()
            },
            ..SolveOptions::default()
        };
        for alg in [
            Algorithm::MsBfs,
            Algorithm::MsBfsDirOpt,
            Algorithm::MsBfsGraft,
            Algorithm::MsBfsGraftParallel,
        ] {
            let out = solve(&g, alg, &opts);
            assert!(out.stats.timed_out, "{} ignored now_hook", alg.name());
            assert_eq!(out.stats.phases, 0, "{}", alg.name());
        }
    }

    #[test]
    fn dispatcher_sizes_the_pool_only_for_parallel_algorithms() {
        // The phase hook runs on the solve's driving thread, so it sees
        // the pool the engine runs in.
        use std::sync::atomic::{AtomicUsize, Ordering};
        static SEEN: AtomicUsize = AtomicUsize::new(0);
        let g = BipartiteCsr::from_edges(2, 2, &[(0, 0), (1, 0), (1, 1)]);
        let opts = SolveOptions {
            threads: 3,
            ms_bfs: MsBfsOptions {
                phase_hook: Some(PhaseHook(&|_| {
                    SEEN.store(rayon::current_num_threads(), Ordering::Relaxed)
                })),
                ..MsBfsOptions::default()
            },
            ..SolveOptions::default()
        };
        solve(&g, Algorithm::MsBfsGraftParallel, &opts);
        assert_eq!(SEEN.swap(0, Ordering::Relaxed), 3);
        let ambient = rayon::current_num_threads();
        solve(&g, Algorithm::MsBfsGraft, &opts);
        assert_eq!(SEEN.load(Ordering::Relaxed), ambient);
    }

    #[test]
    fn solve_with_no_initializer() {
        let g = BipartiteCsr::from_edges(2, 2, &[(0, 0), (1, 1)]);
        let opts = SolveOptions {
            initializer: init::Initializer::None,
            ..SolveOptions::default()
        };
        let out = solve(&g, Algorithm::MsBfsGraft, &opts);
        assert_eq!(out.matching.cardinality(), 2);
        assert_eq!(out.stats.initial_cardinality, 0);
    }
}
