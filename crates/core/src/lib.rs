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
//! | Pothen-Fan (fairness + lookahead) | `PothenFan` / `PothenFanParallel` | one multi-source DFS engine, inline on one thread / on the thread pool |
//! | Hopcroft-Karp | `HopcroftKarp` (also [`hopcroft_karp`], the oracle) | serial, `O(m√n)` |
//! | Push-relabel | `PushRelabel` / `PushRelabelParallel` | serial / parallel |
//! | MS-BFS (+ direction opt., + grafting) | `MsBfs` / `MsBfsDirOpt` / `MsBfsGraft` | the MS-BFS engine with toggles, inline on one thread |
//! | **MS-BFS-Graft** | `MsBfsGraftParallel` | the same engine on the thread pool, steps below its work cutoff inline: the paper's parallel contribution |
//!
//! Every solve goes through one dispatcher, [`solve_from_traced_in`]: it
//! starts from the caller's [`Matching`] or computes the configured one —
//! by default the Karp-Sipser maximal matching ([`init::Initializer`]) as
//! in the paper — sizes the thread pool for the parallel algorithms, runs
//! the initializer and the engine in it, and returns a [`RunOutcome`]
//! bundling the final matching with the instrumentation
//! ([`stats::SearchStats`]) that the experiment harness uses to
//! regenerate the paper's figures. [`solve`] and [`solve_from_in`] are
//! its two shorthands.
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
pub use ms_bfs::MsBfsOptions;
// Search internals for the graft-check model suite; invisible otherwise.
#[cfg(graft_check)]
#[doc(hidden)]
pub use pothen_fan::check_api as pf_check_api;
pub use push_relabel::{PrOrder, PushRelabelOptions};
pub use trace::Tracer;
pub use workspace::SolveWorkspace;

use hopcroft_karp::hopcroft_karp_until;
use ms_bfs::ms_bfs;
use pothen_fan::pothen_fan;
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

/// A cooperative stop request. Every engine calls it at the top of each
/// phase, with the number of phases done, and returns its current
/// matching (valid, not certified maximum) with
/// [`SearchStats::timed_out`] set once it answers `true`. The callback
/// may also sleep or panic; the engines catch nothing.
#[derive(Clone, Copy)]
pub struct Stop<'a>(pub &'a (dyn Fn(u32) -> bool + Sync));

impl Stop<'_> {
    /// Polls the callback with `stats.phases`, records the answer in
    /// `stats.timed_out` and returns it.
    #[inline]
    pub(crate) fn poll(self, stats: &mut SearchStats) -> bool {
        stats.timed_out = (self.0)(stats.phases);
        stats.timed_out
    }
}

impl Default for Stop<'_> {
    /// Never stops.
    fn default() -> Self {
        Stop(&|_| false)
    }
}

impl std::fmt::Debug for Stop<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Stop(..)")
    }
}

/// Options for the [`solve_from_traced_in`] dispatcher.
#[derive(Clone, Copy, Debug)]
pub struct SolveOptions<'a> {
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
    /// Polled by the engine at the top of every phase (never before the
    /// initializer); the default never stops.
    pub stop: Stop<'a>,
}

impl Default for SolveOptions<'_> {
    fn default() -> Self {
        Self {
            initializer: init::Initializer::KarpSipser,
            seed: 1,
            threads: 0,
            ms_bfs: MsBfsOptions::default(),
            push_relabel: PushRelabelOptions::default(),
            stop: Stop::default(),
        }
    }
}

/// Runs `algorithm` on `g` from the configured initial matching, in a
/// fresh workspace and without a tracer.
pub fn solve(g: &BipartiteCsr, algorithm: Algorithm, opts: &SolveOptions) -> RunOutcome {
    solve_from_in(g, None, algorithm, opts, &mut SolveWorkspace::new())
}

/// [`solve_from_traced_in`] without a tracer.
pub fn solve_from_in(
    g: &BipartiteCsr,
    m0: impl Into<Option<Matching>>,
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

/// Runs `algorithm` on `g` starting from `m0`, or from `opts.initializer`'s
/// matching when `m0` is `None`: the one function that calls an engine,
/// and the one that runs the initializer for a solve.
///
/// `tracer` observes the run: a `run_start` / `run_end` pair around the
/// solve, plus whatever inner events the algorithm's engine emits (levels
/// and phases for the MS-BFS engine, phases for the Pothen-Fan engine and
/// serial push-relabel). `run_start` follows the initializer and carries
/// its cardinality. A disabled tracer builds no event and reads no clock.
///
/// A parallel algorithm with `opts.threads > 0` runs in a rayon pool of
/// that many threads, built for this call; with `threads = 0` it uses the
/// caller's ambient pool. The initializer runs in that pool too, and for a
/// parallel algorithm `Initializer::KarpSipser` is
/// [`init::parallel_karp_sipser`]: at one thread, or below the MS-BFS
/// engine's inline cutoff, that is the serial [`init::karp_sipser`], so a
/// one-thread solve's output does not depend on who ran the initializer.
/// Serial algorithms never get or use a pool, and run the serial
/// initializers.
///
/// The per-vertex arrays and frontier vectors live in `ws` and are
/// recycled across calls via an epoch/versioned-visited scheme, so a warm
/// solve performs no `O(n)` clears and (for the serial algorithms that
/// draw on `ws`) no heap allocations at all; the matching and
/// [`stats::SearchStats`] counters are the same as from a fresh
/// workspace. The four MS-BFS algorithms, both Pothen-Fan algorithms and
/// serial push-relabel draw on `ws`; the remaining algorithms ignore it
/// (they are baselines/oracles, not service hot paths).
pub fn solve_from_traced_in(
    g: &BipartiteCsr,
    m0: impl Into<Option<Matching>>,
    algorithm: Algorithm,
    opts: &SolveOptions,
    tracer: &Tracer,
    ws: &mut SolveWorkspace,
) -> RunOutcome {
    let m0 = m0.into();
    let ms_opts = effective_ms_opts(algorithm, opts);
    let run = || {
        let m0 = m0.unwrap_or_else(|| match opts.initializer {
            init::Initializer::KarpSipser if algorithm.is_parallel() => {
                init::parallel_karp_sipser(g, opts.seed)
            }
            initializer => initializer.run(g, opts.seed),
        });
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
        let stop = opts.stop;
        match algorithm {
            Algorithm::SsDfs => ss_dfs(g, m0, stop),
            Algorithm::SsBfs => ss_bfs(g, m0, stop),
            Algorithm::PothenFan | Algorithm::PothenFanParallel => {
                pothen_fan(g, m0, algorithm.is_parallel(), stop, tracer, ws)
            }
            Algorithm::HopcroftKarp => hopcroft_karp_until(g, m0, stop),
            Algorithm::MsBfs
            | Algorithm::MsBfsDirOpt
            | Algorithm::MsBfsGraft
            | Algorithm::MsBfsGraftParallel => {
                let ms_opts = ms_opts.expect("MS algorithm");
                ms_bfs(g, m0, &ms_opts, algorithm.is_parallel(), stop, tracer, ws)
            }
            Algorithm::PushRelabel => push_relabel(g, m0, &opts.push_relabel, stop, tracer, ws),
            Algorithm::PushRelabelParallel => {
                push_relabel_parallel(g, m0, &opts.push_relabel, stop)
            }
        }
    };
    let out = if algorithm.is_parallel() && opts.threads > 0 {
        rayon::ThreadPoolBuilder::new()
            .num_threads(opts.threads)
            .build()
            .expect("failed to build rayon pool")
            .install(run)
    } else {
        run()
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

    /// Several phases for every algorithm from the empty matching.
    fn stop_graph() -> BipartiteCsr {
        tests_support::random_graph(300, 300, 900, 7)
    }

    /// A two-thread solve from the empty matching, polling `stop`.
    fn stop_opts(stop: Stop<'_>) -> SolveOptions<'_> {
        SolveOptions {
            initializer: init::Initializer::None,
            threads: 2,
            stop,
            ..SolveOptions::default()
        }
    }

    #[test]
    fn every_algorithm_polls_the_stop_once_per_phase() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let g = stop_graph();
        for alg in Algorithm::ALL {
            let (calls, last) = (AtomicU32::new(0), AtomicU32::new(u32::MAX));
            let count = |phases_done| {
                calls.fetch_add(1, Ordering::Relaxed);
                last.store(phases_done, Ordering::Relaxed);
                false
            };
            let out = solve(&g, alg, &stop_opts(Stop(&count)));
            let (calls, phases) = (calls.into_inner(), out.stats.phases);
            // HK polls once more, before the layering BFS that finds nothing.
            assert!(
                (phases..=phases + 1).contains(&calls),
                "{}: {calls} polls for {phases} phases",
                alg.name()
            );
            assert_eq!(last.into_inner(), calls - 1, "{}", alg.name());
            assert!(!out.stats.timed_out, "{}", alg.name());
            assert!(verify::is_maximum(&g, &out.matching), "{}", alg.name());
        }
    }

    #[test]
    fn an_always_true_stop_returns_the_initial_matching() {
        let g = stop_graph();
        for alg in Algorithm::ALL {
            let out = solve(&g, alg, &stop_opts(Stop(&|_| true)));
            assert!(out.stats.timed_out, "{}", alg.name());
            assert_eq!(out.stats.phases, 0, "{}", alg.name());
            assert_eq!(out.matching.cardinality(), 0, "{}", alg.name());
        }
    }

    #[test]
    fn stopping_after_the_first_phase_leaves_a_valid_matching_and_trace() {
        use trace::{replay, MemorySink};
        let g = stop_graph();
        for alg in Algorithm::ALL {
            let sink = std::sync::Arc::new(MemorySink::new());
            let out = solve_from_traced_in(
                &g,
                None,
                alg,
                &stop_opts(Stop(&|done| done >= 1)),
                &Tracer::to_sink(sink.clone()),
                &mut SolveWorkspace::new(),
            );
            let name = alg.name();
            out.matching
                .validate(&g)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(out.stats.phases, 1, "{name}");
            assert!(out.stats.timed_out, "{name}");
            replay(&sink.take()).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn a_panicking_stop_unwinds_out_of_every_algorithm() {
        let g = stop_graph();
        for alg in Algorithm::ALL {
            let r = std::panic::catch_unwind(|| {
                solve(&g, alg, &stop_opts(Stop(&|_| panic!("injected"))))
            });
            assert!(r.is_err(), "{}", alg.name());
        }
    }

    #[test]
    fn dispatcher_sizes_the_pool_only_for_parallel_algorithms() {
        // The stop callback runs on the solve's driving thread, so it sees
        // the pool the engine runs in.
        use std::sync::atomic::{AtomicUsize, Ordering};
        static SEEN: AtomicUsize = AtomicUsize::new(0);
        let g = BipartiteCsr::from_edges(2, 2, &[(0, 0), (1, 0), (1, 1)]);
        let opts = SolveOptions {
            threads: 3,
            stop: Stop(&|_| {
                SEEN.store(rayon::current_num_threads(), Ordering::Relaxed);
                false
            }),
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
