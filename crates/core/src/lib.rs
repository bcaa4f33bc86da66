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
//! | Pothen-Fan (fairness + lookahead) | `PothenFan` / `PothenFanParallel` | one multi-source DFS engine, inline on one thread / on the thread pool above one thread |
//! | Hopcroft-Karp | `HopcroftKarp` (also [`hopcroft_karp`], the oracle) | serial, `O(m√n)` |
//! | Push-relabel | `PushRelabel` / `PushRelabelParallel` | one double-push engine, inline on one thread / on the thread pool above one thread |
//! | MS-BFS (+ direction opt., + grafting) | `MsBfs` / `MsBfsDirOpt` / `MsBfsGraft` | the MS-BFS engine with toggles, inline on one thread |
//! | **MS-BFS-Graft** | `MsBfsGraftParallel` | the same engine on the thread pool above one thread, steps below its work cutoff inline: the paper's parallel contribution |
//!
//! Every solve goes through one dispatcher, [`solve_from_traced_in`]: it
//! starts from the caller's [`Matching`] or computes the configured one —
//! by default the Karp-Sipser maximal matching ([`init::Initializer`]) as
//! in the paper — decides the solve's width (one thread for the serial
//! algorithms and for a parallel one at `threads: 1`), builds a thread
//! pool only above one thread, runs the initializer and the engine, and
//! returns a [`RunOutcome`] bundling the final matching with the
//! instrumentation ([`stats::SearchStats`]) that the experiment harness
//! uses to regenerate the paper's figures. [`solve`] and
//! [`solve_from_in`] are its two shorthands.
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
    use crate::{Algorithm, Matching, RunOutcome, SolveOptions, SolveWorkspace};
    use graft_graph::{BipartiteCsr, GraphBuilder, VertexId};
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::cell::RefCell;

    thread_local! {
        /// The length `n` of each scan of a whole side, the vertex ids
        /// `0..n`, driven from this thread.
        static RANGES: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    }

    /// Records a scan of the vertex ids `0..n`: an MS-BFS step over a
    /// whole side, or a [`Matching::unmatched_x`] or `unmatched_y` scan.
    pub fn count_range(n: usize) {
        RANGES.with(|r| r.borrow_mut().push(n));
    }

    /// The result of `f`, and the lengths of the whole-side scans it drove.
    pub fn ranges_of<T>(f: impl FnOnce() -> T) -> (T, Vec<usize>) {
        RANGES.with(|r| r.borrow_mut().clear());
        let out = f();
        (out, RANGES.with(RefCell::take))
    }

    /// One solve of `alg` from `m` through the dispatcher, with default
    /// options in a fresh workspace.
    pub fn solve_from(g: &BipartiteCsr, m: Matching, alg: Algorithm) -> RunOutcome {
        let opts = SolveOptions::default();
        crate::solve_from_in(g, m, alg, &opts, &mut SolveWorkspace::new())
    }

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
pub use push_relabel::PushRelabelOptions;
pub use trace::Tracer;
pub use workspace::SolveWorkspace;

use hopcroft_karp::hopcroft_karp_until;
use ms_bfs::ms_bfs;
use pothen_fan::pothen_fan;
use push_relabel::push_relabel;
use ss::{ss_bfs, ss_dfs};

use graft_graph::{BipartiteCsr, VertexId};
use stats::SearchStats;
use std::time::Instant;
use trace::{PhaseSummary, TraceEvent};

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

/// The frame of one solve, which [`solve_from_traced_in`] builds and lends
/// its engine: whether the solve runs on one thread, the stop and the
/// tracer, and the run's counters. The dispatcher writes the
/// cardinalities and the elapsed time around the engine call; the engine
/// adds its phases.
pub(crate) struct Run<'a> {
    /// The solve's width is 1: every step runs inline on the calling
    /// thread, and no pool is installed for it.
    pub(crate) inline: bool,
    pub(crate) tracer: &'a Tracer,
    /// The engine adds its phases; the dispatcher writes the rest.
    pub(crate) stats: SearchStats,
    stop: Stop<'a>,
    /// The start of the current phase, read only while tracing: the
    /// untraced hot path must not pay for a clock read per phase.
    phase_t0: Option<Instant>,
}

impl Run<'_> {
    /// Polls the stop with the phases done, records the answer in
    /// `stats.timed_out` and returns it.
    #[inline]
    pub(crate) fn poll(&mut self) -> bool {
        self.stats.timed_out = (self.stop.0)(self.stats.phases);
        self.stats.timed_out
    }

    /// Opens the next phase; returns its number.
    pub(crate) fn begin_phase(&mut self) -> u64 {
        self.phase_t0 = self.tracer.is_enabled().then(Instant::now);
        u64::from(self.stats.phases) + 1
    }

    /// Closes the phase that [`Run::begin_phase`] opened: numbers `p`,
    /// stamps its time, adds its counts to the run's and emits it:
    /// `phase_end`, then `graft` when the phase made a graft-vs-rebuild
    /// decision. [`trace::replay`] folds the pair back into an equal
    /// [`PhaseSummary`].
    pub(crate) fn end_phase(&mut self, p: &mut PhaseSummary) {
        let s = &mut self.stats;
        s.phases += 1;
        s.augmenting_paths += p.augmentations;
        s.total_augmenting_path_edges += p.path_edges;
        s.edges_traversed += p.edges_traversed;
        p.phase = u64::from(s.phases);
        p.elapsed_us = self.phase_t0.map_or(0, |t| t.elapsed().as_micros() as u64);
        self.tracer.emit(|| TraceEvent::PhaseEnd {
            phase: p.phase,
            levels: p.levels,
            bottom_up_levels: p.bottom_up_levels,
            frontier_peak: p.frontier_peak,
            augmentations: p.augmentations,
            path_edges: p.path_edges,
            edges_traversed: p.edges_traversed,
            elapsed_us: p.elapsed_us,
        });
        if let Some(g) = p.graft {
            self.tracer.emit(|| TraceEvent::Graft {
                phase: p.phase,
                active_x: g.active_x,
                renewable_y: g.renewable_y,
                active_edges: g.active_edges,
                renewable_edges: g.renewable_edges,
                grafted: g.grafted,
            });
        }
    }

    /// The one exit of the MS-BFS, Pothen-Fan and push-relabel engines,
    /// inline and on the pool: their mates, with the cardinality their
    /// augmentations counted. Debug builds check the count against the
    /// mates (O(n)); release builds trust it.
    pub(crate) fn matching(&self, mate_x: Vec<VertexId>, mate_y: Vec<VertexId>) -> Matching {
        let counted = self.stats.initial_cardinality + self.stats.augmenting_paths as usize;
        Matching::from_counted_mates(mate_x, mate_y, counted)
    }
}

/// Options for the [`solve_from_traced_in`] dispatcher.
#[derive(Clone, Copy, Debug)]
pub struct SolveOptions<'a> {
    /// Initial maximal matching (paper default: Karp-Sipser).
    pub initializer: init::Initializer,
    /// Seed for the initializer's random choices.
    pub seed: u64,
    /// Thread count for the parallel algorithms (0 = the ambient rayon
    /// pool's): above one, the dispatcher runs the engine in a pool of
    /// this size; at one it builds no pool and runs the engine inline.
    /// The serial algorithms ignore it and run on one thread.
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
/// and phases for the MS-BFS engine, phases for the Pothen-Fan and
/// push-relabel engines). `run_start` follows the initializer and carries
/// its cardinality. A disabled tracer builds no event and reads no clock.
///
/// The dispatcher decides the solve's width once: 1 for a serial
/// algorithm, `opts.threads` for a parallel one, or the ambient rayon
/// pool's size when that is 0. At width 1 it builds no pool, runs the
/// serial initializers and the engine inline on the calling thread, so a
/// parallel algorithm equals its serial twin mate for mate. Above it, a
/// parallel algorithm with `opts.threads > 0` runs in a rayon pool of
/// that many threads, built for this call, and with `threads = 0` in the
/// caller's ambient pool. The initializer runs in that pool too, and
/// `Initializer::KarpSipser` is [`init::parallel_karp_sipser`], which
/// below the MS-BFS engine's inline cutoff is the serial
/// [`init::karp_sipser`].
///
/// The dispatcher also keeps the run's books: it records the initial and
/// final cardinality and times the engine call, while the engine adds its
/// phases to the same [`stats::SearchStats`].
///
/// The per-vertex arrays and frontier vectors live in `ws` and are
/// recycled across calls via an epoch/versioned-visited scheme, so a warm
/// solve performs no `O(n)` clears and (for the algorithms that draw on
/// `ws`, at width 1) no heap allocations at all; the matching and
/// [`stats::SearchStats`] counters are the same as from a fresh
/// workspace. The four MS-BFS algorithms and both Pothen-Fan and both
/// push-relabel algorithms draw on `ws`; the remaining algorithms ignore
/// it (they are baselines/oracles, not service hot paths).
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
    let width = match (algorithm.is_parallel(), opts.threads) {
        (false, _) => 1,
        (true, 0) => rayon::current_num_threads(),
        (true, threads) => threads,
    };
    let solve = || {
        let m0 = m0.unwrap_or_else(|| match opts.initializer {
            init::Initializer::KarpSipser if width > 1 => init::parallel_karp_sipser(g, opts.seed),
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
        let mut run = Run {
            inline: width == 1,
            tracer,
            stats: SearchStats {
                initial_cardinality: m0.cardinality(),
                ..SearchStats::default()
            },
            stop: opts.stop,
            phase_t0: None,
        };
        let start = Instant::now();
        let matching = match algorithm {
            Algorithm::SsDfs => ss_dfs(g, m0, &mut run),
            Algorithm::SsBfs => ss_bfs(g, m0, &mut run),
            Algorithm::PothenFan | Algorithm::PothenFanParallel => pothen_fan(g, m0, &mut run, ws),
            Algorithm::HopcroftKarp => hopcroft_karp_until(g, m0, &mut run),
            Algorithm::MsBfs
            | Algorithm::MsBfsDirOpt
            | Algorithm::MsBfsGraft
            | Algorithm::MsBfsGraftParallel => {
                ms_bfs(g, m0, &ms_opts.expect("MS algorithm"), &mut run, ws)
            }
            Algorithm::PushRelabel | Algorithm::PushRelabelParallel => {
                push_relabel(g, m0, &opts.push_relabel, &mut run, ws)
            }
        };
        run.stats.elapsed = start.elapsed();
        run.stats.final_cardinality = matching.cardinality();
        RunOutcome {
            matching,
            stats: run.stats,
        }
    };
    let out = if width > 1 && opts.threads > 0 {
        rayon::ThreadPoolBuilder::new()
            .num_threads(opts.threads)
            .build()
            .expect("failed to build rayon pool")
            .install(solve)
    } else {
        solve()
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
        assert_eq!(SEEN.swap(0, Ordering::Relaxed), ambient);
        // At one thread a parallel algorithm builds no pool of its own, so
        // inside an installed pool its stop sees that pool.
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(3)
            .build()
            .unwrap();
        let one = SolveOptions { threads: 1, ..opts };
        pool.install(|| solve(&g, Algorithm::MsBfsGraftParallel, &one));
        assert_eq!(SEEN.load(Ordering::Relaxed), 3);
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
