//! graft-trace: a structured, zero-cost-when-disabled event layer.
//!
//! The paper's evaluation (Figs. 6–10) is built on *per-phase* internals:
//! frontier sizes and top-down/bottom-up switches at threshold α, grafted
//! vs. rebuilt trees, augmentations per phase. [`SearchStats`] aggregates
//! those to end-of-run totals; this module streams them as they happen,
//! as typed [`TraceEvent`]s, so the same run can be watched live by the
//! service (`TRACE` verb), written to a JSON-lines file (`graftmatch
//! --trace`), and replayed into the paper-style tables (`experiments
//! trace-report`).
//!
//! ## The zero-overhead contract
//!
//! Engines hold a [`Tracer`] and call [`Tracer::emit`] with a *closure*
//! that builds the event. When the tracer is disabled (the default for
//! every non-`_traced` entry point) the closure is **never evaluated**:
//! the whole call is a branch on a `None` that the optimizer deletes, so
//! no event is constructed, no string is formatted, and no lock is
//! touched. The differential test `tests/trace_noninterference.rs` pins
//! the stronger property that tracing — enabled or not — never perturbs
//! the matching or the [`SearchStats`] aggregates: event closures only
//! *read* engine state.
//!
//! Events are emitted from the engine's driving thread at level/phase
//! granularity — `O(levels)` events per run, not `O(edges)` — so sinks
//! keep a single short critical section per event; [`JsonlSink`] formats
//! the JSON on the emitting thread before taking its writer lock.
//!
//! ## Event schema
//!
//! One flat JSON object per line, discriminated by `"ev"` and encoded
//! and parsed by [`crate::json`] (see DESIGN.md §10):
//!
//! ```text
//! {"ev":"run_start","algorithm":"ms-bfs-graft","nx":6,"ny":6,"edges":12,
//!  "initial_cardinality":4,"alpha":1.0,"direction_optimizing":true,"grafting":true}
//! {"ev":"level","phase":1,"level":0,"frontier":2,"unvisited_y":6,
//!  "frontier_edges":4,"unvisited_edges":12,"bottom_up":false}
//! {"ev":"phase_end","phase":1,"levels":2,"bottom_up_levels":1,"frontier_peak":3,
//!  "augmentations":2,"path_edges":4,"edges_traversed":14,"elapsed_us":11}
//! {"ev":"graft","phase":1,"active_x":0,"renewable_y":5,"active_edges":0,
//!  "renewable_edges":10,"grafted":false}
//! {"ev":"run_end","final_cardinality":6,"phases":2,"augmenting_paths":2,
//!  "edges_traversed":20,"elapsed_us":35,"timed_out":false}
//! ```
//!
//! [`replay`] reconstructs per-run summaries from an event stream and
//! *validates* the invariants the engines guarantee: levels strictly
//! increase within a phase, the recorded direction decision follows
//! [`direction_rule`] and the grafting decision [`graft_rule`] (both
//! weigh edges, the sums of degrees), and phase-reported augmentations
//! sum (without overflow) to the run's cardinality delta.
//!
//! [`SearchStats`]: crate::stats::SearchStats

use crate::json::{self, Writer};
use std::collections::VecDeque;
use std::fmt;
use std::io::{self, BufRead, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// One structured trace event. All counters are `u64` so the wire schema
/// is uniform across platforms.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// A solver run begins. `alpha`/`direction_optimizing`/`grafting`
    /// echo the *effective* engine configuration (they drive the replay
    /// invariants); non-MS algorithms report `alpha = 0`.
    RunStart {
        /// [`Algorithm::cli_name`](crate::Algorithm::cli_name) of the solver.
        algorithm: String,
        /// `|X|`.
        nx: u64,
        /// `|Y|`.
        ny: u64,
        /// Number of edges.
        edges: u64,
        /// Cardinality of the starting matching.
        initial_cardinality: u64,
        /// Direction-optimization threshold α (0 when not applicable).
        alpha: f64,
        /// Whether bottom-up levels are enabled.
        direction_optimizing: bool,
        /// Whether tree grafting is enabled.
        grafting: bool,
    },
    /// One BFS level of an MS-BFS engine, recorded *before* the sweep:
    /// the frontier and the unvisited `Y`, counted in vertices (Fig. 8)
    /// and in edges, and the direction [`direction_rule`] chose from the
    /// edges (the Beamer et al. crossover).
    Level {
        /// Phase number, starting at 1.
        phase: u64,
        /// Level within the phase, starting at 0.
        level: u64,
        /// `X` vertices in the frontier.
        frontier: u64,
        /// Unvisited `Y` vertices before this level.
        unvisited_y: u64,
        /// Sum of the frontier's degrees: the edges a top-down level scans.
        frontier_edges: u64,
        /// Sum of the unvisited `Y`'s degrees: the most edges a bottom-up
        /// level scans.
        unvisited_edges: u64,
        /// `true` when the level ran bottom-up.
        bottom_up: bool,
    },
    /// A phase completed (BFS forest grown, matching augmented).
    PhaseEnd {
        /// Phase number, starting at 1.
        phase: u64,
        /// BFS levels executed (0 for non-level-structured solvers).
        levels: u64,
        /// How many of those ran bottom-up.
        bottom_up_levels: u64,
        /// Peak frontier size over the phase.
        frontier_peak: u64,
        /// Augmenting paths applied at the end of the phase.
        augmentations: u64,
        /// Total length in edges of those paths.
        path_edges: u64,
        /// Edges traversed during the phase.
        edges_traversed: u64,
        /// Wall-clock of the phase in microseconds.
        elapsed_us: u64,
    },
    /// The Algorithm-7 decision between tree grafting and a frontier
    /// rebuild, with the statistics that drove it.
    Graft {
        /// Phase the decision belongs to.
        phase: u64,
        /// `|activeX|` at the decision.
        active_x: u64,
        /// `|renewableY|` at the decision.
        renewable_y: u64,
        /// Sum of the active `X`'s degrees.
        active_edges: u64,
        /// Sum of the renewable `Y`'s degrees.
        renewable_edges: u64,
        /// `true` when the next frontier was built by grafting.
        grafted: bool,
    },
    /// The run finished; totals mirror [`SearchStats`](crate::stats::SearchStats).
    RunEnd {
        /// Final matching cardinality.
        final_cardinality: u64,
        /// Total phases.
        phases: u64,
        /// Total augmenting paths applied.
        augmenting_paths: u64,
        /// Total edges traversed.
        edges_traversed: u64,
        /// Wall-clock of the solve in microseconds.
        elapsed_us: u64,
        /// Whether a deadline cut the run short.
        timed_out: bool,
    },
    /// An edge insertion in the `graft-dyn` subsystem ran a bounded
    /// augmenting search (or matched the endpoints directly).
    DynAugment {
        /// `X` endpoint of the inserted edge.
        x: u64,
        /// `Y` endpoint of the inserted edge.
        y: u64,
        /// Whether the matching grew by one.
        augmented: bool,
        /// Length in edges of the applied path (0 when none).
        path_len: u64,
        /// Edges traversed by the bounded search (0 for a direct match).
        edges_traversed: u64,
        /// Matching cardinality after the update.
        cardinality: u64,
    },
    /// A matched-edge deletion in `graft-dyn` attempted repair by
    /// augmenting from the two newly exposed endpoints.
    DynRepair {
        /// `X` endpoint of the deleted edge.
        x: u64,
        /// `Y` endpoint of the deleted edge.
        y: u64,
        /// Whether a replacement augmenting path restored the cardinality.
        repaired: bool,
        /// Edges traversed by the repair search(es).
        edges_traversed: u64,
        /// Matching cardinality after the update.
        cardinality: u64,
    },
    /// The `graft-dyn` overlay compacted into a fresh CSR and
    /// warm-started a full solve from the surviving matching.
    DynRebuild {
        /// Live edges in the compacted graph.
        edges: u64,
        /// Tombstones discarded by the compaction.
        tombstones: u64,
        /// Matching cardinality after the warm re-solve.
        cardinality: u64,
        /// Wall-clock of the rebuild in microseconds.
        elapsed_us: u64,
    },
}

impl TraceEvent {
    /// The `"ev"` discriminator of the JSON encoding.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::RunStart { .. } => "run_start",
            TraceEvent::Level { .. } => "level",
            TraceEvent::PhaseEnd { .. } => "phase_end",
            TraceEvent::Graft { .. } => "graft",
            TraceEvent::RunEnd { .. } => "run_end",
            TraceEvent::DynAugment { .. } => "dyn_augment",
            TraceEvent::DynRepair { .. } => "dyn_repair",
            TraceEvent::DynRebuild { .. } => "dyn_rebuild",
        }
    }

    /// Serializes the event as one flat JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let w = Writer::new().str("ev", self.kind());
        match self {
            TraceEvent::RunStart {
                algorithm,
                nx,
                ny,
                edges,
                initial_cardinality,
                alpha,
                direction_optimizing,
                grafting,
            } => w
                .str("algorithm", algorithm)
                .u64("nx", *nx)
                .u64("ny", *ny)
                .u64("edges", *edges)
                .u64("initial_cardinality", *initial_cardinality)
                .f64("alpha", *alpha)
                .bool("direction_optimizing", *direction_optimizing)
                .bool("grafting", *grafting),
            TraceEvent::Level {
                phase,
                level,
                frontier,
                unvisited_y,
                frontier_edges,
                unvisited_edges,
                bottom_up,
            } => w
                .u64("phase", *phase)
                .u64("level", *level)
                .u64("frontier", *frontier)
                .u64("unvisited_y", *unvisited_y)
                .u64("frontier_edges", *frontier_edges)
                .u64("unvisited_edges", *unvisited_edges)
                .bool("bottom_up", *bottom_up),
            TraceEvent::PhaseEnd {
                phase,
                levels,
                bottom_up_levels,
                frontier_peak,
                augmentations,
                path_edges,
                edges_traversed,
                elapsed_us,
            } => w
                .u64("phase", *phase)
                .u64("levels", *levels)
                .u64("bottom_up_levels", *bottom_up_levels)
                .u64("frontier_peak", *frontier_peak)
                .u64("augmentations", *augmentations)
                .u64("path_edges", *path_edges)
                .u64("edges_traversed", *edges_traversed)
                .u64("elapsed_us", *elapsed_us),
            TraceEvent::Graft {
                phase,
                active_x,
                renewable_y,
                active_edges,
                renewable_edges,
                grafted,
            } => w
                .u64("phase", *phase)
                .u64("active_x", *active_x)
                .u64("renewable_y", *renewable_y)
                .u64("active_edges", *active_edges)
                .u64("renewable_edges", *renewable_edges)
                .bool("grafted", *grafted),
            TraceEvent::RunEnd {
                final_cardinality,
                phases,
                augmenting_paths,
                edges_traversed,
                elapsed_us,
                timed_out,
            } => w
                .u64("final_cardinality", *final_cardinality)
                .u64("phases", *phases)
                .u64("augmenting_paths", *augmenting_paths)
                .u64("edges_traversed", *edges_traversed)
                .u64("elapsed_us", *elapsed_us)
                .bool("timed_out", *timed_out),
            TraceEvent::DynAugment {
                x,
                y,
                augmented,
                path_len,
                edges_traversed,
                cardinality,
            } => w
                .u64("x", *x)
                .u64("y", *y)
                .bool("augmented", *augmented)
                .u64("path_len", *path_len)
                .u64("edges_traversed", *edges_traversed)
                .u64("cardinality", *cardinality),
            TraceEvent::DynRepair {
                x,
                y,
                repaired,
                edges_traversed,
                cardinality,
            } => w
                .u64("x", *x)
                .u64("y", *y)
                .bool("repaired", *repaired)
                .u64("edges_traversed", *edges_traversed)
                .u64("cardinality", *cardinality),
            TraceEvent::DynRebuild {
                edges,
                tombstones,
                cardinality,
                elapsed_us,
            } => w
                .u64("edges", *edges)
                .u64("tombstones", *tombstones)
                .u64("cardinality", *cardinality)
                .u64("elapsed_us", *elapsed_us),
        }
        .finish()
    }

    /// Parses one event from its JSON-line encoding.
    pub fn from_json(line: &str) -> Result<TraceEvent, String> {
        let o = json::parse(line)?;
        let ev = match o.str("ev")? {
            "run_start" => TraceEvent::RunStart {
                algorithm: o.str("algorithm")?.to_string(),
                nx: o.u64("nx")?,
                ny: o.u64("ny")?,
                edges: o.u64("edges")?,
                initial_cardinality: o.u64("initial_cardinality")?,
                alpha: o.f64("alpha")?,
                direction_optimizing: o.bool("direction_optimizing")?,
                grafting: o.bool("grafting")?,
            },
            "level" => TraceEvent::Level {
                phase: o.u64("phase")?,
                level: o.u64("level")?,
                frontier: o.u64("frontier")?,
                unvisited_y: o.u64("unvisited_y")?,
                frontier_edges: o.u64("frontier_edges")?,
                unvisited_edges: o.u64("unvisited_edges")?,
                bottom_up: o.bool("bottom_up")?,
            },
            "phase_end" => TraceEvent::PhaseEnd {
                phase: o.u64("phase")?,
                levels: o.u64("levels")?,
                bottom_up_levels: o.u64("bottom_up_levels")?,
                frontier_peak: o.u64("frontier_peak")?,
                augmentations: o.u64("augmentations")?,
                path_edges: o.u64("path_edges")?,
                edges_traversed: o.u64("edges_traversed")?,
                elapsed_us: o.u64("elapsed_us")?,
            },
            "graft" => TraceEvent::Graft {
                phase: o.u64("phase")?,
                active_x: o.u64("active_x")?,
                renewable_y: o.u64("renewable_y")?,
                active_edges: o.u64("active_edges")?,
                renewable_edges: o.u64("renewable_edges")?,
                grafted: o.bool("grafted")?,
            },
            "run_end" => TraceEvent::RunEnd {
                final_cardinality: o.u64("final_cardinality")?,
                phases: o.u64("phases")?,
                augmenting_paths: o.u64("augmenting_paths")?,
                edges_traversed: o.u64("edges_traversed")?,
                elapsed_us: o.u64("elapsed_us")?,
                timed_out: o.bool("timed_out")?,
            },
            "dyn_augment" => TraceEvent::DynAugment {
                x: o.u64("x")?,
                y: o.u64("y")?,
                augmented: o.bool("augmented")?,
                path_len: o.u64("path_len")?,
                edges_traversed: o.u64("edges_traversed")?,
                cardinality: o.u64("cardinality")?,
            },
            "dyn_repair" => TraceEvent::DynRepair {
                x: o.u64("x")?,
                y: o.u64("y")?,
                repaired: o.bool("repaired")?,
                edges_traversed: o.u64("edges_traversed")?,
                cardinality: o.u64("cardinality")?,
            },
            "dyn_rebuild" => TraceEvent::DynRebuild {
                edges: o.u64("edges")?,
                tombstones: o.u64("tombstones")?,
                cardinality: o.u64("cardinality")?,
                elapsed_us: o.u64("elapsed_us")?,
            },
            other => return Err(format!("unknown event kind `{other}`")),
        };
        Ok(ev)
    }
}

/// Error from [`read_jsonl`]: the 1-based line number and what went wrong.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceParseError {
    /// 1-based line number in the input.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for TraceParseError {}

/// Reads a JSONL trace stream (blank lines are skipped).
pub fn read_jsonl<R: BufRead>(reader: R) -> Result<Vec<TraceEvent>, TraceParseError> {
    let mut events = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| TraceParseError {
            line: i + 1,
            msg: format!("read error: {e}"),
        })?;
        if line.trim().is_empty() {
            continue;
        }
        events.push(
            TraceEvent::from_json(&line).map_err(|msg| TraceParseError { line: i + 1, msg })?,
        );
    }
    Ok(events)
}

// ---------------------------------------------------------------------------
// Tracer and sinks
// ---------------------------------------------------------------------------

/// Where emitted events go. Implementations must tolerate concurrent
/// emitters (the service traces jobs from several worker threads into one
/// shared sink).
pub trait TraceSink: Send + Sync {
    /// Accepts one event.
    fn emit(&self, ev: TraceEvent);
    /// Flushes buffered output (no-op for in-memory sinks).
    fn flush(&self) -> io::Result<()> {
        Ok(())
    }
}

/// A cheap, clonable handle the engines thread through their hot loops.
///
/// Disabled (`Tracer::disabled()`, the `Default`) it is a `None` the
/// optimizer sees through: [`emit`](Self::emit) never evaluates its
/// closure. Enabled, it forwards constructed events to the shared sink.
#[derive(Clone, Default)]
pub struct Tracer {
    sink: Option<Arc<dyn TraceSink>>,
}

impl Tracer {
    /// The no-op tracer every untraced entry point uses.
    pub const fn disabled() -> Self {
        Tracer { sink: None }
    }

    /// A tracer feeding `sink`.
    pub fn to_sink(sink: Arc<dyn TraceSink>) -> Self {
        Tracer { sink: Some(sink) }
    }

    /// Whether events are being collected. Engines use this to gate
    /// trace-only work (e.g. phase stopwatches) that has no untraced
    /// counterpart.
    #[inline(always)]
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Emits the event built by `build` — which is *not called* when the
    /// tracer is disabled.
    #[inline(always)]
    pub fn emit(&self, build: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = &self.sink {
            sink.emit(build());
        }
    }

    /// Flushes the underlying sink.
    pub fn flush(&self) -> io::Result<()> {
        match &self.sink {
            Some(sink) => sink.flush(),
            None => Ok(()),
        }
    }
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

/// Collects events in memory; the sink the tests replay from.
#[derive(Default)]
pub struct MemorySink {
    events: Mutex<Vec<TraceEvent>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copies out the events collected so far.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Removes and returns the events collected so far.
    pub fn take(&self) -> Vec<TraceEvent> {
        std::mem::take(&mut *self.events.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Number of events collected.
    pub fn len(&self) -> usize {
        self.events.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether no event has been collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for MemorySink {
    fn emit(&self, ev: TraceEvent) {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(ev);
    }
}

/// Writes one JSON line per event. The JSON is formatted on the emitting
/// thread; the writer lock is held only for the append.
pub struct JsonlSink<W: Write + Send> {
    writer: Mutex<W>,
    failed: AtomicBool,
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps a writer (consider a `BufWriter`).
    pub fn new(writer: W) -> Self {
        Self {
            writer: Mutex::new(writer),
            failed: AtomicBool::new(false),
        }
    }

    /// Whether any write has failed since creation. Emission is
    /// infallible by design (tracing must never abort a solve); failures
    /// latch here and surface through [`TraceSink::flush`].
    pub fn has_failed(&self) -> bool {
        self.failed.load(Ordering::Relaxed)
    }
}

impl JsonlSink<io::BufWriter<std::fs::File>> {
    /// Creates (truncating) a trace file.
    pub fn create(path: &std::path::Path) -> io::Result<Self> {
        Ok(Self::new(io::BufWriter::new(std::fs::File::create(path)?)))
    }
}

impl<W: Write + Send> TraceSink for JsonlSink<W> {
    fn emit(&self, ev: TraceEvent) {
        let mut line = ev.to_json();
        line.push('\n');
        let mut w = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        if w.write_all(line.as_bytes()).is_err() {
            self.failed.store(true, Ordering::Relaxed);
        }
    }

    fn flush(&self) -> io::Result<()> {
        let mut w = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        w.flush()?;
        if self.has_failed() {
            return Err(io::Error::other("trace write failed earlier"));
        }
        Ok(())
    }
}

/// Keeps the most recent `capacity` events — the service's `TRACE` verb
/// reads from one of these, so live tracing is bounded-memory no matter
/// how many solves run.
pub struct RingSink {
    buf: Mutex<VecDeque<TraceEvent>>,
    capacity: usize,
}

impl RingSink {
    /// A ring holding at most `capacity` events (0 keeps nothing).
    pub fn new(capacity: usize) -> Self {
        Self {
            buf: Mutex::new(VecDeque::with_capacity(capacity.min(4096))),
            capacity,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.buf.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The last `n` events, oldest first.
    pub fn recent(&self, n: usize) -> Vec<TraceEvent> {
        let buf = self.buf.lock().unwrap_or_else(|e| e.into_inner());
        let skip = buf.len().saturating_sub(n);
        buf.iter().skip(skip).cloned().collect()
    }

    /// Drops all buffered events.
    pub fn clear(&self) {
        self.buf.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }
}

impl TraceSink for RingSink {
    fn emit(&self, ev: TraceEvent) {
        if self.capacity == 0 {
            return;
        }
        let mut buf = self.buf.lock().unwrap_or_else(|e| e.into_inner());
        if buf.len() == self.capacity {
            buf.pop_front();
        }
        buf.push_back(ev);
    }
}

// ---------------------------------------------------------------------------
// Replay: reconstruct and validate per-run summaries from an event stream
// ---------------------------------------------------------------------------

/// The grafting decision of one phase, from a [`TraceEvent::Graft`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GraftSummary {
    /// `|activeX|` at the decision.
    pub active_x: u64,
    /// `|renewableY|` at the decision.
    pub renewable_y: u64,
    /// Sum of the active `X`'s degrees.
    pub active_edges: u64,
    /// Sum of the renewable `Y`'s degrees.
    pub renewable_edges: u64,
    /// Whether grafting was chosen over a rebuild.
    pub grafted: bool,
}

/// One phase reconstructed from a trace. The MS-BFS, Pothen-Fan and
/// push-relabel engines collect each phase into one of these, which the
/// solve's run frame adds to its counters and emits as events.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhaseSummary {
    /// Phase number, starting at 1.
    pub phase: u64,
    /// BFS levels executed.
    pub levels: u64,
    /// Levels that ran bottom-up.
    pub bottom_up_levels: u64,
    /// Peak frontier size.
    pub frontier_peak: u64,
    /// Augmenting paths applied.
    pub augmentations: u64,
    /// Total path length in edges.
    pub path_edges: u64,
    /// Edges traversed during the phase.
    pub edges_traversed: u64,
    /// Wall-clock of the phase in microseconds.
    pub elapsed_us: u64,
    /// The graft-vs-rebuild decision, when one was recorded.
    pub graft: Option<GraftSummary>,
}

/// One run reconstructed (and validated) from a trace.
#[derive(Clone, Debug, PartialEq)]
pub struct RunSummary {
    /// Solver cli-name.
    pub algorithm: String,
    /// `|X|`.
    pub nx: u64,
    /// `|Y|`.
    pub ny: u64,
    /// Edge count.
    pub edges: u64,
    /// Starting cardinality.
    pub initial_cardinality: u64,
    /// Effective α (0 when not applicable).
    pub alpha: f64,
    /// Direction optimization enabled.
    pub direction_optimizing: bool,
    /// Grafting enabled.
    pub grafting: bool,
    /// The reconstructed phases, in order.
    pub phases: Vec<PhaseSummary>,
    /// Final cardinality.
    pub final_cardinality: u64,
    /// Total phases reported by the solver.
    pub total_phases: u64,
    /// Total augmenting paths.
    pub augmenting_paths: u64,
    /// Total edges traversed.
    pub edges_traversed: u64,
    /// Total wall-clock in microseconds.
    pub elapsed_us: u64,
    /// Whether the run hit its deadline.
    pub timed_out: bool,
}

impl RunSummary {
    /// Fraction of recorded BFS levels that ran bottom-up (Fig. 8's
    /// crossover summary); 0 when no level ran.
    pub fn bottom_up_fraction(&self) -> f64 {
        let levels: u64 = self.phases.iter().map(|p| p.levels).sum();
        if levels == 0 {
            return 0.0;
        }
        let bu: u64 = self.phases.iter().map(|p| p.bottom_up_levels).sum();
        bu as f64 / levels as f64
    }

    /// `(grafted, rebuilt)` decision counts over the recorded phases.
    pub fn graft_counts(&self) -> (u64, u64) {
        let mut grafted = 0;
        let mut rebuilt = 0;
        for p in &self.phases {
            match p.graft {
                Some(GraftSummary { grafted: true, .. }) => grafted += 1,
                Some(GraftSummary { grafted: false, .. }) => rebuilt += 1,
                None => {}
            }
        }
        (grafted, rebuilt)
    }
}

/// An invariant violation found while replaying a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayError {
    /// 0-based index of the offending event in the stream.
    pub index: usize,
    /// What was violated.
    pub msg: String,
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace event {}: {}", self.index, self.msg)
    }
}

impl std::error::Error for ReplayError {}

/// The MS-BFS engine's direction rule, which it calls for every level of
/// a direction-optimizing run: bottom-up iff `Σdeg(F) ≥ Σdeg(U) / α`,
/// where `frontier_edges` is the sum of the frontier's degrees (the edges
/// a top-down level scans) and `unvisited_edges` that of the unvisited
/// `Y` (the most a bottom-up level scans). With no unvisited edge left,
/// any α goes bottom-up.
pub fn direction_rule(frontier_edges: u64, unvisited_edges: u64, alpha: f64) -> bool {
    frontier_edges as f64 >= unvisited_edges as f64 / alpha
}

/// The MS-BFS engine's grafting rule, for a phase that augmented: graft
/// iff grafting is enabled and `Σdeg(activeX) > Σdeg(renewableY) / α`,
/// the edges of the active trees that a rebuild would grow again against
/// the most edges a graft scans.
pub fn graft_rule(active_edges: u64, renewable_edges: u64, alpha: f64, grafting: bool) -> bool {
    grafting && active_edges as f64 > renewable_edges as f64 / alpha
}

struct OpenRun {
    summary: RunSummary,
    levels_seen: u64,
    bottom_up_seen: u64,
    frontier_peak_seen: u64,
}

/// Replays an event stream into per-run summaries, validating every
/// invariant the engines guarantee (see the module docs). Multiple runs
/// per stream are fine; interleaved runs are not (the service's ring
/// serializes whole jobs only when one worker runs at a time — replay a
/// `--trace` file or a per-test capture for strict validation).
pub fn replay(events: &[TraceEvent]) -> Result<Vec<RunSummary>, ReplayError> {
    let mut runs: Vec<RunSummary> = Vec::new();
    let mut open: Option<OpenRun> = None;
    let err = |index: usize, msg: String| ReplayError { index, msg };

    for (i, ev) in events.iter().enumerate() {
        match ev {
            TraceEvent::RunStart {
                algorithm,
                nx,
                ny,
                edges,
                initial_cardinality,
                alpha,
                direction_optimizing,
                grafting,
            } => {
                if open.is_some() {
                    return Err(err(i, "run_start while a run is open".into()));
                }
                open = Some(OpenRun {
                    summary: RunSummary {
                        algorithm: algorithm.clone(),
                        nx: *nx,
                        ny: *ny,
                        edges: *edges,
                        initial_cardinality: *initial_cardinality,
                        alpha: *alpha,
                        direction_optimizing: *direction_optimizing,
                        grafting: *grafting,
                        phases: Vec::new(),
                        final_cardinality: 0,
                        total_phases: 0,
                        augmenting_paths: 0,
                        edges_traversed: 0,
                        elapsed_us: 0,
                        timed_out: false,
                    },
                    levels_seen: 0,
                    bottom_up_seen: 0,
                    frontier_peak_seen: 0,
                });
            }
            TraceEvent::Level {
                phase,
                level,
                frontier,
                frontier_edges,
                unvisited_edges,
                bottom_up,
                ..
            } => {
                let run = open
                    .as_mut()
                    .ok_or_else(|| err(i, "level event outside a run".into()))?;
                let expected_phase = run.summary.phases.len() as u64 + 1;
                if *phase != expected_phase {
                    return Err(err(
                        i,
                        format!("level in phase {phase}, expected phase {expected_phase}"),
                    ));
                }
                if *level != run.levels_seen {
                    return Err(err(
                        i,
                        format!(
                            "levels must increase strictly from 0: got {level}, expected {}",
                            run.levels_seen
                        ),
                    ));
                }
                if *frontier == 0 {
                    return Err(err(i, "level with an empty frontier".into()));
                }
                let want = run.summary.direction_optimizing
                    && direction_rule(*frontier_edges, *unvisited_edges, run.summary.alpha);
                if *bottom_up != want {
                    return Err(err(
                        i,
                        format!(
                            "direction decision bottom_up={bottom_up} contradicts \
                             frontier_edges={frontier_edges} >= \
                             unvisited_edges={unvisited_edges} / alpha={} (dir-opt {})",
                            run.summary.alpha, run.summary.direction_optimizing
                        ),
                    ));
                }
                run.levels_seen += 1;
                run.bottom_up_seen += u64::from(*bottom_up);
                run.frontier_peak_seen = run.frontier_peak_seen.max(*frontier);
            }
            TraceEvent::PhaseEnd {
                phase,
                levels,
                bottom_up_levels,
                frontier_peak,
                augmentations,
                path_edges,
                edges_traversed,
                elapsed_us,
            } => {
                let run = open
                    .as_mut()
                    .ok_or_else(|| err(i, "phase_end outside a run".into()))?;
                let expected_phase = run.summary.phases.len() as u64 + 1;
                if *phase != expected_phase {
                    return Err(err(
                        i,
                        format!("phase_end for phase {phase}, expected {expected_phase}"),
                    ));
                }
                if *levels != run.levels_seen {
                    return Err(err(
                        i,
                        format!(
                            "phase_end reports {levels} levels but {} level events were seen",
                            run.levels_seen
                        ),
                    ));
                }
                if *bottom_up_levels != run.bottom_up_seen {
                    return Err(err(
                        i,
                        format!(
                            "phase_end reports {bottom_up_levels} bottom-up levels, saw {}",
                            run.bottom_up_seen
                        ),
                    ));
                }
                if run.levels_seen > 0 && *frontier_peak != run.frontier_peak_seen {
                    return Err(err(
                        i,
                        format!(
                            "phase_end reports frontier_peak={frontier_peak}, saw {}",
                            run.frontier_peak_seen
                        ),
                    ));
                }
                run.summary.phases.push(PhaseSummary {
                    phase: *phase,
                    levels: *levels,
                    bottom_up_levels: *bottom_up_levels,
                    frontier_peak: *frontier_peak,
                    augmentations: *augmentations,
                    path_edges: *path_edges,
                    edges_traversed: *edges_traversed,
                    elapsed_us: *elapsed_us,
                    graft: None,
                });
                run.levels_seen = 0;
                run.bottom_up_seen = 0;
                run.frontier_peak_seen = 0;
            }
            TraceEvent::Graft {
                phase,
                active_x,
                renewable_y,
                active_edges,
                renewable_edges,
                grafted,
            } => {
                let run = open
                    .as_mut()
                    .ok_or_else(|| err(i, "graft event outside a run".into()))?;
                let last = run
                    .summary
                    .phases
                    .last_mut()
                    .ok_or_else(|| err(i, "graft event before any phase_end".into()))?;
                if *phase != last.phase {
                    return Err(err(
                        i,
                        format!("graft for phase {phase} after phase {}", last.phase),
                    ));
                }
                if last.graft.is_some() {
                    return Err(err(i, format!("second graft event for phase {phase}")));
                }
                let want = graft_rule(
                    *active_edges,
                    *renewable_edges,
                    run.summary.alpha,
                    run.summary.grafting,
                );
                if *grafted != want {
                    return Err(err(
                        i,
                        format!(
                            "graft decision grafted={grafted} contradicts \
                             active_edges={active_edges} > renewable_edges={renewable_edges} \
                             / alpha={} (grafting {})",
                            run.summary.alpha, run.summary.grafting
                        ),
                    ));
                }
                last.graft = Some(GraftSummary {
                    active_x: *active_x,
                    renewable_y: *renewable_y,
                    active_edges: *active_edges,
                    renewable_edges: *renewable_edges,
                    grafted: *grafted,
                });
            }
            TraceEvent::RunEnd {
                final_cardinality,
                phases,
                augmenting_paths,
                edges_traversed,
                elapsed_us,
                timed_out,
            } => {
                let mut run = open
                    .take()
                    .ok_or_else(|| err(i, "run_end outside a run".into()))?;
                if run.levels_seen > 0 {
                    return Err(err(i, "run_end with an unterminated phase".into()));
                }
                let s = &mut run.summary;
                s.final_cardinality = *final_cardinality;
                s.total_phases = *phases;
                s.augmenting_paths = *augmenting_paths;
                s.edges_traversed = *edges_traversed;
                s.elapsed_us = *elapsed_us;
                s.timed_out = *timed_out;
                if *final_cardinality < s.initial_cardinality {
                    return Err(err(i, "matching shrank over the run".into()));
                }
                // Solvers that emit phase events account every
                // augmentation to a phase: the phase-reported sum must
                // equal both the cardinality delta and the run total.
                if !s.phases.is_empty() {
                    let phase_augs = s
                        .phases
                        .iter()
                        .try_fold(0u64, |sum, p| sum.checked_add(p.augmentations))
                        .ok_or_else(|| err(i, "phase augmentations overflow a u64".into()))?;
                    let delta = *final_cardinality - s.initial_cardinality;
                    if phase_augs != delta {
                        return Err(err(
                            i,
                            format!(
                                "phase augmentations sum to {phase_augs} but the cardinality \
                                 delta is {delta}"
                            ),
                        ));
                    }
                    if phase_augs != *augmenting_paths {
                        return Err(err(
                            i,
                            format!(
                                "phase augmentations sum to {phase_augs} but run_end reports \
                                 {augmenting_paths}"
                            ),
                        ));
                    }
                    if s.phases.len() as u64 != *phases {
                        return Err(err(
                            i,
                            format!(
                                "{} phase_end events but run_end reports {phases} phases",
                                s.phases.len()
                            ),
                        ));
                    }
                }
                runs.push(run.summary);
            }
            // graft-dyn update events are not part of a solver run; they
            // may appear anywhere in a stream (a rebuild's warm re-solve
            // emits its own run_start/run_end pair) and carry no replay
            // invariants of their own.
            TraceEvent::DynAugment { .. }
            | TraceEvent::DynRepair { .. }
            | TraceEvent::DynRebuild { .. } => {}
        }
    }
    if open.is_some() {
        return Err(err(events.len(), "stream ends with an open run".into()));
    }
    Ok(runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::RunStart {
                algorithm: "ms-bfs-graft".into(),
                nx: 6,
                ny: 6,
                edges: 12,
                initial_cardinality: 4,
                alpha: 5.0,
                direction_optimizing: true,
                grafting: true,
            },
            TraceEvent::Level {
                phase: 1,
                level: 0,
                frontier: 2,
                unvisited_y: 6,
                frontier_edges: 2,
                unvisited_edges: 12,
                bottom_up: false,
            },
            TraceEvent::Level {
                phase: 1,
                level: 1,
                frontier: 2,
                unvisited_y: 3,
                frontier_edges: 4,
                unvisited_edges: 6,
                bottom_up: true,
            },
            TraceEvent::PhaseEnd {
                phase: 1,
                levels: 2,
                bottom_up_levels: 1,
                frontier_peak: 2,
                augmentations: 2,
                path_edges: 4,
                edges_traversed: 14,
                elapsed_us: 11,
            },
            TraceEvent::Graft {
                phase: 1,
                active_x: 0,
                renewable_y: 5,
                active_edges: 0,
                renewable_edges: 10,
                grafted: false,
            },
            TraceEvent::PhaseEnd {
                phase: 2,
                levels: 0,
                bottom_up_levels: 0,
                frontier_peak: 0,
                augmentations: 0,
                path_edges: 0,
                edges_traversed: 0,
                elapsed_us: 1,
            },
            TraceEvent::RunEnd {
                final_cardinality: 6,
                phases: 2,
                augmenting_paths: 2,
                edges_traversed: 20,
                elapsed_us: 35,
                timed_out: false,
            },
        ]
    }

    fn dyn_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::DynAugment {
                x: 3,
                y: 7,
                augmented: true,
                path_len: 5,
                edges_traversed: 19,
                cardinality: 42,
            },
            TraceEvent::DynRepair {
                x: 3,
                y: 7,
                repaired: false,
                edges_traversed: 8,
                cardinality: 41,
            },
            TraceEvent::DynRebuild {
                edges: 900,
                tombstones: 250,
                cardinality: 41,
                elapsed_us: u64::MAX,
            },
        ]
    }

    /// The exact lines `to_json` writes for [`sample_events`] and
    /// [`dyn_events`]. Trace files written by earlier builds of the same
    /// schema must keep parsing, so these bytes change only with the
    /// schema. The last change added the edge sums that the switch rules
    /// weigh to `level` and `graft`.
    const PINNED_JSON: [&str; 10] = [
        r#"{"ev":"run_start","algorithm":"ms-bfs-graft","nx":6,"ny":6,"edges":12,"initial_cardinality":4,"alpha":5.0,"direction_optimizing":true,"grafting":true}"#,
        r#"{"ev":"level","phase":1,"level":0,"frontier":2,"unvisited_y":6,"frontier_edges":2,"unvisited_edges":12,"bottom_up":false}"#,
        r#"{"ev":"level","phase":1,"level":1,"frontier":2,"unvisited_y":3,"frontier_edges":4,"unvisited_edges":6,"bottom_up":true}"#,
        r#"{"ev":"phase_end","phase":1,"levels":2,"bottom_up_levels":1,"frontier_peak":2,"augmentations":2,"path_edges":4,"edges_traversed":14,"elapsed_us":11}"#,
        r#"{"ev":"graft","phase":1,"active_x":0,"renewable_y":5,"active_edges":0,"renewable_edges":10,"grafted":false}"#,
        r#"{"ev":"phase_end","phase":2,"levels":0,"bottom_up_levels":0,"frontier_peak":0,"augmentations":0,"path_edges":0,"edges_traversed":0,"elapsed_us":1}"#,
        r#"{"ev":"run_end","final_cardinality":6,"phases":2,"augmenting_paths":2,"edges_traversed":20,"elapsed_us":35,"timed_out":false}"#,
        r#"{"ev":"dyn_augment","x":3,"y":7,"augmented":true,"path_len":5,"edges_traversed":19,"cardinality":42}"#,
        r#"{"ev":"dyn_repair","x":3,"y":7,"repaired":false,"edges_traversed":8,"cardinality":41}"#,
        r#"{"ev":"dyn_rebuild","edges":900,"tombstones":250,"cardinality":41,"elapsed_us":18446744073709551615}"#,
    ];

    #[test]
    fn json_round_trip_every_variant() {
        let events: Vec<_> = sample_events().into_iter().chain(dyn_events()).collect();
        assert_eq!(events.len(), PINNED_JSON.len());
        for (ev, pinned) in events.iter().zip(PINNED_JSON) {
            assert_eq!(ev.to_json(), pinned);
            assert_eq!(&TraceEvent::from_json(pinned).unwrap(), ev, "{pinned}");
        }
    }

    #[test]
    fn replay_skips_dyn_events_anywhere() {
        // Before, between, and after runs: dyn events never perturb the
        // run-level invariants.
        let mut evs = dyn_events();
        evs.extend(sample_events());
        evs.insert(4, dyn_events()[2].clone());
        evs.extend(dyn_events());
        let runs = replay(&evs).unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].final_cardinality, 6);
    }

    #[test]
    fn string_escapes_round_trip() {
        let ev = TraceEvent::RunStart {
            algorithm: "we\"ird\\name\nwith\tctrl\u{1}".into(),
            nx: 0,
            ny: 0,
            edges: 0,
            initial_cardinality: 0,
            alpha: 0.5,
            direction_optimizing: false,
            grafting: false,
        };
        let json = ev.to_json();
        assert_eq!(
            json,
            r#"{"ev":"run_start","algorithm":"we\"ird\\name\nwith\tctrl\u0001","nx":0,"ny":0,"edges":0,"initial_cardinality":0,"alpha":0.5,"direction_optimizing":false,"grafting":false}"#
        );
        assert_eq!(TraceEvent::from_json(&json).unwrap(), ev);
    }

    #[test]
    fn from_json_rejects_garbage() {
        for bad in [
            "",
            "{",
            "nonsense",
            "{\"ev\":\"level\"}",                       // missing fields
            "{\"ev\":\"warp\",\"phase\":1}",            // unknown kind
            "{\"ev\":\"level\",\"phase\":\"one\",\"level\":0,\"frontier\":1,\"unvisited_y\":1,\"frontier_edges\":1,\"unvisited_edges\":1,\"bottom_up\":true}",
            "{\"ev\":\"run_end\"} extra",
        ] {
            assert!(TraceEvent::from_json(bad).is_err(), "accepted `{bad}`");
        }
        // A level or graft line without the edge sums predates the edge
        // rules; replay could not check its decision.
        let old_level =
            r#"{"ev":"level","phase":1,"level":0,"frontier":2,"unvisited_y":6,"bottom_up":true}"#;
        let e = TraceEvent::from_json(old_level).unwrap_err();
        assert!(e.contains("frontier_edges"), "{e}");
        let old_graft = r#"{"ev":"graft","phase":1,"active_x":0,"renewable_y":5,"grafted":false}"#;
        let e = TraceEvent::from_json(old_graft).unwrap_err();
        assert!(e.contains("active_edges"), "{e}");
    }

    #[test]
    fn read_jsonl_reports_line_numbers() {
        let text = "\n{\"ev\":\"graft\",\"phase\":1,\"active_x\":1,\"renewable_y\":1,\"active_edges\":1,\"renewable_edges\":1,\"grafted\":true}\nnot json\n";
        let e = read_jsonl(text.as_bytes()).unwrap_err();
        assert_eq!(e.line, 3);
    }

    #[test]
    fn disabled_tracer_never_builds_events() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        t.emit(|| panic!("closure must not run when disabled"));
        t.flush().unwrap();
    }

    #[test]
    fn memory_sink_collects_in_order() {
        let sink = Arc::new(MemorySink::new());
        let t = Tracer::to_sink(Arc::<MemorySink>::clone(&sink));
        assert!(t.is_enabled());
        for ev in sample_events() {
            t.emit(|| ev.clone());
        }
        assert_eq!(sink.snapshot(), sample_events());
        assert_eq!(sink.take().len(), 7);
        assert!(sink.is_empty());
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let sink = JsonlSink::new(Vec::new());
        for ev in sample_events() {
            sink.emit(ev);
        }
        sink.flush().unwrap();
        let bytes = sink.writer.into_inner().unwrap();
        let parsed = read_jsonl(&bytes[..]).unwrap();
        assert_eq!(parsed, sample_events());
    }

    #[test]
    fn ring_sink_keeps_most_recent() {
        let ring = RingSink::new(3);
        for ev in sample_events() {
            ring.emit(ev);
        }
        assert_eq!(ring.len(), 3);
        let recent = ring.recent(2);
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[1], sample_events()[6]);
        assert_eq!(ring.recent(100).len(), 3);
        ring.clear();
        assert!(ring.is_empty());
        let empty = RingSink::new(0);
        empty.emit(sample_events()[0].clone());
        assert!(empty.is_empty());
    }

    #[test]
    fn replay_accepts_a_valid_run() {
        let runs = replay(&sample_events()).unwrap();
        assert_eq!(runs.len(), 1);
        let r = &runs[0];
        assert_eq!(r.algorithm, "ms-bfs-graft");
        assert_eq!(r.phases.len(), 2);
        assert_eq!(r.phases[0].graft.unwrap().renewable_y, 5);
        assert_eq!(r.phases[0].graft.unwrap().renewable_edges, 10);
        assert!((r.bottom_up_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(r.graft_counts(), (0, 1));
    }

    #[test]
    fn replay_rejects_wrong_direction_decision() {
        let mut evs = sample_events();
        // 2 frontier vertices >= 6 unvisited / 5, but 2 frontier edges <
        // 12 unvisited edges / 5: the edges keep it top-down; flip it.
        evs[1] = TraceEvent::Level {
            phase: 1,
            level: 0,
            frontier: 2,
            unvisited_y: 6,
            frontier_edges: 2,
            unvisited_edges: 12,
            bottom_up: true,
        };
        let e = replay(&evs).unwrap_err();
        assert_eq!(e.index, 1);
        assert!(e.msg.contains("direction decision"), "{}", e.msg);
        assert!(e.msg.contains("unvisited_edges=12"), "{}", e.msg);
    }

    #[test]
    fn replay_rejects_non_increasing_levels() {
        let mut evs = sample_events();
        evs[2] = evs[1].clone(); // repeat level 0
        let e = replay(&evs).unwrap_err();
        assert_eq!(e.index, 2);
        assert!(e.msg.contains("strictly"), "{}", e.msg);
    }

    #[test]
    fn replay_rejects_bad_augmentation_sum() {
        let mut evs = sample_events();
        if let TraceEvent::RunEnd {
            final_cardinality, ..
        } = &mut evs[6]
        {
            *final_cardinality = 5; // delta 1, phases sum 2
        }
        let e = replay(&evs).unwrap_err();
        assert!(e.msg.contains("cardinality"), "{}", e.msg);
    }

    #[test]
    fn replay_rejects_overflowing_augmentation_sum() {
        // u64::MAX + 2 wraps to 1, which would match the cardinality
        // delta, the run total and the phase count below.
        let phase = |phase, augmentations| TraceEvent::PhaseEnd {
            phase,
            levels: 0,
            bottom_up_levels: 0,
            frontier_peak: 0,
            augmentations,
            path_edges: 0,
            edges_traversed: 0,
            elapsed_us: 0,
        };
        let mut evs = sample_events()[..1].to_vec();
        if let TraceEvent::RunStart {
            initial_cardinality,
            ..
        } = &mut evs[0]
        {
            *initial_cardinality = 0;
        }
        evs.push(phase(1, u64::MAX));
        evs.push(phase(2, 2));
        evs.push(TraceEvent::RunEnd {
            final_cardinality: 1,
            phases: 2,
            augmenting_paths: 1,
            edges_traversed: 0,
            elapsed_us: 0,
            timed_out: false,
        });
        let e = replay(&evs).unwrap_err();
        assert_eq!(e.index, 3);
        assert!(e.msg.contains("overflow"), "{}", e.msg);
    }

    #[test]
    fn replay_rejects_wrong_graft_decision() {
        // By vertices, 1 active X against 5 renewable Y / 5 rebuilds and
        // 10 against 5 / 5 grafts; the edges decide the other way.
        for (active_x, active_edges, renewable_edges, grafted) in
            [(1, 10, 5, false), (10, 1, 10, true)]
        {
            let mut evs = sample_events();
            evs[4] = TraceEvent::Graft {
                phase: 1,
                active_x,
                renewable_y: 5,
                active_edges,
                renewable_edges,
                grafted,
            };
            let e = replay(&evs).unwrap_err();
            assert_eq!(e.index, 4);
            assert!(e.msg.contains("graft decision"), "{}", e.msg);
            assert!(
                e.msg.contains(&format!("active_edges={active_edges}")),
                "{}",
                e.msg
            );
        }
    }

    #[test]
    fn replay_rejects_orphan_and_open_runs() {
        let evs = vec![sample_events()[1].clone()];
        assert!(replay(&evs).unwrap_err().msg.contains("outside a run"));
        let evs = sample_events()[..1].to_vec();
        assert!(replay(&evs).unwrap_err().msg.contains("open run"));
    }

    #[test]
    fn replay_handles_multiple_runs() {
        let mut evs = sample_events();
        evs.extend(sample_events());
        let runs = replay(&evs).unwrap();
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0], runs[1]);
    }

    #[test]
    fn rules_match_engine_arithmetic() {
        assert!(direction_rule(2, 10, 5.0)); // 2 >= 2
        assert!(!direction_rule(1, 10, 5.0)); // 1 < 2
        assert!(graft_rule(3, 10, 5.0, true)); // 3 > 2
        assert!(!graft_rule(2, 10, 5.0, true)); // 2 !> 2
        assert!(!graft_rule(3, 10, 5.0, false));
        // The rules weigh edges, at the default α = 1. 4 frontier X
        // against 10 unvisited Y, all of degree 3, stay top-down (12 <
        // 30), though the paper's 4 >= 10 / 5 went bottom-up; one hub of
        // degree 50 against 20 unvisited Y of degree 2 goes bottom-up
        // (50 >= 40), though 1 < 20 / 5.
        let alpha = crate::MsBfsOptions::default().alpha;
        assert!(!direction_rule(12, 30, alpha));
        assert!(direction_rule(50, 40, alpha));
        // With no unvisited edge left, any α goes bottom-up.
        for alpha in [1e-9, 1.0, 1e9] {
            assert!(direction_rule(0, 0, alpha));
            assert!(direction_rule(7, 0, alpha));
        }
        // 3 active X of degree 10 against 20 renewable Y of degree 1
        // graft (30 > 20), though 3 < 20 / 5; 6 active X of degree 1
        // against 2 renewable Y of degree 10 rebuild (6 < 20), though
        // 6 > 2 / 5.
        assert!(graft_rule(30, 20, alpha, true));
        assert!(!graft_rule(6, 20, alpha, true));
    }
}
