//! TCP front-end: accept loop, per-connection reader threads, dispatch,
//! and the resilience core (admission control, graceful drain, crash-safe
//! snapshots).
//!
//! Concurrency model (all `std`, no async runtime):
//!
//! * one **accept loop** thread (the caller of [`Server::run`]), which
//!   sheds connections beyond [`ServeConfig::max_connections`] with a
//!   typed `ERR overloaded` instead of letting them queue invisibly;
//! * one **reader thread per connection**, which parses request lines and
//!   writes reply lines — registry commands (`LOAD`, `GEN`, `EVICT`,
//!   `STATS`, `HEALTH`, `TRACE`) execute inline on this thread, so a
//!   saturated worker pool never blocks monitoring. `LOAD`/`GEN` pass
//!   **byte-budget admission control** first: the graph's size is
//!   estimated from its header/scaling law and oversized requests are
//!   refused with `ERR too-large` before anything is materialized;
//! * the fixed **worker pool** (the [`Scheduler`]) executes `SOLVE`,
//!   `UPDATE` and `SLEEP` jobs behind a panic firewall: a panicking job
//!   answers `ERR internal job=<id>` and the worker survives;
//! * one **request path** to that pool: a one-shot `SOLVE`, `UPDATE` or
//!   `SLEEP` is a batch of one whose reply has no header. `SOLVE_BATCH n`
//!   and `UPDATE_BATCH n` **pipeline**: the connection thread reads all
//!   `n` member lines, submits them to the pool tagged with their slot
//!   index, and replies `OK batch=<n>` plus one line per slot *in
//!   request order* as a reorder buffer resolves — a malformed, refused,
//!   timed-out, or panicking member yields its typed `ERR` in-slot
//!   without desynchronizing the rest.
//!
//! **Drain protocol**: `SHUTDOWN` and SIGTERM both call
//! [`ShutdownHandle::initiate`], which flips the service to `draining` —
//! `HEALTH` reports it, new `SOLVE`s are refused with
//! `ERR shutting-down`, in-flight jobs get up to
//! [`ServeConfig::drain_ms`] to finish — then a final snapshot is
//! written (when `--state` is configured) and [`Server::run`] returns.
//!
//! **Snapshots**: with [`ServeConfig::state_dir`] set, the registry's
//! sources and warm matchings are persisted periodically and on drain
//! (atomic tmp+rename, see [`crate::snapshot`]), and restored on boot so
//! the first `SOLVE` of a restored graph is warm.

use crate::error::SvcError;
use crate::faults::{FaultPlan, FaultSite};
use crate::journal::{AppendOutcome, FsyncPolicy, Journal};
use crate::metrics::Metrics;
use crate::protocol::{
    err_line, parse_batch_member, parse_request, parse_update_member, Request, SolveSpec,
    UpdateSpec, MAX_LINE_BYTES,
};
use crate::registry::{
    estimate_source_bytes, parse_gen_spec, GraphInfo, GraphRegistry, GraphSource,
};
use crate::scheduler::Scheduler;
use crate::snapshot::{self, Snapshot, SnapshotDelta};
use graft_core::trace::RingSink;
use graft_core::{
    solve_from_traced_in, Algorithm, Matching, SolveOptions, SolveWorkspace, Stop, Tracer,
};
use graft_dyn::{DynConfig, DynamicMatching, UpdateOutcome};
use graft_sim::{Clock, Conn, Disk, Listener, RealDisk, TcpTransport, Transport, WallClock};
use std::collections::{BTreeSet, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Server tunables.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads executing solve jobs.
    pub workers: usize,
    /// Default solver thread count for `SOLVE` requests that do not pass
    /// an explicit `threads=k`. A k-thread parallel solve occupies k
    /// worker slots in the scheduler while it runs; a serial algorithm
    /// always runs on one thread and occupies one slot. Must be in
    /// `[1, workers]`.
    pub threads_per_solve: usize,
    /// Bound on queued (not yet running) jobs; beyond it `SOLVE` replies
    /// `ERR overloaded` with a `retry_after_ms` hint.
    pub queue_capacity: usize,
    /// Byte budget of the graph cache.
    pub cache_bytes: usize,
    /// Capacity of the trace-event ring served by `TRACE`; 0 disables
    /// solve tracing entirely (the engines see a disabled [`Tracer`]).
    pub trace_events: usize,
    /// Admission limit: a `LOAD`/`GEN` whose *estimated* materialized
    /// size exceeds this is refused with `ERR too-large` before any
    /// allocation. `usize::MAX` disables the check.
    pub max_graph_bytes: usize,
    /// Concurrent connection cap; connections beyond it are answered
    /// `ERR overloaded` and closed at accept.
    pub max_connections: usize,
    /// How long a drain (SHUTDOWN/SIGTERM) waits for in-flight jobs.
    pub drain_ms: u64,
    /// Directory for crash-safe registry snapshots; `None` disables
    /// persistence.
    pub state_dir: Option<PathBuf>,
    /// Interval between periodic snapshots; 0 snapshots only on drain.
    pub snapshot_interval_ms: u64,
    /// When appended `UPDATE` journal records are fsynced (see
    /// [`FsyncPolicy`]); only meaningful with `state_dir`.
    pub fsync: FsyncPolicy,
    /// Fault-injection spec (see [`FaultPlan::from_spec`]); `None` (the
    /// default) injects nothing and costs nothing on the hot path.
    pub fault_spec: Option<String>,
    /// Test-only: collapse the drain grace period to zero so in-flight
    /// jobs are abandoned at shutdown. Exists to prove the simulation
    /// harness catches (and replays) a real timing bug; never set in
    /// production.
    #[doc(hidden)]
    pub broken_drain_timer: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            threads_per_solve: 1,
            queue_capacity: 64,
            cache_bytes: 256 << 20,
            trace_events: 1024,
            max_graph_bytes: usize::MAX,
            max_connections: 256,
            drain_ms: 5_000,
            state_dir: None,
            snapshot_interval_ms: 30_000,
            fsync: FsyncPolicy::Drain,
            fault_spec: None,
            broken_drain_timer: false,
        }
    }
}

/// `HEALTH` states (stored in an `AtomicU8`).
const HEALTH_LIVE: u8 = 0;
const HEALTH_READY: u8 = 1;
const HEALTH_DRAINING: u8 = 2;

fn health_name(v: u8) -> &'static str {
    match v {
        HEALTH_READY => "ready",
        HEALTH_DRAINING => "draining",
        _ => "live",
    }
}

enum Job {
    Solve {
        name: String,
        algorithm: Algorithm,
        deadline: Option<Instant>,
        threads: usize,
        cold: bool,
        submitted: Instant,
    },
    Update(UpdateSpec),
    Sleep(u64),
}

/// Locks a mutex, recovering from poisoning. A panicking update is
/// already isolated by the scheduler's firewall; abandoning the graph's
/// dynamic state on top of that would turn one contained panic into a
/// permanent per-graph outage.
fn lock_recover<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One graph's live dynamic-update state: the incremental matcher plus a
/// journal of edge updates relative to the *registered source*. The
/// journal is what snapshots persist and replay on restart — it is
/// deliberately independent of the matcher's internal compactions, which
/// fold the overlay into its private base CSR.
struct DynState {
    dm: DynamicMatching,
    adds: BTreeSet<(u32, u32)>,
    dels: BTreeSet<(u32, u32)>,
}

impl DynState {
    /// Folds one update that changed the graph into the journal.
    fn journal(&mut self, add: bool, x: u32, y: u32) {
        snapshot::fold_update(&mut self.adds, &mut self.dels, add, (x, y));
    }
}

/// All dynamic states, created lazily on a graph's first `UPDATE`.
/// `restored` holds snapshot deltas not yet replayed; each is consumed by
/// the graph's first `UPDATE` and, until then, persisted verbatim so an
/// idle restart keeps it.
#[derive(Default)]
struct DynStore {
    states: Mutex<HashMap<String, Arc<Mutex<Option<DynState>>>>>,
    restored: Mutex<HashMap<String, SnapshotDelta>>,
}

impl DynStore {
    /// Snapshot view: every non-empty live journal plus the
    /// not-yet-replayed restored deltas, in stable name order.
    fn deltas(&self) -> Vec<SnapshotDelta> {
        let mut out: Vec<SnapshotDelta> = lock_recover(&self.restored).values().cloned().collect();
        let states = lock_recover(&self.states);
        for (name, slot) in states.iter() {
            let guard = lock_recover(slot);
            if let Some(s) = guard.as_ref() {
                if !s.adds.is_empty() || !s.dels.is_empty() {
                    out.push(SnapshotDelta {
                        name: name.clone(),
                        adds: s.adds.iter().copied().collect(),
                        dels: s.dels.iter().copied().collect(),
                    });
                }
            }
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Forgets `name`'s dynamic state and any restored-but-unreplayed
    /// delta, so the name's next `UPDATE` starts from whatever graph is
    /// registered under it then. `EVICT` and every successful
    /// `LOAD`/`GEN` call this.
    fn forget(&self, name: &str) {
        lock_recover(&self.states).remove(name);
        lock_recover(&self.restored).remove(name);
    }
}

/// The durable state as one snapshot: registry entries, dynamic deltas,
/// and the rebuild counter.
fn snapshot_of(registry: &GraphRegistry, dyn_store: &DynStore, metrics: &Metrics) -> Snapshot {
    Snapshot {
        entries: registry.snapshot_entries(),
        deltas: dyn_store.deltas(),
        rebuilds: metrics.rebuilds.load(Ordering::Relaxed),
    }
}

type JobReply = Result<String, SvcError>;

/// Initiates the drain protocol: the `SHUTDOWN` verb pulls it from its
/// connection thread, a SIGTERM handler from outside. Cloneable and
/// `Send`; safe to trigger more than once.
#[derive(Clone)]
pub struct ShutdownHandle {
    shutdown: Arc<AtomicBool>,
    health: Arc<AtomicU8>,
    sched: Arc<Scheduler<Job, JobReply>>,
    transport: Arc<dyn Transport>,
    addr: SocketAddr,
}

impl ShutdownHandle {
    /// Flips the service to `draining` (new `SOLVE`s are refused, queued
    /// jobs still run) and wakes the accept loop so [`Server::run`] can
    /// finish the drain and write the final snapshot.
    pub fn initiate(&self) {
        self.health.store(HEALTH_DRAINING, Ordering::SeqCst);
        self.shutdown.store(true, Ordering::SeqCst);
        self.sched.shutdown();
        // Wake the accept loop so `Server::run` observes the flag.
        let _ = self
            .transport
            .connect(&self.addr.to_string(), Some(Duration::from_secs(1)));
    }
}

/// A bound, not-yet-running service instance.
pub struct Server {
    listener: Box<dyn Listener>,
    transport: Arc<dyn Transport>,
    clock: Arc<dyn Clock>,
    registry: Arc<GraphRegistry>,
    metrics: Arc<Metrics>,
    sched: Arc<Scheduler<Job, JobReply>>,
    shutdown: Arc<AtomicBool>,
    health: Arc<AtomicU8>,
    trace: Arc<RingSink>,
    faults: Option<&'static FaultPlan>,
    shrink_gen: Arc<AtomicU64>,
    dyn_store: Arc<DynStore>,
    journal: Option<Arc<Journal>>,
    cfg: ServeConfig,
}

/// Per-worker solver state: a resident [`SolveWorkspace`] (grown on
/// demand to the largest graph this worker has solved), the worker's own
/// copy of a cached warm matching, and the last observed shrink
/// generation. `EVICT` bumps the shared generation; each worker compares
/// lazily before its next job and releases the buffers and the copy, so
/// state sized for an evicted giant does not pin its footprint.
#[derive(Default)]
struct WorkerState {
    ws: SolveWorkspace,
    /// The matching this worker's last warm solve returned unchanged,
    /// beside the registry's `Arc` it equals. A warm solve whose `get`
    /// returns that same `Arc` runs on this copy instead of cloning it.
    warm: Option<(Arc<Matching>, Matching)>,
    seen_shrink_gen: u64,
}

impl WorkerState {
    /// Releases the workspace buffers and the warm copy if `EVICT` has
    /// moved the shrink generation to `gen` since the last job.
    fn observe_shrink_gen(&mut self, gen: u64) {
        if self.seen_shrink_gen != gen {
            self.ws.shrink();
            self.warm = None;
            self.seen_shrink_gen = gen;
        }
    }
}

// One parameter per piece of per-worker/shared state the job touches;
// bundling them into a context struct would only move the list.
#[allow(clippy::too_many_arguments)]
fn run_job(
    job: Job,
    registry: &GraphRegistry,
    metrics: &Metrics,
    tracer: &Tracer,
    dyn_store: &DynStore,
    journal: Option<&Journal>,
    phase_hook: &(dyn Fn(u32) + Sync),
    clock: &dyn Clock,
    worker: &mut WorkerState,
) -> JobReply {
    match job {
        Job::Sleep(ms) => {
            clock.sleep(std::time::Duration::from_millis(ms));
            Ok(format!("OK slept_ms={ms}"))
        }
        Job::Update(spec) => {
            run_update(&spec, registry, metrics, tracer, dyn_store, journal, clock)
        }
        Job::Solve {
            name,
            algorithm,
            deadline,
            threads,
            cold,
            submitted,
        } => {
            let (graph, warm) = registry.get(&name)?;
            if let Some(dl) = deadline {
                // The job may have aged out while queued.
                if clock.now() >= dl {
                    metrics.jobs_timed_out.fetch_add(1, Ordering::Relaxed);
                    return Err(SvcError::DeadlineExceeded {
                        elapsed: clock.now().saturating_duration_since(submitted),
                    });
                }
            }
            // Polled by the engine before each phase. The deadline goes
            // first: a solve told to stop runs no phase hook for the
            // phase it will not run.
            let stop = |phases_done| {
                let late = deadline.is_some_and(|dl| clock.now() >= dl);
                if !late {
                    phase_hook(phases_done);
                }
                late
            };
            let opts = SolveOptions {
                threads,
                stop: Stop(&stop),
                ..SolveOptions::default()
            };
            let warm = warm.filter(|_| !cold);
            metrics
                .solve_threads_used
                .fetch_add(threads.max(1) as u64, Ordering::Relaxed);
            let t0 = clock.now();
            // The worker's copy leaves its state before the engine runs,
            // so a solve abandoned by a panic loses only that copy; the
            // registry's matching is never lent. Without a warm start the
            // dispatcher runs the initializer, inside the solve's pool.
            let held = worker.warm.take();
            let m0 = warm.as_ref().map(|w| match held {
                Some((of, copy)) if Arc::ptr_eq(&of, w) => copy,
                _ => (**w).clone(),
            });
            let out = solve_from_traced_in(&graph, m0, algorithm, &opts, tracer, &mut worker.ws);
            let solve_us = clock.now().saturating_duration_since(t0).as_micros() as u64;
            metrics.solve.record(solve_us);
            if out.stats.timed_out {
                metrics.jobs_timed_out.fetch_add(1, Ordering::Relaxed);
                return Err(SvcError::DeadlineExceeded {
                    elapsed: clock.now().saturating_duration_since(submitted),
                });
            }
            let s = &out.stats;
            // `elapsed_us` is measured on the server's clock (not the
            // solver's internal wall timer) so replies are deterministic
            // under virtual time: a pure-compute solve takes zero
            // virtual microseconds.
            let line = format!(
                "OK graph={name} algorithm={} cardinality={} phases={} augmentations={} warm={} elapsed_us={}",
                algorithm.cli_name(),
                s.final_cardinality,
                s.phases,
                s.augmenting_paths,
                warm.is_some(),
                solve_us,
            );
            match warm {
                // A completed solve that augmented nothing changed no
                // mate: the registry's matching stays published, and the
                // result stays with the worker for its next warm solve.
                Some(w) if s.augmenting_paths == 0 => {
                    debug_assert!(
                        out.matching == *w,
                        "a solve without augmentations moved mates"
                    );
                    registry.store_warm_for(&name, &graph, Arc::clone(&w));
                    worker.warm = Some((w, out.matching));
                }
                _ => registry.store_warm_for(&name, &graph, Arc::new(out.matching)),
            }
            metrics.record_solve(algorithm, &name, solve_us);
            Ok(line)
        }
    }
}

/// Executes one `UPDATE`: finds (or lazily creates) the graph's dynamic
/// state, applies the edge update incrementally, journals it for the
/// snapshot, persists it per the journal's fsync policy, and renders
/// the reply line.
#[allow(clippy::too_many_arguments)]
fn run_update(
    spec: &UpdateSpec,
    registry: &GraphRegistry,
    metrics: &Metrics,
    tracer: &Tracer,
    store: &DynStore,
    journal: Option<&Journal>,
    clock: &dyn Clock,
) -> JobReply {
    let slot = {
        let mut states = lock_recover(&store.states);
        Arc::clone(states.entry(spec.name.clone()).or_default())
    };
    let mut guard = lock_recover(&slot);
    let t0 = clock.now();
    if guard.is_none() {
        // Lazy creation: clone the registered CSR, warm-start from the
        // registry's last matching when the dimensions line up, then
        // replay the snapshot-restored journal (if any) against it.
        let (graph, warm) = match registry.get(&spec.name) {
            Ok(g) => g,
            Err(e) => {
                metrics.updates_err.fetch_add(1, Ordering::Relaxed);
                return Err(e);
            }
        };
        let base = (*graph).clone();
        let mut dm = match warm {
            Some(m0)
                if m0.mates_x().len() == base.num_x() && m0.mates_y().len() == base.num_y() =>
            {
                DynamicMatching::with_warm_start(base, (*m0).clone(), DynConfig::default())
            }
            _ => DynamicMatching::new(base),
        };
        dm.set_tracer(tracer.clone());
        let mut state = DynState {
            dm,
            adds: BTreeSet::new(),
            dels: BTreeSet::new(),
        };
        let restored = lock_recover(&store.restored).remove(&spec.name);
        if let Some(delta) = restored {
            // An edge that no longer replays (the graph's source file
            // changed underneath the snapshot, say) drops that edge,
            // not the whole graph. Only the records that changed the
            // graph are journaled, as on the live path: a stale add of
            // an edge the source already has would cancel a later
            // delete of it.
            let mut exact = true;
            for &(x, y) in &delta.adds {
                match state.dm.insert_edge(x, y) {
                    Ok(r) if r.outcome != UpdateOutcome::Noop => state.journal(true, x, y),
                    _ => exact = false,
                }
            }
            for &(x, y) in &delta.dels {
                match state.dm.delete_edge(x, y) {
                    Ok(_) => state.journal(false, x, y),
                    Err(_) => exact = false,
                }
            }
            if !exact {
                // The file still holds the delta as recorded, and
                // appended records would fold onto it: the graph's next
                // journal write rewrites the file.
                if let Some(j) = journal {
                    j.require_rewrite(&spec.name);
                }
            }
        }
        *guard = Some(state);
    }
    let state = guard.as_mut().expect("dyn state initialized above");
    let result = if spec.add {
        state.dm.insert_edge(spec.x, spec.y)
    } else {
        state.dm.delete_edge(spec.x, spec.y)
    };
    match result {
        Err(e) => {
            metrics.updates_err.fetch_add(1, Ordering::Relaxed);
            Err(SvcError::BadRequest(e.to_string()))
        }
        Ok(report) => {
            // A noop insert changed nothing; everything else moves the
            // journal.
            let applied = report.outcome != UpdateOutcome::Noop;
            if applied {
                state.journal(spec.add, spec.x, spec.y);
            }
            if report.rebuilt {
                metrics.rebuilds.fetch_add(1, Ordering::Relaxed);
            }
            let reply = format!(
                "OK graph={} op={} x={} y={} outcome={} cardinality={} rebuilds={} elapsed_us={}",
                spec.name,
                if spec.add { "add" } else { "del" },
                spec.x,
                spec.y,
                report.outcome.label(),
                report.cardinality,
                state.dm.rebuilds(),
                clock.now().saturating_duration_since(t0).as_micros(),
            );
            // Release the slot before touching the journal (lock order:
            // slots before journal, never while collecting other slots
            // for a rewrite). Replaying update records is commutative —
            // same-edge ops are inverse or idempotent pairs — so an
            // append landing after another worker's interleaved save is
            // harmless.
            drop(guard);
            if applied {
                if let Some(j) = journal {
                    let outcome = j.try_append(&spec.name, spec.add, spec.x, spec.y);
                    let persisted = match outcome {
                        Ok(AppendOutcome::Appended) => Ok(()),
                        Ok(AppendOutcome::NeedsRewrite) => {
                            // First update of a graph this epoch: its
                            // `graph` record isn't on disk yet, so
                            // rewrite the whole journal (which captures
                            // this update via the collected deltas).
                            let snap = snapshot_of(registry, store, metrics);
                            j.save_full(&snap, None).map(|()| {
                                metrics.snapshots_saved.fetch_add(1, Ordering::Relaxed);
                            })
                        }
                        Err(e) => Err(e),
                    };
                    if let Err(e) = persisted {
                        metrics.journal_errors.fetch_add(1, Ordering::Relaxed);
                        if matches!(j.policy(), FsyncPolicy::Always) {
                            // Ack must imply durable in this mode: the
                            // update stays applied in memory, but the
                            // client sees a retryable error instead of
                            // a lying OK.
                            metrics.updates_err.fetch_add(1, Ordering::Relaxed);
                            return Err(SvcError::Durability(e.to_string()));
                        }
                        eprintln!(
                            "graft-svc: journal append for `{}` failed (next save retries): {e}",
                            spec.name
                        );
                    }
                }
            }
            metrics.updates_ok.fetch_add(1, Ordering::Relaxed);
            Ok(reply)
        }
    }
}

/// Writes one full snapshot through the journal, which starts a fresh
/// append epoch, translating failures (I/O or injected panics) into
/// metrics instead of letting them escape into the calling thread.
fn save_snapshot(
    registry: &GraphRegistry,
    dyn_store: &DynStore,
    metrics: &Metrics,
    journal: &Journal,
    faults: Option<&FaultPlan>,
) {
    let snap = snapshot_of(registry, dyn_store, metrics);
    let result = catch_unwind(AssertUnwindSafe(|| journal.save_full(&snap, faults)));
    match result {
        Ok(Ok(())) => {
            metrics.snapshots_saved.fetch_add(1, Ordering::Relaxed);
        }
        Ok(Err(e)) => {
            metrics.snapshot_errors.fetch_add(1, Ordering::Relaxed);
            eprintln!("graft-svc: snapshot save failed: {e}");
        }
        Err(_) => {
            metrics.snapshot_errors.fetch_add(1, Ordering::Relaxed);
            eprintln!("graft-svc: snapshot save panicked (contained)");
        }
    }
}

impl Server {
    /// Binds the listener, spawns the worker pool, and (with
    /// [`ServeConfig::state_dir`]) restores the last snapshot. The
    /// service is not reachable until [`run`](Self::run) starts
    /// accepting. Production entry point: real TCP, wall-clock time.
    pub fn bind(cfg: &ServeConfig) -> std::io::Result<Server> {
        Self::bind_with(cfg, Arc::new(TcpTransport), Arc::new(WallClock))
    }

    /// [`Server::bind`] with explicit network and time capabilities. The
    /// simulation harness passes a [`graft_sim::SimNet`] and
    /// [`graft_sim::SimClock`] here; every deadline, backoff, drain
    /// timer, snapshot interval, and fault delay in the service then
    /// runs on `clock`, and every byte travels through `transport`.
    pub fn bind_with(
        cfg: &ServeConfig,
        transport: Arc<dyn Transport>,
        clock: Arc<dyn Clock>,
    ) -> std::io::Result<Server> {
        Self::bind_with_disk(cfg, transport, clock, Arc::new(RealDisk))
    }

    /// [`Server::bind_with`] with an explicit disk capability as well.
    /// The crash-matrix tests pass a [`graft_sim::SimDisk`] here; every
    /// snapshot byte, fsync, and rename the service performs then lands
    /// in the simulated (crashable, fault-injectable) filesystem.
    pub fn bind_with_disk(
        cfg: &ServeConfig,
        transport: Arc<dyn Transport>,
        clock: Arc<dyn Clock>,
        disk: Arc<dyn Disk>,
    ) -> std::io::Result<Server> {
        let workers = cfg.workers.max(1);
        if cfg.threads_per_solve == 0 || cfg.threads_per_solve > workers {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "threads_per_solve={} must be in [1, workers={workers}]",
                    cfg.threads_per_solve
                ),
            ));
        }
        let faults: Option<&'static FaultPlan> = match &cfg.fault_spec {
            None => None,
            Some(spec) => {
                let mut plan = FaultPlan::from_spec(spec)
                    .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
                plan.set_clock(Arc::clone(&clock));
                // One plan per server process, alive for its lifetime:
                // leaking it gives the `&'static` the registry holds.
                Some(&*Box::leak(Box::new(plan)))
            }
        };
        let listener = transport.bind(&cfg.addr)?;
        let registry = Arc::new(GraphRegistry::with_faults(cfg.cache_bytes, faults));
        let metrics = Arc::new(Metrics::with_clock(Arc::clone(&clock)));
        let trace = Arc::new(RingSink::new(cfg.trace_events));
        let tracer = if cfg.trace_events > 0 {
            Tracer::to_sink(Arc::clone(&trace) as _)
        } else {
            Tracer::disabled()
        };
        let dyn_store = Arc::new(DynStore::default());
        let journal = cfg.state_dir.as_ref().map(|dir| {
            Arc::new(Journal::new(
                Arc::clone(&disk),
                dir.clone(),
                cfg.fsync,
                Arc::clone(&metrics),
            ))
        });
        if let Some(dir) = &cfg.state_dir {
            // A crash between tmp creation and rename leaves an orphaned
            // `registry.jsonl.tmp`; it is dead weight and would shadow a
            // later save's tmp, so sweep it before loading.
            match snapshot::cleanup_stale_tmp(disk.as_ref(), dir) {
                Ok(removed) => {
                    for name in &removed {
                        metrics.stale_tmp_removed.fetch_add(1, Ordering::Relaxed);
                        eprintln!("graft-svc: removed orphaned snapshot tmp `{name}`");
                    }
                }
                Err(e) => eprintln!("graft-svc: stale-tmp sweep failed: {e}"),
            }
            // The load runs under `catch_unwind` for the same reason
            // saves do: an injected (or genuine) panic in the snapshot
            // path must cost the warm restart, not the whole boot.
            let loaded = catch_unwind(AssertUnwindSafe(|| {
                snapshot::load_on(disk.as_ref(), dir, faults)
            }))
            .unwrap_or_else(|_| {
                Err(snapshot::SnapshotError::Io(std::io::Error::other(
                    "snapshot load panicked (contained)",
                )))
            });
            match loaded {
                Ok(report) => {
                    if let Some(t) = &report.truncated {
                        // v3 recovery cut the journal at its first bad
                        // record; make the cut physical so the next
                        // append lands after a clean prefix.
                        metrics.journal_truncations.fetch_add(1, Ordering::Relaxed);
                        eprintln!(
                            "graft-svc: journal truncated at line {} (byte {}): {}",
                            t.line, t.byte_offset, t.message
                        );
                        if let Err(e) = snapshot::truncate_at(disk.as_ref(), dir, t.byte_offset) {
                            eprintln!("graft-svc: could not truncate journal: {e}");
                        }
                    }
                    let snap = report.snapshot;
                    metrics.rebuilds.store(snap.rebuilds, Ordering::Relaxed);
                    {
                        let mut restored = lock_recover(&dyn_store.restored);
                        for d in snap.deltas {
                            restored.insert(d.name.clone(), d);
                        }
                    }
                    let entry_names: Vec<String> = snap
                        .entries
                        .into_iter()
                        .map(|e| {
                            registry.restore(&e.name, e.source, e.warm);
                            e.name
                        })
                        .collect();
                    let j = journal.as_ref().expect("state_dir implies journal");
                    if report.truncated.is_some() {
                        // Rewrite a truncated journal once at boot so the
                        // file on disk is a clean prefix again, ready for
                        // appends.
                        save_snapshot(&registry, &dyn_store, &metrics, j, faults);
                    } else if report.version == Some(snapshot::SNAPSHOT_VERSION) {
                        // Clean journal: append onto it instead of
                        // rewriting.
                        if let Err(e) = j.adopt(entry_names) {
                            eprintln!("graft-svc: could not adopt journal for appends: {e}");
                        }
                    }
                    // A missing/empty file stays unadopted; the first
                    // save or append-needing-rewrite establishes it.
                }
                Err(e) => {
                    // A corrupt snapshot must not brick the service:
                    // start cold and say so.
                    eprintln!("graft-svc: starting cold, snapshot unusable: {e}");
                }
            }
        }
        let shrink_gen = Arc::new(AtomicU64::new(0));
        let sched = {
            let registry = Arc::clone(&registry);
            let metrics = Arc::clone(&metrics);
            let shrink_gen = Arc::clone(&shrink_gen);
            let dyn_store = Arc::clone(&dyn_store);
            let clock = Arc::clone(&clock);
            let journal = journal.clone();
            Arc::new(
                Scheduler::with_worker_state_on(
                    cfg.workers,
                    cfg.queue_capacity,
                    Arc::clone(&metrics),
                    Arc::clone(&clock),
                    WorkerState::default,
                    move |job, state: &mut WorkerState| {
                        state.observe_shrink_gen(shrink_gen.load(Ordering::Relaxed));
                        run_job(
                            job,
                            &registry,
                            &metrics,
                            &tracer,
                            &dyn_store,
                            journal.as_deref(),
                            &|_| {
                                if let Some(plan) = faults {
                                    plan.maybe_fail_infallible(FaultSite::SolverPhase)
                                }
                            },
                            &*clock,
                            state,
                        )
                    },
                )
                .with_weight(|job: &Job| match job {
                    // A k-thread solve occupies k worker slots; everything
                    // else (updates, sleeps) is single-slot.
                    Job::Solve { threads, .. } => *threads,
                    _ => 1,
                }),
            )
        };
        Ok(Server {
            dyn_store,
            journal,
            listener,
            transport,
            clock,
            registry,
            metrics,
            sched,
            shutdown: Arc::new(AtomicBool::new(false)),
            health: Arc::new(AtomicU8::new(HEALTH_LIVE)),
            trace,
            faults,
            shrink_gen,
            cfg: cfg.clone(),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that initiates the drain protocol from another thread
    /// (the SIGTERM handler in `graftmatch serve`).
    pub fn shutdown_handle(&self) -> std::io::Result<ShutdownHandle> {
        Ok(ShutdownHandle {
            shutdown: Arc::clone(&self.shutdown),
            health: Arc::clone(&self.health),
            sched: Arc::clone(&self.sched),
            transport: Arc::clone(&self.transport),
            addr: self.local_addr()?,
        })
    }

    /// The server's metrics registry — the same counters `STATS`
    /// renders. Scenario assertions read these directly after a run.
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.metrics)
    }

    /// Accept loop. Returns after `SHUTDOWN` (or a
    /// [`ShutdownHandle::initiate`]) once the drain finishes and the
    /// final snapshot (if configured) is written.
    pub fn run(self) -> std::io::Result<()> {
        let drain = self.shutdown_handle()?;
        self.health.store(HEALTH_READY, Ordering::SeqCst);

        // Periodic snapshot writer (and `interval-ms` journal fsyncer):
        // wakes every 100ms (on the server's clock) so shutdown is
        // prompt, saves every `snapshot_interval_ms`, fsyncs dirty
        // appends every `interval-ms` under that fsync policy.
        let snapshot_thread = self.journal.clone().and_then(|journal| {
            let fsync_every = match self.cfg.fsync {
                FsyncPolicy::Interval(d) => Some(d),
                _ => None,
            };
            if self.cfg.snapshot_interval_ms == 0 && fsync_every.is_none() {
                return None;
            }
            let registry = Arc::clone(&self.registry);
            let metrics = Arc::clone(&self.metrics);
            let dyn_store = Arc::clone(&self.dyn_store);
            let stop = Arc::clone(&self.shutdown);
            let faults = self.faults;
            let clock = Arc::clone(&self.clock);
            let interval = Duration::from_millis(self.cfg.snapshot_interval_ms);
            Some(std::thread::spawn(move || {
                let mut last = clock.now();
                let mut last_fsync = clock.now();
                while !stop.load(Ordering::SeqCst) {
                    clock.sleep(Duration::from_millis(100));
                    if interval > Duration::ZERO
                        && clock.now().saturating_duration_since(last) >= interval
                    {
                        save_snapshot(&registry, &dyn_store, &metrics, &journal, faults);
                        last = clock.now();
                    }
                    if let Some(every) = fsync_every {
                        if clock.now().saturating_duration_since(last_fsync) >= every {
                            if let Err(e) = journal.fsync_if_dirty() {
                                metrics.journal_errors.fetch_add(1, Ordering::Relaxed);
                                eprintln!("graft-svc: interval journal fsync failed: {e}");
                            }
                            last_fsync = clock.now();
                        }
                    }
                }
            }))
        });

        loop {
            let stream = self.listener.accept_conn();
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                Err(_) => continue,
            };
            // Replies are single small lines; Nagle would hold them
            // hostage to the peer's delayed ACK. Best-effort.
            let _ = stream.set_nodelay(true);
            // Connection cap: shed with a typed reply instead of
            // accepting work the server can't isolate.
            if self.metrics.connections_open.load(Ordering::Relaxed) >= self.cfg.max_connections {
                self.metrics
                    .connections_shed
                    .fetch_add(1, Ordering::Relaxed);
                let mut s = stream;
                let e = SvcError::Overloaded {
                    capacity: self.cfg.max_connections,
                    retry_after_ms: 100,
                };
                let _ = writeln!(s, "{}", err_line(&e));
                continue;
            }
            self.metrics
                .connections_open
                .fetch_add(1, Ordering::Relaxed);
            let registry = Arc::clone(&self.registry);
            let metrics = Arc::clone(&self.metrics);
            let sched = Arc::clone(&self.sched);
            let dyn_store = Arc::clone(&self.dyn_store);
            let health = Arc::clone(&self.health);
            let drain = drain.clone();
            let trace = Arc::clone(&self.trace);
            let shrink_gen = Arc::clone(&self.shrink_gen);
            let clock = Arc::clone(&self.clock);
            let max_graph_bytes = self.cfg.max_graph_bytes;
            let workers = self.cfg.workers.max(1);
            let threads_per_solve = self.cfg.threads_per_solve;
            std::thread::spawn(move || {
                let ctx = ConnCtx {
                    registry: &registry,
                    metrics: &metrics,
                    sched: &sched,
                    dyn_store: &dyn_store,
                    trace: &trace,
                    health: &health,
                    drain: &drain,
                    shrink_gen: &shrink_gen,
                    clock: &*clock,
                    max_graph_bytes,
                    workers,
                    threads_per_solve,
                };
                let _ = handle_connection(stream, &ctx);
                metrics.connections_open.fetch_sub(1, Ordering::Relaxed);
            });
        }

        // Drain: give in-flight jobs a bounded grace period, then
        // persist. (`sched.shutdown()` already ran via the handle or the
        // SHUTDOWN connection; repeating it is harmless and covers the
        // accept-error exit path.)
        self.health.store(HEALTH_DRAINING, Ordering::SeqCst);
        self.sched.shutdown();
        let grace = if self.cfg.broken_drain_timer {
            Duration::ZERO
        } else {
            Duration::from_millis(self.cfg.drain_ms)
        };
        let drained = self.sched.drain_within(grace);
        if !drained {
            self.metrics.drain_timeouts.fetch_add(1, Ordering::Relaxed);
            eprintln!(
                "graft-svc: drain deadline ({}ms) passed with {} job(s) still in flight",
                grace.as_millis(),
                self.sched.backlog()
            );
        }
        if let Some(t) = snapshot_thread {
            let _ = t.join();
        }
        if let Some(journal) = &self.journal {
            save_snapshot(
                &self.registry,
                &self.dyn_store,
                &self.metrics,
                journal,
                self.faults,
            );
        }
        Ok(())
    }
}

fn info_line(name: &str, info: GraphInfo) -> String {
    format!(
        "OK name={name} nx={} ny={} edges={} bytes={}",
        info.nx, info.ny, info.edges, info.bytes
    )
}

/// Everything a connection thread needs, bundled so helpers stay
/// readable.
struct ConnCtx<'a> {
    registry: &'a GraphRegistry,
    metrics: &'a Metrics,
    sched: &'a Scheduler<Job, JobReply>,
    dyn_store: &'a DynStore,
    trace: &'a RingSink,
    health: &'a AtomicU8,
    /// The drain trigger `SHUTDOWN` pulls.
    drain: &'a ShutdownHandle,
    shrink_gen: &'a AtomicU64,
    clock: &'a dyn Clock,
    max_graph_bytes: usize,
    /// Worker pool size — the hard ceiling for `SOLVE ... threads=k`.
    workers: usize,
    /// Default `threads` for solves that do not pass `threads=k`.
    threads_per_solve: usize,
}

/// Upper bound a `TRACE n` may ask for; anything larger is a typo or an
/// attack, not a real request.
const MAX_TRACE_LIMIT: u64 = 1_000_000;

/// Admission check + guarded registration shared by `LOAD` and `GEN`.
/// The registry materializes outside its lock, so catching a panic here
/// (an injected fault or a genuine parser bug) leaves no poisoned state —
/// the connection reports `ERR internal` and keeps serving.
fn register_guarded(ctx: &ConnCtx<'_>, name: &str, source: GraphSource) -> String {
    if ctx.max_graph_bytes != usize::MAX {
        match estimate_source_bytes(&source) {
            Err(e) => return err_line(&e),
            Ok(estimated) if estimated > ctx.max_graph_bytes => {
                ctx.metrics
                    .admission_rejected
                    .fetch_add(1, Ordering::Relaxed);
                return err_line(&SvcError::TooLarge {
                    estimated,
                    limit: ctx.max_graph_bytes,
                });
            }
            Ok(_) => {}
        }
    }
    match catch_unwind(AssertUnwindSafe(|| ctx.registry.register(name, source))) {
        Ok(Ok(info)) => {
            // The old graph's dynamic state must not answer for the new one.
            ctx.dyn_store.forget(name);
            info_line(name, info)
        }
        Ok(Err(e)) => err_line(&e),
        Err(_) => {
            ctx.metrics.panics.fetch_add(1, Ordering::Relaxed);
            err_line(&SvcError::Internal { job: 0 })
        }
    }
}

/// Resolves a solve's thread count against the server's configuration:
/// `threads=0` (unspecified) becomes the `--threads-per-solve` default; an
/// explicit count larger than the worker pool is a typed bad-request (the
/// scheduler could never grant that many slots). A serial algorithm then
/// resolves to 1 — it runs on one thread whatever it asked for, so it
/// holds one worker slot.
fn resolve_solve_threads(ctx: &ConnCtx<'_>, spec: &SolveSpec) -> Result<usize, SvcError> {
    let t = if spec.threads == 0 {
        ctx.threads_per_solve
    } else {
        spec.threads
    };
    if t > ctx.workers {
        return Err(SvcError::BadRequest(format!(
            "threads={t} exceeds worker pool size {}",
            ctx.workers
        )));
    }
    Ok(if spec.algorithm.is_parallel() { t } else { 1 })
}

/// What [`dispatch`] makes of one request: a reply computed on the
/// connection thread, or a job for the worker pool.
enum Step {
    Reply(String),
    Job(Job),
}

/// Runs a registry or monitoring request inline, or turns a pool request
/// (`SOLVE`, `UPDATE`, `SLEEP`, one-shot or batch member alike) into its
/// job: a solve's thread count is resolved and its deadline anchored at
/// the clock's `now`.
fn dispatch(req: Request, ctx: &ConnCtx<'_>) -> Step {
    let line = match req {
        Request::Load { name, path } => {
            register_guarded(ctx, &name, GraphSource::MtxFile(path.into()))
        }
        Request::Gen { name, spec } => match parse_gen_spec(&spec) {
            Ok(src) => register_guarded(ctx, &name, src),
            Err(e) => err_line(&e),
        },
        Request::Solve(spec) => match resolve_solve_threads(ctx, &spec) {
            Err(e) => err_line(&e),
            Ok(threads) => {
                let now = ctx.clock.now();
                return Step::Job(Job::Solve {
                    name: spec.name,
                    algorithm: spec.algorithm,
                    deadline: spec.timeout_ms.map(|ms| now + Duration::from_millis(ms)),
                    threads,
                    cold: spec.cold,
                    submitted: now,
                });
            }
        },
        Request::Update(spec) => return Step::Job(Job::Update(spec)),
        Request::SolveBatch { .. } | Request::UpdateBatch { .. } => {
            // Batches are intercepted by `handle_connection` (only it can
            // read the member lines); reaching this arm means a caller
            // dispatched the header without the stream.
            err_line(&SvcError::BadRequest(
                "batch requests require a connection stream".to_string(),
            ))
        }
        Request::Sleep { ms } => return Step::Job(Job::Sleep(ms)),
        Request::Stats => {
            let mut line = String::from("OK ");
            ctx.metrics.render(&mut line);
            let r = ctx.registry.stats();
            use std::fmt::Write;
            let _ = write!(
                line,
                " cache_hits={} cache_misses={} cache_evictions={} cache_reloads={} \
                 cache_entries={} cache_bytes={} cache_budget={} registered={} cache_lookups={}",
                r.cache.hits,
                r.cache.misses,
                r.cache.evictions,
                r.reloads,
                r.entries,
                r.used_bytes,
                r.budget_bytes,
                r.registered,
                r.cache.lookups,
            );
            line
        }
        Request::Health => {
            format!(
                "OK state={} backlog={}",
                health_name(ctx.health.load(Ordering::SeqCst)),
                ctx.sched.backlog()
            )
        }
        Request::Trace { limit } => {
            let cap = ctx.trace.capacity();
            let n = match limit {
                None => cap,
                Some(0) => {
                    return Step::Reply(err_line(&SvcError::BadRequest(
                        "trace limit must be at least 1".to_string(),
                    )))
                }
                Some(n) if n > MAX_TRACE_LIMIT => {
                    return Step::Reply(err_line(&SvcError::BadRequest(format!(
                        "trace limit {n} exceeds the maximum {MAX_TRACE_LIMIT}"
                    ))))
                }
                // Bounded server-side: never more than the ring holds.
                Some(n) => (n as usize).min(cap),
            };
            let events = ctx.trace.recent(n);
            let mut reply = format!("OK events={}", events.len());
            for ev in &events {
                reply.push('\n');
                reply.push_str(&ev.to_json());
            }
            reply
        }
        Request::Evict { name } => {
            let evicted = ctx.registry.evict(&name);
            // Dynamic state (and any restored-but-unreplayed delta) goes
            // with the registration: an evicted name is fully forgotten.
            ctx.dyn_store.forget(&name);
            if evicted {
                // Tell workers their resident workspaces may now be
                // oversized; each shrinks lazily before its next solve.
                ctx.shrink_gen.fetch_add(1, Ordering::Relaxed);
            }
            format!("OK name={name} evicted={evicted}")
        }
        Request::Shutdown => "OK bye".to_string(),
    };
    Step::Reply(line)
}

/// One line read from the bounded reader.
enum LineRead {
    /// A complete line (newline stripped, may hold arbitrary bytes).
    Line(Vec<u8>),
    /// The line exceeded [`MAX_LINE_BYTES`]; the excess has already been
    /// drained up to (and including) the next newline.
    TooLong,
    /// Clean end of stream.
    Eof,
}

/// Reads one `\n`-terminated line without ever buffering more than
/// [`MAX_LINE_BYTES`] of it — `BufRead::read_line` would happily grow
/// an unbounded `String` on a hostile peer (and error out the whole
/// connection on invalid UTF-8).
fn read_bounded_line(reader: &mut impl BufRead) -> std::io::Result<LineRead> {
    let mut line = Vec::new();
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return Ok(if line.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Line(line)
            });
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                line.extend_from_slice(&buf[..pos]);
                reader.consume(pos + 1);
                if line.len() > MAX_LINE_BYTES {
                    return Ok(LineRead::TooLong);
                }
                return Ok(LineRead::Line(line));
            }
            None => {
                let take = buf.len();
                line.extend_from_slice(buf);
                reader.consume(take);
                if line.len() > MAX_LINE_BYTES {
                    drain_to_newline(reader)?;
                    return Ok(LineRead::TooLong);
                }
            }
        }
    }
}

/// Discards input up to and including the next newline (or EOF), so an
/// oversized request leaves the stream positioned at the next request.
fn drain_to_newline(reader: &mut impl BufRead) -> std::io::Result<()> {
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return Ok(());
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                reader.consume(pos + 1);
                return Ok(());
            }
            None => {
                let take = buf.len();
                reader.consume(take);
            }
        }
    }
}

/// Writes a pre-assembled chunk of reply lines (each already
/// `\n`-terminated) in one syscall. A failed write (client hung up
/// mid-reply) is absorbed into the `write_errors` metric and reported as
/// `false` — it must never unwind or poison anything, the caller just
/// stops serving this connection.
fn write_chunk(writer: &mut dyn Conn, metrics: &Metrics, chunk: &str) -> bool {
    let r = writer
        .write_all(chunk.as_bytes())
        .and_then(|()| writer.flush());
    if r.is_err() {
        metrics.write_errors.fetch_add(1, Ordering::Relaxed);
        return false;
    }
    true
}

/// Reads a batch's `count` member lines, parses each with
/// `parse_member`, and only then dispatches them all, so every member's
/// deadline is anchored before the first job is submitted (a running job
/// may advance virtual time under simulation). Consuming exactly `count`
/// lines keeps the stream framed even when members are malformed: a bad
/// member becomes its typed error, in its slot. `None` when the peer hung
/// up before the batch was fully framed — there is nobody to reply to.
fn read_batch(
    reader: &mut impl BufRead,
    ctx: &ConnCtx<'_>,
    count: usize,
    parse_member: fn(&str) -> Result<Request, SvcError>,
) -> std::io::Result<Option<Vec<Step>>> {
    let mut members = Vec::with_capacity(count);
    for _ in 0..count {
        members.push(match read_bounded_line(reader)? {
            LineRead::Eof => return Ok(None),
            LineRead::TooLong => Err(SvcError::BadRequest(format!(
                "batch member exceeds {MAX_LINE_BYTES} bytes"
            ))),
            LineRead::Line(raw) => match std::str::from_utf8(&raw) {
                Err(_) => Err(SvcError::BadRequest(
                    "batch member is not valid UTF-8".to_string(),
                )),
                Ok(s) => parse_member(s),
            },
        });
    }
    let steps = members.into_iter().map(|member| match member {
        Ok(req) => dispatch(req, ctx),
        Err(e) => Step::Reply(err_line(&e)),
    });
    Ok(Some(steps.collect()))
}

/// The one path from requests to the worker pool and back. A one-shot
/// request is a batch of one without the header; a `SOLVE_BATCH` or
/// `UPDATE_BATCH` passes one step per member and `batch`, which puts its
/// `OK batch=<n>` header first.
///
/// Every job goes to the pool at once, tagged with its slot, on one
/// completion queue: the queue capacity, not this thread's round trips,
/// bounds how much of a batch runs concurrently. Replies then go out in
/// slot order, the resolved prefix in one write per burst of
/// completions. Backpressure (`ERR overloaded`), drain
/// (`ERR shutting-down`), deadlines and the panic firewall
/// (`ERR internal`) each land in their own slot without desynchronizing
/// the rest. A job that ran and failed counts in `solves_err`; a panic
/// is already counted by the scheduler.
///
/// Returns `false` when a write failed (the peer hung up); completions
/// are still drained so the `solves_err` ledger closes.
fn serve_steps(writer: &mut dyn Conn, ctx: &ConnCtx<'_>, batch: bool, steps: Vec<Step>) -> bool {
    let count = steps.len();
    let (tx, rx) = mpsc::channel();
    let mut replies: Vec<Option<String>> = steps
        .into_iter()
        .enumerate()
        .map(|(slot, step)| match step {
            Step::Reply(line) => Some(line),
            Step::Job(job) => ctx
                .sched
                .submit(job, slot as u64, &tx)
                .err()
                .map(|e| err_line(&e)),
        })
        .collect();
    // Our clone is the only non-worker sender; dropping it lets
    // `rx.recv()` report `Err` once every outstanding job has either
    // replied or been abandoned by a dying pool — no hang either way.
    drop(tx);

    let mut ok_to_write =
        !batch || write_chunk(writer, ctx.metrics, &format!("OK batch={count}\n"));
    let mut next = 0usize;
    let mut chunk = String::new();
    loop {
        chunk.clear();
        while let Some(Some(line)) = replies.get(next) {
            chunk.push_str(line);
            chunk.push('\n');
            next += 1;
        }
        if ok_to_write && !chunk.is_empty() {
            ok_to_write = write_chunk(writer, ctx.metrics, &chunk);
        }
        if next == count {
            return ok_to_write;
        }
        match rx.recv() {
            // Coalesce: fold in every completion that already landed
            // while this thread was writing, so a fast pool costs one
            // reply syscall per burst, not per member.
            Ok(first) => {
                for (tag, result) in std::iter::once(first).chain(rx.try_iter()) {
                    replies[tag as usize] = Some(match result {
                        Ok(Ok(line)) => line,
                        Ok(Err(e)) => {
                            // The job ran and failed with a typed error.
                            ctx.metrics.solves_err.fetch_add(1, Ordering::Relaxed);
                            err_line(&e)
                        }
                        // The job panicked; the scheduler already counted it.
                        Err(e) => err_line(&e),
                    });
                }
            }
            // Worker pool went away mid-batch (shutdown race): every
            // unresolved slot gets the typed drain error.
            Err(_) => {
                for r in replies.iter_mut().filter(|r| r.is_none()) {
                    *r = Some(err_line(&SvcError::ShuttingDown));
                }
            }
        }
    }
}

fn handle_connection(stream: Box<dyn Conn>, ctx: &ConnCtx<'_>) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone_conn()?);
    let mut writer = stream;
    loop {
        let req = match read_bounded_line(&mut reader)? {
            LineRead::Eof => break,
            LineRead::TooLong => Err(SvcError::BadRequest(format!(
                "request line exceeds {MAX_LINE_BYTES} bytes"
            ))),
            LineRead::Line(raw) => match std::str::from_utf8(&raw) {
                Err(_) => Err(SvcError::BadRequest(
                    "request is not valid UTF-8".to_string(),
                )),
                Ok(line) if line.trim().is_empty() => continue,
                Ok(line) => parse_request(line),
            },
        };
        let is_shutdown = matches!(req, Ok(Request::Shutdown));
        let (batch, steps) = match req {
            Ok(Request::SolveBatch { count }) => (
                true,
                read_batch(&mut reader, ctx, count, parse_batch_member)?,
            ),
            Ok(Request::UpdateBatch { count }) => (
                true,
                read_batch(&mut reader, ctx, count, parse_update_member)?,
            ),
            Ok(req) => (false, Some(vec![dispatch(req, ctx)])),
            Err(e) => (false, Some(vec![Step::Reply(err_line(&e))])),
        };
        let Some(steps) = steps else { break };
        let wrote = serve_steps(&mut *writer, ctx, batch, steps);
        if is_shutdown {
            // Trigger the drain whether or not the `OK bye` reached the
            // client — a peer that hangs up right after SHUTDOWN must
            // still shut the server down.
            ctx.drain.initiate();
            break;
        }
        if !wrote {
            break;
        }
    }
    Ok(())
}

/// Binds and runs a server in one call (the `graftmatch serve` entry
/// point). Blocks until a client issues `SHUTDOWN`. `on_bind` receives
/// the bound address before accepting starts — print it, stash it for a
/// test client, etc.
pub fn serve(cfg: &ServeConfig, on_bind: impl FnOnce(SocketAddr)) -> std::io::Result<()> {
    let server = Server::bind(cfg)?;
    on_bind(server.local_addr()?);
    server.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graft_sim::SimClock;
    use std::sync::atomic::AtomicU32;

    fn solve_job(name: &str, algorithm: Algorithm, cold: bool) -> Job {
        Job::Solve {
            name: name.to_string(),
            algorithm,
            deadline: None,
            threads: 1,
            cold,
            submitted: Instant::now(),
        }
    }

    /// A registry holding `spec` as graph `g`.
    fn registry_with(spec: &str) -> GraphRegistry {
        let registry = GraphRegistry::new(usize::MAX);
        registry
            .register("g", parse_gen_spec(spec).unwrap())
            .unwrap();
        registry
    }

    /// Runs `job` against `registry` with `phase_hook`, on `clock`, on a
    /// fresh worker.
    fn run(
        registry: &GraphRegistry,
        job: Job,
        phase_hook: &(dyn Fn(u32) + Sync),
        clock: &dyn Clock,
    ) -> JobReply {
        run_on(
            registry,
            &mut WorkerState::default(),
            job,
            phase_hook,
            clock,
        )
    }

    /// [`run`] on `worker`, whose state carries over between calls.
    fn run_on(
        registry: &GraphRegistry,
        worker: &mut WorkerState,
        job: Job,
        phase_hook: &(dyn Fn(u32) + Sync),
        clock: &dyn Clock,
    ) -> JobReply {
        run_job(
            job,
            registry,
            &Metrics::new(),
            &Tracer::disabled(),
            &DynStore::default(),
            None,
            phase_hook,
            clock,
            worker,
        )
    }

    /// The registry's cached warm matching of `g`.
    fn cached(registry: &GraphRegistry) -> Option<Arc<Matching>> {
        registry.get("g").unwrap().1
    }

    /// The value of `key=` in a reply line.
    fn reply_field<'a>(line: &'a str, key: &str) -> &'a str {
        line.split_whitespace()
            .find_map(|t| t.strip_prefix(key)?.strip_prefix('='))
            .unwrap_or_else(|| panic!("no {key} in {line}"))
    }

    /// A worker that has run a cold Hopcroft-Karp solve of `g` and then a
    /// warm MS-BFS-Graft one, which kept its result: the worker, that
    /// result's registry `Arc` and the maximum cardinality.
    fn worker_with_a_copy(registry: &GraphRegistry) -> (WorkerState, Arc<Matching>, String) {
        let mut worker = WorkerState::default();
        let no_hook = &|_| {};
        let hk = run_on(
            registry,
            &mut worker,
            solve_job("g", Algorithm::HopcroftKarp, true),
            no_hook,
            &WallClock,
        )
        .unwrap();
        assert!(worker.warm.is_none(), "a cold solve kept a copy");
        let before = cached(registry).expect("the cold solve stored its matching");
        let warm = run_on(
            registry,
            &mut worker,
            solve_job("g", Algorithm::MsBfsGraft, false),
            no_hook,
            &WallClock,
        )
        .unwrap();
        assert_eq!(reply_field(&warm, "warm"), "true", "{warm}");
        assert_eq!(reply_field(&warm, "augmentations"), "0", "{warm}");
        let (of, copy) = worker
            .warm
            .as_ref()
            .expect("the warm solve kept its result");
        assert!(Arc::ptr_eq(of, &before) && **of == *copy);
        assert!(
            Arc::ptr_eq(&cached(registry).unwrap(), &before),
            "the registry's Arc was replaced"
        );
        let cardinality = reply_field(&hk, "cardinality").to_string();
        (worker, before, cardinality)
    }

    #[test]
    fn a_second_warm_solve_runs_on_the_workers_copy() {
        let registry = registry_with("kkt_power:tiny");
        let (mut worker, cached_arc, cardinality) = worker_with_a_copy(&registry);
        let buffer = worker.warm.as_ref().unwrap().1.mates_x().as_ptr();
        let reply = run_on(
            &registry,
            &mut worker,
            solve_job("g", Algorithm::MsBfsGraft, false),
            &|_| {},
            &WallClock,
        )
        .unwrap();
        assert_eq!(reply_field(&reply, "warm"), "true", "{reply}");
        assert_eq!(reply_field(&reply, "cardinality"), cardinality, "{reply}");
        let (of, copy) = worker.warm.as_ref().expect("the copy came back");
        assert_eq!(
            copy.mates_x().as_ptr(),
            buffer,
            "the solve cloned instead of using the copy"
        );
        assert!(Arc::ptr_eq(of, &cached_arc));
        assert!(Arc::ptr_eq(&cached(&registry).unwrap(), &cached_arc));
    }

    #[test]
    fn a_warm_start_that_augments_publishes_a_new_arc() {
        let registry = registry_with("kkt_power:tiny");
        let (mut worker, _, cardinality) = worker_with_a_copy(&registry);
        let (g, _) = registry.get("g").unwrap();
        registry.store_warm("g", Matching::for_graph(&g));
        let seeded = cached(&registry).unwrap();
        let reply = run_on(
            &registry,
            &mut worker,
            solve_job("g", Algorithm::MsBfsGraft, false),
            &|_| {},
            &WallClock,
        )
        .unwrap();
        assert_eq!(reply_field(&reply, "warm"), "true", "{reply}");
        assert_ne!(reply_field(&reply, "augmentations"), "0", "{reply}");
        let published = cached(&registry).unwrap();
        assert!(
            !Arc::ptr_eq(&published, &seeded),
            "the result was not published"
        );
        assert_eq!(published.cardinality().to_string(), cardinality);
        assert!(
            worker.warm.is_none(),
            "the worker kept a matching that moved"
        );
    }

    #[test]
    fn a_warm_solve_that_panics_leaves_the_registry_matching() {
        let registry = registry_with("kkt_power:tiny");
        let (mut worker, cached_arc, cardinality) = worker_with_a_copy(&registry);
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            let hook = |_| panic!("injected phase fault");
            run_on(
                &registry,
                &mut worker,
                solve_job("g", Algorithm::MsBfsGraft, false),
                &hook,
                &WallClock,
            )
        }));
        assert!(panicked.is_err());
        assert!(
            worker.warm.is_none(),
            "the copy must leave the worker before the engine runs"
        );
        assert!(Arc::ptr_eq(&cached(&registry).unwrap(), &cached_arc));
        let next = run_on(
            &registry,
            &mut worker,
            solve_job("g", Algorithm::MsBfsGraft, false),
            &|_| {},
            &WallClock,
        )
        .unwrap();
        assert_eq!(reply_field(&next, "warm"), "true", "{next}");
        assert_eq!(reply_field(&next, "cardinality"), cardinality, "{next}");
    }

    #[test]
    fn a_timed_out_warm_solve_publishes_nothing() {
        let registry = registry_with("road_usa:tiny");
        let (g, _) = registry.get("g").unwrap();
        registry.store_warm("g", Matching::for_graph(&g));
        let seeded = cached(&registry).unwrap();
        let clock = SimClock::new();
        let job = Job::Solve {
            name: "g".to_string(),
            algorithm: Algorithm::MsBfsGraft,
            deadline: Some(clock.now() + Duration::from_secs(3600)),
            threads: 1,
            cold: false,
            submitted: clock.now(),
        };
        // The first phase runs and augments; the poll after it stops.
        let hook = |phases_done| {
            if phases_done == 0 {
                clock.advance(Duration::from_secs(7200));
            }
        };
        let mut worker = WorkerState::default();
        let reply = run_on(&registry, &mut worker, job, &hook, &clock);
        assert!(
            matches!(reply, Err(SvcError::DeadlineExceeded { .. })),
            "{reply:?}"
        );
        assert!(Arc::ptr_eq(&cached(&registry).unwrap(), &seeded));
        assert!(worker.warm.is_none());
    }

    #[test]
    fn a_bumped_shrink_generation_drops_the_copy() {
        let registry = registry_with("kkt_power:tiny");
        let (mut worker, _, _) = worker_with_a_copy(&registry);
        worker.observe_shrink_gen(0);
        assert!(
            worker.warm.is_some(),
            "an unchanged generation dropped the copy"
        );
        worker.observe_shrink_gen(1);
        assert!(worker.warm.is_none());
        assert_eq!(worker.ws.footprint_bytes(), 0);
    }

    #[test]
    fn a_solve_racing_a_re_registration_does_not_warm_start_the_new_graph() {
        // The solve's phase hook re-registers its graph's name mid-solve,
        // between the `get` and the warm-start store `run_job` makes.
        let registry = registry_with("kkt_power:tiny");
        let hook = |phases_done: u32| {
            if phases_done == 0 {
                registry
                    .register("g", parse_gen_spec("RMAT:tiny").unwrap())
                    .unwrap();
            }
        };
        let solve = |job, phase_hook: &(dyn Fn(u32) + Sync)| {
            run(&registry, job, phase_hook, &WallClock).unwrap()
        };
        solve(solve_job("g", Algorithm::MsBfsGraft, false), &hook);
        assert!(
            registry.get("g").unwrap().1.is_none(),
            "the kkt_power matching was stored as the RMAT graph's warm start"
        );
        let next = solve(solve_job("g", Algorithm::MsBfsGraft, false), &|_| {});
        let hk = solve(solve_job("g", Algorithm::HopcroftKarp, true), &|_| {});
        let cardinality = |line: &str| {
            line.split_whitespace()
                .find(|t| t.starts_with("cardinality="))
                .map(str::to_string)
        };
        assert!(next.contains("warm=false"), "{next}");
        assert_eq!(cardinality(&next), cardinality(&hk), "{next} vs {hk}");
    }

    #[test]
    fn every_algorithm_runs_the_solver_phase_hook() {
        // Karp-Sipser leaves augmenting paths on this graph, so every
        // algorithm runs phases from its cold start.
        let registry = registry_with("road_usa:tiny");
        for alg in Algorithm::ALL {
            let calls = AtomicU32::new(0);
            let hook = |_| {
                calls.fetch_add(1, Ordering::Relaxed);
            };
            let reply = run(&registry, solve_job("g", alg, true), &hook, &WallClock);
            assert!(reply.is_ok(), "{}: {reply:?}", alg.name());
            assert!(calls.into_inner() > 0, "{} never ran the hook", alg.name());
        }
    }

    #[test]
    fn a_deadline_passing_on_the_virtual_clock_stops_the_solve() {
        // The deadline is an hour of virtual time away, so `Instant::now`
        // would not reach it; the hook moves the virtual clock past it
        // before the first phase, and the next poll must see that.
        let registry = registry_with("road_usa:tiny");
        for alg in Algorithm::ALL {
            let clock = SimClock::new();
            let job = Job::Solve {
                name: "g".to_string(),
                algorithm: alg,
                deadline: Some(clock.now() + Duration::from_secs(3600)),
                threads: 1,
                cold: true,
                submitted: clock.now(),
            };
            let hook = |phases_done| {
                if phases_done == 0 {
                    clock.advance(Duration::from_secs(7200));
                }
            };
            let reply = run(&registry, job, &hook, &clock);
            assert!(
                matches!(reply, Err(SvcError::DeadlineExceeded { .. })),
                "{}: {reply:?}",
                alg.name()
            );
        }
    }
}
