//! # graft-svc — a long-lived matching service
//!
//! Everything below the workspace's solvers is a batch CLI: parse a
//! graph, solve, exit. This crate keeps the expensive state **resident**
//! instead, which is how a matching engine would actually be deployed
//! behind other systems (task-assignment, sparse-matrix pivoting,
//! scheduling): parse a graph once, answer many solve requests against
//! it, reuse previous matchings as warm starts.
//!
//! The pieces, bottom-up:
//!
//! * [`lru`] — a byte-budgeted least-recently-used cache with
//!   hit/miss/eviction counters;
//! * [`registry`] — named graphs loaded from Matrix Market files or
//!   graft-gen suite specs; evicted graphs transparently re-materialize
//!   from their remembered source; the last matching per graph is kept
//!   for **warm starts**;
//! * [`scheduler`] — a bounded job queue in front of a fixed worker
//!   pool; a full queue rejects immediately with the typed
//!   [`SvcError::Overloaded`] instead of building unbounded backlog, and
//!   per-job **deadlines** cancel solves cooperatively at phase
//!   boundaries (via [`SolveOptions::stop`], polled by every engine);
//! * [`metrics`] — atomic counters and latency histograms (global,
//!   per-algorithm, and per-graph) behind the `STATS` command;
//! * [`protocol`] / [`server`] — a newline-delimited TCP protocol
//!   (`LOAD`, `GEN`, `SOLVE`, `SOLVE_BATCH`, `UPDATE`, `UPDATE_BATCH`,
//!   `STATS`, `HEALTH`, `TRACE`, `EVICT`, `SHUTDOWN`) on `std::net`,
//!   one reader thread per
//!   connection. No async runtime: plain blocking I/O and threads are
//!   plenty for a solver service whose unit of work is milliseconds to
//!   seconds. `SOLVE_BATCH n` **pipelines**: `n` member lines are read
//!   up front, scheduled concurrently across the worker pool, and
//!   answered in request order through a reorder buffer — one round
//!   trip amortized over the whole batch, with per-member typed `ERR`s
//!   landing in-slot. A one-shot `SOLVE`, `UPDATE` or `SLEEP` takes the
//!   same path as a batch of one, without the header. Solves run under a [`graft_core::Tracer`] feeding
//!   a bounded in-memory ring; `TRACE` streams the most recent events
//!   back as JSONL. `UPDATE <g> ADD|DEL <x> <y>` maintains a
//!   [`graft_dyn::DynamicMatching`] per graph (created lazily from the
//!   registered source) so edge-update streams are repaired
//!   incrementally instead of re-solved; `UPDATE_BATCH` pipelines them
//!   through the same framing/reorder machinery as `SOLVE_BATCH`.
//!
//! The resilience core on top:
//!
//! * **panic isolation** — every scheduled job runs under
//!   `catch_unwind`; a panicking solve answers `ERR internal job=<id>`,
//!   bumps the `panics` metric, and the worker thread keeps serving;
//! * **admission control** — `LOAD`/`GEN` estimate the CSR footprint
//!   *before* materializing and refuse oversized graphs with
//!   `ERR too-large`; a full job queue answers `ERR overloaded` with a
//!   backlog-derived `retry_after_ms` hint; connections past the cap are
//!   shed at accept;
//! * **graceful drain** — `SHUTDOWN`/SIGTERM flip `HEALTH` to
//!   `draining`, refuse new `SOLVE`s, and give in-flight jobs a bounded
//!   grace period;
//! * [`snapshot`] / [`journal`] — crash-consistent JSONL persistence of
//!   the registry (sources + warm matchings + dynamic deltas): every v3
//!   record is sealed with a CRC32, full saves go through atomic
//!   tmp+fsync+rename+dir-fsync, accepted updates are appended per the
//!   [`FsyncPolicy`] (`always` fsyncs before the `OK`), and boot sweeps
//!   orphaned tmp files, truncates a torn tail at the first bad record,
//!   and restores the surviving prefix for warm restarts — all on a
//!   swappable [`Disk`] so the crash matrix can enumerate every crash
//!   point;
//! * [`faults`] — a deterministic, seed-driven fault-injection plan
//!   (panics, delays, I/O errors at named sites) that the chaos tests
//!   drive end-to-end; without a plan the hooks compile to nothing on
//!   the hot path;
//! * [`client`] — a retrying client with jittered exponential backoff
//!   that honors the server's `retry_after_ms` hints (also exposed as
//!   `graftmatch solve-remote`).
//!
//! ## A session
//!
//! ```text
//! $ graftmatch serve --addr 127.0.0.1:7421 &
//! graft-svc listening on 127.0.0.1:7421
//! $ nc 127.0.0.1 7421
//! GEN g kkt_power:tiny
//! OK name=g nx=1500 ny=1500 edges=10434 bytes=107496
//! SOLVE g ms-bfs-graft
//! OK graph=g algorithm=ms-bfs-graft cardinality=1500 phases=4 augmentations=209 warm=false elapsed_us=612
//! SOLVE g ms-bfs-graft
//! OK graph=g algorithm=ms-bfs-graft cardinality=1500 phases=1 augmentations=0 warm=true elapsed_us=95
//! SHUTDOWN
//! OK bye
//! ```
//!
//! [`SolveOptions::stop`]: graft_core::SolveOptions#structfield.stop
//! [`SvcError::Overloaded`]: error::SvcError::Overloaded

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod error;
pub mod faults;
pub mod journal;
pub mod lru;
pub mod metrics;
pub mod protocol;
pub mod registry;
pub mod scenario;
pub mod scheduler;
pub mod server;
pub mod snapshot;

pub use client::{ClientError, RetryClient, RetryPolicy};
pub use error::SvcError;
pub use faults::{Fault, FaultPlan, FaultSite};
pub use graft_sim::{
    Clock, Conn, Disk, DiskFile, EventLog, Listener, RealDisk, SimClock, SimDisk, SimDiskConfig,
    SimNet, SimNetConfig, TcpTransport, Transport, WallClock,
};
pub use journal::{AppendOutcome, FsyncPolicy, Journal};
pub use lru::{LruCache, LruStats};
pub use metrics::Metrics;
pub use protocol::{
    parse_batch_member, parse_request, parse_update_member, Reply, Request, SolveSpec, UpdateSpec,
    MAX_BATCH, MAX_LINE_BYTES,
};
pub use registry::{GraphRegistry, GraphSource, RegistryStats};
pub use scenario::{Scenario, ScenarioConfig, ScenarioReport};
pub use scheduler::Scheduler;
pub use server::{serve, ServeConfig, Server, ShutdownHandle};
pub use snapshot::{
    LoadReport, Snapshot, SnapshotDelta, SnapshotEntry, SnapshotError, Truncation, WarmStart,
};
