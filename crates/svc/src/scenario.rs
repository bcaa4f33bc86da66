//! Deterministic whole-service simulation scenarios.
//!
//! A [`Scenario`] boots a real [`Server`] on a virtual clock
//! ([`graft_sim::SimClock`]) and an in-process network
//! ([`graft_sim::SimNet`]), drives a seeded client workload —
//! `GEN`/`SOLVE`/`SOLVE_BATCH`/`UPDATE`/`EVICT`/`STATS`/`HEALTH`/
//! `SLEEP`/`SHUTDOWN` interleaved with network partitions, injected
//! faults, and a drain-under-load finale — and records every request
//! and reply line into an event log.
//!
//! The contract, FoundationDB-style: **the same seed produces the same
//! log, byte for byte**. Every source of nondeterminism is pinned:
//!
//! * time is virtual — sleeps, backoff, deadlines, and drain timers
//!   advance a seeded [`SimClock`] instead of the wall clock, and the
//!   scenario keeps at most one thread sleeping at a time (one worker,
//!   a strictly request/reply client, no snapshot poller);
//! * bytes travel through a [`SimNet`] whose connect latency and link
//!   faults are pure functions of the seed;
//! * injected service faults ([`crate::FaultPlan`]) and client backoff
//!   jitter are already seed-derived;
//! * the one timing readout that is *not* a pure function of the seed
//!   (`uptime_us` in `STATS`) is normalized out of the log.
//!
//! A failing seed is therefore a bug report you can replay forever:
//! `graftmatch sim --seed N` reproduces the identical run.
//!
//! [`SimClock`]: graft_sim::SimClock
//! [`SimNet`]: graft_sim::SimNet

use crate::client::{RetryClient, RetryPolicy};
use crate::journal::FsyncPolicy;
use crate::metrics::Metrics;
use crate::server::{ServeConfig, Server};
use crate::snapshot;
use graft_sim::{
    mix64, Clock, Disk, RealDisk, SimClock, SimDisk, SimDiskConfig, SimNet, SimNetConfig, Transport,
};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Knobs for one simulated run. Everything observable is a pure
/// function of `seed` and these knobs.
#[derive(Clone, Debug)]
pub struct ScenarioConfig {
    /// Master seed: workload shape, network latency, fault schedule,
    /// and client backoff jitter all derive from it.
    pub seed: u64,
    /// Workload steps after the fixed prologue (graph registration) and
    /// before the fixed epilogue (final solves, drain-under-load,
    /// shutdown).
    pub ops: usize,
    /// Upper bound on simulated connect latency, in virtual ms.
    pub max_connect_latency_ms: u64,
    /// Arm the server's seed-derived fault plan (panics, delays, I/O
    /// errors at named sites).
    pub with_faults: bool,
    /// Deliberately break the drain grace period (`drain_ms: 0`, so
    /// in-flight jobs are abandoned at shutdown); the scenario then
    /// reports a `drain-timeout` violation. Exists to prove the harness
    /// catches and replays an injected timing bug.
    pub broken_drain_timer: bool,
    /// Give the server a seeded [`SimDisk`] (`--fsync always`, write
    /// faults derived from the master seed) and, after shutdown,
    /// power-cut the disk and verify the journal recovers cleanly. Off
    /// disables persistence entirely (the pre-disk scenario shape).
    pub disk_faults: bool,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            ops: 48,
            max_connect_latency_ms: 3,
            with_faults: true,
            broken_drain_timer: false,
            disk_faults: true,
        }
    }
}

/// What one run produced.
#[derive(Debug)]
pub struct ScenarioReport {
    /// The seed the run derived everything from.
    pub seed: u64,
    /// The full event log: one `> request` / `< reply` pair per
    /// exchange, newline-terminated. Byte-identical across runs of the
    /// same seed and config.
    pub log: String,
    /// Invariant violations observed; empty on a healthy run.
    pub violations: Vec<String>,
    /// Client requests issued (retries not included).
    pub requests: u64,
}

impl ScenarioReport {
    /// Whether the run upheld every invariant.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Sequential splitmix64 stream: the workload's only source of
/// randomness, so a seed names the entire run.
struct WorkloadRng {
    state: u64,
}

impl WorkloadRng {
    fn new(seed: u64) -> Self {
        Self {
            state: mix64(seed ^ 0x5ce4_a897_1b2c_3d4e),
        }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.state)
    }

    /// Uniform draw in `0..n` (`n > 0`).
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The two graphs every scenario registers. Different generators so
/// warm-start and eviction behavior differ between them.
const GRAPHS: [(&str, &str); 2] = [("ga", "kkt_power:tiny"), ("gb", "amazon0312:tiny")];

/// Where the simulated disk keeps the journal (a path inside the
/// in-memory filesystem; nothing touches the real one).
const SIM_STATE_DIR: &str = "sim-state";

/// A seeded end-to-end run of the whole service stack under simulation.
pub struct Scenario {
    cfg: ScenarioConfig,
}

/// Everything the run accumulates.
struct RunState {
    log: String,
    violations: Vec<String>,
    requests: u64,
    /// Per-graph maximum-matching cardinality oracle: `SOLVE` must
    /// report the same cardinality every time (updates touch the
    /// dynamic matcher, never the registered graph; warm starts cannot
    /// change the maximum).
    expected_cardinality: [Option<u64>; GRAPHS.len()],
}

impl RunState {
    fn record(&mut self, request: &str, reply: &str) {
        self.log.push_str("> ");
        self.log.push_str(request);
        self.log.push('\n');
        self.log.push_str("< ");
        self.log.push_str(&normalize(reply));
        self.log.push('\n');
    }

    fn violation(&mut self, v: String) {
        self.violations.push(v);
    }

    /// Feeds one `SOLVE` reply to the cardinality oracle.
    fn check_cardinality(&mut self, graph_idx: usize, reply: &str) {
        let Some(card) = field(reply, "cardinality=") else {
            return;
        };
        match self.expected_cardinality[graph_idx] {
            None => self.expected_cardinality[graph_idx] = Some(card),
            Some(expect) if expect != card => self.violation(format!(
                "cardinality-drift graph={} expect={expect} got={card}",
                GRAPHS[graph_idx].0
            )),
            Some(_) => {}
        }
    }
}

/// Extracts a `key=<u64>` field from a reply line.
fn field(reply: &str, key: &str) -> Option<u64> {
    reply
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(key))
        .and_then(|v| v.parse().ok())
}

/// Masks the few reply fields that sample *cross-thread* timing.
///
/// Virtual time makes single-threaded timing exact, but a timestamp
/// taken on one thread and compared on another (queue-wait sums, the
/// elapsed duration in a deadline error, server uptime) races against
/// the worker's virtual-time jumps, so those values — and only those —
/// are normalized out of the log. `connections_open` is in the list
/// because a partition's severed connection decrements it from the
/// dying reader thread, which races (in real time) against the next
/// `STATS` on the healed connection.
fn normalize(reply: &str) -> String {
    if let Some(idx) = reply.find("deadline exceeded after ") {
        let prefix = &reply[..idx + "deadline exceeded after ".len()];
        return format!("{prefix}_");
    }
    reply
        .split(' ')
        .map(|tok| match tok.split_once('=') {
            Some((key @ ("uptime_us" | "wait_us_sum" | "connections_open"), _)) => {
                format!("{key}=_")
            }
            _ => tok.to_string(),
        })
        .collect::<Vec<_>>()
        .join(" ")
}

impl Scenario {
    /// A scenario for `cfg`.
    pub fn new(cfg: ScenarioConfig) -> Self {
        Self { cfg }
    }

    /// Convenience: a default-config scenario for `seed`.
    pub fn from_seed(seed: u64) -> Self {
        Self::new(ScenarioConfig {
            seed,
            ..ScenarioConfig::default()
        })
    }

    /// Runs the scenario to completion and reports.
    pub fn run(&self) -> ScenarioReport {
        let seed = self.cfg.seed;
        let clock = Arc::new(SimClock::new());
        let net = SimNet::new(
            SimNetConfig {
                seed,
                max_connect_latency_ms: self.cfg.max_connect_latency_ms,
                ..SimNetConfig::default()
            },
            Arc::clone(&clock) as Arc<dyn Clock>,
        );

        // The disk dimension: a seeded in-memory filesystem whose write
        // faults (and eventual power cut) are pure functions of the
        // seed. `--fsync always` so every acked UPDATE claims
        // durability — the post-run crash check holds it to that.
        let sim_disk = self.cfg.disk_faults.then(|| {
            SimDisk::new(SimDiskConfig {
                seed: mix64(seed ^ 0xd15c),
                fail_rate_pct: 4,
                max_faults: 6,
                crash_at: None,
            })
        });
        let serve_cfg = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            // One worker and no snapshot poller: the determinism
            // contract allows at most one sleeping thread at a time.
            // (`fsync: Always` keeps the poller unspawned even with a
            // state dir.)
            workers: 1,
            queue_capacity: 16,
            drain_ms: if self.cfg.broken_drain_timer {
                0
            } else {
                2_000
            },
            snapshot_interval_ms: 0,
            state_dir: sim_disk.as_ref().map(|_| PathBuf::from(SIM_STATE_DIR)),
            fsync: FsyncPolicy::Always,
            fault_spec: self
                .cfg
                .with_faults
                .then(|| format!("seed={},rate=8,max=16", mix64(seed ^ 0xfa_17))),
            ..ServeConfig::default()
        };
        let disk: Arc<dyn Disk> = match &sim_disk {
            Some(d) => Arc::clone(d) as Arc<dyn Disk>,
            None => Arc::new(RealDisk),
        };
        let server = Server::bind_with_disk(
            &serve_cfg,
            Arc::clone(&net) as Arc<dyn Transport>,
            Arc::clone(&clock) as Arc<dyn Clock>,
            disk,
        )
        .expect("sim bind cannot fail");
        let addr = server.local_addr().expect("sim local addr");
        let metrics = server.metrics();
        let server_thread = std::thread::spawn(move || server.run());

        let mut client = RetryClient::with_transport(
            addr.to_string(),
            RetryPolicy {
                max_attempts: 3,
                base_backoff: Duration::from_millis(10),
                max_backoff: Duration::from_millis(500),
                // Real-time safety net only; simulated flows complete
                // via data arrival or pipe closure.
                io_timeout: Duration::from_secs(10),
                seed,
            },
            Arc::clone(&net) as Arc<dyn Transport>,
            Arc::clone(&clock) as Arc<dyn Clock>,
        );

        let mut rng = WorkloadRng::new(seed);
        let mut st = RunState {
            log: String::new(),
            violations: Vec::new(),
            requests: 0,
            expected_cardinality: [None; GRAPHS.len()],
        };

        // Prologue: register both graphs.
        for (name, spec) in GRAPHS {
            exchange(&mut client, &mut st, &format!("GEN {name} {spec}"));
        }

        // Seeded workload.
        for _ in 0..self.cfg.ops {
            let g = rng.below(GRAPHS.len() as u64) as usize;
            let gname = GRAPHS[g].0;
            match rng.below(100) {
                // Plain solve, sometimes cold.
                0..=29 => {
                    let cold = if rng.below(4) == 0 { " cold" } else { "" };
                    let reply = exchange(&mut client, &mut st, &format!("SOLVE {gname}{cold}"));
                    st.check_cardinality(g, &reply);
                }
                // Pipelined batch mixing solves, virtual sleeps, and
                // (sometimes) a deadline that expires behind the sleep.
                30..=44 => {
                    let mut members = Vec::new();
                    members.push(format!("SLEEP {}", 5 + rng.below(40)));
                    if rng.below(3) == 0 {
                        // Queued behind the sleep, this deadline expires
                        // in virtual time: a deterministic timeout.
                        members.push(format!("{gname} timeout_ms=1"));
                    }
                    members.push(gname.to_string());
                    batch(&mut client, &mut st, &members);
                }
                // Edge updates against the dynamic matcher.
                45..=69 => {
                    let op = if rng.below(3) == 0 { "DEL" } else { "ADD" };
                    let x = rng.below(1_000);
                    let y = rng.below(1_000);
                    exchange(
                        &mut client,
                        &mut st,
                        &format!("UPDATE {gname} {op} {x} {y}"),
                    );
                }
                // Evict, then immediately re-register from the same
                // source so later solves (and the oracle) keep working.
                70..=77 => {
                    exchange(&mut client, &mut st, &format!("EVICT {gname}"));
                    exchange(
                        &mut client,
                        &mut st,
                        &format!("GEN {gname} {}", GRAPHS[g].1),
                    );
                }
                78..=85 => {
                    exchange(&mut client, &mut st, "STATS");
                }
                86..=91 => {
                    exchange(&mut client, &mut st, "HEALTH");
                }
                92..=95 => {
                    let ms = 5 + rng.below(45);
                    exchange(&mut client, &mut st, &format!("SLEEP {ms}"));
                }
                // Partition window: sever the network, watch a request
                // fail deterministically, heal synchronously (this
                // thread is the only healer — no timer thread).
                _ => {
                    net.partition();
                    st.requests += 1;
                    match client.request(&format!("SOLVE {gname}")) {
                        Ok(reply) => {
                            st.record("SOLVE@partition", &reply);
                            st.violation(format!(
                                "partition-leak: reply crossed a severed network: {reply}"
                            ));
                        }
                        Err(e) => st.record("SOLVE@partition", &format!("CLIENT_ERR {e}")),
                    }
                    net.heal();
                }
            }
        }

        // Epilogue: one final solve per graph feeds the oracle, then a
        // drain-under-load finale: park a SLEEP job on the worker via a
        // side connection and shut down while it is genuinely in flight.
        // A healthy drain waits it out; a broken drain timer abandons
        // it, which the post-run invariants catch.
        for (i, (name, _)) in GRAPHS.iter().enumerate() {
            let reply = exchange(&mut client, &mut st, &format!("SOLVE {name}"));
            st.check_cardinality(i, &reply);
        }
        exchange(&mut client, &mut st, "STATS");

        // Connect the side channel *before* pinning the timeline (its
        // connect-latency sleep must be free to self-advance), then pin
        // time so the worker's upcoming 300ms virtual sleep parks
        // instead of completing instantly. The pin sits at +5ms —
        // beyond any connect latency (≤ max_connect_latency_ms), short
        // of the job's sleep — so the shutdown wake-up connect still
        // goes through while the job stays in flight.
        let mut side = net
            .connect(&addr.to_string(), None)
            .expect("side connection");
        let pin = clock.hold(Duration::from_millis(5));
        side.write_all(b"SLEEP 300\n").expect("side write");
        side.flush().expect("side flush");
        // Rendezvous on clock state, not on time: wait (without
        // sleeping) until the worker is parked inside its virtual
        // sleep. Bounded by a generous real-time budget so a
        // regression fails instead of hanging.
        let budget = std::time::Instant::now();
        while clock.pending_timers() < 2 {
            assert!(
                budget.elapsed() < Duration::from_secs(30),
                "side SLEEP job never reached a worker's clock.sleep"
            );
            std::thread::yield_now();
        }

        exchange(&mut client, &mut st, "SHUTDOWN");
        if self.cfg.broken_drain_timer {
            // Keep the job parked until the (zero-grace) drain has
            // demonstrably given up: the server thread exits first.
            let _ = server_thread.join().expect("server thread");
            drop(pin);
        } else {
            // Release the job; the drain waits for it and succeeds.
            drop(pin);
            let _ = server_thread.join().expect("server thread");
        }
        drop(client);
        drop(side);

        // Power-cut the simulated disk and recover: whatever the run's
        // fault schedule did to the journal, a restart must come back
        // clean. The summary line keeps the log sensitive to the whole
        // durability path — same seed, same bytes on disk.
        if let Some(d) = &sim_disk {
            let image = d.crash();
            match snapshot::load_on(image.as_ref(), Path::new(SIM_STATE_DIR), None) {
                Ok(report) => {
                    use std::fmt::Write as _;
                    let _ = writeln!(
                        st.log,
                        "# crash-recovery entries={} deltas={} rebuilds={} truncated={} \
                         disk_ops={} disk_faults={}",
                        report.snapshot.entries.len(),
                        report.snapshot.deltas.len(),
                        report.snapshot.rebuilds,
                        report.truncated.is_some(),
                        d.op_count(),
                        d.faults_fired(),
                    );
                }
                Err(e) => st.violation(format!("crash-recovery-failed: {e}")),
            }
        }

        // Post-run invariants, read straight off the server's metrics.
        self.check_invariants(&metrics, &mut st);

        ScenarioReport {
            seed,
            log: std::mem::take(&mut st.log),
            violations: std::mem::take(&mut st.violations),
            requests: st.requests,
        }
    }

    fn check_invariants(&self, metrics: &Metrics, st: &mut RunState) {
        let drain_timeouts = metrics.drain_timeouts.load(Ordering::Relaxed);
        if drain_timeouts > 0 {
            st.violation(format!(
                "drain-timeout: {drain_timeouts} drain(s) abandoned in-flight jobs"
            ));
        }
        // Every accepted job must be accounted for: completed, or
        // abandoned by a drain that already registered as a violation.
        let submitted = metrics.jobs_submitted.load(Ordering::Relaxed);
        let completed = metrics.jobs_completed.load(Ordering::Relaxed);
        if drain_timeouts == 0 && submitted != completed {
            st.violation(format!(
                "job-leak: submitted={submitted} completed={completed}"
            ));
        }
    }
}

/// One logged request/reply exchange on the retry client.
fn exchange(client: &mut RetryClient, st: &mut RunState, line: &str) -> String {
    st.requests += 1;
    match client.request(line) {
        Ok(reply) => {
            st.record(line, &reply);
            reply
        }
        Err(e) => {
            let rendered = format!("CLIENT_ERR {e}");
            st.record(line, &rendered);
            rendered
        }
    }
}

/// One logged `SOLVE_BATCH` exchange; every member reply is recorded.
fn batch(client: &mut RetryClient, st: &mut RunState, members: &[String]) {
    st.requests += 1;
    let header = format!("SOLVE_BATCH {}", members.len());
    match client.request_batch(members) {
        Ok(replies) => {
            for (m, r) in members.iter().zip(&replies) {
                st.record(&format!("{header} :: {m}"), r);
            }
        }
        Err(e) => st.record(&header, &format!("CLIENT_ERR {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_twice_is_byte_identical() {
        let a = Scenario::from_seed(7).run();
        let b = Scenario::from_seed(7).run();
        assert_eq!(a.log, b.log, "seed 7 diverged between runs");
        assert!(a.ok(), "violations: {:?}", a.violations);
        assert!(
            a.log.contains("# crash-recovery "),
            "disk crash check missing from the log"
        );
    }

    #[test]
    fn disk_faults_off_runs_without_persistence() {
        let report = Scenario::new(ScenarioConfig {
            seed: 3,
            disk_faults: false,
            ..ScenarioConfig::default()
        })
        .run();
        assert!(report.ok(), "violations: {:?}", report.violations);
        assert!(!report.log.contains("# crash-recovery "));
    }

    #[test]
    fn different_seeds_diverge() {
        let a = Scenario::from_seed(1).run();
        let b = Scenario::from_seed(2).run();
        assert_ne!(a.log, b.log, "seeds 1 and 2 produced identical runs");
    }

    #[test]
    fn broken_drain_timer_is_caught_and_replays() {
        let cfg = ScenarioConfig {
            seed: 11,
            broken_drain_timer: true,
            ..ScenarioConfig::default()
        };
        let first = Scenario::new(cfg.clone()).run();
        assert!(
            first
                .violations
                .iter()
                .any(|v| v.starts_with("drain-timeout")),
            "injected drain bug not caught: {:?}",
            first.violations
        );
        // The failure replays byte-for-byte from its seed.
        let replay = Scenario::new(cfg).run();
        assert_eq!(first.log, replay.log, "failing seed 11 did not replay");
        assert_eq!(first.violations, replay.violations);
        // And the same seed with the bug fixed is healthy.
        let fixed = Scenario::new(ScenarioConfig {
            seed: 11,
            broken_drain_timer: false,
            ..ScenarioConfig::default()
        })
        .run();
        assert!(fixed.ok(), "violations: {:?}", fixed.violations);
    }
}
