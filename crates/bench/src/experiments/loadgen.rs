//! `loadgen` — a seeded load generator for graft-svc, and the CI gate
//! for the pipelined `SOLVE_BATCH` path.
//!
//! An in-process server is registered with the pinned kkt_power + RMAT
//! pair, then the *same* seeded per-connection workload (a mix of warm
//! solves across both graphs and several engines) is driven twice:
//!
//! * **sequential** — the classic closed loop: each connection issues
//!   one `SOLVE`, waits for its reply, issues the next. Every request
//!   pays a full round trip (two syscall-laden handoffs per solve).
//! * **pipelined** — the same requests chunked into `SOLVE_BATCH`es via
//!   [`graft_svc::RetryClient::request_batch`]: one round trip per
//!   batch, members scheduled concurrently across the worker pool,
//!   replies reordered back into request order by the server.
//!
//! Each pass records throughput and closed-loop latency percentiles
//! (p50/p95/p99; a pipelined member's latency is its batch's round-trip
//! time — what a caller awaiting the batch actually observes).
//! Optionally a third, **open-loop** pass replays the workload at a
//! fixed arrival rate on one connection, measuring latency against the
//! *scheduled* send time (so queueing delay is not hidden by
//! coordinated omission). The open-loop pass is reported, never gated.
//! With `--virtual-open-loop` the same schedule additionally runs on a
//! virtual clock against a simulated-network server ([`graft_svc`]'s
//! sim substrate): solves take zero virtual time there, so every
//! latency must come out exactly zero — a deterministic null test that
//! the open-loop accounting adds no latency of its own, finished in
//! microseconds of wall time.
//!
//! The gate checks **relative** invariants only — absolute numbers vary
//! wildly with host load and are recorded, not judged:
//!
//! 1. every reply in both passes is an `OK` line;
//! 2. request-for-request, the sequential and pipelined passes report
//!    identical cardinalities (the solves are semantically equivalent);
//! 3. pipelined throughput ≥ [`PIPELINE_SPEEDUP_MIN`] × sequential
//!    throughput on the same workload and connection count.
//!
//! Results land in a schema-versioned `BENCH_5.json` that CI archives,
//! keeping a diffable history of throughput/latency alongside the
//! BENCH_4 solve-time history.

use crate::report::{percentile, secs, Artifact, Report};
use crate::Config;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Schema identifier embedded in the JSON artifact; bump on layout change.
/// v2 adds the optional `open_loop_virtual` calibration block.
pub const LOADGEN_SCHEMA: &str = "graft-bench/loadgen/v2";

/// Artifact file name (numbered after the PR that introduced it).
pub const LOADGEN_FILE: &str = "BENCH_5.json";

/// The relative gate: pipelined must beat sequential by at least this
/// factor on the same workload. The win comes from amortizing round
/// trips, syscalls, and scheduler handoffs over whole batches, so it
/// holds on a single-core runner too — no parallelism required.
pub const PIPELINE_SPEEDUP_MIN: f64 = 1.5;

/// Load-generator knobs (see `experiments loadgen --help`).
#[derive(Clone, Debug)]
pub struct LoadgenOptions {
    /// Concurrent client connections (closed-loop workers).
    pub connections: usize,
    /// Requests issued per connection.
    pub requests_per_conn: usize,
    /// Members per `SOLVE_BATCH` in the pipelined pass.
    pub batch_size: usize,
    /// Workload seed (same seed → same request mix).
    pub seed: u64,
    /// Fixed arrival rate (requests/s) for the optional open-loop pass;
    /// `None` skips it.
    pub open_loop_rate: Option<f64>,
    /// Also run the open-loop schedule on a *virtual* clock against a
    /// simulated-network server (requires `open_loop_rate`). Solves take
    /// zero virtual time there, so every measured latency must be
    /// exactly zero — the pass is the null test of the open-loop
    /// accounting and it completes in microseconds of wall time.
    pub virtual_open_loop: bool,
}

impl Default for LoadgenOptions {
    fn default() -> Self {
        Self {
            connections: 2,
            requests_per_conn: 256,
            batch_size: 32,
            seed: 0x10AD_6E4E,
            open_loop_rate: None,
            virtual_open_loop: false,
        }
    }
}

/// The pinned workload mix: both suite graphs × engines with distinct
/// warm-path shapes (the multi-source families and the classic serial
/// pair), all of which reach the same maximum cardinality per graph.
const GRAPHS: [(&str, &str); 2] = [("lg_kkt", "kkt_power"), ("lg_rmat", "RMAT")];
const ALGOS: [&str; 4] = ["ms-bfs-graft", "ms-bfs", "hk", "pf"];

struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn connect(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    fn send(&mut self, line: &str) -> std::io::Result<()> {
        // One syscall per request line, so the sequential pass measures
        // the round trip, not write-fragmentation artifacts.
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        self.writer.flush()
    }

    fn recv(&mut self) -> std::io::Result<String> {
        let mut reply = String::new();
        let n = self.reader.read_line(&mut reply)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(reply.trim_end().to_string())
    }

    fn req(&mut self, line: &str) -> std::io::Result<String> {
        self.send(line)?;
        self.recv()
    }
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// The seeded request mix: one `SOLVE` argument list per request, per
/// connection (also a valid `SOLVE_BATCH` member line).
fn build_workload(opts: &LoadgenOptions) -> Vec<Vec<String>> {
    (0..opts.connections)
        .map(|c| {
            let mut rng = opts.seed ^ (c as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            (0..opts.requests_per_conn)
                .map(|_| {
                    let (name, _) = GRAPHS[(xorshift(&mut rng) as usize) % GRAPHS.len()];
                    let alg = ALGOS[(xorshift(&mut rng) as usize) % ALGOS.len()];
                    format!("{name} {alg}")
                })
                .collect()
        })
        .collect()
}

fn cardinality_of(reply: &str) -> Option<u64> {
    reply
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix("cardinality="))
        .and_then(|v| v.parse().ok())
}

/// What one connection thread brings home from a pass: its latencies,
/// its reply cardinalities in request order, and any non-`OK` replies.
type ConnOutcome = (Vec<f64>, Vec<Option<u64>>, Vec<String>);

/// One measured pass over the whole workload.
struct PassResult {
    /// Per-request closed-loop latencies, seconds, sorted ascending.
    latencies: Vec<f64>,
    /// Per-connection reply cardinalities, in request order.
    cards: Vec<Vec<Option<u64>>>,
    /// Replies that were not `OK` lines, with their coordinates.
    errors: Vec<String>,
    /// Wall-clock for the pass (slowest connection bounds it).
    elapsed_s: f64,
}

impl PassResult {
    fn throughput(&self, total_requests: usize) -> f64 {
        if self.elapsed_s > 0.0 {
            total_requests as f64 / self.elapsed_s
        } else {
            0.0
        }
    }
}

/// Closed-loop sequential pass: `connections` threads, one request in
/// flight per connection.
fn run_sequential(addr: &str, workload: &[Vec<String>]) -> std::io::Result<PassResult> {
    let t0 = Instant::now();
    let per_conn: Vec<ConnOutcome> = std::thread::scope(|s| {
        let handles: Vec<_> = workload
            .iter()
            .enumerate()
            .map(|(ci, reqs)| {
                s.spawn(move || -> std::io::Result<_> {
                    let mut conn = Conn::connect(addr)?;
                    let mut lats = Vec::with_capacity(reqs.len());
                    let mut cards = Vec::with_capacity(reqs.len());
                    let mut errors = Vec::new();
                    for (ri, r) in reqs.iter().enumerate() {
                        let t = Instant::now();
                        let reply = conn.req(&format!("SOLVE {r}"))?;
                        lats.push(t.elapsed().as_secs_f64());
                        if !reply.starts_with("OK ") {
                            errors.push(format!("sequential conn {ci} req {ri}: {reply}"));
                        }
                        cards.push(cardinality_of(&reply));
                    }
                    Ok((lats, cards, errors))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("loadgen worker panicked"))
            .collect::<std::io::Result<Vec<_>>>()
    })?;
    let elapsed_s = t0.elapsed().as_secs_f64();
    let mut latencies = Vec::new();
    let mut cards = Vec::new();
    let mut errors = Vec::new();
    for (l, c, e) in per_conn {
        latencies.extend(l);
        cards.push(c);
        errors.extend(e);
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    Ok(PassResult {
        latencies,
        cards,
        errors,
        elapsed_s,
    })
}

/// Closed-loop pipelined pass: the same request streams chunked into
/// `SOLVE_BATCH`es through the retrying client. A member's recorded
/// latency is its batch's round trip — the time a caller awaiting the
/// batch observes for it.
fn run_pipelined(
    addr: &str,
    workload: &[Vec<String>],
    batch_size: usize,
) -> std::io::Result<PassResult> {
    let t0 = Instant::now();
    let per_conn: Vec<ConnOutcome> = std::thread::scope(|s| {
        let handles: Vec<_> = workload
            .iter()
            .enumerate()
            .map(|(ci, reqs)| {
                s.spawn(move || -> std::io::Result<_> {
                    let mut client =
                        graft_svc::RetryClient::new(addr, graft_svc::RetryPolicy::default());
                    let mut lats = Vec::with_capacity(reqs.len());
                    let mut cards = Vec::with_capacity(reqs.len());
                    let mut errors = Vec::new();
                    for (bi, chunk) in reqs.chunks(batch_size).enumerate() {
                        let members: Vec<String> = chunk.to_vec();
                        let t = Instant::now();
                        let replies = client
                            .request_batch(&members)
                            .map_err(|e| std::io::Error::other(e.to_string()))?;
                        let batch_s = t.elapsed().as_secs_f64();
                        if replies.len() != members.len() {
                            errors.push(format!(
                                "pipelined conn {ci} batch {bi}: {} replies for {} members: {:?}",
                                replies.len(),
                                members.len(),
                                replies.first()
                            ));
                            continue;
                        }
                        for (mi, reply) in replies.iter().enumerate() {
                            lats.push(batch_s);
                            if !reply.starts_with("OK ") {
                                errors.push(format!(
                                    "pipelined conn {ci} batch {bi} member {mi}: {reply}"
                                ));
                            }
                            cards.push(cardinality_of(reply));
                        }
                    }
                    Ok((lats, cards, errors))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("loadgen worker panicked"))
            .collect::<std::io::Result<Vec<_>>>()
    })?;
    let elapsed_s = t0.elapsed().as_secs_f64();
    let mut latencies = Vec::new();
    let mut cards = Vec::new();
    let mut errors = Vec::new();
    for (l, c, e) in per_conn {
        latencies.extend(l);
        cards.push(c);
        errors.extend(e);
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    Ok(PassResult {
        latencies,
        cards,
        errors,
        elapsed_s,
    })
}

/// Open-loop pass: one connection, requests written on a fixed schedule
/// regardless of reply progress; latency is measured from the
/// *scheduled* send time, so server-side queueing shows up instead of
/// being absorbed by a waiting client.
fn run_open_loop(addr: &str, reqs: &[String], rate: f64) -> std::io::Result<(Vec<f64>, f64)> {
    let conn = Conn::connect(addr)?;
    let interval = Duration::from_secs_f64(1.0 / rate.max(0.001));
    let t0 = Instant::now();
    let mut writer = conn.writer.try_clone()?;
    let reqs_owned: Vec<String> = reqs.to_vec();
    let sender = std::thread::spawn(move || -> std::io::Result<()> {
        for (i, r) in reqs_owned.iter().enumerate() {
            let target = interval * (i as u32);
            if let Some(wait) = target.checked_sub(t0.elapsed()) {
                std::thread::sleep(wait);
            }
            writer.write_all(format!("SOLVE {r}\n").as_bytes())?;
            writer.flush()?;
        }
        Ok(())
    });
    let mut reader = conn.reader;
    let mut lats = Vec::with_capacity(reqs.len());
    for i in 0..reqs.len() {
        let mut reply = String::new();
        if reader.read_line(&mut reply)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed mid-open-loop",
            ));
        }
        let scheduled = interval * (i as u32);
        lats.push((t0.elapsed() - scheduled.min(t0.elapsed())).as_secs_f64());
    }
    let elapsed = t0.elapsed().as_secs_f64();
    sender.join().expect("open-loop sender panicked")?;
    lats.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    Ok((lats, reqs.len() as f64 / elapsed.max(1e-9)))
}

/// Virtual-time open-loop pass: the identical schedule arithmetic on a
/// virtual clock against an in-process server on a simulated network.
/// With zero virtual service time queueing cannot build, so the
/// open-loop schedule degenerates to a paced single-threaded loop —
/// which also keeps the virtual timeline deterministic (one sleeper at
/// a time) — and every measured latency must come out exactly zero.
/// Any nonzero value means the accounting pipeline itself manufactured
/// latency, which the caller turns into a violation.
fn run_open_loop_virtual(
    scale_name: &str,
    reqs: &[String],
    rate: f64,
) -> std::io::Result<(Vec<f64>, f64)> {
    use graft_svc::{Clock, SimClock, SimNet, SimNetConfig, Transport};
    let clock = Arc::new(SimClock::new());
    // Default sim-net config: zero connect latency, no drops — the
    // arrival schedule is the only time source in this pass.
    let net = SimNet::new(
        SimNetConfig::default(),
        Arc::clone(&clock) as Arc<dyn Clock>,
    );
    let server = graft_svc::Server::bind_with(
        &graft_svc::ServeConfig {
            workers: 1,
            queue_capacity: reqs.len().max(64),
            snapshot_interval_ms: 0,
            ..graft_svc::ServeConfig::default()
        },
        Arc::clone(&net) as Arc<dyn Transport>,
        Arc::clone(&clock) as Arc<dyn Clock>,
    )?;
    let addr = server.local_addr()?.to_string();
    let server_thread = std::thread::spawn(move || server.run());

    let mut conn = net.connect(&addr, None)?;
    let mut reader = BufReader::new(conn.try_clone_conn()?);
    fn request(
        conn: &mut Box<dyn graft_svc::Conn>,
        reader: &mut BufReader<Box<dyn graft_svc::Conn>>,
        line: &str,
    ) -> std::io::Result<String> {
        conn.write_all(format!("{line}\n").as_bytes())?;
        conn.flush()?;
        let mut reply = String::new();
        if reader.read_line(&mut reply)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "sim server closed the connection",
            ));
        }
        Ok(reply.trim_end().to_string())
    }
    for (name, suite) in GRAPHS {
        let reply = request(
            &mut conn,
            &mut reader,
            &format!("GEN {name} {suite}:{scale_name}"),
        )?;
        if !reply.starts_with("OK ") {
            return Err(std::io::Error::other(format!(
                "virtual GEN failed: {reply}"
            )));
        }
    }
    // Warm every (graph, engine) cell, mirroring the real-time passes.
    for (name, _) in GRAPHS {
        for alg in ALGOS {
            let reply = request(&mut conn, &mut reader, &format!("SOLVE {name} {alg}"))?;
            if !reply.starts_with("OK ") {
                return Err(std::io::Error::other(format!(
                    "virtual warmup failed: {reply}"
                )));
            }
        }
    }

    let interval = Duration::from_secs_f64(1.0 / rate.max(0.001));
    let t0 = clock.now();
    let mut lats = Vec::with_capacity(reqs.len());
    for (i, r) in reqs.iter().enumerate() {
        let scheduled = interval * (i as u32);
        let elapsed = clock.now().saturating_duration_since(t0);
        if let Some(wait) = scheduled.checked_sub(elapsed) {
            clock.sleep(wait);
        }
        let reply = request(&mut conn, &mut reader, &format!("SOLVE {r}"))?;
        if !reply.starts_with("OK ") {
            return Err(std::io::Error::other(format!(
                "virtual open-loop reply: {reply}"
            )));
        }
        let done = clock.now().saturating_duration_since(t0);
        lats.push(done.saturating_sub(scheduled).as_secs_f64());
    }
    let elapsed = clock.now().saturating_duration_since(t0).as_secs_f64();
    let _ = request(&mut conn, &mut reader, "SHUTDOWN");
    drop(reader);
    drop(conn);
    let _ = server_thread
        .join()
        .expect("virtual server thread panicked");
    lats.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    Ok((lats, reqs.len() as f64 / elapsed.max(1e-9)))
}

fn pcts(lat: &[f64]) -> (f64, f64, f64) {
    (
        percentile(lat, 0.50),
        percentile(lat, 0.95),
        percentile(lat, 0.99),
    )
}

fn ms(v: f64) -> String {
    format!("{:.3}ms", v * 1e3)
}

/// Runs the load generator: measure both passes, write `BENCH_5.json`,
/// then fail (`Err`) iff a relative invariant is violated.
pub fn loadgen(cfg: &Config, opts: &LoadgenOptions) -> std::io::Result<()> {
    let total_requests = opts.connections * opts.requests_per_conn;
    println!(
        "loadgen: {} connections × {} requests, batch={}, seed={:#x}, scale={:?}",
        opts.connections, opts.requests_per_conn, opts.batch_size, opts.seed, cfg.scale
    );

    // The resident service under test. Worker count mirrors --threads
    // (0 = one worker per connection); the queue must hold a whole
    // batch per connection so backpressure never skews the comparison.
    let server = graft_svc::Server::bind(&graft_svc::ServeConfig {
        workers: if cfg.threads == 0 {
            opts.connections
        } else {
            cfg.threads
        },
        queue_capacity: (opts.batch_size * opts.connections).max(64),
        ..graft_svc::ServeConfig::default()
    })?;
    let addr = server.local_addr()?.to_string();
    let server_thread = std::thread::spawn(move || server.run());

    // Register the pinned pair over the wire and warm every
    // (graph, engine) cell, so both passes measure the steady state a
    // resident service actually serves (cold materialization amortized
    // away long before).
    let mut admin = Conn::connect(&addr)?;
    let scale_name = format!("{:?}", cfg.scale).to_lowercase();
    for (name, suite) in GRAPHS {
        let reply = admin.req(&format!("GEN {name} {suite}:{scale_name}"))?;
        if !reply.starts_with("OK ") {
            return Err(std::io::Error::other(format!("GEN {name} failed: {reply}")));
        }
    }
    for (name, _) in GRAPHS {
        for alg in ALGOS {
            let reply = admin.req(&format!("SOLVE {name} {alg}"))?;
            if !reply.starts_with("OK ") {
                return Err(std::io::Error::other(format!("warmup failed: {reply}")));
            }
        }
    }

    let workload = build_workload(opts);
    let seq = run_sequential(&addr, &workload)?;
    let pipe = run_pipelined(&addr, &workload, opts.batch_size.max(1))?;
    let open = match opts.open_loop_rate {
        Some(rate) => Some((rate, run_open_loop(&addr, &workload[0], rate)?)),
        None => None,
    };
    let open_virtual = if opts.virtual_open_loop {
        let Some(rate) = opts.open_loop_rate else {
            return Err(std::io::Error::other(
                "--virtual-open-loop requires --open-loop-rate",
            ));
        };
        Some((
            rate,
            run_open_loop_virtual(&scale_name, &workload[0], rate)?,
        ))
    } else {
        None
    };

    let _ = admin.req("SHUTDOWN");
    let _ = server_thread.join().expect("server thread panicked");

    let seq_tput = seq.throughput(total_requests);
    let pipe_tput = pipe.throughput(total_requests);
    let speedup = if seq_tput > 0.0 {
        pipe_tput / seq_tput
    } else {
        0.0
    };

    let mut violations: Vec<String> = Vec::new();
    violations.extend(seq.errors.iter().cloned());
    violations.extend(pipe.errors.iter().cloned());
    for (ci, (a, b)) in seq.cards.iter().zip(&pipe.cards).enumerate() {
        if a != b {
            violations.push(format!(
                "conn {ci}: cardinality sequence diverged between sequential and pipelined passes"
            ));
        }
    }
    if speedup < PIPELINE_SPEEDUP_MIN {
        violations.push(format!(
            "pipelined throughput {pipe_tput:.1} req/s is only {speedup:.2}× sequential \
             {seq_tput:.1} req/s (gate: ≥ {PIPELINE_SPEEDUP_MIN}×)"
        ));
    }
    if let Some((_, (ref lats, _))) = open_virtual {
        // Deterministic null check, not a performance gate: on a virtual
        // clock the schedule is exact and service time is zero, so any
        // nonzero latency was manufactured by the accounting itself.
        let max = lats.last().copied().unwrap_or(0.0);
        if max != 0.0 {
            violations.push(format!(
                "virtual-time open-loop measured nonzero latency (max {max:.9}s): \
                 the open-loop accounting manufactured latency"
            ));
        }
    }

    let (sp50, sp95, sp99) = pcts(&seq.latencies);
    let (pp50, pp95, pp99) = pcts(&pipe.latencies);
    let mut rep = Report::new(
        "loadgen",
        format!(
            "closed-loop service throughput — {} conns × {} reqs, batch {}",
            opts.connections, opts.requests_per_conn, opts.batch_size
        ),
        &["mode", "req/s", "p50", "p95", "p99", "elapsed_s", "errors"],
    );
    rep.row(vec![
        "sequential".into(),
        format!("{seq_tput:.1}"),
        ms(sp50),
        ms(sp95),
        ms(sp99),
        format!("{:.3}", seq.elapsed_s),
        seq.errors.len().to_string(),
    ]);
    rep.row(vec![
        "pipelined".into(),
        format!("{pipe_tput:.1}"),
        ms(pp50),
        ms(pp95),
        ms(pp99),
        format!("{:.3}", pipe.elapsed_s),
        pipe.errors.len().to_string(),
    ]);
    if let Some((rate, (ref lats, achieved))) = open {
        let (op50, op95, op99) = pcts(lats);
        rep.row(vec![
            format!("open-loop@{rate:.0}/s"),
            format!("{achieved:.1}"),
            ms(op50),
            ms(op95),
            ms(op99),
            String::new(),
            String::new(),
        ]);
    }
    if let Some((rate, (ref lats, achieved))) = open_virtual {
        let (op50, op95, op99) = pcts(lats);
        rep.row(vec![
            format!("open-loop@{rate:.0}/s (virtual)"),
            format!("{achieved:.1}"),
            ms(op50),
            ms(op95),
            ms(op99),
            String::new(),
            String::new(),
        ]);
    }
    rep.note(format!(
        "speedup {speedup:.2}× (gate ≥ {PIPELINE_SPEEDUP_MIN}×); pipelined member latency \
         is its batch's round trip; gates are relative only"
    ));
    for v in &violations {
        rep.note(format!("VIOLATION: {v}"));
    }
    rep.emit(&cfg.out_dir)?;

    // Machine-readable artifact.
    let mut artifact = Artifact::new(LOADGEN_SCHEMA, cfg.scale);
    artifact.field(
        "workload",
        format_args!(
            "{{\"connections\": {}, \"requests_per_conn\": {}, \"batch_size\": {}, \
             \"seed\": {}, \"graphs\": [\"kkt_power\", \"RMAT\"], \
             \"algorithms\": [\"ms-bfs-graft\", \"ms-bfs\", \"hk\", \"pf\"]}}",
            opts.connections, opts.requests_per_conn, opts.batch_size, opts.seed
        ),
    );
    for (mode, tput, r) in [
        ("sequential", seq_tput, &seq),
        ("pipelined", pipe_tput, &pipe),
    ] {
        let (p50, p95, p99) = pcts(&r.latencies);
        artifact.field(
            mode,
            format_args!(
                "{{\"throughput_rps\": {}, \"elapsed_s\": {}, \"p50_s\": {}, \
                 \"p95_s\": {}, \"p99_s\": {}, \"errors\": {}}}",
                secs(tput),
                secs(r.elapsed_s),
                secs(p50),
                secs(p95),
                secs(p99),
                r.errors.len()
            ),
        );
    }
    if let Some((rate, (ref lats, achieved))) = open {
        let (p50, p95, p99) = pcts(lats);
        artifact.field(
            "open_loop",
            format_args!(
                "{{\"target_rps\": {}, \"achieved_rps\": {}, \"p50_s\": {}, \
                 \"p95_s\": {}, \"p99_s\": {}}}",
                secs(rate),
                secs(achieved),
                secs(p50),
                secs(p95),
                secs(p99)
            ),
        );
    }
    if let Some((rate, (ref lats, achieved))) = open_virtual {
        let (p50, p95, p99) = pcts(lats);
        artifact.field(
            "open_loop_virtual",
            format_args!(
                "{{\"target_rps\": {}, \"achieved_rps\": {}, \"p50_s\": {}, \
                 \"p95_s\": {}, \"p99_s\": {}, \"max_s\": {}}}",
                secs(rate),
                secs(achieved),
                secs(p50),
                secs(p95),
                secs(p99),
                secs(lats.last().copied().unwrap_or(0.0))
            ),
        );
    }
    artifact.field("speedup", secs(speedup));
    artifact.field("speedup_gate_min", secs(PIPELINE_SPEEDUP_MIN));
    artifact.write(&cfg.out_dir, LOADGEN_FILE, "loadgen", &violations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graft_gen::Scale;

    #[test]
    fn workload_is_seeded_and_stable() {
        let opts = LoadgenOptions::default();
        let a = build_workload(&opts);
        let b = build_workload(&opts);
        assert_eq!(a, b, "same seed, same workload");
        assert_eq!(a.len(), opts.connections);
        assert!(a.iter().all(|c| c.len() == opts.requests_per_conn));
        let other = build_workload(&LoadgenOptions {
            seed: 1,
            ..opts.clone()
        });
        assert_ne!(a, other, "different seed, different mix");
    }

    /// End-to-end smoke at the smallest possible size: the artifact is
    /// written and correctness invariants hold. The throughput gate is
    /// NOT asserted here — a loaded test host must not flake the unit
    /// suite; CI runs the gated version as its own job.
    #[test]
    fn loadgen_smoke_emits_artifact() {
        let cfg = Config {
            scale: Scale::Tiny,
            out_dir: std::env::temp_dir().join("graft_bench_loadgen_test"),
            ..Config::default()
        };
        let opts = LoadgenOptions {
            connections: 1,
            requests_per_conn: 8,
            batch_size: 4,
            open_loop_rate: Some(200.0),
            virtual_open_loop: true,
            ..LoadgenOptions::default()
        };
        // Gate violations (pure throughput) are tolerated; correctness
        // violations are not.
        match loadgen(&cfg, &opts) {
            Ok(()) => {}
            Err(e) => {
                let msg = e.to_string();
                assert!(
                    msg.contains("throughput") && !msg.contains("diverged"),
                    "unexpected loadgen failure: {msg}"
                );
            }
        }
        let json = std::fs::read_to_string(cfg.out_dir.join(LOADGEN_FILE)).unwrap();
        assert!(json.contains(LOADGEN_SCHEMA));
        assert!(json.contains("\"sequential\""));
        assert!(json.contains("\"pipelined\""));
        assert!(json.contains("\"open_loop\""));
        assert!(json.contains("\"open_loop_virtual\""));
    }

    /// The virtual-time pass is exactly deterministic: every latency is
    /// zero (no queueing can build when service takes zero virtual
    /// time) and the achieved rate matches the schedule.
    #[test]
    fn virtual_open_loop_latencies_are_exactly_zero() {
        let reqs: Vec<String> = (0..16)
            .map(|i| format!("{} {}", GRAPHS[i % 2].0, ALGOS[i % ALGOS.len()]))
            .collect();
        let (lats, achieved) = run_open_loop_virtual("tiny", &reqs, 500.0).unwrap();
        assert_eq!(lats.len(), 16);
        assert!(
            lats.iter().all(|&l| l == 0.0),
            "virtual pass manufactured latency: {lats:?}"
        );
        // 16 requests at 2ms spacing: the last is *sent* at 30ms of
        // virtual time and completes instantly.
        let expected = 16.0 / 0.030;
        assert!(
            (achieved - expected).abs() / expected < 1e-6,
            "achieved {achieved}, expected {expected}"
        );
    }
}
