//! Resilience-core integration tests: HEALTH states and graceful drain,
//! SIGTERM-driven shutdown with a crash-safe snapshot round-trip,
//! byte-budget admission control, server-side TRACE bounds, and
//! broken-pipe hardening on the reply path.

use ms_bfs_graft::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

struct ChildGuard(Child);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to service");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").expect("send request");
        self.writer.flush().unwrap();
    }

    fn recv(&mut self) -> String {
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read reply");
        assert!(!reply.is_empty(), "server closed the connection");
        reply.trim_end().to_string()
    }

    fn req(&mut self, line: &str) -> String {
        self.send(line);
        self.recv()
    }
}

/// Line-protocol client over the simulated network (`Box<dyn Conn>`
/// instead of `TcpStream`); same surface as [`Client`].
struct SimClient {
    reader: BufReader<Box<dyn svc::Conn>>,
    writer: Box<dyn svc::Conn>,
}

impl SimClient {
    fn connect(net: &std::sync::Arc<svc::SimNet>, addr: &str) -> SimClient {
        use svc::Transport;
        let stream = net.connect(addr, None).expect("sim connect");
        let reader = stream.try_clone_conn().expect("clone sim conn");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        SimClient {
            reader: BufReader::new(reader),
            writer: stream,
        }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").expect("send request");
        self.writer.flush().unwrap();
    }

    fn recv(&mut self) -> String {
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read reply");
        assert!(!reply.is_empty(), "server closed the connection");
        reply.trim_end().to_string()
    }

    fn req(&mut self, line: &str) -> String {
        self.send(line);
        self.recv()
    }
}

fn field<'a>(line: &'a str, key: &str) -> &'a str {
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
        .unwrap_or_else(|| panic!("no field `{key}` in `{line}`"))
}

fn field_u64(line: &str, key: &str) -> u64 {
    field(line, key).parse().unwrap_or_else(|_| {
        panic!("field `{key}` in `{line}` is not a number");
    })
}

fn spawn_server(extra_args: &[&str]) -> (ChildGuard, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_graftmatch"))
        .arg("serve")
        .args(extra_args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn graftmatch serve");
    let stdout = child.stdout.take().unwrap();
    let mut first_line = String::new();
    BufReader::new(stdout)
        .read_line(&mut first_line)
        .expect("read listen line");
    let addr = first_line
        .trim()
        .rsplit(' ')
        .next()
        .expect("address in listen line")
        .to_string();
    assert!(
        first_line.contains("listening on"),
        "unexpected banner: {first_line}"
    );
    (ChildGuard(child), addr)
}

fn fresh_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "graft_svc_resilience_{name}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn health_reports_draining_and_drain_finishes_inflight_jobs() {
    // Runs on the simulation stack: a virtual clock plus an in-process
    // network, so "occupy the worker with a long sleep" is scripted
    // clock state instead of a timing race — no thread::sleep anywhere.
    use std::sync::Arc;
    let clock = Arc::new(svc::SimClock::new());
    let net = svc::SimNet::new(
        svc::SimNetConfig {
            seed: 1,
            ..svc::SimNetConfig::default()
        },
        Arc::clone(&clock) as Arc<dyn svc::Clock>,
    );
    let server = svc::Server::bind_with(
        &svc::ServeConfig {
            workers: 1,
            snapshot_interval_ms: 0,
            ..svc::ServeConfig::default()
        },
        Arc::clone(&net) as Arc<dyn svc::Transport>,
        Arc::clone(&clock) as Arc<dyn svc::Clock>,
    )
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || server.run());

    let mut inflight = SimClient::connect(&net, &addr);
    let mut observer = SimClient::connect(&net, &addr);
    let mut stopper = SimClient::connect(&net, &addr);

    let health = observer.req("HEALTH");
    assert_eq!(field(&health, "state"), "ready", "{health}");
    assert_eq!(field_u64(&health, "backlog"), 0, "{health}");

    // Occupy the only worker: pin virtual time short of the job's
    // wake-up so its 400ms sleep parks, then rendezvous on the clock —
    // the drain below starts while the job is provably in flight.
    let pin = clock.hold(Duration::from_millis(5));
    inflight.send("SLEEP 400");
    let deadline = Instant::now() + Duration::from_secs(30);
    while clock.pending_timers() < 2 {
        assert!(
            Instant::now() < deadline,
            "worker never parked in its sleep"
        );
        std::thread::yield_now();
    }
    assert_eq!(stopper.req("SHUTDOWN"), "OK bye");

    // The draining state becomes visible shortly after the SHUTDOWN
    // reply (the flags flip right after the reply is written). Each
    // probe is a full RPC round trip, so this loop never busy-spins.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let health = observer.req("HEALTH");
        if field(&health, "state") == "draining" {
            break;
        }
        assert!(Instant::now() < deadline, "never saw draining: {health}");
        std::thread::yield_now();
    }

    // Draining refuses new jobs with a typed reply...
    let refused = observer.req("SOLVE whatever ms-bfs-graft");
    assert!(refused.starts_with("ERR shutting-down"), "{refused}");

    // ...but the in-flight job still completes within the grace period
    // once the timeline is released.
    drop(pin);
    assert_eq!(inflight.recv(), "OK slept_ms=400");
    handle.join().unwrap().unwrap();
}

#[test]
fn sigterm_drains_and_snapshot_gives_a_warm_restart() {
    let dir = fresh_dir("sigterm");
    let dir_s = dir.display().to_string();

    // The suite generators are seeded, so the oracle cardinality can be
    // computed locally.
    let local = gen::suite::by_name("kkt_power")
        .unwrap()
        .build(gen::Scale::Tiny);
    let oracle = matching::solve(&local, Algorithm::HopcroftKarp, &SolveOptions::default());
    let max_card = oracle.matching.cardinality() as u64;

    let card_before;
    {
        let (mut guard, addr) = spawn_server(&["--state", &dir_s]);
        let mut c = Client::connect(&addr);
        assert!(c.req("GEN g kkt_power:tiny").starts_with("OK "));
        let solved = c.req("SOLVE g ms-bfs-graft");
        assert!(solved.starts_with("OK "), "{solved}");
        assert_eq!(field(&solved, "warm"), "false");
        card_before = field_u64(&solved, "cardinality");
        assert_eq!(card_before, max_card);

        // SIGTERM, not SHUTDOWN: the signal handler must run the same
        // drain protocol and exit 0 after the final snapshot.
        let pid = guard.0.id();
        let rc = Command::new("sh")
            .args(["-c", &format!("kill -TERM {pid}")])
            .status()
            .expect("run kill");
        assert!(rc.success());
        let status = guard.0.wait().expect("server exits after SIGTERM");
        assert!(status.success(), "exit status after SIGTERM: {status}");
    }

    // A fresh process over the same state dir restores the registry and
    // the last matching: the first SOLVE is already warm.
    let (_guard, addr) = spawn_server(&["--state", &dir_s]);
    let mut c = Client::connect(&addr);
    let solved = c.req("SOLVE g ms-bfs-graft");
    assert!(solved.starts_with("OK "), "{solved}");
    assert_eq!(field(&solved, "warm"), "true", "{solved}");
    assert_eq!(field_u64(&solved, "cardinality"), card_before);
    assert_eq!(
        field_u64(&solved, "augmentations"),
        0,
        "a restored maximum matching needs no augmentation: {solved}"
    );
    assert_eq!(c.req("SHUTDOWN"), "OK bye");
}

#[test]
fn dynamic_deltas_survive_a_snapshot_restart() {
    let dir = fresh_dir("dyn_deltas");
    let dir_s = dir.display().to_string();

    // The generators are seeded, so a live base edge and the maximum
    // cardinality can be computed locally.
    let local = gen::suite::by_name("kkt_power")
        .unwrap()
        .build(gen::Scale::Tiny);
    let oracle = matching::solve(&local, Algorithm::HopcroftKarp, &SolveOptions::default());
    let max_card = oracle.matching.cardinality() as u64;
    let (ex, ey) = (0u32, local.x_neighbors(0)[0]);

    {
        let (mut guard, addr) = spawn_server(&["--state", &dir_s]);
        let mut c = Client::connect(&addr);
        assert!(c.req("GEN g kkt_power:tiny").starts_with("OK "));
        assert!(c.req("SOLVE g ms-bfs-graft").starts_with("OK "));
        // Delete a known base edge: the journal now holds one tombstone.
        let del = c.req(&format!("UPDATE g DEL {ex} {ey}"));
        assert!(del.starts_with("OK graph=g op=del"), "{del}");
        assert_eq!(c.req("SHUTDOWN"), "OK bye");
        assert!(guard.0.wait().unwrap().success());
    }

    // The restarted server must replay the delta before serving updates:
    // deleting the same edge again is a typed rejection (it is already
    // gone), and re-inserting it restores the full base graph, so the
    // cardinality climbs back to the oracle's maximum.
    let (mut guard, addr) = spawn_server(&["--state", &dir_s]);
    let mut c = Client::connect(&addr);
    let del = c.req(&format!("UPDATE g DEL {ex} {ey}"));
    assert!(
        del.starts_with("ERR bad-request"),
        "tombstone was not restored from the snapshot: {del}"
    );
    let add = c.req(&format!("UPDATE g ADD {ex} {ey}"));
    assert!(add.starts_with("OK graph=g op=add"), "{add}");
    assert_eq!(field_u64(&add, "cardinality"), max_card, "{add}");
    assert_eq!(c.req("SHUTDOWN"), "OK bye");
    assert!(guard.0.wait().unwrap().success());
}

/// Boots a server on a CRC-valid journal that registers `g` from `spec`
/// with the warm start `warm`, and checks that the first solve ignores
/// it: `warm=false` and Hopcroft-Karp's cardinality.
fn journal_warm_start_boots_cold(tag: &str, spec: &str, warm: svc::WarmStart) {
    let dir = fresh_dir(tag);
    let source = svc::registry::parse_gen_spec(spec).unwrap();
    let (name, scale) = spec.split_once(':').unwrap();
    let local = gen::suite::by_name(name)
        .unwrap()
        .build(gen::Scale::parse(scale).unwrap());
    let max_card = matching::solve(&local, Algorithm::HopcroftKarp, &SolveOptions::default())
        .matching
        .cardinality() as u64;
    let journal = svc::snapshot::render(&svc::Snapshot::from_entries(vec![svc::SnapshotEntry {
        name: "g".into(),
        source,
        warm: Some(warm),
    }]));
    std::fs::write(dir.join(svc::snapshot::SNAPSHOT_FILE), journal).unwrap();

    let server = svc::Server::bind(&svc::ServeConfig {
        state_dir: Some(dir.clone()),
        snapshot_interval_ms: 0,
        ..svc::ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || server.run());
    let mut c = Client::connect(&addr);
    let solved = c.req("SOLVE g ms-bfs-graft");
    assert!(solved.starts_with("OK "), "{solved}");
    assert_eq!(field(&solved, "warm"), "false", "{solved}");
    assert_eq!(field_u64(&solved, "cardinality"), max_card, "{solved}");
    assert_eq!(c.req("SHUTDOWN"), "OK bye");
    handle.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn oversized_warm_start_in_the_journal_boots_cold() {
    // A warm start that claims |Y| = 2^62: boot must not size anything
    // by it, and the first solve runs cold.
    let nx = gen::suite::by_name("kkt_power")
        .unwrap()
        .build(gen::Scale::Tiny)
        .num_x();
    let warm = svc::WarmStart {
        ny: 1 << 62,
        mate_x: vec![-1; nx],
    };
    journal_warm_start_boots_cold("huge_ny", "kkt_power:tiny", warm);
}

#[test]
fn warm_start_pairing_non_edges_in_the_journal_boots_cold() {
    // A warm start of the right shape whose pairs x -> x are mostly not
    // edges of the graph: attaching it would let the first solve report
    // a cardinality above the maximum.
    let g = gen::suite::by_name("wikipedia")
        .unwrap()
        .build(gen::Scale::Tiny);
    let (nx, ny) = (g.num_x(), g.num_y());
    let mate_x = (0..nx)
        .map(|x| if x < ny { x as i64 } else { -1 })
        .collect();
    let warm = svc::WarmStart { ny, mate_x };
    journal_warm_start_boots_cold("non_edges", "wikipedia:tiny", warm);
}

#[test]
fn admission_control_refuses_oversized_graphs_before_materializing() {
    let server = svc::Server::bind(&svc::ServeConfig {
        max_graph_bytes: 1 << 20,
        ..svc::ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || server.run());
    let mut c = Client::connect(&addr);

    // kkt_power:medium is tens of MB materialized; the estimate alone
    // must reject it.
    let t0 = Instant::now();
    let rejected = c.req("GEN big kkt_power:medium");
    assert!(rejected.starts_with("ERR too-large"), "{rejected}");
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "rejection must come from the estimate, not a build"
    );
    assert!(rejected.contains("bytes"), "{rejected}");
    assert!(rejected.contains("admission limit"), "{rejected}");

    let stats = c.req("STATS");
    assert!(field_u64(&stats, "admission_rejected") >= 1, "{stats}");

    // A graph under the limit still loads and solves.
    assert!(c.req("GEN ok kkt_power:tiny").starts_with("OK "));
    let solved = c.req("SOLVE ok ms-bfs-graft");
    assert!(solved.starts_with("OK "), "{solved}");

    assert_eq!(c.req("SHUTDOWN"), "OK bye");
    handle.join().unwrap().unwrap();
}

#[test]
fn trace_limits_are_bounded_server_side() {
    let server = svc::Server::bind(&svc::ServeConfig {
        trace_events: 8,
        ..svc::ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || server.run());
    let mut c = Client::connect(&addr);

    assert!(c.req("GEN g kkt_power:tiny").starts_with("OK "));
    assert!(c.req("SOLVE g ms-bfs-graft").starts_with("OK "));

    let zero = c.req("TRACE 0");
    assert!(zero.starts_with("ERR bad-request"), "{zero}");
    let absurd = c.req("TRACE 1000001");
    assert!(absurd.starts_with("ERR bad-request"), "{absurd}");

    // A huge-but-legal request is capped at the ring capacity (8), not
    // echoed back as a promise of a million events.
    let capped = c.req("TRACE 999999");
    let n = field_u64(&capped, "events");
    assert!(n <= 8, "{capped}");
    for _ in 0..n {
        let ev = c.recv();
        assert!(ev.starts_with('{'), "{ev}");
    }

    let three = c.req("TRACE 3");
    let n = field_u64(&three, "events");
    assert!(n <= 3, "{three}");
    for _ in 0..n {
        c.recv();
    }

    assert_eq!(c.req("SHUTDOWN"), "OK bye");
    handle.join().unwrap().unwrap();
}

#[test]
fn broken_pipe_mid_reply_is_absorbed_not_fatal() {
    let server = svc::Server::bind(&svc::ServeConfig::default()).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || server.run());

    // Two queued requests, then vanish before either reply lands. The
    // first reply hits a socket the peer already closed (triggering an
    // RST), the second write then fails — which must be absorbed into
    // the write_errors metric, not unwind the connection thread.
    {
        let mut doomed = TcpStream::connect(&addr).unwrap();
        doomed.write_all(b"SLEEP 150\nSLEEP 150\n").unwrap();
        doomed.flush().unwrap();
        let _ = doomed.shutdown(Shutdown::Both);
    }

    // The server is fully responsive throughout and afterwards.
    let mut c = Client::connect(&addr);
    assert_eq!(c.req("SLEEP 1"), "OK slept_ms=1");

    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = c.req("STATS");
        if field_u64(&stats, "write_errors") >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "write error never surfaced: {stats}"
        );
        // Each probe is a full RPC round trip — re-asking is the wait.
        std::thread::yield_now();
    }

    // State is not poisoned: normal service continues on new and
    // existing connections.
    assert!(c.req("GEN g kkt_power:tiny").starts_with("OK "));
    assert!(c.req("SOLVE g ms-bfs-graft").starts_with("OK "));
    assert_eq!(c.req("SHUTDOWN"), "OK bye");
    handle.join().unwrap().unwrap();
}

#[test]
fn solve_remote_retries_against_a_draining_then_fresh_server() {
    // End-to-end check of the CLI client path: a SOLVE against a live
    // server succeeds through `graftmatch solve-remote`.
    let (_guard, addr) = spawn_server(&[]);
    let mut c = Client::connect(&addr);
    assert!(c.req("GEN g kkt_power:tiny").starts_with("OK "));

    let out = Command::new(env!("CARGO_BIN_EXE_graftmatch"))
        .args([
            "solve-remote",
            "--addr",
            &addr,
            "--name",
            "g",
            "--algorithm",
            "ms-bfs-graft",
            "--attempts",
            "3",
        ])
        .output()
        .expect("run solve-remote");
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("OK "), "{stdout}");
    assert!(stdout.contains("cardinality="), "{stdout}");

    // An unknown graph is a non-retryable error: exit code 1, no hang.
    let out = Command::new(env!("CARGO_BIN_EXE_graftmatch"))
        .args(["solve-remote", "--addr", &addr, "--name", "nope"])
        .output()
        .expect("run solve-remote");
    assert!(!out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("ERR unknown-graph"), "{stdout}");

    assert_eq!(c.req("SHUTDOWN"), "OK bye");
}
