//! End-to-end tests of the matching service over real TCP: the
//! `graftmatch serve` binary as a resident process, and an in-process
//! [`graft_svc::Server`] for the backpressure choreography.

use ms_bfs_graft::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// Kills the server process if a test panics before SHUTDOWN.
struct ChildGuard(Child);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// One protocol connection: send a line, read the reply line.
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

/// Extracts `key=value` from a reply line.
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

/// Spawns `graftmatch serve` and scrapes the bound address from stdout.
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

#[test]
fn resident_server_solves_repeatedly_with_cache_and_warm_start() {
    let (mut guard, addr) = spawn_server(&[]);
    let mut c = Client::connect(&addr);

    // Register a generated graph once.
    let gen_reply = c.req("GEN g kkt_power:tiny");
    assert!(gen_reply.starts_with("OK "), "{gen_reply}");
    let nx = field_u64(&gen_reply, "nx");

    // The same instance built locally gives the ground truth: the suite
    // generators are seeded, so `kkt_power:tiny` is bit-identical here.
    let local = gen::suite::by_name("kkt_power")
        .unwrap()
        .build(gen::Scale::Tiny);
    assert_eq!(local.num_x() as u64, nx);
    let oracle = matching::solve(&local, Algorithm::HopcroftKarp, &SolveOptions::default());
    assert!(matching::verify::is_maximum(&local, &oracle.matching));
    let max_card = oracle.matching.cardinality() as u64;

    // Three sequential SOLVEs on one resident process; the graph is
    // generated exactly once, so SOLVEs 2 and 3 are cache hits.
    let cold = c.req("SOLVE g ms-bfs-graft");
    assert!(cold.starts_with("OK "), "{cold}");
    assert_eq!(field_u64(&cold, "cardinality"), max_card);
    assert_eq!(field(&cold, "warm"), "false");
    let cold_phases = field_u64(&cold, "phases");

    let warm = c.req("SOLVE g ms-bfs-graft");
    assert!(warm.starts_with("OK "), "{warm}");
    assert_eq!(field_u64(&warm, "cardinality"), max_card);
    assert_eq!(field(&warm, "warm"), "true");
    let warm_phases = field_u64(&warm, "phases");
    let warm_augs = field_u64(&warm, "augmentations");
    assert!(
        warm_phases < cold_phases,
        "warm start should need fewer phases: cold={cold_phases} warm={warm_phases}"
    );
    assert_eq!(warm_augs, 0, "a maximum warm start needs no augmentation");

    // A second algorithm agrees on the cardinality.
    let hk = c.req("SOLVE g hk");
    assert!(hk.starts_with("OK "), "{hk}");
    assert_eq!(field_u64(&hk, "cardinality"), max_card);

    let stats = c.req("STATS");
    assert!(stats.starts_with("OK "), "{stats}");
    assert!(
        field_u64(&stats, "cache_hits") >= 2,
        "repeat solves must hit the cache: {stats}"
    );
    assert_eq!(field_u64(&stats, "cache_reloads"), 0, "{stats}");
    assert!(field_u64(&stats, "completed") >= 3, "{stats}");

    // A deadline of zero trips the typed timeout...
    let late = c.req("SOLVE g ms-bfs-graft-par timeout_ms=0 cold");
    assert!(late.starts_with("ERR deadline"), "{late}");
    // ...and the server keeps serving afterwards.
    let after = c.req("SOLVE g hk");
    assert_eq!(field_u64(&after, "cardinality"), max_card);
    let stats = c.req("STATS");
    assert!(field_u64(&stats, "timed_out") >= 1, "{stats}");

    assert_eq!(c.req("SHUTDOWN"), "OK bye");
    let status = guard.0.wait().expect("server exits after SHUTDOWN");
    assert!(status.success(), "server exit status: {status}");
}

#[test]
fn load_solves_an_mtx_file_from_disk() {
    let dir = std::env::temp_dir().join("graft_svc_load_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("grid.mtx");
    let g = gen::grid2d(20, 20);
    graph::mtx::write_mtx_file(&g, &path).unwrap();
    let expected = matching::hopcroft_karp(&g, Matching::for_graph(&g))
        .matching
        .cardinality() as u64;

    let (_guard, addr) = spawn_server(&[]);
    let mut c = Client::connect(&addr);
    let loaded = c.req(&format!("LOAD grid {}", path.display()));
    assert!(loaded.starts_with("OK "), "{loaded}");
    assert_eq!(field_u64(&loaded, "edges"), g.num_edges() as u64);
    let solved = c.req("SOLVE grid ms-bfs-graft-par");
    assert_eq!(field_u64(&solved, "cardinality"), expected);

    // Loading a missing path is an error, not a dead server.
    let missing = c.req("LOAD nope /no/such/file.mtx");
    assert!(missing.starts_with("ERR load"), "{missing}");
    assert_eq!(c.req("SHUTDOWN"), "OK bye");
}

#[test]
fn full_queue_returns_overloaded_and_recovers() {
    // One worker, queue of one: the third concurrent job must bounce.
    let server = svc::Server::bind(&svc::ServeConfig {
        workers: 1,
        queue_capacity: 1,
        ..svc::ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || server.run());

    let mut c1 = Client::connect(&addr);
    let mut c2 = Client::connect(&addr);
    let mut c3 = Client::connect(&addr);

    // c1's job occupies the worker; give it time to be picked up.
    c1.send("SLEEP 600");
    std::thread::sleep(Duration::from_millis(150));
    // c2's job fills the queue.
    c2.send("SLEEP 600");
    std::thread::sleep(Duration::from_millis(150));
    // c3 is one too many: typed, immediate rejection.
    let reply = c3.req("SLEEP 1");
    assert!(reply.starts_with("ERR overloaded"), "{reply}");

    // The rejected client's connection still works, and the queued jobs
    // complete once the worker frees up.
    assert_eq!(c1.recv(), "OK slept_ms=600");
    assert_eq!(c2.recv(), "OK slept_ms=600");
    let stats = c3.req("STATS");
    assert!(field_u64(&stats, "rejected") >= 1, "{stats}");
    let reply = c3.req("SLEEP 1");
    assert_eq!(reply, "OK slept_ms=1", "queue must recover after drain");

    assert_eq!(c3.req("SHUTDOWN"), "OK bye");
    handle.join().unwrap().unwrap();
}

#[test]
fn solve_threads_are_validated_defaulted_and_counted() {
    // 2 workers, default 1 thread per solve.
    let server = svc::Server::bind(&svc::ServeConfig {
        workers: 2,
        threads_per_solve: 1,
        ..svc::ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || server.run());
    let mut c = Client::connect(&addr);

    assert!(c.req("GEN g kkt_power:tiny").starts_with("OK "));

    // threads=k beyond the worker pool: typed rejection, nothing runs.
    let reply = c.req("SOLVE g ms-bfs-graft-par threads=3");
    assert!(reply.starts_with("ERR bad-request"), "{reply}");

    // Default solve counts threads_per_solve (= 1) in the ledger.
    assert!(c.req("SOLVE g ms-bfs-graft").starts_with("OK "));
    let stats = c.req("STATS");
    assert_eq!(field_u64(&stats, "solve_threads_used"), 1, "{stats}");

    // An explicit 2-thread parallel solve adds 2 more.
    let par = c.req("SOLVE g ms-bfs-graft-par threads=2 cold");
    assert!(par.starts_with("OK "), "{par}");
    let stats = c.req("STATS");
    assert_eq!(field_u64(&stats, "solve_threads_used"), 3, "{stats}");

    assert_eq!(c.req("SHUTDOWN"), "OK bye");
    handle.join().unwrap().unwrap();
}

#[test]
fn serial_solves_hold_one_worker_slot() {
    // A default of 2 threads per solve applies to parallel algorithms
    // only: a serial engine runs on one thread and is charged one slot.
    let server = svc::Server::bind(&svc::ServeConfig {
        workers: 2,
        threads_per_solve: 2,
        ..svc::ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || server.run());
    let mut c = Client::connect(&addr);
    assert!(c.req("GEN g kkt_power:tiny").starts_with("OK "));

    assert!(c.req("SOLVE g ms-bfs-graft").starts_with("OK "));
    let stats = c.req("STATS");
    assert_eq!(field_u64(&stats, "solve_threads_used"), 1, "{stats}");

    assert!(c.req("SOLVE g ms-bfs-graft-par cold").starts_with("OK "));
    let stats = c.req("STATS");
    assert_eq!(field_u64(&stats, "solve_threads_used"), 3, "{stats}");

    assert_eq!(c.req("SHUTDOWN"), "OK bye");
    handle.join().unwrap().unwrap();
}

#[test]
fn threads_per_solve_must_fit_the_worker_pool() {
    let err = svc::Server::bind(&svc::ServeConfig {
        workers: 2,
        threads_per_solve: 4,
        ..svc::ServeConfig::default()
    })
    .err()
    .expect("threads_per_solve > workers must be refused at bind");
    assert!(err.to_string().contains("threads_per_solve"), "{err}");
}

#[test]
fn serve_flag_threads_per_solve_sets_the_default() {
    // `--threads-per-solve 2` on a 2-worker server: an unadorned SOLVE
    // runs 2-threaded and the ledger counts 2.
    let (mut guard, addr) = spawn_server(&["--workers", "2", "--threads-per-solve", "2"]);
    let mut c = Client::connect(&addr);
    assert!(c.req("GEN g kkt_power:tiny").starts_with("OK "));
    assert!(c.req("SOLVE g ms-bfs-graft-par").starts_with("OK "));
    let stats = c.req("STATS");
    assert_eq!(field_u64(&stats, "solve_threads_used"), 2, "{stats}");
    assert_eq!(c.req("SHUTDOWN"), "OK bye");
    guard.0.wait().unwrap();
}

#[test]
fn re_registering_a_name_forgets_its_dynamic_state() {
    // Updates after a re-`GEN` must run against the new graph, not the
    // matcher built from the old one.
    let (mut guard, addr) = spawn_server(&[]);
    let mut c = Client::connect(&addr);
    assert!(c.req("GEN g kkt_power:tiny").starts_with("OK "));
    assert!(c.req("SOLVE g").starts_with("OK "));
    let del = c.req("UPDATE g DEL 0 0");
    assert!(del.starts_with("OK "), "{del}");
    assert!(c.req("GEN g RMAT:tiny").starts_with("OK "));
    let add = c.req("UPDATE g ADD 0 0");
    assert!(add.starts_with("OK "), "{add}");
    let hk = c.req("SOLVE g hk cold");
    assert!(hk.starts_with("OK "), "{hk}");
    assert_eq!(
        field_u64(&add, "cardinality"),
        field_u64(&hk, "cardinality"),
        "UPDATE after the re-GEN answered from the old graph: {add}"
    );
    assert_eq!(c.req("SHUTDOWN"), "OK bye");
    guard.0.wait().unwrap();
}
