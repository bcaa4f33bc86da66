//! Differential test: `SOLVE_BATCH` must be an *encoding* change, never
//! a semantic one. The same seeded workload — three graphs × all eleven
//! algorithms, warm-start progression included — is issued once as
//! sequential `SOLVE`s and once as pipelined batches against two
//! identically-configured single-worker servers; every reply line and
//! every deterministic `STATS` counter must be byte-identical.
//!
//! A single worker makes the comparison exact: batch members execute in
//! submission order, so the warm-matching progression (each solve seeds
//! the next) is the same in both modes, and the in-tree rayon shim keeps
//! even the `*-par` engines deterministic.

use ms_bfs_graft::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: &str) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to service");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
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

fn spawn_inproc_server() -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = svc::Server::bind(&svc::ServeConfig {
        workers: 1,
        queue_capacity: 256,
        ..svc::ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

const GRAPHS: [(&str, &str); 3] = [
    ("g1", "kkt_power:tiny"),
    ("g2", "RMAT:tiny"),
    ("g3", "coPapersDBLP:tiny"),
];

/// One member line per request, covering all 11 algorithms over the
/// 3 graphs with a seeded mix of warm/cold solves, split into batches of
/// varying size (1, several mid-sized, and one spanning a whole round).
fn seeded_workload(seed: u64) -> Vec<Vec<String>> {
    let mut rng = seed | 1;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let mut members = Vec::new();
    for round in 0..3u64 {
        for (i, alg) in Algorithm::ALL.iter().enumerate() {
            let (name, _) = GRAPHS[(next() as usize) % GRAPHS.len()];
            let mut spec = svc::SolveSpec::new(name);
            spec.algorithm = *alg;
            // Occasional cold solves keep both the warm and cold paths
            // in the comparison (seeded, so both modes see the same).
            spec.cold = (round + i as u64 + next()).is_multiple_of(5);
            members.push(spec.wire_args());
        }
    }
    // Batch sizes 1, 3, 7, ... chunked deterministically.
    let sizes = [1usize, 3, 7, 11, 2, 9];
    let mut batches = Vec::new();
    let mut it = members.into_iter().peekable();
    let mut si = 0;
    while it.peek().is_some() {
        let take = sizes[si % sizes.len()];
        si += 1;
        let batch: Vec<String> = it.by_ref().take(take).collect();
        batches.push(batch);
    }
    batches
}

/// Strips the one nondeterministic token from a solve reply.
fn strip_elapsed(line: &str) -> String {
    line.split_whitespace()
        .filter(|tok| !tok.starts_with("elapsed_us="))
        .collect::<Vec<_>>()
        .join(" ")
}

/// The deterministic counters of a `STATS` reply (drops timing sums,
/// uptime, queue depth, and cache byte figures that depend on wall
/// clock or allocation order).
fn deterministic_counts(stats: &str) -> Vec<String> {
    stats
        .split_whitespace()
        .filter(|tok| {
            let key = tok.split('=').next().unwrap_or("");
            matches!(
                key,
                "submitted"
                    | "completed"
                    | "rejected"
                    | "timed_out"
                    | "solves_ok"
                    | "solves_err"
                    | "panics"
                    | "solve_count"
                    | "wait_count"
            ) || key.starts_with("solves[")
                || key.starts_with("solve_count[")
                || key.starts_with("graph_solves[")
        })
        .map(str::to_string)
        .collect()
}

#[test]
fn batch_replies_are_byte_identical_to_sequential_solves() {
    let (seq_addr, seq_handle) = spawn_inproc_server();
    let (bat_addr, bat_handle) = spawn_inproc_server();
    let mut seq = Client::connect(&seq_addr);
    let mut bat = Client::connect(&bat_addr);

    for (name, spec) in GRAPHS {
        let a = seq.req(&format!("GEN {name} {spec}"));
        let b = bat.req(&format!("GEN {name} {spec}"));
        assert!(a.starts_with("OK "), "{a}");
        assert_eq!(a, b, "registration replies must already agree");
    }

    let batches = seeded_workload(0x5EED_BA7C);
    let total: usize = batches.iter().map(Vec::len).sum();
    assert_eq!(total, 33, "3 rounds x 11 algorithms");

    let mut seq_replies = Vec::with_capacity(total);
    let mut bat_replies = Vec::with_capacity(total);

    for batch in &batches {
        // Sequential mode: one round trip per member (the member line is
        // exactly a SOLVE argument list).
        for member in batch {
            seq_replies.push(seq.req(&format!("SOLVE {member}")));
        }
        // Pipelined mode: the whole batch in one round trip.
        bat.send(&format!("SOLVE_BATCH {}", batch.len()));
        for member in batch {
            bat.send(member);
        }
        assert_eq!(bat.recv(), format!("OK batch={}", batch.len()));
        for _ in batch {
            bat_replies.push(bat.recv());
        }
    }

    for (i, (s, b)) in seq_replies.iter().zip(&bat_replies).enumerate() {
        assert!(s.starts_with("OK "), "sequential member {i} failed: {s}");
        assert_eq!(
            strip_elapsed(s),
            strip_elapsed(b),
            "member {i} diverged between modes"
        );
    }

    let seq_stats = seq.req("STATS");
    let bat_stats = bat.req("STATS");
    assert_eq!(
        deterministic_counts(&seq_stats),
        deterministic_counts(&bat_stats),
        "deterministic STATS counters diverged\nseq: {seq_stats}\nbat: {bat_stats}"
    );

    assert_eq!(seq.req("SHUTDOWN"), "OK bye");
    assert_eq!(bat.req("SHUTDOWN"), "OK bye");
    seq_handle.join().unwrap().unwrap();
    bat_handle.join().unwrap().unwrap();
}
