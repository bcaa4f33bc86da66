//! The end-to-end run: a `graft_svc::Server` on loopback TCP inside this
//! process, driven by closed-loop clients. Each client times a request on
//! its own clock, from writing the request line to reading the reply, and
//! checks every reply against the certified maximum cardinality.

use crate::workload::{cycle, pair_lines, Client, Workload};
use graft_svc::{FsyncPolicy, ServeConfig, Server};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What every reply is checked against.
pub struct Expected {
    /// Maximum matching cardinality, from Hopcroft-Karp, König-certified.
    pub max: usize,
    /// The seeded delete/restore pairs; pair 0 is the warm-up.
    pub pairs: Vec<(u32, u32)>,
}

/// The request kinds a reply is checked as.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `SOLVE`: must report the maximum.
    Solve,
    /// `UPDATE DEL`: the maximum or one less.
    Delete,
    /// `UPDATE ADD` restoring a deleted edge: the maximum again.
    Restore,
}

impl Kind {
    /// The kind of a request line.
    pub fn of(line: &str) -> Kind {
        if line.starts_with("SOLVE") {
            Kind::Solve
        } else if line.split_whitespace().nth(2) == Some("DEL") {
            Kind::Delete
        } else {
            Kind::Restore
        }
    }
}

/// Checks a reported cardinality for a request of `kind`.
pub fn check(kind: Kind, cardinality: usize, max: usize) -> Result<(), String> {
    let ok = match kind {
        Kind::Solve | Kind::Restore => cardinality == max,
        Kind::Delete => cardinality == max || cardinality + 1 == max,
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{kind:?} reported cardinality {cardinality}, expected {max}"
        ))
    }
}

/// The value of `key=` in a reply line.
fn field<'a>(reply: &'a str, key: &str) -> Option<&'a str> {
    reply
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
}

fn check_reply(kind: Kind, reply: &str, max: usize) -> Result<(), String> {
    if !reply.starts_with("OK ") {
        return Err(format!("{kind:?} replied `{reply}`"));
    }
    let card = field(reply, "cardinality")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{kind:?} reply without cardinality: `{reply}`"))?;
    check(kind, card, max)
}

/// Requests attempted and failed; a failure is an `ERR` reply, a
/// transport error or a wrong cardinality.
#[derive(Default)]
pub struct Tally {
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed.
    pub failed: u64,
    /// The first failure, for the report.
    pub first_failure: Option<String>,
}

impl Tally {
    /// Counts one request and its outcome.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            self.first_failure.get_or_insert(e);
        }
    }

    /// Adds another tally's counts.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if let Some(e) = other.first_failure {
            self.first_failure.get_or_insert(e);
        }
    }
}

/// One client connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(writer.try_clone()?),
            writer,
            line: String::new(),
        })
    }

    /// Sends one request line and reads its one reply line.
    fn call(&mut self, request: &str) -> io::Result<&str> {
        self.writer.write_all(format!("{request}\n").as_bytes())?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(self.line.trim_end())
    }

    /// Sends `request`, checks the reply as `kind`, and returns the
    /// client-clock latency in milliseconds of a reply that passed.
    fn timed(&mut self, request: &str, kind: Kind, max: usize, tally: &mut Tally) -> Option<f64> {
        let t = Instant::now();
        let outcome = match self.call(request) {
            Ok(reply) => check_reply(kind, reply, max),
            Err(e) => Err(format!("transport error on `{request}`: {e}")),
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let passed = outcome.is_ok();
        tally.record(outcome);
        passed.then_some(ms)
    }
}

/// A server running on its own thread.
struct Service {
    addr: SocketAddr,
    thread: JoinHandle<io::Result<()>>,
    state_dir: Option<PathBuf>,
}

impl Service {
    fn start(w: Workload, state_dir: Option<PathBuf>) -> io::Result<Service> {
        let mut cfg = ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        };
        if w.journaled() {
            let dir = state_dir
                .clone()
                .expect("a journaled workload has a state dir");
            std::fs::create_dir_all(&dir)?;
            cfg.state_dir = Some(dir);
            cfg.fsync = FsyncPolicy::Always;
            cfg.snapshot_interval_ms = 0;
        }
        let server = Server::bind(&cfg)?;
        let addr = server.local_addr()?;
        let thread = std::thread::spawn(move || server.run());
        Ok(Service {
            addr,
            thread,
            state_dir,
        })
    }

    /// `SHUTDOWN`, then waits for the server thread and removes its state.
    fn stop(self) -> io::Result<()> {
        let reply = Conn::connect(self.addr)?.call("SHUTDOWN")?.to_string();
        let ran = self
            .thread
            .join()
            .map_err(|_| io::Error::other("server thread panicked"))?;
        if let Some(dir) = &self.state_dir {
            std::fs::remove_dir_all(dir)?;
        }
        if reply != "OK bye" {
            return Err(io::Error::other(format!("SHUTDOWN replied `{reply}`")));
        }
        ran
    }

    /// `(wait_count, wait_us_sum)` from `STATS`.
    fn queue_wait(&self) -> io::Result<(u64, u64)> {
        let mut conn = Conn::connect(self.addr)?;
        let reply = conn.call("STATS")?;
        let get = |k| field(reply, k).and_then(|v| v.parse().ok());
        match (get("wait_count"), get("wait_us_sum")) {
            (Some(c), Some(s)) => Ok((c, s)),
            _ => Err(io::Error::other(format!("STATS reply `{reply}`"))),
        }
    }
}

/// The largest resident set size seen while it runs, sampled from
/// `/proc/self/status` every few milliseconds.
struct RssSampler {
    stop: std::sync::Arc<AtomicBool>,
    thread: JoinHandle<u64>,
}

impl RssSampler {
    fn start() -> RssSampler {
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let flag = std::sync::Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut peak_kib = 0;
            loop {
                peak_kib = peak_kib.max(rss_kib());
                if flag.load(Ordering::Relaxed) {
                    return peak_kib;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        RssSampler { stop, thread }
    }

    fn finish(self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().expect("the sampler does not panic")
    }
}

fn rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// Client-clock latencies in ms, by verb.
#[derive(Default)]
pub struct Timed {
    /// Each `SOLVE`.
    pub solve: Vec<f64>,
    /// Each `UPDATE`.
    pub update: Vec<f64>,
    /// Every checked request.
    pub tally: Tally,
}

impl Timed {
    fn merge(&mut self, other: Timed) {
        self.solve.extend(other.solve);
        self.update.extend(other.update);
        self.tally.merge(other.tally);
    }
}

/// Everything the end-to-end run measured.
#[derive(Default)]
pub struct Outcome {
    /// The window's requests, plus the set-up requests in the tally.
    pub timed: Timed,
    /// Length of the window, s.
    pub window_s: f64,
    /// Each setup: bind, `GEN` and the warm-up requests, s.
    pub setup_s: Vec<f64>,
    /// Mean queue wait of the window's jobs from `STATS`, µs.
    pub queue_wait_us: f64,
    /// Peak resident set during the first setup and the window, KiB.
    pub peak_rss_kib: u64,
}

/// Runs one workload end to end: a setup, a window of `window`, then
/// `setups - 1` more setups, each stopped again. The later setups run
/// after the measured server is gone, so that memory they free and the
/// allocator keeps does not count in its peak. `scratch` holds the
/// journal directories.
pub fn run(
    w: Workload,
    exp: &Expected,
    setups: usize,
    window: Duration,
    scratch: &Path,
) -> io::Result<Outcome> {
    let mut out = Outcome::default();
    let sampler = RssSampler::start();
    let (service, mut conns) = set_up(w, exp, &scratch.join("state-0"), &mut out)?;

    let (count0, sum0) = service.queue_wait()?;
    let start = Instant::now();
    let deadline = start + window;
    let clients = std::thread::scope(|s| {
        let handles: Vec<_> = w
            .clients()
            .iter()
            .zip(conns.iter_mut())
            .map(|(&client, conn)| s.spawn(move || client_loop(w, client, conn, exp, deadline)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect::<Vec<_>>()
    });
    out.window_s = start.elapsed().as_secs_f64();
    for timed in clients {
        out.timed.merge(timed);
    }
    let (count1, sum1) = service.queue_wait()?;
    out.queue_wait_us = (sum1 - sum0) as f64 / (count1 - count0).max(1) as f64;
    drop(conns);
    service.stop()?;
    out.peak_rss_kib = sampler.finish();

    for i in 1..setups {
        let (service, conns) = set_up(w, exp, &scratch.join(format!("state-{i}")), &mut out)?;
        drop(conns);
        service.stop()?;
    }
    Ok(out)
}

/// Starts a server, connects the workload's clients, registers the graph
/// and sends the warm-up requests; records the time taken in `out`.
fn set_up(
    w: Workload,
    exp: &Expected,
    state_dir: &Path,
    out: &mut Outcome,
) -> io::Result<(Service, Vec<Conn>)> {
    let t = Instant::now();
    let tally = &mut out.timed.tally;
    let service = Service::start(w, w.journaled().then(|| state_dir.to_path_buf()))?;
    let mut conns = Vec::new();
    for _ in w.clients() {
        conns.push(Conn::connect(service.addr)?);
    }
    let registered = conns[0].call(&w.gen_line())?.starts_with("OK ");
    tally.record(if registered {
        Ok(())
    } else {
        Err(format!("`{}` failed", w.gen_line()))
    });
    conns[0].timed(&w.cold_solve_line(), Kind::Solve, exp.max, tally);
    if w.clients().contains(&Client::Updater) {
        // The first `UPDATE` builds the graph's dynamic matching and
        // rewrites the journal: set-up, not window.
        for line in pair_lines(w, exp.pairs[0]) {
            conns[1].timed(&line, Kind::of(&line), exp.max, tally);
        }
    }
    out.setup_s.push(t.elapsed().as_secs_f64());
    Ok((service, conns))
}

/// Sends whole cycles of `client` until `deadline`.
fn client_loop(
    w: Workload,
    client: Client,
    conn: &mut Conn,
    exp: &Expected,
    deadline: Instant,
) -> Timed {
    let mut out = Timed::default();
    for c in 0.. {
        if Instant::now() >= deadline {
            break;
        }
        for line in cycle(w, client, c, &exp.pairs) {
            let kind = Kind::of(&line);
            if let Some(ms) = conn.timed(&line, kind, exp.max, &mut out.tally) {
                match kind {
                    Kind::Solve => out.solve.push(ms),
                    Kind::Delete | Kind::Restore => out.update.push(ms),
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_are_checked_by_kind() {
        assert!(check(Kind::Solve, 10, 10).is_ok());
        assert!(check(Kind::Solve, 9, 10).is_err());
        assert!(check(Kind::Delete, 9, 10).is_ok());
        assert!(check(Kind::Delete, 8, 10).is_err());
        assert!(check(Kind::Restore, 9, 10).is_err());
        assert!(check_reply(Kind::Solve, "OK graph=g cardinality=10 phases=1", 10).is_ok());
        assert!(check_reply(Kind::Solve, "ERR overloaded", 10).is_err());
        assert!(check_reply(Kind::Solve, "OK graph=g", 10).is_err());
    }

    #[test]
    fn kinds_of_request_lines() {
        assert_eq!(Kind::of("SOLVE kkt ms-bfs-graft-par"), Kind::Solve);
        assert_eq!(Kind::of("UPDATE kkt DEL 1 2"), Kind::Delete);
        assert_eq!(Kind::of("UPDATE kkt ADD 1 2"), Kind::Restore);
    }

    #[test]
    fn fields_match_whole_keys() {
        let reply = "OK wait_count=3 wait_us_sum=12";
        assert_eq!(field(reply, "wait_count"), Some("3"));
        assert_eq!(field(reply, "wait_us_sum"), Some("12"));
        assert_eq!(field(reply, "wait"), None);
    }
}
