//! A retrying protocol client: timeouts, reconnects, and jittered
//! exponential backoff that honors the server's `retry_after_ms` hint.
//!
//! The server deliberately pushes retry policy to clients — `submit`
//! never blocks and a full queue is a typed `ERR overloaded` — so a
//! well-behaved client needs three things the raw socket does not give
//! it:
//!
//! 1. **I/O timeouts**: a wedged server must not hang the caller forever;
//! 2. **reconnection**: a dropped connection (server drain, network
//!    blip) is retried against a fresh socket;
//! 3. **backoff**: transient `ERR overloaded` / `ERR internal` replies
//!    are retried after `max(server hint, exponential backoff)`, with
//!    deterministic jitter so a thundering herd of clients decorrelates
//!    (the jitter is a pure function of the policy seed, the request
//!    ordinal and the retry number, so a replayed request sequence
//!    reproduces its backoff schedule exactly).
//!
//! Non-retryable errors (`bad-request`, `unknown-graph`, …) and `OK`
//! replies return immediately. [`RetryClient::request`] and the
//! pipelined [`RetryClient::request_batch`] run the same retry loop; they
//! differ only in the exchange one attempt makes.

use crate::protocol::{Reply, Request};
use graft_sim::{mix64, Clock, TcpTransport, Transport, WallClock};
use std::io::{BufRead, BufReader, Write};
use std::sync::Arc;
use std::time::Duration;

/// Knobs for [`RetryClient`].
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total attempts per request (first try included).
    pub max_attempts: u32,
    /// Backoff after the first failed attempt; doubles each retry.
    pub base_backoff: Duration,
    /// Upper bound on a single backoff sleep.
    pub max_backoff: Duration,
    /// Read/write timeout on the socket.
    pub io_timeout: Duration,
    /// Seed for the backoff jitter (same seed → same backoff schedule).
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 5,
            base_backoff: Duration::from_millis(20),
            max_backoff: Duration::from_secs(2),
            io_timeout: Duration::from_secs(30),
            seed: 0x9e3779b97f4a7c15,
        }
    }
}

/// What a request ultimately produced, after retries.
#[derive(Debug)]
pub enum ClientError {
    /// Every attempt failed on I/O; the last error is carried.
    Io(std::io::Error),
    /// The server kept answering with a retryable error until the
    /// attempt budget ran out; the last reply line is carried.
    RetriesExhausted {
        /// Attempts made.
        attempts: u32,
        /// The final `ERR ...` line.
        last_reply: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o: {e}"),
            ClientError::RetriesExhausted {
                attempts,
                last_reply,
            } => write!(
                f,
                "gave up after {attempts} attempts; last reply: {last_reply}"
            ),
        }
    }
}

impl std::error::Error for ClientError {}

/// Extracts the server's `retry_after_ms=N` hint from an `ERR overloaded`
/// message, if present.
pub fn retry_after_hint(message: &str) -> Option<u64> {
    message
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix("retry_after_ms="))
        .and_then(|v| v.parse().ok())
}

/// Whether a reply line is an `ERR` worth retrying (mirrors
/// [`crate::error::SvcError::is_retryable`] on the client side of the
/// wire).
fn is_retryable(reply: &str) -> bool {
    matches!(
        Reply::parse(reply),
        Some(Reply::Err { code, .. }) if matches!(code.as_str(), "overloaded" | "internal")
    )
}

struct Conn {
    reader: BufReader<Box<dyn crate::Conn>>,
    writer: Box<dyn crate::Conn>,
}

/// Reads one reply line, treating a clean close as `UnexpectedEof` (the
/// retry loop reconnects on it).
fn read_reply_line(reader: &mut BufReader<Box<dyn crate::Conn>>) -> std::io::Result<String> {
    let mut reply = String::new();
    let n = reader.read_line(&mut reply)?;
    if n == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        ));
    }
    Ok(reply.trim_end_matches(['\n', '\r']).to_string())
}

/// A reconnecting, retrying, newline-protocol client.
pub struct RetryClient {
    addr: String,
    policy: RetryPolicy,
    conn: Option<Conn>,
    transport: Arc<dyn Transport>,
    clock: Arc<dyn Clock>,
    /// Requests issued so far; the ordinal of the current request feeds
    /// the backoff jitter (see [`RetryClient::backoff`]).
    requests: u64,
    /// Retries performed over the client's lifetime (observability for
    /// tests and the CLI's `-v` output).
    pub retries: u64,
}

impl RetryClient {
    /// A client for `addr` (host:port) over real TCP and the wall clock.
    /// Connects lazily on first use.
    pub fn new(addr: impl Into<String>, policy: RetryPolicy) -> Self {
        Self::with_transport(addr, policy, Arc::new(TcpTransport), Arc::new(WallClock))
    }

    /// A client over an explicit transport and clock — the simulation
    /// harness passes its in-process network and virtual clock here, so
    /// backoff sleeps advance simulated time.
    pub fn with_transport(
        addr: impl Into<String>,
        policy: RetryPolicy,
        transport: Arc<dyn Transport>,
        clock: Arc<dyn Clock>,
    ) -> Self {
        Self {
            addr: addr.into(),
            policy,
            conn: None,
            transport,
            clock,
            requests: 0,
            retries: 0,
        }
    }

    /// Deterministic jitter: a pure function of the policy seed, the
    /// request ordinal and the retry number. Unlike a shared RNG stream,
    /// one request's backoff schedule cannot depend on how many retries
    /// *other* requests happened to need, so a replayed sequence
    /// reproduces its sleeps exactly.
    fn jitter_rand(&self, retry: u32) -> u64 {
        mix64(
            self.policy.seed
                ^ self.requests.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ (u64::from(retry) << 56),
        )
    }

    /// Exponential backoff for the given retry ordinal with ±50% jitter,
    /// at least the server hint, capped by the policy.
    fn backoff(&mut self, retry: u32, server_hint_ms: Option<u64>) -> Duration {
        let base = self.policy.base_backoff.as_millis() as u64;
        let exp = base.saturating_mul(1u64 << retry.min(16));
        // Jitter in [50%, 150%].
        let jittered = exp / 2 + self.jitter_rand(retry) % exp.max(1);
        let floor = server_hint_ms.unwrap_or(0);
        let ms = jittered
            .max(floor)
            .min(self.policy.max_backoff.as_millis() as u64);
        Duration::from_millis(ms)
    }

    fn connect(&mut self) -> std::io::Result<&mut Conn> {
        if self.conn.is_none() {
            let stream = self
                .transport
                .connect(&self.addr, Some(self.policy.io_timeout))?;
            stream.set_read_timeout(Some(self.policy.io_timeout))?;
            stream.set_write_timeout(Some(self.policy.io_timeout))?;
            // Request/reply traffic: never trade latency for coalescing.
            stream.set_nodelay(true)?;
            let reader = BufReader::new(stream.try_clone_conn()?);
            self.conn = Some(Conn {
                reader,
                writer: stream,
            });
        }
        Ok(self.conn.as_mut().expect("just connected"))
    }

    /// One raw request/reply exchange.
    fn exchange(&mut self, line: &str) -> std::io::Result<String> {
        let conn = self.connect()?;
        conn.writer.write_all(line.as_bytes())?;
        conn.writer.write_all(b"\n")?;
        conn.writer.flush()?;
        read_reply_line(&mut conn.reader)
    }

    /// One raw pipelined exchange: the `SOLVE_BATCH n` header and every
    /// member line go out in a single buffered write, then the header
    /// reply plus exactly `n` member replies (some may be `ERR` lines)
    /// are read back. A refused header comes back as `Err(header line)`.
    fn exchange_batch(
        &mut self,
        members: &[String],
    ) -> std::io::Result<Result<Vec<String>, String>> {
        let conn = self.connect()?;
        let header = Request::SolveBatch {
            count: members.len(),
        }
        .wire();
        let mut buf = String::with_capacity(
            header.len() + 1 + members.iter().map(|m| m.len() + 1).sum::<usize>(),
        );
        buf.push_str(&header);
        buf.push('\n');
        for m in members {
            buf.push_str(m);
            buf.push('\n');
        }
        conn.writer.write_all(buf.as_bytes())?;
        conn.writer.flush()?;
        let header_reply = read_reply_line(&mut conn.reader)?;
        if !header_reply.starts_with("OK") {
            // A refused header produces no member replies; the
            // stream is still framed for the next request.
            return Ok(Err(header_reply));
        }
        let mut replies = Vec::with_capacity(members.len());
        for _ in 0..members.len() {
            replies.push(read_reply_line(&mut conn.reader)?);
        }
        Ok(Ok(replies))
    }

    /// The retry loop every request shape shares. `attempt` runs one
    /// exchange and yields `Ok(value)` to return, or `Err(reply)` for a
    /// retryable `ERR` line. I/O failures — including the server dying
    /// mid-reply-stream — invalidate the connection, so the next attempt
    /// resends the whole request on a fresh socket. Retries back off
    /// with jitter, at least as long as the server's hint.
    fn with_retries<T>(
        &mut self,
        mut attempt: impl FnMut(&mut Self) -> std::io::Result<Result<T, String>>,
    ) -> Result<T, ClientError> {
        self.requests += 1;
        let mut last_io: Option<std::io::Error> = None;
        let mut last_reply: Option<String> = None;
        for n in 0..self.policy.max_attempts {
            if n > 0 {
                let hint = last_reply.as_deref().and_then(retry_after_hint);
                let pause = self.backoff(n - 1, hint);
                self.clock.sleep(pause);
                self.retries += 1;
            }
            match attempt(self) {
                Err(e) => {
                    self.conn = None;
                    last_io = Some(e);
                    last_reply = None;
                }
                Ok(Ok(value)) => return Ok(value),
                Ok(Err(reply)) => {
                    last_io = None;
                    last_reply = Some(reply);
                }
            }
        }
        match (last_reply, last_io) {
            (Some(reply), _) => Err(ClientError::RetriesExhausted {
                attempts: self.policy.max_attempts,
                last_reply: reply,
            }),
            (None, Some(e)) => Err(ClientError::Io(e)),
            (None, None) => unreachable!("at least one attempt ran"),
        }
    }

    /// Sends `members` as one pipelined `SOLVE_BATCH` round trip and
    /// returns the in-order member replies. Transport failures —
    /// including a connection dropped halfway through the reply stream —
    /// retry the *whole* batch on a fresh connection (solves are
    /// idempotent), as do retryable header-level errors. Per-member
    /// `ERR` lines are returned in-slot without retrying: the caller
    /// sees exactly what the server decided for each slot. A
    /// non-retryable header-level `ERR` (e.g. a count past the server's
    /// limit) is returned as a single-element vec, mirroring how
    /// [`request`](Self::request) surfaces non-retryable replies.
    pub fn request_batch(&mut self, members: &[String]) -> Result<Vec<String>, ClientError> {
        self.with_retries(|c| {
            Ok(match c.exchange_batch(members)? {
                Ok(replies) => Ok(replies),
                Err(header) if is_retryable(&header) => Err(header),
                Err(header) => Ok(vec![header]),
            })
        })
    }

    /// Sends `line` and returns the reply line, retrying transient
    /// failures (I/O errors, `ERR overloaded`, `ERR internal`) with
    /// jittered exponential backoff. Multi-line replies (`TRACE`) return
    /// only the status line; callers needing the body should use a plain
    /// connection.
    pub fn request(&mut self, line: &str) -> Result<String, ClientError> {
        self.with_retries(|c| {
            let reply = c.exchange(line)?;
            Ok(if is_retryable(&reply) {
                Err(reply)
            } else {
                Ok(reply)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;

    /// A scripted one-connection-at-a-time server: each accepted
    /// connection serves replies from `script` (one per request line)
    /// until the script runs dry, then closes.
    fn scripted_server(scripts: Vec<Vec<&'static str>>) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            for script in scripts {
                let (stream, _) = match listener.accept() {
                    Ok(s) => s,
                    Err(_) => return,
                };
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = stream;
                for reply in script {
                    let mut line = String::new();
                    if reader.read_line(&mut line).unwrap_or(0) == 0 {
                        break;
                    }
                    if writeln!(writer, "{reply}").is_err() {
                        break;
                    }
                }
            }
        });
        addr
    }

    fn fast_policy() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(5),
            io_timeout: Duration::from_secs(5),
            seed: 42,
        }
    }

    #[test]
    fn ok_reply_returns_immediately() {
        let addr = scripted_server(vec![vec!["OK cardinality=5"]]);
        let mut c = RetryClient::new(addr, fast_policy());
        assert_eq!(c.request("SOLVE g").unwrap(), "OK cardinality=5");
        assert_eq!(c.retries, 0);
    }

    #[test]
    fn overloaded_is_retried_until_ok() {
        let addr = scripted_server(vec![vec![
            "ERR overloaded job queue full (capacity 2) retry_after_ms=1",
            "ERR overloaded job queue full (capacity 2) retry_after_ms=1",
            "OK cardinality=7",
        ]]);
        let mut c = RetryClient::new(addr, fast_policy());
        assert_eq!(c.request("SOLVE g").unwrap(), "OK cardinality=7");
        assert_eq!(c.retries, 2);
    }

    #[test]
    fn non_retryable_error_returns_immediately() {
        let addr = scripted_server(vec![vec!["ERR unknown-graph no graph named `g`"]]);
        let mut c = RetryClient::new(addr, fast_policy());
        let reply = c.request("SOLVE g").unwrap();
        assert!(reply.starts_with("ERR unknown-graph"), "{reply}");
        assert_eq!(c.retries, 0);
    }

    #[test]
    fn reconnects_after_server_closes_connection() {
        // First connection dies after one reply; the client must finish
        // the second request on a fresh connection.
        let addr = scripted_server(vec![vec!["OK first"], vec!["OK second"]]);
        let mut c = RetryClient::new(addr, fast_policy());
        assert_eq!(c.request("STATS").unwrap(), "OK first");
        assert_eq!(c.request("STATS").unwrap(), "OK second");
        assert!(c.retries <= 1, "at most the reconnect retry");
    }

    #[test]
    fn retries_exhausted_carries_last_reply() {
        let addr = scripted_server(vec![vec![
            "ERR internal job=3 panicked in a worker; the worker survived",
            "ERR internal job=4 panicked in a worker; the worker survived",
            "ERR internal job=5 panicked in a worker; the worker survived",
            "ERR internal job=6 panicked in a worker; the worker survived",
        ]]);
        let mut c = RetryClient::new(addr, fast_policy());
        match c.request("SOLVE g") {
            Err(ClientError::RetriesExhausted {
                attempts,
                last_reply,
            }) => {
                assert_eq!(attempts, 4);
                assert!(last_reply.contains("job=6"), "{last_reply}");
            }
            other => panic!("expected RetriesExhausted, got {other:?}"),
        }
    }

    fn batch(lines: &[&str]) -> Vec<String> {
        lines.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn batch_replies_come_back_in_order() {
        let addr = scripted_server(vec![vec![
            "OK batch=3",
            "OK cardinality=1",
            "ERR unknown-graph no graph named `h`",
            "OK cardinality=3",
        ]]);
        let mut c = RetryClient::new(addr, fast_policy());
        let replies = c
            .request_batch(&batch(&["SOLVE g", "SOLVE h", "SOLVE g"]))
            .unwrap();
        assert_eq!(replies.len(), 3);
        assert_eq!(replies[0], "OK cardinality=1");
        assert!(
            replies[1].starts_with("ERR unknown-graph"),
            "{}",
            replies[1]
        );
        assert_eq!(replies[2], "OK cardinality=3");
        assert_eq!(c.retries, 0, "member-level ERRs are not retried");
    }

    #[test]
    fn batch_resumes_on_fresh_connection_after_mid_stream_drop() {
        // The first connection dies after the header and one member
        // reply; the client must resend the whole batch and return the
        // complete second stream.
        let addr = scripted_server(vec![
            vec!["OK batch=2", "OK first-attempt"],
            vec!["OK batch=2", "OK a", "OK b"],
        ]);
        let mut c = RetryClient::new(addr, fast_policy());
        let replies = c.request_batch(&batch(&["SOLVE g", "SOLVE g"])).unwrap();
        assert_eq!(replies, vec!["OK a".to_string(), "OK b".to_string()]);
        assert_eq!(c.retries, 1, "exactly the one reconnect retry");
    }

    #[test]
    fn batch_header_bad_request_returns_without_retry() {
        let addr = scripted_server(vec![vec!["ERR bad-request batch count 9999999 too big"]]);
        let mut c = RetryClient::new(addr, fast_policy());
        let replies = c.request_batch(&batch(&["SOLVE g"])).unwrap();
        assert_eq!(replies.len(), 1);
        assert!(replies[0].starts_with("ERR bad-request"), "{}", replies[0]);
        assert_eq!(c.retries, 0);
    }

    #[test]
    fn empty_batch_round_trips() {
        let addr = scripted_server(vec![vec!["OK batch=0"]]);
        let mut c = RetryClient::new(addr, fast_policy());
        let replies = c.request_batch(&[]).unwrap();
        assert!(replies.is_empty());
    }

    #[test]
    fn hint_parsing() {
        assert_eq!(
            retry_after_hint("job queue full (capacity 4) retry_after_ms=120"),
            Some(120)
        );
        assert_eq!(retry_after_hint("no hint here"), None);
    }

    #[test]
    fn backoff_is_deterministic_per_seed_and_honors_hint() {
        let mut a = RetryClient::new("127.0.0.1:1", fast_policy());
        let mut b = RetryClient::new("127.0.0.1:1", fast_policy());
        for retry in 0..4 {
            assert_eq!(a.backoff(retry, None), b.backoff(retry, None));
        }
        // The server hint is a floor (modulo the max_backoff cap).
        let mut c = RetryClient::new("127.0.0.1:1", fast_policy());
        assert_eq!(c.backoff(0, Some(1000)), Duration::from_millis(5));
        let mut d = RetryClient::new(
            "127.0.0.1:1",
            RetryPolicy {
                max_backoff: Duration::from_secs(10),
                ..fast_policy()
            },
        );
        assert!(d.backoff(0, Some(1000)) >= Duration::from_millis(1000));
    }
}
