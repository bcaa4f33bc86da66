//! The newline-delimited wire protocol.
//!
//! One request per line, one reply line per request, UTF-8, no framing
//! beyond `\n` — scriptable with `nc`. Grammar (tokens split on
//! whitespace, `[]` optional):
//!
//! ```text
//! LOAD <name> <path.mtx>
//! GEN <name> <suite>[:<scale>]
//! SOLVE <name> [algorithm] [timeout_ms=N] [threads=N] [cold]
//! SOLVE_BATCH <n>
//! UPDATE <name> ADD|DEL <x> <y>
//! UPDATE_BATCH <n>
//! STATS
//! HEALTH
//! TRACE [n]
//! EVICT <name>
//! SLEEP <ms>
//! SHUTDOWN
//! ```
//!
//! `SOLVE ... threads=N` requests an N-thread parallel solve: the job
//! occupies N of the server's worker slots for its duration (scheduler
//! admission is all-or-nothing, strict FIFO). `threads=0` or an omitted
//! token means "use the server default" (`serve --threads-per-solve`,
//! itself defaulting to 1); a request with `threads=N` larger than the
//! worker pool is refused up front with `ERR bad-request`. A serial
//! algorithm runs on one thread whatever `N` is, so it resolves to 1 and
//! occupies one slot. The `STATS` counter `solve_threads_used`
//! accumulates the resolved thread count of every dispatched solve.
//!
//! Replies are `OK key=value ...` or `ERR <code> <message>`, where
//! `<code>` is [`SvcError::code`]. Keywords are case-insensitive;
//! names are case-sensitive. `TRACE` is one of two multi-line replies:
//! its `OK events=N` line is followed by exactly `N` JSON trace-event
//! lines (the [`graft_core::trace`] schema, newest last).
//!
//! `SOLVE_BATCH <n>` is the pipelined path: the header line is followed
//! by exactly `n` **member lines**, each either the argument list of a
//! `SOLVE` (`<name> [algorithm] [timeout_ms=N] [threads=N] [cold]`) or
//! `SLEEP <ms>`. The reply is the header `OK batch=<n>` followed by
//! exactly `n` reply lines, **in member order** — each `OK ...` exactly
//! as the equivalent one-shot request would have produced, or a typed
//! `ERR` for just that member (a failed member never desynchronizes the
//! stream: its slot is filled and the remaining members still run).
//! Members parse ([`parse_batch_member`]) into the same [`Request`]
//! variants as the one-shot verbs and are scheduled concurrently across
//! the worker pool, which is where the throughput over
//! one-round-trip-per-request comes from.
//! `n` may be `0` (the reply is just `OK batch=0`) and is capped at
//! [`MAX_BATCH`]; a header above the cap is refused **before** any
//! member line is consumed.
//!
//! `UPDATE <name> ADD|DEL <x> <y>` applies one edge update to the named
//! graph's dynamic matching (created lazily from the registered graph on
//! first update) and replies
//! `OK graph=<name> op=add|del x=<x> y=<y> outcome=<o> cardinality=<c>
//! rebuilds=<r> elapsed_us=<t>`. `UPDATE_BATCH <n>` reuses the
//! `SOLVE_BATCH` framing verbatim: `n` member lines follow, each either
//! the argument list of an `UPDATE` (`<name> ADD|DEL <x> <y>`) or
//! `SLEEP <ms>`, and the reply is `OK batch=<n>` plus `n` reply lines in
//! member order.
//!
//! Hardening: a request line longer than [`MAX_LINE_BYTES`], containing a
//! NUL byte, or holding invalid UTF-8 is answered with a typed
//! `ERR bad-request` — never a panic, a hang, or a dropped connection.
//! Lines may end in `\r\n` (the `\r` is stripped).

use crate::error::SvcError;
use graft_core::Algorithm;
use std::fmt::Write as _;

/// Upper bound on one request line in bytes (newline excluded). Longer
/// lines are rejected with `ERR bad-request` and discarded up to the next
/// newline, keeping the connection usable.
pub const MAX_LINE_BYTES: usize = 8192;

/// Upper bound on `SOLVE_BATCH <n>`: anything larger is a typo or an
/// attack, not a real batch (a client wanting more issues more batches —
/// the pipeline never drains between them anyway).
pub const MAX_BATCH: usize = 4096;

/// Everything a `SOLVE` carries after the verb. A one-shot `SOLVE` and a
/// `SOLVE_BATCH` member ([`parse_batch_member`]) both parse into
/// [`Request::Solve`] with this spec and run as the same job — the
/// differential tests pin exactly this.
#[derive(Clone, Debug, PartialEq)]
pub struct SolveSpec {
    /// Registry name of the graph.
    pub name: String,
    /// Algorithm to run.
    pub algorithm: Algorithm,
    /// Per-job deadline, from now.
    pub timeout_ms: Option<u64>,
    /// Thread count for parallel algorithms (0 = default pool).
    pub threads: usize,
    /// Ignore any cached warm-start matching.
    pub cold: bool,
}

impl SolveSpec {
    /// A spec with every option at its default (the same defaults
    /// `SOLVE <name>` parses to).
    pub fn new(name: impl Into<String>) -> SolveSpec {
        SolveSpec {
            name: name.into(),
            algorithm: Algorithm::MsBfsGraftParallel,
            timeout_ms: None,
            threads: 0,
            cold: false,
        }
    }

    /// The canonical argument list after the `SOLVE` verb (also a valid
    /// `SOLVE_BATCH` member line).
    pub fn wire_args(&self) -> String {
        let mut s = format!("{} {}", self.name, self.algorithm.cli_name());
        if let Some(ms) = self.timeout_ms {
            let _ = write!(s, " timeout_ms={ms}");
        }
        if self.threads != 0 {
            let _ = write!(s, " threads={}", self.threads);
        }
        if self.cold {
            s.push_str(" cold");
        }
        s
    }

    /// Parses `<name> [algorithm] [timeout_ms=N] [threads=N] [cold]`.
    fn parse<'a>(mut tokens: impl Iterator<Item = &'a str>) -> Result<SolveSpec, SvcError> {
        let name = tokens
            .next()
            .ok_or_else(|| bad("SOLVE needs <name> [algorithm] [options]"))?;
        let mut spec = SolveSpec::new(name);
        for (i, tok) in tokens.enumerate() {
            if let Some(v) = tok.strip_prefix("timeout_ms=") {
                spec.timeout_ms = Some(
                    v.parse()
                        .map_err(|_| bad(format!("bad timeout_ms `{v}`")))?,
                );
            } else if let Some(v) = tok.strip_prefix("threads=") {
                spec.threads = v.parse().map_err(|_| bad(format!("bad threads `{v}`")))?;
            } else if tok.eq_ignore_ascii_case("cold") {
                spec.cold = true;
            } else if i == 0 {
                spec.algorithm = Algorithm::parse(tok)
                    .ok_or_else(|| bad(format!("unknown algorithm `{tok}`")))?;
            } else {
                return Err(bad(format!("unknown SOLVE option `{tok}`")));
            }
        }
        Ok(spec)
    }
}

/// Everything an `UPDATE` carries after the verb. A one-shot `UPDATE`
/// and an `UPDATE_BATCH` member ([`parse_update_member`]) both parse
/// into [`Request::Update`] with this spec and run as the same job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UpdateSpec {
    /// Registry name of the graph.
    pub name: String,
    /// `true` for `ADD`, `false` for `DEL`.
    pub add: bool,
    /// `X` endpoint of the edge.
    pub x: u32,
    /// `Y` endpoint of the edge.
    pub y: u32,
}

impl UpdateSpec {
    /// The canonical argument list after the `UPDATE` verb (also a valid
    /// `UPDATE_BATCH` member line).
    pub fn wire_args(&self) -> String {
        format!(
            "{} {} {} {}",
            self.name,
            if self.add { "ADD" } else { "DEL" },
            self.x,
            self.y
        )
    }

    /// Parses `<name> ADD|DEL <x> <y>` (rejecting trailing tokens — the
    /// shape is fixed).
    fn parse<'a>(mut tokens: impl Iterator<Item = &'a str>) -> Result<UpdateSpec, SvcError> {
        let usage = "UPDATE needs <name> ADD|DEL <x> <y>";
        let name = tokens.next().ok_or_else(|| bad(usage))?;
        let op = tokens.next().ok_or_else(|| bad(usage))?;
        let add = if op.eq_ignore_ascii_case("add") {
            true
        } else if op.eq_ignore_ascii_case("del") {
            false
        } else {
            return Err(bad(format!("bad update op `{op}` (want ADD or DEL)")));
        };
        let x = tokens.next().ok_or_else(|| bad(usage))?;
        let x = x.parse().map_err(|_| bad(format!("bad x `{x}`")))?;
        let y = tokens.next().ok_or_else(|| bad(usage))?;
        let y = y.parse().map_err(|_| bad(format!("bad y `{y}`")))?;
        if tokens.next().is_some() {
            return Err(bad("unexpected trailing tokens"));
        }
        Ok(UpdateSpec {
            name: name.to_string(),
            add,
            x,
            y,
        })
    }
}

/// Parses one `SOLVE_BATCH` member line into a [`Request::Solve`] or
/// [`Request::Sleep`]. The first token `SLEEP` (case-insensitive) selects
/// the sleep form; anything else is a graph name starting a solve spec —
/// which means a graph literally named `sleep` cannot be batch-solved
/// (rename it; the one-shot `SOLVE` still works).
pub fn parse_batch_member(line: &str) -> Result<Request, SvcError> {
    parse_member(line, |tokens| SolveSpec::parse(tokens).map(Request::Solve))
}

/// Parses one `UPDATE_BATCH` member line: the argument list of an
/// `UPDATE` (`<name> ADD|DEL <x> <y>`) into a [`Request::Update`], or
/// `SLEEP <ms>`. Same hardening and `SLEEP` caveat as
/// [`parse_batch_member`].
pub fn parse_update_member(line: &str) -> Result<Request, SvcError> {
    parse_member(line, |tokens| {
        UpdateSpec::parse(tokens).map(Request::Update)
    })
}

/// The member grammar both batch verbs share: line hardening, then
/// `SLEEP <ms>` or the verb's own argument list, parsed by `args`.
fn parse_member<'a>(
    line: &'a str,
    args: impl FnOnce(&mut dyn Iterator<Item = &'a str>) -> Result<Request, SvcError>,
) -> Result<Request, SvcError> {
    if line.len() > MAX_LINE_BYTES {
        return Err(bad(format!(
            "batch member line exceeds {MAX_LINE_BYTES} bytes"
        )));
    }
    if line.contains('\0') {
        return Err(bad("NUL byte in batch member"));
    }
    let line = line.strip_suffix('\r').unwrap_or(line);
    let mut tokens = line.split_whitespace().peekable();
    match tokens.peek() {
        None => Err(bad("empty batch member")),
        Some(tok) if tok.eq_ignore_ascii_case("sleep") => {
            tokens.next();
            let ms = tokens.next().ok_or_else(|| bad("SLEEP needs <ms>"))?;
            let ms = ms.parse().map_err(|_| bad(format!("bad ms `{ms}`")))?;
            if tokens.next().is_some() {
                return Err(bad("unexpected trailing tokens"));
            }
            Ok(Request::Sleep { ms })
        }
        Some(_) => args(&mut tokens),
    }
}

/// A parsed request line.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Register a graph from a Matrix Market file.
    Load {
        /// Registry name.
        name: String,
        /// Path on the server's filesystem.
        path: String,
    },
    /// Register a graph from a graft-gen suite spec.
    Gen {
        /// Registry name.
        name: String,
        /// `<suite>[:<scale>]`, e.g. `kkt_power:tiny`.
        spec: String,
    },
    /// Solve for a maximum matching.
    Solve(SolveSpec),
    /// Header of a pipelined batch: exactly `count` member lines follow
    /// (see [`parse_batch_member`]), and the reply is `OK batch=<count>`
    /// followed by `count` reply lines in member order.
    SolveBatch {
        /// Number of member lines that follow (≤ [`MAX_BATCH`]).
        count: usize,
    },
    /// Apply one edge update to a graph's dynamic matching.
    Update(UpdateSpec),
    /// Header of a pipelined update batch: exactly `count` member lines
    /// follow (see [`parse_update_member`]), replied to like
    /// [`Request::SolveBatch`].
    UpdateBatch {
        /// Number of member lines that follow (≤ [`MAX_BATCH`]).
        count: usize,
    },
    /// One-line counter dump.
    Stats,
    /// Liveness/readiness probe: replies `OK state=<live|ready|draining>`
    /// and never touches the worker pool, so it stays responsive while
    /// the service is saturated or draining.
    Health,
    /// Stream the most recent trace events (all buffered when no limit).
    Trace {
        /// Maximum number of events to return.
        limit: Option<u64>,
    },
    /// Forget a graph (cache entry, warm matching, and source).
    Evict {
        /// Registry name.
        name: String,
    },
    /// Occupy a worker for the given duration (operational testing aid,
    /// in the spirit of Redis `DEBUG SLEEP`).
    Sleep {
        /// Sleep duration in milliseconds.
        ms: u64,
    },
    /// Stop accepting connections and exit once drained.
    Shutdown,
}

impl Request {
    /// The canonical wire encoding of this request — `parse_request`
    /// inverts it exactly (pinned by the protocol round-trip proptests).
    /// Only meaningful when names/paths/specs contain no whitespace or
    /// NUL, which the parser cannot produce anyway.
    pub fn wire(&self) -> String {
        match self {
            Request::Load { name, path } => format!("LOAD {name} {path}"),
            Request::Gen { name, spec } => format!("GEN {name} {spec}"),
            Request::Solve(spec) => format!("SOLVE {}", spec.wire_args()),
            Request::SolveBatch { count } => format!("SOLVE_BATCH {count}"),
            Request::Update(spec) => format!("UPDATE {}", spec.wire_args()),
            Request::UpdateBatch { count } => format!("UPDATE_BATCH {count}"),
            Request::Stats => "STATS".to_string(),
            Request::Health => "HEALTH".to_string(),
            Request::Trace { limit: None } => "TRACE".to_string(),
            Request::Trace { limit: Some(n) } => format!("TRACE {n}"),
            Request::Evict { name } => format!("EVICT {name}"),
            Request::Sleep { ms } => format!("SLEEP {ms}"),
            Request::Shutdown => "SHUTDOWN".to_string(),
        }
    }
}

/// A parsed reply line (the client side of the protocol).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    /// `OK [payload]` — `payload` is the `key=value ...` body.
    Ok(String),
    /// `ERR <code> <message>`.
    Err {
        /// Stable machine-readable code ([`SvcError::code`]).
        code: String,
        /// Human-readable description.
        message: String,
    },
}

impl Reply {
    /// The wire encoding (no trailing newline).
    pub fn wire(&self) -> String {
        match self {
            Reply::Ok(payload) if payload.is_empty() => "OK".to_string(),
            Reply::Ok(payload) => format!("OK {payload}"),
            Reply::Err { code, message } => format!("ERR {code} {message}"),
        }
    }

    /// Parses a reply line; `None` when it is neither `OK ...` nor
    /// `ERR <code> ...`.
    pub fn parse(line: &str) -> Option<Reply> {
        if line == "OK" {
            return Some(Reply::Ok(String::new()));
        }
        if let Some(payload) = line.strip_prefix("OK ") {
            return Some(Reply::Ok(payload.to_string()));
        }
        let rest = line.strip_prefix("ERR ")?;
        let (code, message) = rest.split_once(' ').unwrap_or((rest, ""));
        if code.is_empty() {
            return None;
        }
        Some(Reply::Err {
            code: code.to_string(),
            message: message.to_string(),
        })
    }
}

fn bad(msg: impl Into<String>) -> SvcError {
    SvcError::BadRequest(msg.into())
}

/// Parses the `<n>` of a `SOLVE_BATCH`/`UPDATE_BATCH` header, refusing
/// counts above [`MAX_BATCH`].
fn parse_batch_count(verb: &str, n: Option<&str>) -> Result<usize, SvcError> {
    let n = n.ok_or_else(|| bad(format!("{verb} needs <n>")))?;
    let count: usize = n
        .parse()
        .map_err(|_| bad(format!("bad batch count `{n}`")))?;
    if count > MAX_BATCH {
        return Err(bad(format!(
            "batch count {count} exceeds the maximum {MAX_BATCH}"
        )));
    }
    Ok(count)
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<Request, SvcError> {
    if line.len() > MAX_LINE_BYTES {
        return Err(bad(format!("request line exceeds {MAX_LINE_BYTES} bytes")));
    }
    if line.contains('\0') {
        return Err(bad("NUL byte in request"));
    }
    // Tolerate CRLF line endings from telnet-style clients.
    let line = line.strip_suffix('\r').unwrap_or(line);
    let mut tokens = line.split_whitespace();
    let verb = tokens.next().ok_or_else(|| bad("empty request"))?;
    let req = match verb.to_ascii_uppercase().as_str() {
        "LOAD" => {
            let name = tokens
                .next()
                .ok_or_else(|| bad("LOAD needs <name> <path>"))?;
            let path = tokens
                .next()
                .ok_or_else(|| bad("LOAD needs <name> <path>"))?;
            Request::Load {
                name: name.to_string(),
                path: path.to_string(),
            }
        }
        "GEN" => {
            let name = tokens
                .next()
                .ok_or_else(|| bad("GEN needs <name> <spec>"))?;
            let spec = tokens
                .next()
                .ok_or_else(|| bad("GEN needs <name> <spec>"))?;
            Request::Gen {
                name: name.to_string(),
                spec: spec.to_string(),
            }
        }
        "SOLVE" => Request::Solve(SolveSpec::parse(tokens.by_ref())?),
        "SOLVE_BATCH" => Request::SolveBatch {
            count: parse_batch_count("SOLVE_BATCH", tokens.next())?,
        },
        "UPDATE" => Request::Update(UpdateSpec::parse(tokens.by_ref())?),
        "UPDATE_BATCH" => Request::UpdateBatch {
            count: parse_batch_count("UPDATE_BATCH", tokens.next())?,
        },
        "STATS" => Request::Stats,
        "HEALTH" => Request::Health,
        "TRACE" => {
            let limit = match tokens.next() {
                None => None,
                Some(n) => Some(
                    n.parse()
                        .map_err(|_| bad(format!("bad trace limit `{n}`")))?,
                ),
            };
            Request::Trace { limit }
        }
        "EVICT" => {
            let name = tokens.next().ok_or_else(|| bad("EVICT needs <name>"))?;
            Request::Evict {
                name: name.to_string(),
            }
        }
        "SLEEP" => {
            let ms = tokens.next().ok_or_else(|| bad("SLEEP needs <ms>"))?;
            Request::Sleep {
                ms: ms.parse().map_err(|_| bad(format!("bad ms `{ms}`")))?,
            }
        }
        "SHUTDOWN" => Request::Shutdown,
        other => return Err(bad(format!("unknown command `{other}`"))),
    };
    // Commands with a fixed shape reject trailing garbage.
    if matches!(
        req,
        Request::Stats
            | Request::Health
            | Request::Shutdown
            | Request::Load { .. }
            | Request::Gen { .. }
            | Request::Trace { .. }
            | Request::SolveBatch { .. }
            | Request::UpdateBatch { .. }
    ) && tokens.next().is_some()
    {
        return Err(bad("unexpected trailing tokens"));
    }
    Ok(req)
}

/// Formats an error reply line (no trailing newline).
pub fn err_line(e: &SvcError) -> String {
    format!("ERR {} {e}", e.code())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_solve_with_options() {
        let req = parse_request("SOLVE g ms-bfs-graft timeout_ms=250 threads=2 cold").unwrap();
        assert_eq!(
            req,
            Request::Solve(SolveSpec {
                name: "g".into(),
                algorithm: Algorithm::MsBfsGraft,
                timeout_ms: Some(250),
                threads: 2,
                cold: true,
            })
        );
    }

    #[test]
    fn solve_defaults() {
        let req = parse_request("solve g").unwrap();
        assert_eq!(req, Request::Solve(SolveSpec::new("g")));
    }

    #[test]
    fn options_without_algorithm() {
        let req = parse_request("SOLVE g timeout_ms=5").unwrap();
        match req {
            Request::Solve(spec) => {
                assert_eq!(spec.algorithm, Algorithm::MsBfsGraftParallel);
                assert_eq!(spec.timeout_ms, Some(5));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_solve_batch_header() {
        assert_eq!(
            parse_request("SOLVE_BATCH 8").unwrap(),
            Request::SolveBatch { count: 8 }
        );
        assert_eq!(
            parse_request("solve_batch 0").unwrap(),
            Request::SolveBatch { count: 0 }
        );
        assert_eq!(
            parse_request(&format!("SOLVE_BATCH {MAX_BATCH}")).unwrap(),
            Request::SolveBatch { count: MAX_BATCH }
        );
        for line in [
            "SOLVE_BATCH",
            "SOLVE_BATCH x",
            "SOLVE_BATCH -1",
            "SOLVE_BATCH 3 4",
            &format!("SOLVE_BATCH {}", MAX_BATCH + 1),
        ] {
            assert!(
                matches!(parse_request(line), Err(SvcError::BadRequest(_))),
                "line `{line}` should be rejected"
            );
        }
    }

    #[test]
    fn parses_batch_members() {
        assert_eq!(
            parse_batch_member("g ms-bfs-graft timeout_ms=9 cold").unwrap(),
            Request::Solve(SolveSpec {
                name: "g".into(),
                algorithm: Algorithm::MsBfsGraft,
                timeout_ms: Some(9),
                threads: 0,
                cold: true,
            })
        );
        assert_eq!(
            parse_batch_member("g").unwrap(),
            Request::Solve(SolveSpec::new("g"))
        );
        assert_eq!(
            parse_batch_member("SLEEP 25").unwrap(),
            Request::Sleep { ms: 25 }
        );
        assert_eq!(
            parse_batch_member("sleep 0\r").unwrap(),
            Request::Sleep { ms: 0 }
        );
        for line in [
            "",
            "   ",
            "g not-an-algorithm",
            "g hk pf",
            "SLEEP",
            "SLEEP abc",
            "SLEEP 1 2",
            "g\0",
        ] {
            assert!(
                matches!(parse_batch_member(line), Err(SvcError::BadRequest(_))),
                "member `{line}` should be rejected"
            );
        }
    }

    #[test]
    fn batch_member_wire_round_trips() {
        let specs = [
            SolveSpec::new("g"),
            SolveSpec {
                name: "other".into(),
                algorithm: Algorithm::HopcroftKarp,
                timeout_ms: Some(7),
                threads: 3,
                cold: true,
            },
        ];
        for spec in specs {
            let wire = spec.wire_args();
            assert_eq!(
                parse_batch_member(&wire).unwrap(),
                Request::Solve(spec),
                "wire `{wire}`"
            );
        }
        let sleep = Request::Sleep { ms: 12 };
        assert_eq!(parse_batch_member(&sleep.wire()).unwrap(), sleep);
    }

    #[test]
    fn parses_update_and_update_batch() {
        assert_eq!(
            parse_request("UPDATE g ADD 3 7").unwrap(),
            Request::Update(UpdateSpec {
                name: "g".into(),
                add: true,
                x: 3,
                y: 7,
            })
        );
        assert_eq!(
            parse_request("update g del 0 0\r").unwrap(),
            Request::Update(UpdateSpec {
                name: "g".into(),
                add: false,
                x: 0,
                y: 0,
            })
        );
        assert_eq!(
            parse_request("UPDATE_BATCH 5").unwrap(),
            Request::UpdateBatch { count: 5 }
        );
        for line in [
            "UPDATE",
            "UPDATE g",
            "UPDATE g ADD",
            "UPDATE g ADD 1",
            "UPDATE g FLIP 1 2",
            "UPDATE g ADD x 2",
            "UPDATE g ADD 1 y",
            "UPDATE g ADD -1 2",
            "UPDATE g ADD 1 2 3",
            "UPDATE_BATCH",
            "UPDATE_BATCH x",
            "UPDATE_BATCH 3 4",
            &format!("UPDATE_BATCH {}", MAX_BATCH + 1),
        ] {
            assert!(
                matches!(parse_request(line), Err(SvcError::BadRequest(_))),
                "line `{line}` should be rejected"
            );
        }
    }

    #[test]
    fn parses_update_members() {
        assert_eq!(
            parse_update_member("g ADD 1 2").unwrap(),
            Request::Update(UpdateSpec {
                name: "g".into(),
                add: true,
                x: 1,
                y: 2,
            })
        );
        assert_eq!(
            parse_update_member("SLEEP 9").unwrap(),
            Request::Sleep { ms: 9 }
        );
        for line in ["", "g", "g ADD", "g NOPE 1 2", "g ADD 1 2 3", "g ADD 1\0 2"] {
            assert!(
                matches!(parse_update_member(line), Err(SvcError::BadRequest(_))),
                "member `{line}` should be rejected"
            );
        }
        // An update member round-trips through wire_args().
        let spec = UpdateSpec {
            name: "g".into(),
            add: false,
            x: 4,
            y: 0,
        };
        assert_eq!(
            parse_update_member(&spec.wire_args()).unwrap(),
            Request::Update(spec)
        );
    }

    #[test]
    fn parses_simple_commands() {
        assert_eq!(
            parse_request("LOAD g /tmp/a.mtx").unwrap(),
            Request::Load {
                name: "g".into(),
                path: "/tmp/a.mtx".into()
            }
        );
        assert_eq!(
            parse_request("GEN g kkt_power:tiny").unwrap(),
            Request::Gen {
                name: "g".into(),
                spec: "kkt_power:tiny".into()
            }
        );
        assert_eq!(parse_request("stats").unwrap(), Request::Stats);
        assert_eq!(parse_request("health").unwrap(), Request::Health);
        assert_eq!(parse_request("SHUTDOWN").unwrap(), Request::Shutdown);
        assert_eq!(
            parse_request("EVICT g").unwrap(),
            Request::Evict { name: "g".into() }
        );
        assert_eq!(
            parse_request("SLEEP 40").unwrap(),
            Request::Sleep { ms: 40 }
        );
    }

    #[test]
    fn rejects_malformed_requests() {
        for line in [
            "",
            "   ",
            "FROBNICATE",
            "LOAD onlyname",
            "GEN g",
            "SOLVE",
            "SOLVE g not-an-algorithm",
            "SOLVE g timeout_ms=abc",
            "SOLVE g ms-bfs-graft hk", // algorithm twice
            "SLEEP abc",
            "STATS now",
            "HEALTH check",
            "SHUTDOWN please",
        ] {
            let r = parse_request(line);
            assert!(
                matches!(r, Err(SvcError::BadRequest(_))),
                "line `{line}` gave {r:?}"
            );
        }
    }

    #[test]
    fn err_line_has_stable_code() {
        let e = SvcError::UnknownGraph("g".into());
        assert_eq!(err_line(&e), "ERR unknown-graph no graph named `g`");
    }

    #[test]
    fn parses_trace_with_and_without_limit() {
        assert_eq!(
            parse_request("TRACE").unwrap(),
            Request::Trace { limit: None }
        );
        assert_eq!(
            parse_request("trace 16").unwrap(),
            Request::Trace { limit: Some(16) }
        );
        for line in ["TRACE x", "TRACE 3 4", "TRACE -1"] {
            assert!(
                matches!(parse_request(line), Err(SvcError::BadRequest(_))),
                "line `{line}` should be rejected"
            );
        }
    }

    #[test]
    fn rejects_nul_and_oversized_lines() {
        assert!(matches!(
            parse_request("STATS\0"),
            Err(SvcError::BadRequest(_))
        ));
        let long = format!("LOAD g /{}", "a".repeat(MAX_LINE_BYTES));
        assert!(matches!(parse_request(&long), Err(SvcError::BadRequest(_))));
    }

    #[test]
    fn strips_carriage_return() {
        assert_eq!(parse_request("STATS\r").unwrap(), Request::Stats);
        assert_eq!(
            parse_request("EVICT g\r").unwrap(),
            Request::Evict { name: "g".into() }
        );
    }

    #[test]
    fn wire_round_trips_each_variant() {
        let reqs = [
            Request::Load {
                name: "g".into(),
                path: "/tmp/a.mtx".into(),
            },
            Request::Gen {
                name: "g".into(),
                spec: "kkt_power:tiny".into(),
            },
            Request::Solve(SolveSpec {
                name: "g".into(),
                algorithm: Algorithm::MsBfsGraft,
                timeout_ms: Some(250),
                threads: 2,
                cold: true,
            }),
            Request::Solve(SolveSpec::new("g")),
            Request::SolveBatch { count: 16 },
            Request::Update(UpdateSpec {
                name: "g".into(),
                add: true,
                x: 5,
                y: 11,
            }),
            Request::Update(UpdateSpec {
                name: "g".into(),
                add: false,
                x: 0,
                y: 0,
            }),
            Request::UpdateBatch { count: 3 },
            Request::Stats,
            Request::Health,
            Request::Trace { limit: None },
            Request::Trace { limit: Some(9) },
            Request::Evict { name: "g".into() },
            Request::Sleep { ms: 40 },
            Request::Shutdown,
        ];
        for req in reqs {
            let wire = req.wire();
            assert_eq!(parse_request(&wire).unwrap(), req, "wire `{wire}`");
        }
    }

    #[test]
    fn reply_parse_inverts_wire() {
        for reply in [
            Reply::Ok(String::new()),
            Reply::Ok("cardinality=5 warm=false".into()),
            Reply::Err {
                code: "bad-request".into(),
                message: "empty request".into(),
            },
        ] {
            assert_eq!(Reply::parse(&reply.wire()), Some(reply));
        }
        assert_eq!(Reply::parse("nonsense"), None);
        assert_eq!(Reply::parse("ERR "), None);
    }
}
