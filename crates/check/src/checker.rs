//! Schedule exploration: exhaustive DFS under a preemption bound, a
//! seeded-random fallback, and single-schedule replay.
//!
//! A [`Checker`] runs the closure under test many times. Each run is one
//! [`crate::exec::Execution`]: real threads serialized by a token, with a
//! decision recorded at every point that had more than one alternative
//! (which thread runs, which visible store a weak load returns, which
//! waiter a notify wakes). DFS backtracks over those decisions — the
//! recorded `(chosen, n_admissible)` pairs form the stack — so the space
//! is enumerated without ever storing whole states. State hashing prunes
//! DFS branches that re-reach an already-seen state, and the preemption bound
//! (default 4) caps how many times control may switch away from a runnable
//! thread, which is what keeps the space finite and small (CHESS-style:
//! most real bugs need very few preemptions).
//!
//! On a violation, [`Checker::check`] panics with the failing schedule
//! string and the event trace; `CHECK_SCHEDULE="…" cargo test <test>`
//! replays exactly that interleaving. `CHECK_SEED=<n>` switches any
//! checker to seeded-random mode, for spaces too large to enumerate.

use crate::clock::mix;
use crate::exec::{Controller, ExecOutcome, Execution, Failure, PointRecord};
use crate::rt;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// A found counterexample: what failed, the schedule to replay it, and
/// the tail of the event trace leading up to it.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Human-readable description (panic message, deadlock, …).
    pub message: String,
    /// Comma-joined decision indices; feed to [`Checker::replay`] or the
    /// `CHECK_SCHEDULE` env var.
    pub schedule: String,
    /// Last events (thread, op, value) before the failure.
    pub trace: Vec<String>,
}

/// Outcome of an exploration.
#[derive(Debug, Clone)]
pub struct Report {
    /// Distinct schedules executed.
    pub executions: usize,
    /// True when DFS exhausted the (bounded, pruned) space with no
    /// violation. Random mode never reports complete.
    pub complete: bool,
    /// Decision points whose branching was cut by the state-hash filter.
    pub pruned_points: usize,
    /// The first violation found, if any (exploration stops at it).
    pub violation: Option<Violation>,
    /// Executions whose replayed prefix diverged (program nondeterminism
    /// not under checker control — e.g. address-dependent branching).
    pub divergent: usize,
    /// Total instrumented steps across all executions.
    pub total_steps: usize,
}

/// Configurable model-checking session. See the module docs.
#[derive(Debug, Clone)]
pub struct Checker {
    preemption_bound: u32,
    max_steps: usize,
    max_executions: usize,
    stale_reads: bool,
    prune: bool,
    seed: Option<u64>,
}

impl Default for Checker {
    fn default() -> Self {
        Checker {
            preemption_bound: 4,
            max_steps: 10_000,
            max_executions: 500_000,
            stale_reads: true,
            prune: true,
            seed: None,
        }
    }
}

impl Checker {
    /// A checker with the default bounds (4 preemptions, pruning on,
    /// stale reads explored, DFS mode).
    pub fn new() -> Self {
        Self::default()
    }

    /// Max context switches away from a runnable thread per execution.
    pub fn preemption_bound(mut self, n: u32) -> Self {
        self.preemption_bound = n;
        self
    }

    /// Per-execution instrumented-step budget (livelock detector).
    pub fn max_steps(mut self, n: usize) -> Self {
        self.max_steps = n;
        self
    }

    /// Cap on executions; DFS reports `complete: false` when hit.
    pub fn max_executions(mut self, n: usize) -> Self {
        self.max_executions = n;
        self
    }

    /// Whether non-SeqCst loads branch over stale (unsuperseded) stores.
    /// Off = sequentially consistent exploration (scheduling only).
    pub fn stale_reads(mut self, on: bool) -> Self {
        self.stale_reads = on;
        self
    }

    /// Whether DFS prunes branches at already-seen state hashes (random
    /// mode never prunes).
    pub fn prune(mut self, on: bool) -> Self {
        self.prune = on;
        self
    }

    /// Seeded-random mode instead of DFS (for very large spaces).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Explores `f` and panics with a replayable schedule on violation.
    pub fn check<F>(&self, f: F)
    where
        F: Fn() + Send + Sync + 'static,
    {
        let report = self.check_report(f);
        if let Some(v) = report.violation {
            panic!(
                "graft-check: violation after {} execution(s): {}\n\
                 schedule: {}\n\
                 replay with: CHECK_SCHEDULE='{}' cargo test -- <this test, exact filter>\n\
                 trace (last {} events):\n  {}",
                report.executions,
                v.message,
                v.schedule,
                v.schedule,
                v.trace.len(),
                v.trace.join("\n  "),
            );
        }
    }

    /// Explores `f` and returns the [`Report`] instead of panicking.
    /// Honors `CHECK_SCHEDULE` (single replay) and `CHECK_SEED` (random
    /// mode) from the environment.
    pub fn check_report<F>(&self, f: F) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        if let Ok(s) = std::env::var("CHECK_SCHEDULE") {
            return self.replay_arc(&f, &s);
        }
        let seed = self.seed.or_else(|| {
            std::env::var("CHECK_SEED")
                .ok()
                .and_then(|v| v.parse().ok())
        });
        match seed {
            None => self.dfs(&f),
            Some(s) => self.random(&f, s),
        }
    }

    /// Runs exactly one execution following `schedule` (a comma-joined
    /// decision string from a [`Violation`]), then default choices.
    pub fn replay<F>(&self, f: F, schedule: &str) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        self.replay_arc(&Arc::new(f), schedule)
    }

    fn replay_arc<F>(&self, f: &Arc<F>, schedule: &str) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        let prefix: Vec<u32> = schedule
            .split(',')
            .filter(|s| !s.trim().is_empty())
            .map(|s| {
                s.trim()
                    .parse()
                    .unwrap_or_else(|_| panic!("bad schedule element {s:?}"))
            })
            .collect();
        let out = self.run_one(f, prefix, None, HashSet::new());
        Report {
            executions: 1,
            complete: false,
            pruned_points: out.pruned_points,
            violation: out.failure.map(to_violation),
            divergent: out.replay_divergence as usize,
            total_steps: out.steps,
        }
    }

    fn dfs<F>(&self, f: &Arc<F>) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        let mut stack: Vec<PointRecord> = Vec::new();
        let mut seen: HashSet<u64> = HashSet::new();
        let mut executions = 0usize;
        let mut pruned = 0usize;
        let mut divergent = 0usize;
        let mut total_steps = 0usize;
        loop {
            let prefix: Vec<u32> = stack.iter().map(|p| p.chosen).collect();
            let plen = prefix.len();
            let out = self.run_one(f, prefix, None, std::mem::take(&mut seen));
            seen = out.seen;
            executions += 1;
            pruned += out.pruned_points;
            total_steps += out.steps;
            if out.replay_divergence {
                divergent += 1;
            }
            if let Some(fl) = out.failure {
                return Report {
                    executions,
                    complete: false,
                    pruned_points: pruned,
                    violation: Some(to_violation(fl)),
                    divergent,
                    total_steps,
                };
            }
            // Keep the stack's original n_admissible for the replayed
            // prefix; graft the fresh decision points on after it.
            stack.truncate(plen.min(out.recorded.len()));
            stack.extend_from_slice(&out.recorded[stack.len()..]);
            // Backtrack to the deepest point with an untried alternative.
            loop {
                match stack.last_mut() {
                    None => {
                        return Report {
                            executions,
                            complete: true,
                            pruned_points: pruned,
                            violation: None,
                            divergent,
                            total_steps,
                        };
                    }
                    Some(top) if top.chosen + 1 < top.n_admissible => {
                        top.chosen += 1;
                        break;
                    }
                    Some(_) => {
                        stack.pop();
                    }
                }
            }
            if executions >= self.max_executions {
                return Report {
                    executions,
                    complete: false,
                    pruned_points: pruned,
                    violation: None,
                    divergent,
                    total_steps,
                };
            }
        }
    }

    fn random<F>(&self, f: &Arc<F>, seed: u64) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        let mut divergent = 0usize;
        let mut total_steps = 0usize;
        for i in 0..self.max_executions {
            let rng = mix(seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let out = self.run_one(f, Vec::new(), Some(rng), HashSet::new());
            total_steps += out.steps;
            if out.replay_divergence {
                divergent += 1;
            }
            if let Some(fl) = out.failure {
                return Report {
                    executions: i + 1,
                    complete: false,
                    pruned_points: 0,
                    violation: Some(to_violation(fl)),
                    divergent,
                    total_steps,
                };
            }
        }
        Report {
            executions: self.max_executions,
            complete: false,
            pruned_points: 0,
            violation: None,
            divergent,
            total_steps,
        }
    }

    /// Runs one execution of `f` on a fresh OS thread tree and collects
    /// the outcome once every model thread has exited.
    fn run_one<F>(
        &self,
        f: &Arc<F>,
        prefix: Vec<u32>,
        rng: Option<u64>,
        seen: HashSet<u64>,
    ) -> ExecOutcome
    where
        F: Fn() + Send + Sync + 'static,
    {
        let controller = Controller::new(
            prefix,
            rng,
            seen,
            // Cutting the branches at a seen state is sound only for DFS,
            // which explores them where it first saw the state; a random
            // walk has explored nothing below it.
            self.prune && rng.is_none(),
            self.preemption_bound,
            self.stale_reads,
        );
        let exec = Arc::new(Execution::new(self.max_steps, controller));
        let e2 = Arc::clone(&exec);
        let f2 = Arc::clone(f);
        let main = std::thread::Builder::new()
            .name("graft-check-t0".into())
            .spawn(move || {
                rt::set(Arc::clone(&e2), 0);
                let r = catch_unwind(AssertUnwindSafe(|| f2()));
                if let Err(p) = r {
                    if p.downcast_ref::<rt::AbortSignal>().is_none() {
                        e2.fail(format!("panic in model thread t0: {}", panic_msg(&*p)));
                    }
                }
                e2.thread_finished(0);
                rt::clear();
            })
            .expect("failed to spawn model main thread");
        let _ = main.join();
        loop {
            let h = exec
                .real_handles
                .lock()
                .unwrap_or_else(|p| p.into_inner())
                .pop();
            match h {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
        match Arc::try_unwrap(exec) {
            Ok(e) => e.into_outcome(),
            Err(_) => panic!(
                "graft-check: execution leaked references \
                 (a JoinHandle or context escaped the closure)"
            ),
        }
    }
}

pub(crate) fn panic_msg(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn to_violation(f: Failure) -> Violation {
    Violation {
        message: f.message,
        schedule: f
            .schedule
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(","),
        trace: f.trace,
    }
}
