//! Bounded job queue + fixed worker pool with panic isolation.
//!
//! The scheduler is deliberately generic over the job and result types:
//! the server instantiates it with solve jobs, and the unit tests
//! instantiate it with jobs whose execution the test controls, which
//! makes backpressure deterministic to exercise.
//!
//! Semantics:
//!
//! * [`Scheduler::submit`] never blocks. A full queue returns the typed
//!   [`SvcError::Overloaded`] immediately — callers (i.e. clients) own
//!   the retry policy, the server never builds an unbounded backlog. The
//!   rejection carries a `retry_after_ms` suggestion scaled to the
//!   current backlog and observed solve latency.
//! * The capacity bounds *queued* jobs; jobs being executed by a worker
//!   no longer count against it.
//! * Jobs can be **weighted** ([`Scheduler::with_weight`]): a job of
//!   weight `k` occupies `k` of the pool's worker slots while it runs —
//!   the server maps a `SOLVE ... threads=k` request to weight `k` (1
//!   for a serial algorithm), so a multi-threaded solve reserves the CPU
//!   it will actually use. Admission is all-or-nothing at the queue head
//!   (strict FIFO): the head job waits until enough slots are free, and
//!   later jobs wait behind it. A waiting
//!   worker holds no slots, so weighted admission cannot deadlock; weights
//!   are clamped to `[1, workers]`.
//! * A job that **panics** does not kill its worker: the unwind is caught
//!   at the job boundary, the submitter receives the typed
//!   [`SvcError::Internal`] carrying the scheduler-assigned job id, the
//!   `panics` metric moves, and the same thread picks up the next job.
//! * Shutdown is graceful: already-queued jobs are drained, new submits
//!   are refused with [`SvcError::ShuttingDown`]. [`Scheduler::drain_within`]
//!   waits (on a condvar, no polling) until the queue is empty and no
//!   worker is mid-job, bounded by a deadline.
//!
//! Every job is submitted with a caller-chosen tag and a **completion
//! queue** (an [`mpsc::Sender`]) on which its result arrives as
//! `(tag, result)`. The server gives each request its own queue and tags
//! each job with its slot in the request — a one-shot `SOLVE` is one job
//! in slot 0, a `SOLVE_BATCH` member is one job per slot — so the
//! connection thread blocks only on its own jobs and reorders their
//! completions back into request order.

use crate::error::SvcError;
use crate::metrics::Metrics;
use graft_sim::{Clock, WallClock};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

struct Item<J, R> {
    job: J,
    id: u64,
    enqueued: Instant,
    tag: u64,
    tx: mpsc::Sender<(u64, Result<R, SvcError>)>,
}

struct Shared<J, R> {
    queue: Mutex<SchedState<J, R>>,
    cv: Condvar,
    capacity: usize,
    workers: usize,
    next_id: AtomicU64,
    metrics: Arc<Metrics>,
    /// Time source for queue-wait measurement and the drain deadline;
    /// wall by default, the simulation's virtual clock under `sim`.
    clock: Arc<dyn Clock>,
}

struct SchedState<J, R> {
    items: VecDeque<Item<J, R>>,
    /// Worker slots a job occupies while running (clamped to
    /// `[1, workers]`); `|_| 1` unless [`Scheduler::with_weight`] is used.
    /// Lives under the queue mutex because workers consult it at pop time.
    weight: Arc<dyn Fn(&J) -> usize + Send + Sync>,
    /// Jobs currently inside a worker (popped but not yet answered).
    active: usize,
    /// Weighted worker slots held by running jobs (≥ `active`; a weight-k
    /// job holds k slots out of `workers` total).
    slots_in_use: usize,
    shutdown: bool,
}

/// Fixed pool of worker threads consuming a bounded queue.
pub struct Scheduler<J: Send + 'static, R: Send + 'static> {
    shared: Arc<Shared<J, R>>,
    workers: Vec<JoinHandle<()>>,
}

impl<J: Send + 'static, R: Send + 'static> Scheduler<J, R> {
    /// Spawns `workers` threads that run `handler` on each job. `capacity`
    /// bounds the number of *queued* (not yet running) jobs.
    pub fn new<F>(workers: usize, capacity: usize, metrics: Arc<Metrics>, handler: F) -> Self
    where
        F: Fn(J) -> R + Send + Sync + 'static,
    {
        Self::with_worker_state(
            workers,
            capacity,
            metrics,
            || (),
            move |job, (): &mut ()| handler(job),
        )
    }

    /// [`Scheduler::new`] with per-worker mutable state: `state_factory`
    /// runs once *inside* each worker thread (so `S` needs no `Send`) and
    /// the produced value is passed to every `handler` call on that
    /// worker. The server uses this to give each worker a resident
    /// [`graft_core::SolveWorkspace`], making warm solves allocation-free.
    pub fn with_worker_state<S, SF, F>(
        workers: usize,
        capacity: usize,
        metrics: Arc<Metrics>,
        state_factory: SF,
        handler: F,
    ) -> Self
    where
        S: 'static,
        SF: Fn() -> S + Send + Sync + 'static,
        F: Fn(J, &mut S) -> R + Send + Sync + 'static,
    {
        Self::with_worker_state_on(
            workers,
            capacity,
            metrics,
            Arc::new(WallClock),
            state_factory,
            handler,
        )
    }

    /// [`Scheduler::with_worker_state`] with an explicit time source:
    /// queue-wait measurement and [`Scheduler::drain_within`] deadlines
    /// run on `clock`, so a simulated server drains on virtual time.
    pub fn with_worker_state_on<S, SF, F>(
        workers: usize,
        capacity: usize,
        metrics: Arc<Metrics>,
        clock: Arc<dyn Clock>,
        state_factory: SF,
        handler: F,
    ) -> Self
    where
        S: 'static,
        SF: Fn() -> S + Send + Sync + 'static,
        F: Fn(J, &mut S) -> R + Send + Sync + 'static,
    {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(SchedState {
                items: VecDeque::new(),
                weight: Arc::new(|_: &J| 1),
                active: 0,
                slots_in_use: 0,
                shutdown: false,
            }),
            cv: Condvar::new(),
            capacity,
            workers,
            next_id: AtomicU64::new(1),
            metrics,
            clock,
        });
        let handler = Arc::new(handler);
        let state_factory = Arc::new(state_factory);
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let handler = Arc::clone(&handler);
                let state_factory = Arc::clone(&state_factory);
                std::thread::Builder::new()
                    .name(format!("graft-svc-worker-{i}"))
                    .spawn(move || {
                        let mut state = state_factory();
                        worker_loop(shared, handler, &mut state)
                    })
                    .expect("failed to spawn worker thread")
            })
            .collect();
        Self {
            shared,
            workers: handles,
        }
    }

    /// Sets the job-weight function: a job of weight `k` occupies `k` of
    /// the pool's worker slots while running (clamped to `[1, workers]`).
    /// The server maps `SOLVE ... threads=k` to weight `k` so a k-thread
    /// solve is not co-scheduled with more work than the pool has CPU for.
    /// Call before submitting jobs; already-queued jobs are re-weighed at
    /// pop time.
    pub fn with_weight<W>(self, weight: W) -> Self
    where
        W: Fn(&J) -> usize + Send + Sync + 'static,
    {
        let mut q = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        q.weight = Arc::new(weight);
        drop(q);
        self
    }

    /// Suggested client backoff when the queue is full: the backlog's
    /// expected drain time across the pool, from the observed mean solve
    /// latency (25ms per job before any job has completed), clamped to
    /// [10ms, 30s].
    fn suggest_retry_after_ms(&self, backlog: usize) -> u64 {
        let (count, sum_us, _) = self.shared.metrics.solve.snapshot();
        let per_job_ms = match sum_us.checked_div(count) {
            None => 25,
            Some(mean_us) => (mean_us / 1000).clamp(1, 10_000),
        };
        let workers = self.shared.workers as u64;
        (per_job_ms * backlog as u64)
            .div_ceil(workers)
            .clamp(10, 30_000)
    }

    /// Enqueues `job`. Its result — the handler's return value, or
    /// [`SvcError::Internal`] if the job panicked inside its worker —
    /// arrives on the completion queue `tx` as `(tag, result)`. Many jobs
    /// can share one queue; the caller matches completions back to
    /// requests by tag, in whatever order workers finish. Rejections are
    /// synchronous — [`SvcError::Overloaded`] when the queue is full,
    /// [`SvcError::ShuttingDown`] after [`shutdown`](Self::shutdown) — and
    /// a rejected job never produces a completion.
    pub fn submit(
        &self,
        job: J,
        tag: u64,
        tx: &mpsc::Sender<(u64, Result<R, SvcError>)>,
    ) -> Result<(), SvcError> {
        let mut q = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        if q.shutdown {
            return Err(SvcError::ShuttingDown);
        }
        if q.items.len() >= self.shared.capacity {
            self.shared
                .metrics
                .jobs_rejected
                .fetch_add(1, Ordering::Relaxed);
            let backlog = q.items.len() + q.active;
            drop(q);
            return Err(SvcError::Overloaded {
                capacity: self.shared.capacity,
                retry_after_ms: self.suggest_retry_after_ms(backlog),
            });
        }
        q.items.push_back(Item {
            job,
            id: self.shared.next_id.fetch_add(1, Ordering::Relaxed),
            enqueued: self.shared.clock.now(),
            tag,
            tx: tx.clone(),
        });
        self.shared
            .metrics
            .jobs_submitted
            .fetch_add(1, Ordering::Relaxed);
        self.shared
            .metrics
            .queue_depth
            .store(q.items.len(), Ordering::Relaxed);
        drop(q);
        self.shared.cv.notify_one();
        Ok(())
    }

    /// Refuses new jobs; queued jobs still drain.
    pub fn shutdown(&self) {
        let mut q = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        q.shutdown = true;
        drop(q);
        self.shared.cv.notify_all();
    }

    /// Blocks until the queue is empty **and** no worker is mid-job, or
    /// the deadline passes. Returns `true` if fully drained. Callers
    /// normally pair this with [`Scheduler::shutdown`] so the backlog is
    /// finite; without it, new submits can keep the drain from ever
    /// finishing.
    pub fn drain_within(&self, deadline: Duration) -> bool {
        let clock = &self.shared.clock;
        let start = clock.now();
        let mut q = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if q.items.is_empty() && q.active == 0 {
                return true;
            }
            let elapsed = clock.now().saturating_duration_since(start);
            let remaining = match deadline.checked_sub(elapsed) {
                Some(r) if !r.is_zero() => r,
                _ => return false,
            };
            // The deadline is measured on the (possibly virtual) clock,
            // but the condvar wait is real: `wait_slice` caps it so a
            // virtual clock re-reads `now()` often enough, while a wall
            // clock still waits the full remainder (wakeups come from
            // job completions).
            let (guard, _timeout) = self
                .shared
                .cv
                .wait_timeout(q, clock.wait_slice(remaining))
                .unwrap_or_else(|e| e.into_inner());
            q = guard;
        }
    }

    /// Queued plus in-flight jobs right now.
    pub fn backlog(&self) -> usize {
        let q = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        q.items.len() + q.active
    }

    /// Shuts down and joins every worker (drains the queue first).
    pub fn join(mut self) {
        self.shutdown();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop<J, R, S, F>(shared: Arc<Shared<J, R>>, handler: Arc<F>, state: &mut S)
where
    F: Fn(J, &mut S) -> R,
{
    loop {
        let (item, slots) = {
            let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                // Strict FIFO with all-or-nothing slot admission: only the
                // head job is considered, and it is popped only when its
                // full weight fits in the free slots. Waiting here holds no
                // slots, so weighted admission cannot deadlock.
                let head_weight = q
                    .items
                    .front()
                    .map(|it| (q.weight)(&it.job).clamp(1, shared.workers));
                match head_weight {
                    Some(w) if q.slots_in_use + w <= shared.workers => {
                        let item = q.items.pop_front().expect("head exists");
                        q.active += 1;
                        q.slots_in_use += w;
                        shared
                            .metrics
                            .queue_depth
                            .store(q.items.len(), Ordering::Relaxed);
                        break (item, w);
                    }
                    Some(_) => {} // head needs more slots than are free
                    None => {
                        if q.shutdown {
                            return;
                        }
                    }
                }
                q = shared.cv.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        shared.metrics.wait.record(
            shared
                .clock
                .now()
                .saturating_duration_since(item.enqueued)
                .as_micros() as u64,
        );
        // The job boundary is the panic firewall: a panicking handler
        // unwinds to here, the submitter gets a typed error carrying the
        // job id, and this thread stays in the pool (the pool self-heals
        // by never dying). The handler sees owned data plus this worker's
        // private state; the AssertUnwindSafe is sound for the state too,
        // because a solve workspace abandoned mid-solve is re-validated
        // wholesale by the next solve's epoch bump.
        let job = item.job;
        let result = match catch_unwind(AssertUnwindSafe(|| handler(job, state))) {
            Ok(r) => Ok(r),
            Err(_panic) => {
                shared.metrics.panics.fetch_add(1, Ordering::Relaxed);
                Err(SvcError::Internal { job: item.id })
            }
        };
        shared
            .metrics
            .jobs_completed
            .fetch_add(1, Ordering::Relaxed);
        // Retire the job *before* delivering its result: a submitter
        // that receives the reply and immediately asks for `backlog()`
        // must not observe this job still counted as active.
        let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        q.active -= 1;
        q.slots_in_use -= slots;
        drop(q);
        // Wake both idle workers and any drain_within waiter.
        shared.cv.notify_all();
        // The submitter may have hung up (connection dropped): fine.
        let _ = item.tx.send((item.tag, result));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Generous bound for "the other thread definitely got there" waits;
    /// these resolve in microseconds normally, the bound only matters on
    /// a badly oversubscribed CI machine.
    const LONG: Duration = Duration::from_secs(30);

    /// A completion queue of its own for one job, read like a private
    /// reply channel: `recv` yields the job's result without its tag.
    #[derive(Debug)]
    struct OneJob<R>(mpsc::Receiver<(u64, Result<R, SvcError>)>);

    impl<R> OneJob<R> {
        fn recv(&self) -> Result<Result<R, SvcError>, mpsc::RecvError> {
            self.0.recv().map(|(_, result)| result)
        }

        fn recv_timeout(
            &self,
            timeout: Duration,
        ) -> Result<Result<R, SvcError>, mpsc::RecvTimeoutError> {
            self.0.recv_timeout(timeout).map(|(_, result)| result)
        }
    }

    /// Submits `job` on a fresh one-job completion queue.
    fn submit_one<R: Send + 'static>(
        sched: &Scheduler<u32, R>,
        job: u32,
    ) -> Result<OneJob<R>, SvcError> {
        let (tx, rx) = mpsc::channel();
        sched.submit(job, 0, &tx)?;
        Ok(OneJob(rx))
    }

    /// Jobs announce on `started_rx` when a worker picks them up, then
    /// block until the test releases them via `gate_tx`: both sides of
    /// the handoff are channel rendezvous, so backpressure is
    /// deterministic without sleeping or polling.
    #[allow(clippy::type_complexity)]
    fn gated_scheduler(
        workers: usize,
        capacity: usize,
    ) -> (
        Scheduler<u32, u32>,
        mpsc::Sender<()>,
        mpsc::Receiver<()>,
        Arc<Metrics>,
    ) {
        let metrics = Arc::new(Metrics::new());
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let gate_rx = Mutex::new(gate_rx);
        let sched = Scheduler::new(workers, capacity, Arc::clone(&metrics), move |job: u32| {
            started_tx.send(()).ok();
            gate_rx.lock().unwrap().recv().ok();
            job * 2
        });
        (sched, gate_tx, started_rx, metrics)
    }

    #[test]
    fn worker_state_persists_across_jobs_on_one_worker() {
        // A single worker with a counter as its state: every job sees the
        // count left behind by its predecessors, proving the state (in
        // production, a SolveWorkspace) survives between jobs instead of
        // being rebuilt per job.
        let metrics = Arc::new(Metrics::new());
        let sched = Scheduler::with_worker_state(
            1,
            16,
            Arc::clone(&metrics),
            || 0u32,
            |job: u32, seen: &mut u32| {
                *seen += 1;
                (job, *seen)
            },
        );
        let rxs: Vec<_> = (0..4).map(|i| submit_one(&sched, i).unwrap()).collect();
        for (i, rx) in rxs.into_iter().enumerate() {
            assert_eq!(rx.recv().unwrap().unwrap(), (i as u32, i as u32 + 1));
        }
        sched.join();
    }

    #[test]
    fn executes_jobs_and_returns_results() {
        let metrics = Arc::new(Metrics::new());
        let sched = Scheduler::new(2, 16, Arc::clone(&metrics), |job: u32| job + 1);
        let rxs: Vec<_> = (0..8).map(|i| submit_one(&sched, i).unwrap()).collect();
        for (i, rx) in rxs.into_iter().enumerate() {
            assert_eq!(rx.recv().unwrap().unwrap(), i as u32 + 1);
        }
        assert_eq!(metrics.jobs_completed.load(Ordering::Relaxed), 8);
        assert_eq!(metrics.jobs_rejected.load(Ordering::Relaxed), 0);
        sched.join();
    }

    #[test]
    fn full_queue_rejects_with_overloaded() {
        let (sched, gate, started, metrics) = gated_scheduler(1, 2);
        // First job: picked up by the (single) worker, which then blocks.
        let rx0 = submit_one(&sched, 10).unwrap();
        started.recv_timeout(LONG).expect("worker picked up job 0");
        // Fill the queue behind the busy worker.
        let rx1 = submit_one(&sched, 11).unwrap();
        let rx2 = submit_one(&sched, 12).unwrap();
        // Queue full now: typed rejection, and the counter moves.
        match submit_one(&sched, 13) {
            Err(SvcError::Overloaded {
                capacity,
                retry_after_ms,
            }) => {
                assert_eq!(capacity, 2);
                assert!(retry_after_ms >= 10, "retry_after_ms={retry_after_ms}");
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        assert_eq!(metrics.jobs_rejected.load(Ordering::Relaxed), 1);
        // Release everything: the queued jobs still complete.
        for _ in 0..3 {
            gate.send(()).unwrap();
        }
        assert_eq!(rx0.recv().unwrap().unwrap(), 20);
        assert_eq!(rx1.recv().unwrap().unwrap(), 22);
        assert_eq!(rx2.recv().unwrap().unwrap(), 24);
        // Capacity freed again.
        let rx3 = submit_one(&sched, 13).unwrap();
        gate.send(()).unwrap();
        assert_eq!(rx3.recv().unwrap().unwrap(), 26);
        sched.join();
    }

    #[test]
    fn shutdown_refuses_new_jobs_but_drains_queued_ones() {
        let (sched, gate, _started, _metrics) = gated_scheduler(1, 8);
        let rx0 = submit_one(&sched, 1).unwrap();
        let rx1 = submit_one(&sched, 2).unwrap();
        sched.shutdown();
        assert!(matches!(submit_one(&sched, 3), Err(SvcError::ShuttingDown)));
        gate.send(()).unwrap();
        gate.send(()).unwrap();
        assert_eq!(rx0.recv().unwrap().unwrap(), 2);
        assert_eq!(rx1.recv().unwrap().unwrap(), 4);
        sched.join();
    }

    #[test]
    fn wait_time_is_recorded() {
        let metrics = Arc::new(Metrics::new());
        let sched = Scheduler::new(1, 8, Arc::clone(&metrics), |job: u32| job);
        submit_one(&sched, 1).unwrap().recv().unwrap().unwrap();
        let (count, _sum, _) = metrics.wait.snapshot();
        assert_eq!(count, 1);
        sched.join();
    }

    #[test]
    fn panicking_job_reports_internal_and_worker_survives() {
        let metrics = Arc::new(Metrics::new());
        // One worker: if the panic killed it, the follow-up jobs would
        // hang forever instead of completing.
        let sched = Scheduler::new(1, 8, Arc::clone(&metrics), |job: u32| {
            if job == 13 {
                panic!("injected failure");
            }
            job + 1
        });
        let ok_before = submit_one(&sched, 1).unwrap();
        assert_eq!(ok_before.recv().unwrap().unwrap(), 2);

        let boom = submit_one(&sched, 13).unwrap();
        match boom.recv().unwrap() {
            Err(SvcError::Internal { job }) => assert!(job > 0),
            other => panic!("expected Internal, got {other:?}"),
        }
        assert_eq!(metrics.panics.load(Ordering::Relaxed), 1);

        // Same (sole) worker keeps serving.
        for i in 0..4 {
            let rx = submit_one(&sched, i).unwrap();
            assert_eq!(rx.recv().unwrap().unwrap(), i + 1);
        }
        assert_eq!(metrics.jobs_completed.load(Ordering::Relaxed), 6);
        sched.join();
    }

    #[test]
    fn distinct_jobs_get_distinct_ids() {
        let metrics = Arc::new(Metrics::new());
        let sched = Scheduler::new(2, 8, Arc::clone(&metrics), |_: u32| {
            panic!("every job panics")
        });
        let mut ids = Vec::new();
        for i in 0..4 {
            let rx = submit_one(&sched, i).unwrap();
            match rx.recv().unwrap() {
                Err(SvcError::Internal { job }) => ids.push(job),
                other => panic!("expected Internal, got {other:?}"),
            }
        }
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 4, "job ids must be unique");
        sched.join();
    }

    #[test]
    fn tagged_jobs_share_one_completion_queue() {
        let metrics = Arc::new(Metrics::new());
        let sched = Scheduler::new(2, 16, Arc::clone(&metrics), |job: u32| job * 10);
        let (tx, rx) = mpsc::channel();
        for tag in 0..6u64 {
            sched.submit(tag as u32, tag, &tx).unwrap();
        }
        drop(tx);
        let mut got: Vec<(u64, u32)> = (0..6)
            .map(|_| {
                let (tag, result) = rx.recv().expect("completion arrives");
                (tag, result.unwrap())
            })
            .collect();
        got.sort_unstable();
        let want: Vec<(u64, u32)> = (0..6).map(|t| (t, t as u32 * 10)).collect();
        assert_eq!(got, want, "every tag completes exactly once");
        assert!(rx.recv().is_err(), "no extra completions");
        sched.join();
    }

    #[test]
    fn tagged_panic_reports_internal_under_its_tag() {
        let metrics = Arc::new(Metrics::new());
        let sched = Scheduler::new(1, 8, Arc::clone(&metrics), |job: u32| {
            if job == 2 {
                panic!("injected");
            }
            job
        });
        let (tx, rx) = mpsc::channel();
        for tag in 0..4u64 {
            sched.submit(tag as u32, tag, &tx).unwrap();
        }
        drop(tx);
        let mut oks = 0;
        let mut internals = Vec::new();
        for _ in 0..4 {
            match rx.recv().unwrap() {
                (_, Ok(_)) => oks += 1,
                (tag, Err(SvcError::Internal { .. })) => internals.push(tag),
                (tag, other) => panic!("tag {tag}: unexpected {other:?}"),
            }
        }
        assert_eq!(oks, 3);
        assert_eq!(internals, vec![2], "the panic lands under its own tag");
        assert_eq!(metrics.panics.load(Ordering::Relaxed), 1);
        sched.join();
    }

    #[test]
    fn tagged_rejections_are_synchronous_and_produce_no_completion() {
        let (sched, gate, started, _metrics) = gated_scheduler(1, 1);
        let (tx, rx) = mpsc::channel();
        sched.submit(1, 0, &tx).unwrap();
        started.recv_timeout(LONG).expect("worker picked up job 0");
        sched.submit(2, 1, &tx).unwrap(); // fills the queue
        match sched.submit(3, 2, &tx) {
            Err(SvcError::Overloaded { .. }) => {}
            other => panic!("expected Overloaded, got {other:?}"),
        }
        drop(tx);
        gate.send(()).unwrap();
        gate.send(()).unwrap();
        let mut tags: Vec<u64> = (0..2).map(|_| rx.recv().unwrap().0).collect();
        tags.sort_unstable();
        assert_eq!(tags, vec![0, 1]);
        assert!(
            rx.recv().is_err(),
            "the rejected tag must never complete later"
        );
        sched.join();
    }

    #[test]
    fn weighted_job_occupies_multiple_slots() {
        // 2 workers; job value = weight. A weight-2 job must have the pool
        // to itself: the weight-1 job behind it cannot start until the
        // weight-2 job finishes, even though a worker thread is idle.
        let metrics = Arc::new(Metrics::new());
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<u32>();
        let gate_rx = Mutex::new(gate_rx);
        let sched = Scheduler::new(2, 16, Arc::clone(&metrics), move |job: u32| {
            started_tx.send(job).ok();
            gate_rx.lock().unwrap().recv().ok();
            job
        })
        .with_weight(|job: &u32| *job as usize);

        let rx_big = submit_one(&sched, 2).unwrap(); // weight 2 = whole pool
        assert_eq!(started_rx.recv_timeout(LONG).unwrap(), 2);
        let rx_small = submit_one(&sched, 1).unwrap(); // weight 1, queued behind
        assert!(
            started_rx.recv_timeout(Duration::from_millis(100)).is_err(),
            "weight-1 job must not start while the weight-2 job holds both slots"
        );
        gate_tx.send(()).unwrap(); // release the big job
        assert_eq!(rx_big.recv_timeout(LONG).unwrap().unwrap(), 2);
        assert_eq!(
            started_rx.recv_timeout(LONG).unwrap(),
            1,
            "small job starts once slots free up"
        );
        gate_tx.send(()).unwrap();
        assert_eq!(rx_small.recv_timeout(LONG).unwrap().unwrap(), 1);
        sched.join();
    }

    #[test]
    fn oversized_weight_is_clamped_to_pool_size() {
        // weight 99 on a 2-worker pool clamps to 2 and still runs.
        let metrics = Arc::new(Metrics::new());
        let sched =
            Scheduler::new(2, 8, Arc::clone(&metrics), |job: u32| job + 1).with_weight(|_| 99);
        let rx = submit_one(&sched, 7).unwrap();
        assert_eq!(rx.recv_timeout(LONG).unwrap().unwrap(), 8);
        sched.join();
    }

    #[test]
    fn weighted_jobs_keep_fifo_order_and_all_complete() {
        // Mixed weights through a 2-worker pool: everything completes.
        let metrics = Arc::new(Metrics::new());
        let sched = Scheduler::new(2, 64, Arc::clone(&metrics), |job: u32| job * 3)
            .with_weight(|job: &u32| if job.is_multiple_of(3) { 2 } else { 1 });
        let rxs: Vec<_> = (0..24).map(|i| submit_one(&sched, i).unwrap()).collect();
        for (i, rx) in rxs.into_iter().enumerate() {
            assert_eq!(rx.recv_timeout(LONG).unwrap().unwrap(), i as u32 * 3);
        }
        sched.join();
    }

    #[test]
    fn drain_within_waits_for_inflight_jobs() {
        let (sched, gate, started, _metrics) = gated_scheduler(1, 8);
        let rx0 = submit_one(&sched, 5).unwrap();
        started.recv_timeout(LONG).expect("worker picked up job");
        sched.shutdown();

        // In-flight job still blocked on the gate: a short drain fails.
        assert!(!sched.drain_within(Duration::from_millis(50)));

        // Release it from another thread while drain_within waits.
        let waiter = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            gate.send(()).unwrap();
        });
        assert!(sched.drain_within(LONG), "drain after release");
        assert_eq!(sched.backlog(), 0);
        waiter.join().unwrap();
        assert_eq!(rx0.recv().unwrap().unwrap(), 10);
        sched.join();
    }
}
