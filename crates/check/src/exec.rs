//! One model-checked execution: serialized threads, instrumented memory,
//! and the per-execution decision controller.
//!
//! Real OS threads run the code under test, but a token-passing protocol
//! guarantees exactly one of them executes between two *scheduling points*
//! (every instrumented operation is one). At each point with more than one
//! enabled alternative — which thread steps next, or which visible store a
//! weak load returns — the [`Controller`] either replays a recorded choice
//! (DFS prefix / `CHECK_SCHEDULE`) or takes the default / a seeded-random
//! pick. Every choice is recorded, so any failing execution is replayable
//! from its schedule string alone.
//!
//! The memory model is sequential consistency plus *explicit reorder
//! windows*: each location keeps a short history of stores, and a
//! non-SeqCst load may (as an explored branch) return a stale store unless
//! a later store to the location already happens-before the loading
//! thread. Happens-before is tracked with vector clocks over release
//! stores, acquire loads, release/acquire fences (pending-clock scheme),
//! SeqCst operations (via a global SC clock), mutexes, and spawn/join.
//! See DESIGN.md §18 for what this approximates vs. C11.

use crate::clock::{mix, VClock};
use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::{Condvar as StdCondvar, Mutex as StdMutex, MutexGuard as StdMutexGuard};

/// Hard cap on model threads per execution.
pub(crate) const MAX_THREADS: usize = 8;
/// Stale stores retained per location (plus the latest one).
const HISTORY: usize = 4;
/// Trace ring capacity (last events shown on a violation).
const TRACE_CAP: usize = 48;

/// Signal that the execution aborted; instrumented code unwinds with this
/// payload and the thread wrapper swallows it.
pub(crate) struct Abort;

pub(crate) type OpResult<T> = Result<T, Abort>;

/// How an execution ended.
#[derive(Clone, Debug)]
pub(crate) struct Failure {
    pub message: String,
    pub trace: Vec<String>,
    pub schedule: Vec<u32>,
}

/// One recorded decision point (only points with > 1 alternative count).
#[derive(Clone, Copy, Debug)]
pub(crate) struct PointRecord {
    /// Total alternatives at the point (kept for debugging dumps).
    #[allow(dead_code)]
    pub n_alts: u32,
    /// Alternatives the explorer may branch to (1 when the preemption
    /// budget is exhausted or the state hash was already seen).
    pub n_admissible: u32,
    /// The alternative taken in this execution.
    pub chosen: u32,
}

/// Cross-execution exploration inputs threaded into one execution.
pub(crate) struct Controller {
    /// Choices to replay verbatim before free exploration starts.
    pub prefix: Vec<u32>,
    cursor: usize,
    /// Seeded RNG for the random fallback; `None` = DFS default policy.
    pub rng: Option<u64>,
    /// Every decision made (replayed and fresh), in order.
    pub recorded: Vec<PointRecord>,
    /// State hashes seen across executions (for prefix pruning).
    pub seen: std::collections::HashSet<u64>,
    pub prune: bool,
    pub preemption_bound: u32,
    pub stale_reads: bool,
    /// Points whose branches were cut by the state-hash filter.
    pub pruned_points: usize,
    /// Replay mismatch (program nondeterminism) detected.
    pub replay_divergence: bool,
}

impl Controller {
    pub(crate) fn new(
        prefix: Vec<u32>,
        rng: Option<u64>,
        seen: std::collections::HashSet<u64>,
        prune: bool,
        preemption_bound: u32,
        stale_reads: bool,
    ) -> Self {
        Controller {
            prefix,
            cursor: 0,
            rng,
            recorded: Vec::new(),
            seen,
            prune,
            preemption_bound,
            stale_reads,
            pruned_points: 0,
            replay_divergence: false,
        }
    }

    fn next_rand(&mut self, n: u32) -> u32 {
        let s = self.rng.as_mut().expect("random choice without rng");
        *s = mix(*s);
        (*s % n as u64) as u32
    }

    /// Decides one point. `state_hash` is the pruning key; `schedule_cost`
    /// is true when non-default alternatives spend preemption budget.
    fn choose(
        &mut self,
        n_alts: u32,
        state_hash: u64,
        schedule_cost: bool,
        preemptions_used: u32,
    ) -> u32 {
        debug_assert!(n_alts >= 1);
        if n_alts == 1 {
            return 0;
        }
        if self.cursor < self.prefix.len() {
            let c = self.prefix[self.cursor];
            self.cursor += 1;
            let c = if c >= n_alts {
                self.replay_divergence = true;
                0
            } else {
                c
            };
            self.recorded.push(PointRecord {
                n_alts,
                n_admissible: 1, // replayed points never re-branch
                chosen: c,
            });
            return c;
        }
        let mut n_admissible = if schedule_cost && preemptions_used >= self.preemption_bound {
            1
        } else {
            n_alts
        };
        if self.prune && n_admissible > 1 && !self.seen.insert(state_hash) {
            self.pruned_points += 1;
            n_admissible = 1;
        }
        let c = match self.rng {
            Some(_) => self.next_rand(n_admissible),
            None => 0,
        };
        self.recorded.push(PointRecord {
            n_alts,
            n_admissible,
            chosen: c,
        });
        c
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Status {
    Runnable,
    /// Blocked acquiring the mutex with this model id.
    Mutex(usize),
    /// Waiting on a condvar (holds the mutex to reacquire on wake).
    Cond {
        cv: usize,
        mutex: usize,
        timed: bool,
    },
    /// Blocked joining the given thread.
    Join(usize),
    Finished,
}

struct ThreadSlot {
    status: Status,
    clock: VClock,
    /// Steps executed by this thread (its own clock entry).
    steps: u32,
    /// Rolling hash of (op, value) pairs — the thread's "program counter"
    /// for state hashing.
    pos_hash: u64,
    /// Release clocks picked up by relaxed loads, waiting for an acquire
    /// fence to take effect.
    pending_acquire: VClock,
    /// Clock snapshot at the last release fence; stamped onto subsequent
    /// relaxed stores.
    pending_release: Option<VClock>,
    /// Set when the thread was woken by a (virtual) wait timeout.
    timed_out: bool,
}

/// One store in a location's history.
struct Store {
    value: u64,
    writer: usize,
    /// Writer's step count at the store (its clock entry).
    windex: u32,
    /// Release clock (None for plain relaxed stores with no prior fence).
    rel: Option<VClock>,
    /// Global modification-order index.
    seq: u64,
}

struct LocState {
    history: Vec<Store>,
    /// Per-thread coherence floor: lowest modification index each thread
    /// may still read.
    floor: Vec<u64>,
}

struct MutexState {
    locked_by: Option<usize>,
    release_clock: VClock,
}

struct ExecInner {
    threads: Vec<ThreadSlot>,
    current: usize,
    /// Thread that executed the previous step (preemption accounting).
    last: usize,
    preemptions: u32,
    step_count: usize,
    max_steps: usize,
    locations: Vec<LocState>,
    addr_to_loc: HashMap<usize, usize>,
    mutexes: Vec<MutexState>,
    addr_to_mutex: HashMap<usize, usize>,
    addr_to_cv: HashMap<usize, usize>,
    n_cvs: usize,
    mod_seq: u64,
    sc_clock: VClock,
    trace: VecDeque<String>,
    failure: Option<String>,
    aborted: bool,
    controller: Controller,
}

impl ExecInner {
    fn enabled(&self) -> Vec<usize> {
        self.threads
            .iter()
            .enumerate()
            .filter(|(_, t)| t.status == Status::Runnable)
            .map(|(i, _)| i)
            .collect()
    }

    fn trace_push(&mut self, tid: usize, desc: String) {
        if self.trace.len() == TRACE_CAP {
            self.trace.pop_front();
        }
        self.trace.push_back(format!("t{tid}: {desc}"));
    }

    /// Registers (or finds) the location behind `addr`, seeding its
    /// history from the mirrored std value on first touch.
    fn loc_id(&mut self, addr: usize, init: u64) -> usize {
        if let Some(&id) = self.addr_to_loc.get(&addr) {
            return id;
        }
        let id = self.locations.len();
        let seq = self.mod_seq;
        self.mod_seq += 1;
        self.locations.push(LocState {
            history: vec![Store {
                value: init,
                writer: usize::MAX,
                windex: 0,
                rel: None,
                seq,
            }],
            floor: vec![0; MAX_THREADS],
        });
        self.addr_to_loc.insert(addr, id);
        id
    }

    fn mutex_id(&mut self, addr: usize) -> usize {
        if let Some(&id) = self.addr_to_mutex.get(&addr) {
            return id;
        }
        let id = self.mutexes.len();
        self.mutexes.push(MutexState {
            locked_by: None,
            release_clock: VClock::new(),
        });
        self.addr_to_mutex.insert(addr, id);
        id
    }

    fn cv_id(&mut self, addr: usize) -> usize {
        if let Some(&id) = self.addr_to_cv.get(&addr) {
            return id;
        }
        let id = self.n_cvs;
        self.n_cvs += 1;
        self.addr_to_cv.insert(addr, id);
        id
    }

    /// Full-state hash for prefix pruning. Covers thread positions (with
    /// read values folded in), clocks, memory histories (values relative
    /// to each history, not absolute sequence numbers), lock/waiter state,
    /// and the preemption budget.
    fn state_hash(&self) -> u64 {
        let mut h = mix(self.last as u64 ^ ((self.preemptions as u64) << 32));
        for (i, t) in self.threads.iter().enumerate() {
            let s = match &t.status {
                Status::Runnable => 1u64,
                Status::Mutex(m) => 2 | ((*m as u64) << 8),
                Status::Cond { cv, mutex, timed } => {
                    3 | ((*cv as u64) << 8) | ((*mutex as u64) << 24) | ((*timed as u64) << 40)
                }
                Status::Join(j) => 4 | ((*j as u64) << 8),
                Status::Finished => 5,
            };
            h = mix(h ^ (i as u64) ^ (s << 3) ^ t.pos_hash);
            t.clock.hash_into(&mut h);
        }
        self.sc_clock.hash_into(&mut h);
        for loc in &self.locations {
            let base = loc.history.first().map(|s| s.seq).unwrap_or(0);
            for s in &loc.history {
                h = mix(h
                    ^ s.value
                    ^ ((s.writer as u64) << 48)
                    ^ ((s.windex as u64) << 16)
                    ^ (s.seq - base));
            }
            for (t, &f) in loc.floor.iter().enumerate() {
                h = mix(h ^ ((t as u64) << 56) ^ f.saturating_sub(base));
            }
        }
        for m in &self.mutexes {
            h = mix(h ^ m.locked_by.map(|t| t as u64 + 1).unwrap_or(0));
            m.release_clock.hash_into(&mut h);
        }
        h
    }

    /// Picks the next thread to run. Returns `Err(Abort)` on deadlock or
    /// after a failure. When nothing is runnable but timed waiters exist,
    /// one of them times out (timeouts fire only when the system is
    /// otherwise idle — see DESIGN.md §18).
    fn pick_next(&mut self) -> OpResult<()> {
        if self.aborted {
            return Err(Abort);
        }
        let mut enabled = self.enabled();
        if enabled.is_empty() {
            let timed: Vec<usize> = self
                .threads
                .iter()
                .enumerate()
                .filter(|(_, t)| matches!(t.status, Status::Cond { timed: true, .. }))
                .map(|(i, _)| i)
                .collect();
            if timed.is_empty() {
                if self.threads.iter().all(|t| t.status == Status::Finished) {
                    return Ok(()); // execution complete; nobody to schedule
                }
                return self.fail_locked("deadlock: no runnable thread and no timed waiter");
            }
            let hash = self.state_hash();
            let pre = self.preemptions;
            let idx = self.controller.choose(timed.len() as u32, hash, false, pre);
            let tid = timed[idx as usize];
            let Status::Cond { mutex, .. } = self.threads[tid].status else {
                unreachable!()
            };
            self.threads[tid].status = Status::Mutex(mutex);
            self.threads[tid].timed_out = true;
            self.trace_push(tid, "wait timeout fires (system idle)".into());
            self.wake_mutex_waiters_if_free(mutex);
            enabled = self.enabled();
            if enabled.is_empty() {
                // Still blocked on the mutex; schedule its holder — but the
                // holder must be runnable for us to get here, so this means
                // real deadlock.
                return self.fail_locked("deadlock after wait timeout");
            }
        }
        // Canonical alternative order: continuing the last-run thread
        // first (no preemption), then the other enabled threads ascending.
        let cont = enabled.iter().position(|&t| t == self.last);
        let mut alts = Vec::with_capacity(enabled.len());
        if let Some(ci) = cont {
            alts.push(enabled[ci]);
            for (i, &t) in enabled.iter().enumerate() {
                if i != ci {
                    alts.push(t);
                }
            }
        } else {
            alts.extend_from_slice(&enabled);
        }
        let idx = if alts.len() == 1 {
            0
        } else {
            let hash = self.state_hash();
            let pre = self.preemptions;
            self.controller
                .choose(alts.len() as u32, hash, cont.is_some(), pre)
        };
        let next = alts[idx as usize];
        if cont.is_some() && next != self.last {
            self.preemptions += 1;
        }
        self.current = next;
        Ok(())
    }

    /// If `mutex` is free, make all its waiters runnable (they re-race).
    fn wake_mutex_waiters_if_free(&mut self, mutex: usize) {
        if self.mutexes[mutex].locked_by.is_some() {
            return;
        }
        for t in self.threads.iter_mut() {
            if t.status == Status::Mutex(mutex) {
                t.status = Status::Runnable;
            }
        }
    }

    fn fail_locked(&mut self, msg: &str) -> OpResult<()> {
        if self.failure.is_none() {
            self.failure = Some(msg.to_string());
        }
        self.aborted = true;
        Err(Abort)
    }

    /// Charges one step to `me` and checks the step budget.
    fn step(&mut self, me: usize, opcode: u64, value: u64) -> OpResult<()> {
        if self.aborted {
            return Err(Abort);
        }
        self.step_count += 1;
        if self.step_count > self.max_steps {
            return self
                .fail_locked("step budget exceeded (possible livelock, or raise max_steps)");
        }
        let t = &mut self.threads[me];
        t.steps += 1;
        let steps = t.steps;
        t.clock.raise(me, steps);
        t.pos_hash = mix(t.pos_hash ^ opcode ^ value.rotate_left(17));
        self.last = me;
        Ok(())
    }

    /// The set of stores of `loc` thread `me` may read, newest first.
    /// `viewer` is the clock deciding supersession (the thread clock, plus
    /// the SC clock for SeqCst loads).
    fn visible(&self, loc: usize, me: usize, seqcst: bool) -> Vec<usize> {
        let l = &self.locations[loc];
        let mut viewer = self.threads[me].clock.clone();
        if seqcst {
            viewer.join(&self.sc_clock);
        }
        // A store is a floor-raiser if the viewer already knows about it:
        // nothing older may be read.
        let mut known_floor = l.floor[me];
        for s in &l.history {
            let known = s.writer == usize::MAX && s.seq == l.history[0].seq
                || s.writer != usize::MAX && s.windex <= viewer.get(s.writer);
            if known && s.seq > known_floor {
                known_floor = s.seq;
            }
        }
        // The base (init) entry is "known" only in the sense that it is
        // readable when nothing newer is known.
        let mut out: Vec<usize> = l
            .history
            .iter()
            .enumerate()
            .filter(|(_, s)| s.seq >= known_floor)
            .map(|(i, _)| i)
            .collect();
        out.sort_by(|&a, &b| l.history[b].seq.cmp(&l.history[a].seq));
        out
    }

    fn apply_read(&mut self, loc: usize, me: usize, idx: usize, ord: Ordering) -> u64 {
        let rel = self.locations[loc].history[idx].rel.clone();
        let seq = self.locations[loc].history[idx].seq;
        let value = self.locations[loc].history[idx].value;
        let floor = &mut self.locations[loc].floor[me];
        if seq > *floor {
            *floor = seq;
        }
        if let Some(rel) = rel {
            let t = &mut self.threads[me];
            match ord {
                Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst => t.clock.join(&rel),
                _ => t.pending_acquire.join(&rel),
            }
        }
        value
    }

    fn push_store(&mut self, loc: usize, me: usize, value: u64, ord: Ordering) {
        let t = &self.threads[me];
        let rel = match ord {
            Ordering::Release | Ordering::AcqRel | Ordering::SeqCst => Some(t.clock.clone()),
            _ => t.pending_release.clone(),
        };
        let windex = t.steps;
        if ord == Ordering::SeqCst {
            let clock = self.threads[me].clock.clone();
            self.sc_clock.join(&clock);
        }
        let seq = self.mod_seq;
        self.mod_seq += 1;
        let l = &mut self.locations[loc];
        l.history.push(Store {
            value,
            writer: me,
            windex,
            rel,
            seq,
        });
        if l.history.len() > HISTORY + 1 {
            l.history.remove(0);
        }
        if seq > l.floor[me] {
            l.floor[me] = seq;
        }
    }
}

/// Shared state of one model-checked execution.
pub(crate) struct Execution {
    inner: StdMutex<ExecInner>,
    cv: StdCondvar,
    /// Real OS handles of spawned model threads, joined at execution end.
    pub(crate) real_handles: StdMutex<Vec<std::thread::JoinHandle<()>>>,
}

/// Outcome extracted after all threads of an execution exit.
pub(crate) struct ExecOutcome {
    pub recorded: Vec<PointRecord>,
    pub seen: std::collections::HashSet<u64>,
    pub pruned_points: usize,
    pub failure: Option<Failure>,
    pub steps: usize,
    pub replay_divergence: bool,
}

impl Execution {
    pub(crate) fn new(max_steps: usize, controller: Controller) -> Self {
        let main = ThreadSlot {
            status: Status::Runnable,
            clock: VClock::new(),
            steps: 0,
            pos_hash: 0,
            pending_acquire: VClock::new(),
            pending_release: None,
            timed_out: false,
        };
        Execution {
            inner: StdMutex::new(ExecInner {
                threads: vec![main],
                current: 0,
                last: 0,
                preemptions: 0,
                step_count: 0,
                max_steps,
                locations: Vec::new(),
                addr_to_loc: HashMap::new(),
                mutexes: Vec::new(),
                addr_to_mutex: HashMap::new(),
                addr_to_cv: HashMap::new(),
                n_cvs: 0,
                mod_seq: 0,
                sc_clock: VClock::new(),
                trace: VecDeque::new(),
                failure: None,
                aborted: false,
                controller,
            }),
            cv: StdCondvar::new(),
            real_handles: StdMutex::new(Vec::new()),
        }
    }

    fn lock(&self) -> StdMutexGuard<'_, ExecInner> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Parks the calling model thread until it is scheduled (or abort).
    fn park<'a>(
        &'a self,
        mut g: StdMutexGuard<'a, ExecInner>,
        me: usize,
    ) -> OpResult<StdMutexGuard<'a, ExecInner>> {
        while g.current != me && !g.aborted {
            g = match self.cv.wait(g) {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
        }
        if g.aborted {
            Err(Abort)
        } else {
            Ok(g)
        }
    }

    /// Ends the current step: schedules the next thread, hands off the
    /// token, and parks if the token moved away.
    fn handoff<'a>(
        &'a self,
        mut g: StdMutexGuard<'a, ExecInner>,
        me: usize,
    ) -> OpResult<StdMutexGuard<'a, ExecInner>> {
        g.pick_next()?;
        if g.current != me {
            self.cv.notify_all();
            g = self.park(g, me)?;
        }
        Ok(g)
    }

    /// Called by a newly spawned model thread before running user code.
    pub(crate) fn park_initial(&self, me: usize) -> OpResult<()> {
        let g = self.lock();
        let _g = self.park(g, me)?;
        Ok(())
    }

    /// Records a failure from outside the token protocol (panic in user
    /// code on the current thread) and wakes everyone.
    pub(crate) fn fail(&self, message: String) {
        let mut g = self.lock();
        if g.failure.is_none() {
            g.failure = Some(message);
        }
        g.aborted = true;
        drop(g);
        self.cv.notify_all();
    }

    // ---------------------------------------------------------------
    // Atomic operations
    // ---------------------------------------------------------------

    pub(crate) fn atomic_load(
        &self,
        me: usize,
        addr: usize,
        init: u64,
        ord: Ordering,
    ) -> OpResult<u64> {
        let mut g = self.lock();
        let loc = g.loc_id(addr, init);
        g.step(me, 0x11, loc as u64)?;
        let vis = g.visible(loc, me, ord == Ordering::SeqCst);
        let n = if g.controller.stale_reads {
            vis.len()
        } else {
            1
        };
        let idx = if n > 1 {
            let hash = g.state_hash();
            let pre = g.preemptions;
            g.controller.choose(n as u32, hash, false, pre)
        } else {
            0
        };
        let value = g.apply_read(loc, me, vis[idx as usize], ord);
        let stale = if idx > 0 { " STALE" } else { "" };
        g.trace_push(me, format!("load loc{loc} -> {value} ({ord:?}){stale}"));
        g.threads[me].pos_hash = mix(g.threads[me].pos_hash ^ value);
        drop(self.handoff(g, me)?);
        Ok(value)
    }

    pub(crate) fn atomic_store(
        &self,
        me: usize,
        addr: usize,
        init: u64,
        value: u64,
        ord: Ordering,
    ) -> OpResult<()> {
        let mut g = self.lock();
        let loc = g.loc_id(addr, init);
        g.step(me, 0x12, loc as u64 ^ value)?;
        g.push_store(loc, me, value, ord);
        g.trace_push(me, format!("store loc{loc} <- {value} ({ord:?})"));
        drop(self.handoff(g, me)?);
        Ok(())
    }

    /// Read-modify-write: always reads the latest store (C11 guarantees
    /// RMWs read the newest value in modification order).
    pub(crate) fn atomic_rmw(
        &self,
        me: usize,
        addr: usize,
        init: u64,
        ord: Ordering,
        f: impl FnOnce(u64) -> u64,
    ) -> OpResult<u64> {
        let mut g = self.lock();
        let loc = g.loc_id(addr, init);
        g.step(me, 0x13, loc as u64)?;
        let latest = g.locations[loc].history.len() - 1;
        let old = g.apply_read(loc, me, latest, rmw_load_part(ord));
        let new = f(old);
        g.push_store(loc, me, new, rmw_store_part(ord));
        g.trace_push(me, format!("rmw loc{loc} {old} -> {new} ({ord:?})"));
        g.threads[me].pos_hash = mix(g.threads[me].pos_hash ^ old);
        drop(self.handoff(g, me)?);
        Ok(old)
    }

    /// Compare-exchange. Reads the latest store; on mismatch behaves as a
    /// load with the failure ordering (no stale branching — stronger than
    /// C11, see DESIGN.md §18).
    #[allow(clippy::too_many_arguments)] // mirrors `compare_exchange`'s shape
    pub(crate) fn atomic_cas(
        &self,
        me: usize,
        addr: usize,
        init: u64,
        expected: u64,
        new: u64,
        ord: Ordering,
        ord_fail: Ordering,
    ) -> OpResult<Result<u64, u64>> {
        let mut g = self.lock();
        let loc = g.loc_id(addr, init);
        g.step(me, 0x14, loc as u64 ^ expected)?;
        let latest = g.locations[loc].history.len() - 1;
        let current = g.locations[loc].history[latest].value;
        let res = if current == expected {
            let old = g.apply_read(loc, me, latest, rmw_load_part(ord));
            g.push_store(loc, me, new, rmw_store_part(ord));
            g.trace_push(me, format!("cas loc{loc} {old} -> {new} ok ({ord:?})"));
            Ok(old)
        } else {
            let old = g.apply_read(loc, me, latest, ord_fail);
            g.trace_push(
                me,
                format!("cas loc{loc} failed: saw {old}, wanted {expected}"),
            );
            Err(old)
        };
        let tag = if res.is_ok() { 1 } else { 0 };
        g.threads[me].pos_hash = mix(g.threads[me].pos_hash ^ current ^ tag);
        drop(self.handoff(g, me)?);
        Ok(res)
    }

    pub(crate) fn fence(&self, me: usize, ord: Ordering) -> OpResult<()> {
        let mut g = self.lock();
        g.step(me, 0x15, ord as u64)?;
        let pending = std::mem::take(&mut g.threads[me].pending_acquire);
        match ord {
            Ordering::Acquire => {
                g.threads[me].clock.join(&pending);
            }
            Ordering::Release => {
                let snap = g.threads[me].clock.clone();
                g.threads[me].pending_release = Some(snap);
                g.threads[me].pending_acquire = pending; // untouched
            }
            Ordering::AcqRel => {
                g.threads[me].clock.join(&pending);
                let snap = g.threads[me].clock.clone();
                g.threads[me].pending_release = Some(snap);
            }
            _ => {
                // SeqCst: acquire side, then synchronize with the global
                // SC clock in both directions, then release side.
                g.threads[me].clock.join(&pending);
                let sc = g.sc_clock.clone();
                g.threads[me].clock.join(&sc);
                let clock = g.threads[me].clock.clone();
                g.sc_clock.join(&clock);
                g.threads[me].pending_release = Some(clock);
            }
        }
        g.trace_push(me, format!("fence ({ord:?})"));
        drop(self.handoff(g, me)?);
        Ok(())
    }

    // ---------------------------------------------------------------
    // Mutex / Condvar
    // ---------------------------------------------------------------

    pub(crate) fn mutex_lock(&self, me: usize, addr: usize) -> OpResult<()> {
        let mut g = self.lock();
        let mid = g.mutex_id(addr);
        g.step(me, 0x21, mid as u64)?;
        loop {
            if g.mutexes[mid].locked_by.is_none() {
                g.mutexes[mid].locked_by = Some(me);
                let rc = g.mutexes[mid].release_clock.clone();
                g.threads[me].clock.join(&rc);
                g.trace_push(me, format!("lock m{mid}"));
                g = self.handoff(g, me)?;
                drop(g);
                return Ok(());
            }
            g.threads[me].status = Status::Mutex(mid);
            g.trace_push(me, format!("blocked on m{mid}"));
            g = self.handoff(g, me)?;
            // Rescheduled: the mutex was free when we were woken, but
            // another waiter may have re-taken it; loop and re-check.
        }
    }

    pub(crate) fn mutex_unlock(&self, me: usize, addr: usize) -> OpResult<()> {
        let mut g = self.lock();
        if g.aborted {
            return Err(Abort);
        }
        let mid = g.mutex_id(addr);
        g.step(me, 0x22, mid as u64)?;
        debug_assert_eq!(g.mutexes[mid].locked_by, Some(me));
        g.mutexes[mid].locked_by = None;
        let clock = g.threads[me].clock.clone();
        g.mutexes[mid].release_clock.join(&clock);
        g.wake_mutex_waiters_if_free(mid);
        g.trace_push(me, format!("unlock m{mid}"));
        drop(self.handoff(g, me)?);
        Ok(())
    }

    /// Condvar wait: releases the mutex, blocks until notified (or a
    /// virtual timeout when `timed`), then reacquires the mutex. Returns
    /// whether the wake was a timeout.
    pub(crate) fn condvar_wait(
        &self,
        me: usize,
        cv_addr: usize,
        mutex_addr: usize,
        timed: bool,
    ) -> OpResult<bool> {
        let mut g = self.lock();
        let cvid = g.cv_id(cv_addr);
        let mid = g.mutex_id(mutex_addr);
        g.step(me, 0x23, cvid as u64)?;
        debug_assert_eq!(g.mutexes[mid].locked_by, Some(me));
        g.mutexes[mid].locked_by = None;
        let clock = g.threads[me].clock.clone();
        g.mutexes[mid].release_clock.join(&clock);
        g.wake_mutex_waiters_if_free(mid);
        g.threads[me].timed_out = false;
        g.threads[me].status = Status::Cond {
            cv: cvid,
            mutex: mid,
            timed,
        };
        g.trace_push(me, format!("cv{cvid} wait (timed={timed})"));
        g = self.handoff(g, me)?;
        // Woken: status is Runnable again (notify/timeout moved us to the
        // mutex queue, unlock made us runnable). Reacquire the mutex.
        loop {
            if g.mutexes[mid].locked_by.is_none() {
                g.mutexes[mid].locked_by = Some(me);
                let rc = g.mutexes[mid].release_clock.clone();
                g.threads[me].clock.join(&rc);
                let timed_out = std::mem::take(&mut g.threads[me].timed_out);
                g.trace_push(me, format!("cv{cvid} woke, relocked m{mid}"));
                drop(g);
                return Ok(timed_out);
            }
            g.threads[me].status = Status::Mutex(mid);
            g = self.handoff(g, me)?;
        }
    }

    /// Notify: moves one (chosen) or all waiters to the mutex queue.
    pub(crate) fn condvar_notify(&self, me: usize, cv_addr: usize, all: bool) -> OpResult<()> {
        let mut g = self.lock();
        let cvid = g.cv_id(cv_addr);
        g.step(me, 0x24, cvid as u64)?;
        let waiters: Vec<usize> = g
            .threads
            .iter()
            .enumerate()
            .filter(|(_, t)| matches!(t.status, Status::Cond { cv, .. } if cv == cvid))
            .map(|(i, _)| i)
            .collect();
        let chosen: Vec<usize> = if all || waiters.len() <= 1 {
            waiters
        } else {
            let hash = g.state_hash();
            let pre = g.preemptions;
            let idx = g.controller.choose(waiters.len() as u32, hash, false, pre);
            vec![waiters[idx as usize]]
        };
        for t in chosen {
            let Status::Cond { mutex, .. } = g.threads[t].status else {
                unreachable!()
            };
            g.threads[t].status = Status::Mutex(mutex);
            g.threads[t].timed_out = false;
            g.wake_mutex_waiters_if_free(mutex);
            g.trace_push(me, format!("cv{cvid} notify t{t}"));
        }
        drop(self.handoff(g, me)?);
        Ok(())
    }

    // ---------------------------------------------------------------
    // Threads
    // ---------------------------------------------------------------

    /// Registers a child thread (clock-inherits from the parent).
    ///
    /// Deliberately NOT a scheduling point: the caller still has to spawn
    /// the child's real OS thread, so the token must stay with the parent
    /// until that exists (the caller issues a [`Self::yield_op`] after).
    pub(crate) fn spawn_register(&self, me: usize) -> OpResult<usize> {
        let mut g = self.lock();
        g.step(me, 0x31, 0)?;
        if g.threads.len() >= MAX_THREADS {
            return g
                .fail_locked("too many model threads (MAX_THREADS = 8)")
                .map(|_| unreachable!());
        }
        let tid = g.threads.len();
        let clock = g.threads[me].clock.clone();
        g.threads.push(ThreadSlot {
            status: Status::Runnable,
            clock,
            steps: 0,
            pos_hash: mix(tid as u64),
            pending_acquire: VClock::new(),
            pending_release: None,
            timed_out: false,
        });
        g.trace_push(me, format!("spawn t{tid}"));
        drop(g);
        Ok(tid)
    }

    /// Marks `me` finished and publishes its clock for joiners.
    pub(crate) fn thread_finished(&self, me: usize) {
        let mut g = self.lock();
        if g.aborted {
            drop(g);
            self.cv.notify_all();
            return;
        }
        if g.step(me, 0x32, 0).is_err() {
            drop(g);
            self.cv.notify_all();
            return;
        }
        g.threads[me].status = Status::Finished;
        for t in g.threads.iter_mut() {
            if t.status == Status::Join(me) {
                t.status = Status::Runnable;
            }
        }
        g.trace_push(me, "finished".into());
        let _ = g.pick_next();
        drop(g);
        self.cv.notify_all();
    }

    /// Blocks until `child` finishes, then joins its clock.
    pub(crate) fn join_wait(&self, me: usize, child: usize) -> OpResult<()> {
        let mut g = self.lock();
        g.step(me, 0x33, child as u64)?;
        loop {
            if g.threads[child].status == Status::Finished {
                let c = g.threads[child].clock.clone();
                g.threads[me].clock.join(&c);
                g.trace_push(me, format!("joined t{child}"));
                g = self.handoff(g, me)?;
                drop(g);
                return Ok(());
            }
            g.threads[me].status = Status::Join(child);
            g = self.handoff(g, me)?;
        }
    }

    /// A pure scheduling point (`thread::yield_now`).
    pub(crate) fn yield_op(&self, me: usize) -> OpResult<()> {
        let mut g = self.lock();
        g.step(me, 0x34, 0)?;
        drop(self.handoff(g, me)?);
        Ok(())
    }

    /// Extracts the outcome once every real thread has exited.
    pub(crate) fn into_outcome(self) -> ExecOutcome {
        let inner = match self.inner.into_inner() {
            Ok(i) => i,
            Err(p) => p.into_inner(),
        };
        let failure = inner.failure.map(|message| Failure {
            message,
            trace: inner.trace.iter().cloned().collect(),
            schedule: inner.controller.recorded.iter().map(|r| r.chosen).collect(),
        });
        ExecOutcome {
            recorded: inner.controller.recorded,
            seen: inner.controller.seen,
            pruned_points: inner.controller.pruned_points,
            failure,
            steps: inner.step_count,
            replay_divergence: inner.controller.replay_divergence,
        }
    }
}

/// The load half of an RMW ordering.
fn rmw_load_part(ord: Ordering) -> Ordering {
    match ord {
        Ordering::AcqRel => Ordering::Acquire,
        Ordering::Release | Ordering::Relaxed => Ordering::Relaxed,
        o => o,
    }
}

/// The store half of an RMW ordering.
fn rmw_store_part(ord: Ordering) -> Ordering {
    match ord {
        Ordering::AcqRel => Ordering::Release,
        Ordering::Acquire | Ordering::Relaxed => Ordering::Relaxed,
        o => o,
    }
}
