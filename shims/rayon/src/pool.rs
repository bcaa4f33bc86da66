//! Work-stealing thread pool backing the rayon shim.
//!
//! This is a deliberately small, self-contained executor: one chase-lev
//! deque per worker, a mutex-protected global injector, and latch-based
//! batch execution. It exists so the parallel engines in `crates/core`
//! actually run concurrently without pulling the real rayon (and its
//! dependency tree) into the offline build.
//!
//! # Unsafe surface
//!
//! All `unsafe` in the shim lives in this file and falls into two buckets:
//!
//! 1. **Raw task pointers.** Tasks are `Box<dyn FnOnce() + Send>` boxed a
//!    second time so the deque slots can hold a thin `*mut TaskObj`. Every
//!    pointer produced by `Box::into_raw` is consumed exactly once by
//!    `Box::from_raw`: a task leaves the deque either via `take` (owner) or
//!    `steal` (thief), never both, which the chase-lev CAS protocol
//!    guarantees. On pool shutdown the injector is drained and dropped.
//!
//! 2. **Lifetime erasure.** `execute_batch` transmutes its task closures
//!    from `'a` to `'static` so they can cross thread boundaries.
//!    Soundness: the submitting call blocks (helping with work, not just
//!    parking) until the latch counts every task as finished — including
//!    panicked tasks, whose payloads are captured and re-thrown on the
//!    submitting thread. No borrowed data outlives the call.
//!    `execute_batch` keeps the latch itself on the submitting thread's
//!    stack, so the last `Latch::complete` notifies the condvar before it
//!    releases the latch mutex: the waiter can read zero, return and free
//!    the latch only after that release, which is the completer's last
//!    touch of it.
//!
//! # Memory orderings
//!
//! The deque follows Le et al., "Correct and Efficient Work-Stealing for
//! Weak Memory Models" (PPoPP 2013): `push` publishes the slot with a
//! Release fence before the Relaxed bottom store; `take` uses a SeqCst
//! fence between the bottom decrement and the top load; `steal` reads the
//! slot *before* its SeqCst CAS on top, which is what makes the transfer
//! of ownership race-free. The slot array is never resized; on overflow
//! `push` falls back to the injector, which is plain mutex-protected state.

#![allow(unsafe_code)]

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{mpsc, Arc, OnceLock};
use std::time::Duration;

// Under `--cfg graft_check` every synchronization primitive the lock-free
// core touches is swapped for its graft-check instrumented twin (which
// passes straight through to std outside a model-checked execution). The
// production source is otherwise unchanged, so the protocol the model
// checker explores is the protocol that ships.
#[cfg(not(graft_check))]
use std::sync::atomic::{fence, AtomicI64, AtomicPtr, Ordering};
#[cfg(not(graft_check))]
use std::sync::{Condvar, Mutex};

#[cfg(graft_check)]
use graft_check::sync::atomic::{fence, AtomicI64, AtomicPtr, Ordering};
#[cfg(graft_check)]
use graft_check::sync::{Condvar, Mutex};

/// A heap-allocated erased task. Double-boxed so the deque can store a thin
/// pointer (`*mut TaskObj`) in an `AtomicPtr`.
type TaskObj = Box<dyn FnOnce() + Send>;

/// Thin raw pointer to a boxed task. `Send` is sound because the underlying
/// closure is `Send` and ownership is transferred (never shared) through the
/// deque/injector.
pub struct TaskPtr(*mut TaskObj);
unsafe impl Send for TaskPtr {}

impl TaskPtr {
    /// Box `task` a second time and keep the thin raw pointer.
    pub fn new(task: TaskObj) -> Self {
        TaskPtr(Box::into_raw(Box::new(task)))
    }

    /// Take ownership back and run the task.
    pub fn run(self) {
        // SAFETY: `self.0` came from `Box::into_raw` in `TaskPtr::new` and
        // the deque protocol hands each pointer to exactly one consumer.
        let task = unsafe { Box::from_raw(self.0) };
        task();
    }

    /// Take ownership back and drop without running (shutdown path).
    pub fn discard(self) {
        // SAFETY: as in `run`; the task is simply dropped.
        drop(unsafe { Box::from_raw(self.0) });
    }

    /// Test-only: the raw pointer, for identity comparison *without*
    /// taking ownership. The model suites use this to detect a
    /// double-claimed task before any `Box::from_raw` could double-free.
    #[cfg(any(test, graft_check))]
    pub fn raw(&self) -> *const () {
        self.0 as *const ()
    }
}

/// Deque capacity. Power of two; overflow spills to the injector.
pub const DEQUE_CAP: usize = 256;
const MASK: i64 = (DEQUE_CAP as i64) - 1;

/// Fixed-capacity chase-lev work-stealing deque. The owner pushes and takes
/// at the bottom; thieves steal from the top.
pub struct Deque {
    top: AtomicI64,
    bottom: AtomicI64,
    slots: Box<[AtomicPtr<TaskObj>]>,
}

impl Deque {
    /// An empty deque with indices starting at 0.
    pub fn new() -> Self {
        Self::with_start(0)
    }

    /// Test-only: an empty deque whose top/bottom indices start at
    /// `start`, so wraparound at the slot mask can be exercised directly
    /// instead of after `DEQUE_CAP` warm-up operations.
    #[cfg(any(test, graft_check))]
    pub fn new_at(start: i64) -> Self {
        Self::with_start(start)
    }

    fn with_start(start: i64) -> Self {
        let slots = (0..DEQUE_CAP)
            .map(|_| AtomicPtr::new(std::ptr::null_mut()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Deque {
            top: AtomicI64::new(start),
            bottom: AtomicI64::new(start),
            slots,
        }
    }
}

impl Default for Deque {
    fn default() -> Self {
        Self::new()
    }
}

impl Deque {
    /// Owner-only. Returns the task back if the deque is full.
    ///
    /// The capacity refusal is load-bearing, not an optimization: the slot
    /// array is never resized, so accepting element `DEQUE_CAP` would write
    /// slot `b & MASK` — the same physical slot as the oldest live entry —
    /// overwriting a raw task pointer a thief may be about to read (a leak
    /// at best, a double-run at worst). Callers must route a refused task
    /// to the injector.
    pub fn push(&self, task: TaskPtr) -> Result<(), TaskPtr> {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Acquire);
        debug_assert!(
            (0..=DEQUE_CAP as i64).contains(&(b - t)),
            "deque size invariant violated: bottom {b} top {t}"
        );
        if b - t >= DEQUE_CAP as i64 {
            return Err(task);
        }
        self.slots[(b & MASK) as usize].store(task.0, Ordering::Relaxed);
        fence(Ordering::Release);
        self.bottom.store(b + 1, Ordering::Relaxed);
        Ok(())
    }

    /// Owner-only pop from the bottom.
    pub fn take(&self) -> Option<TaskPtr> {
        let b = self.bottom.load(Ordering::Relaxed) - 1;
        self.bottom.store(b, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        let t = self.top.load(Ordering::Relaxed);
        if t > b {
            // Deque was already empty.
            self.bottom.store(b + 1, Ordering::Relaxed);
            return None;
        }
        let ptr = self.slots[(b & MASK) as usize].load(Ordering::Relaxed);
        if t == b {
            // Last element: race against thieves via CAS on top.
            let won = self
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok();
            self.bottom.store(b + 1, Ordering::Relaxed);
            if !won {
                return None;
            }
        }
        Some(TaskPtr(ptr))
    }

    /// Thief-side steal from the top.
    pub fn steal(&self) -> Option<TaskPtr> {
        loop {
            let t = self.top.load(Ordering::Acquire);
            fence(Ordering::SeqCst);
            let b = self.bottom.load(Ordering::Acquire);
            if t >= b {
                return None;
            }
            // Read the slot before the CAS: if the CAS succeeds we own this
            // pointer; if it fails we never touch it.
            let ptr = self.slots[(t & MASK) as usize].load(Ordering::Relaxed);
            if self
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
            {
                return Some(TaskPtr(ptr));
            }
            // Lost the race (to the owner or another thief); retry.
        }
    }
}

struct PoolState {
    injector: VecDeque<TaskPtr>,
    shutdown: bool,
}

/// Shared pool state. `threads` is the total executor count: `threads - 1`
/// spawned workers plus the calling thread, which participates in every
/// batch it submits.
pub struct PoolInner {
    threads: usize,
    deques: Vec<Deque>,
    state: Mutex<PoolState>,
    cv: Condvar,
}

impl PoolInner {
    /// Number of executors (workers + participating caller).
    pub fn num_threads(&self) -> usize {
        self.threads
    }

    /// Push a task onto the injector and wake one sleeper.
    pub fn inject(&self, task: TaskPtr) {
        let mut st = self.state.lock().unwrap();
        st.injector.push_back(task);
        drop(st);
        self.cv.notify_one();
    }

    fn inject_many(&self, tasks: impl IntoIterator<Item = TaskPtr>) {
        let mut st = self.state.lock().unwrap();
        st.injector.extend(tasks);
        drop(st);
        self.cv.notify_all();
    }

    /// Grab one task from the injector without blocking.
    fn pop_injector(&self) -> Option<TaskPtr> {
        self.state.lock().unwrap().injector.pop_front()
    }

    /// Pop from this executor's own deque, if it has one.
    fn take_own(&self, own_index: Option<usize>) -> Option<TaskPtr> {
        own_index.and_then(|i| self.deques[i].take())
    }

    /// Try to find any runnable task: own deque (if a worker), then the
    /// injector, then steal from peers.
    pub fn find_task(&self, own_index: Option<usize>) -> Option<TaskPtr> {
        if let Some(t) = self.take_own(own_index) {
            return Some(t);
        }
        self.find_foreign(own_index)
    }

    /// Find a task NOT from our own deque: the injector, then steals.
    fn find_foreign(&self, own_index: Option<usize>) -> Option<TaskPtr> {
        if let Some(t) = self.pop_injector() {
            return Some(t);
        }
        let n = self.deques.len();
        let start = own_index.map(|i| i + 1).unwrap_or(0);
        for k in 0..n {
            let j = (start + k) % n;
            if Some(j) == own_index {
                continue;
            }
            if let Some(t) = self.deques[j].steal() {
                return Some(t);
            }
        }
        None
    }

    /// Worker main loop: run tasks until shutdown.
    fn worker_loop(self: &Arc<Self>, index: usize) {
        WORKER_CTX.with(|ctx| {
            *ctx.borrow_mut() = Some(WorkerCtx {
                pool: Arc::clone(self),
                index,
            });
        });
        loop {
            if let Some(task) = self.find_task(Some(index)) {
                run_task(task);
                continue;
            }
            // Nothing found: sleep until woken. Re-check the injector under
            // the lock so a push between our scan and the wait isn't lost.
            let mut st = self.state.lock().unwrap();
            loop {
                if st.shutdown {
                    return;
                }
                if let Some(task) = st.injector.pop_front() {
                    drop(st);
                    run_task(task);
                    break;
                }
                // Timed wait: steals from peer deques aren't signalled via
                // the condvar, so wake periodically to rescan.
                let (guard, _timeout) = self.cv.wait_timeout(st, Duration::from_millis(1)).unwrap();
                st = guard;
                if st.injector.is_empty() && !st.shutdown {
                    // Scan deques outside the lock.
                    drop(st);
                    if let Some(task) = self.find_task(Some(index)) {
                        run_task(task);
                        break;
                    }
                    st = self.state.lock().unwrap();
                }
            }
        }
    }

    fn shutdown(&self) {
        let mut st = self.state.lock().unwrap();
        st.shutdown = true;
        while let Some(task) = st.injector.pop_front() {
            task.discard();
        }
        drop(st);
        self.cv.notify_all();
    }
}

/// Run a task, swallowing panics. Batch tasks capture their own panics into
/// the batch latch before this sees them; a panic reaching here would be a
/// bug in the shim itself, so abort loudly rather than poisoning a worker.
pub fn run_task(task: TaskPtr) {
    if panic::catch_unwind(AssertUnwindSafe(|| task.run())).is_err() {
        // Every task submitted through execute_batch wraps user code in
        // catch_unwind already, so this is unreachable in practice.
        eprintln!("graft-rayon: internal task panicked; worker continuing");
    }
}

struct WorkerCtx {
    pool: Arc<PoolInner>,
    index: usize,
}

/// Maximum nesting of *adopted* (stolen or injected) tasks run while a
/// thread waits on a latch. Running tasks from one's own deque is always
/// allowed (depth there is bounded by the nesting depth of batches), but
/// adopting an unrelated subtree stacks its whole depth on top of ours;
/// unbounded adoption overflows the stack under deeply nested batches. Capped
/// waiters park instead — progress never depends on adoption, because every
/// task's own subtree is runnable by its owner or by a thief at depth 0.
const HELP_STEAL_CAP: usize = 8;

thread_local! {
    static WORKER_CTX: std::cell::RefCell<Option<WorkerCtx>> =
        const { std::cell::RefCell::new(None) };
    /// Current nesting depth of adopted tasks on this thread's stack.
    static STEAL_DEPTH: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// Stack of pools entered via `ThreadPool::install`, innermost last.
    static INSTALLED: std::cell::RefCell<Vec<Arc<PoolInner>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// Handle owning a pool's worker threads; dropping it shuts the pool down.
pub(crate) struct PoolHandle {
    pub(crate) inner: Arc<PoolInner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl PoolHandle {
    pub(crate) fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let spawned = threads - 1;
        let inner = Arc::new(PoolInner {
            threads,
            deques: (0..spawned).map(|_| Deque::new()).collect(),
            state: Mutex::new(PoolState {
                injector: VecDeque::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
        });
        let workers = (0..spawned)
            .map(|i| {
                let pool = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("graft-rayon-{i}"))
                    // Headroom for deep solver recursion plus adopted tasks.
                    .stack_size(8 << 20)
                    .spawn(move || pool.worker_loop(i))
                    .expect("graft-rayon: failed to spawn worker thread")
            })
            .collect();
        PoolHandle { inner, workers }
    }
}

impl Drop for PoolHandle {
    fn drop(&mut self) {
        self.inner.shutdown();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Global pool + thread-count resolution
// ---------------------------------------------------------------------------

static GLOBAL_POOL: OnceLock<PoolHandle> = OnceLock::new();
static GLOBAL_CONFIG: OnceLock<usize> = OnceLock::new();

/// `GRAFT_THREADS` env override, parsed once. Values < 1 are treated as 1.
fn env_threads() -> Option<usize> {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("GRAFT_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .map(|n| n.max(1))
    })
}

/// Ambient thread count when no explicit pool is in play: `build_global`
/// configuration wins, then `GRAFT_THREADS`, then 1.
///
/// The default of 1 (rather than the machine's parallelism) is deliberate:
/// every recorded matching and stats byte in the repo was produced by the
/// sequential shim, and ambient solves must stay reproducible unless the
/// user opts into concurrency.
pub(crate) fn default_threads() -> usize {
    if let Some(&n) = GLOBAL_CONFIG.get() {
        return n;
    }
    env_threads().unwrap_or(1)
}

/// Record the global pool configuration. Errors if already configured, or
/// if the global pool was already lazily built (mirrors upstream rayon).
pub(crate) fn configure_global(threads: usize) -> Result<(), ()> {
    if GLOBAL_POOL.get().is_some() {
        return Err(());
    }
    let wanted = if threads == 0 {
        env_threads().unwrap_or(1)
    } else {
        threads
    };
    let mut fresh = false;
    GLOBAL_CONFIG.get_or_init(|| {
        fresh = true;
        wanted
    });
    if fresh {
        Ok(())
    } else {
        Err(())
    }
}

/// The global pool, built lazily at the ambient size. Returns `None` when
/// the ambient size is 1 (pure sequential — no pool needed).
fn global_pool() -> Option<&'static Arc<PoolInner>> {
    let n = default_threads();
    if n <= 1 {
        return None;
    }
    Some(&GLOBAL_POOL.get_or_init(|| PoolHandle::new(n)).inner)
}

/// The pool that parallel work on the current thread should target:
/// the worker's own pool, else the innermost `install`ed pool, else the
/// global pool (if the ambient size is > 1).
pub(crate) fn current_pool_for_work() -> Option<Arc<PoolInner>> {
    let worker = WORKER_CTX.with(|ctx| ctx.borrow().as_ref().map(|c| Arc::clone(&c.pool)));
    if let Some(p) = worker {
        return Some(p);
    }
    let installed = INSTALLED.with(|s| s.borrow().last().cloned());
    if let Some(p) = installed {
        if p.num_threads() <= 1 {
            return None;
        }
        return Some(p);
    }
    global_pool().cloned()
}

/// Thread count visible to callers (`rayon::current_num_threads`).
pub(crate) fn current_num_threads() -> usize {
    let worker = WORKER_CTX.with(|ctx| ctx.borrow().as_ref().map(|c| c.pool.num_threads()));
    if let Some(n) = worker {
        return n;
    }
    let installed = INSTALLED.with(|s| s.borrow().last().map(|p| p.num_threads()));
    if let Some(n) = installed {
        return n;
    }
    default_threads()
}

/// RAII guard for `ThreadPool::install` nesting.
pub(crate) struct InstallGuard;

pub(crate) fn push_installed(pool: Arc<PoolInner>) -> InstallGuard {
    INSTALLED.with(|s| s.borrow_mut().push(pool));
    InstallGuard
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        INSTALLED.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

// ---------------------------------------------------------------------------
// Latches + batch execution
// ---------------------------------------------------------------------------

struct LatchState {
    remaining: usize,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

/// Counts outstanding tasks; the waiter helps with pool work until zero.
pub struct Latch {
    state: Mutex<LatchState>,
    cv: Condvar,
}

impl Latch {
    /// A latch expecting `count` completions.
    pub fn new(count: usize) -> Self {
        Latch {
            state: Mutex::new(LatchState {
                remaining: count,
                panic: None,
            }),
            cv: Condvar::new(),
        }
    }

    /// Count one task down, recording the first panic payload seen.
    pub fn complete(&self, panic: Option<Box<dyn std::any::Any + Send>>) {
        let mut st = self.state.lock().unwrap();
        st.remaining -= 1;
        if st.panic.is_none() {
            st.panic = panic;
        }
        if st.remaining == 0 {
            #[cfg(test)]
            tests::AFTER_ZERO.with(|hook| hook.borrow().as_ref().map(|f| f()));
            // Notify before the guard drops. A waiter returns as soon as it
            // locks the state and reads zero, and its caller then frees
            // the latch, so after the unlock `complete` must not touch it.
            self.cv.notify_all();
        }
    }

    /// Test-only: block on the latch without helping with pool work — a
    /// pure condvar wait. The model suites use this to check the latch
    /// handoff protocol itself with no deque traffic in the schedule space.
    #[cfg(graft_check)]
    pub fn wait_parked(&self) -> Option<Box<dyn std::any::Any + Send>> {
        let mut st = self.state.lock().unwrap();
        while st.remaining != 0 {
            st = self.cv.wait(st).unwrap();
        }
        st.panic.take()
    }

    /// Block until all tasks complete, running pool work while waiting.
    /// Returns the first captured panic payload, if any.
    ///
    /// Own-deque tasks run freely (that is how the task we are waiting on
    /// gets executed when nobody stole it); foreign tasks are adopted only
    /// up to [`HELP_STEAL_CAP`] nested levels to bound stack growth.
    pub fn wait_helping(
        &self,
        pool: &Arc<PoolInner>,
        own_index: Option<usize>,
    ) -> Option<Box<dyn std::any::Any + Send>> {
        loop {
            if let Some(task) = pool.take_own(own_index) {
                run_task(task);
                continue;
            }
            {
                let mut st = self.state.lock().unwrap();
                if st.remaining == 0 {
                    return st.panic.take();
                }
            }
            let depth = STEAL_DEPTH.with(|d| d.get());
            if depth < HELP_STEAL_CAP {
                if let Some(task) = pool.find_foreign(own_index) {
                    STEAL_DEPTH.with(|d| d.set(depth + 1));
                    run_task(task);
                    STEAL_DEPTH.with(|d| d.set(depth));
                    continue;
                }
            }
            // Short timed wait: the task we're waiting on may be running on
            // another thread (nothing to help with), or new work may appear
            // in a deque we can't be signalled about.
            let st = self.state.lock().unwrap();
            if st.remaining == 0 {
                let mut st = st;
                return st.panic.take();
            }
            let _ = self
                .cv
                .wait_timeout(st, Duration::from_micros(100))
                .unwrap();
        }
    }
}

fn worker_index_on(pool: &Arc<PoolInner>) -> Option<usize> {
    WORKER_CTX.with(|ctx| {
        ctx.borrow()
            .as_ref()
            .filter(|c| Arc::ptr_eq(&c.pool, pool))
            .map(|c| c.index)
    })
}

/// Erase a closure's lifetime so it can be queued on the pool.
///
/// SAFETY (caller contract): the returned task must be *completed* (run or
/// its latch otherwise counted down) before `'a` ends. All call sites below
/// block on a latch that counts the task, so borrowed captures stay alive.
unsafe fn erase_lifetime<'a>(task: Box<dyn FnOnce() + Send + 'a>) -> TaskObj {
    std::mem::transmute::<Box<dyn FnOnce() + Send + 'a>, TaskObj>(task)
}

/// Run `work` over `pieces` on the pool, returning results in piece order.
/// The calling thread participates. Panics in any piece are re-thrown here
/// after every piece has finished.
pub fn execute_batch<S, T, W>(pool: &Arc<PoolInner>, pieces: Vec<S>, work: &W) -> Vec<T>
where
    S: Send,
    T: Send,
    W: Fn(usize, S) -> T + Sync,
{
    let n = pieces.len();
    if n == 0 {
        return Vec::new();
    }
    let latch = Latch::new(n);
    let (tx, rx) = mpsc::channel::<(usize, T)>();
    let own = worker_index_on(pool);

    {
        let latch = &latch;
        let mut queued: Vec<TaskPtr> = Vec::with_capacity(n);
        for (idx, piece) in pieces.into_iter().enumerate() {
            let tx = tx.clone();
            let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                let res = panic::catch_unwind(AssertUnwindSafe(|| work(idx, piece)));
                match res {
                    Ok(v) => {
                        let _ = tx.send((idx, v));
                        latch.complete(None);
                    }
                    Err(p) => latch.complete(Some(p)),
                }
            });
            // SAFETY: we wait on `latch` below before returning, so the
            // borrows of `work`, `tx`, and `latch` outlive every task.
            let task = TaskPtr::new(unsafe { erase_lifetime(task) });
            if let Some(i) = own {
                match pool.deques[i].push(task) {
                    Ok(()) => pool.cv.notify_one(),
                    Err(t) => pool.inject(t),
                }
            } else {
                queued.push(task);
            }
        }
        if !queued.is_empty() {
            pool.inject_many(queued);
        }
        drop(tx);
        let panic_payload = latch.wait_helping(pool, own);
        if let Some(p) = panic_payload {
            panic::resume_unwind(p);
        }
    }

    // Every send happens-before its task's `latch.complete`, and the latch
    // hit zero before `wait_helping` returned, so all results are already
    // in the channel: drain without blocking. (A blocking `iter()` would
    // wait for the last task's `tx` clone to *drop* — an uninstrumented
    // instant after its completion that a model-checked schedule may not
    // have reached yet.)
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for (idx, v) in rx.try_iter() {
        slots[idx] = Some(v);
    }
    slots
        .into_iter()
        .map(|s| s.expect("graft-rayon: batch piece missing result"))
        .collect()
}

// ---------------------------------------------------------------------------
// Execution planning for parallel iterators
// ---------------------------------------------------------------------------

/// Minimum items per piece before splitting is worthwhile.
const GRAIN: usize = 32;
/// Oversubscription factor: pieces per executor, for steal-based balancing.
const PIECES_PER_THREAD: usize = 4;

/// How a parallel-iterator consumption should execute.
pub(crate) enum Plan {
    /// Run the exact sequential code path on the calling thread.
    Seq,
    /// Split into `pieces` chunks and run them on the pool.
    Par(Arc<PoolInner>, usize),
}

/// Decide Seq vs Par for an operation over `len` items.
pub(crate) fn plan(len: usize) -> Plan {
    if len < 2 {
        return Plan::Seq;
    }
    let pool = match current_pool_for_work() {
        Some(p) if p.num_threads() > 1 => p,
        _ => return Plan::Seq,
    };
    let threads = pool.num_threads();
    let pieces = len.div_ceil(GRAIN).min(threads * PIECES_PER_THREAD).max(1);
    if pieces <= 1 {
        return Plan::Seq;
    }
    Plan::Par(pool, pieces)
}

/// Test-only surface for the graft-check model suites.
///
/// `pool` is a private module, so none of this is reachable from normal
/// downstream builds; under `--cfg graft_check` the crate root re-exports
/// it (`#[doc(hidden)]`) so the model tests in `tests/` can drive the
/// executor internals — deques, latches, task pointers, and a worker-less
/// pool — from checker-controlled model threads.
#[cfg(graft_check)]
pub mod check_api {
    use super::*;
    pub use super::{execute_batch, run_task, Deque, Latch, PoolInner, TaskPtr, DEQUE_CAP};

    /// A pool with `threads` executor slots (one deque each) but NO OS
    /// worker threads. Model tests spawn instrumented model threads and
    /// drive [`PoolInner::find_task`] / [`run_task`] themselves, so the
    /// checker controls every interleaving instead of racing real workers
    /// it cannot schedule.
    pub fn bare_pool(threads: usize) -> Arc<PoolInner> {
        Arc::new(PoolInner {
            threads,
            deques: (0..threads).map(|_| Deque::new()).collect(),
            state: Mutex::new(PoolState {
                injector: VecDeque::new(),
                shutdown: false,
            }),
            cv: Condvar::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicBool, AtomicUsize};

    thread_local! {
        /// Runs inside `Latch::complete` on this thread, between the count
        /// reaching zero and the notify.
        pub(super) static AFTER_ZERO: RefCell<Option<Box<dyn Fn()>>> = const { RefCell::new(None) };
    }

    #[test]
    fn latch_waiter_cannot_return_while_complete_still_uses_the_latch() {
        // A waiter frees the latch as soon as it returns, so it must stay
        // blocked until `complete` is done with the latch. Pause the last
        // `complete` after the count reaches zero and check that the
        // waiter does not return during the pause.
        let pool = PoolHandle::new(1);
        let latch = Latch::new(1);
        let returned_in_pause = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::channel::<()>();
        std::thread::scope(|s| {
            let flag = Arc::clone(&returned_in_pause);
            let latch = &latch;
            s.spawn(move || {
                let pause = move || {
                    let returned = rx.recv_timeout(Duration::from_millis(300)).is_ok();
                    flag.store(returned, Ordering::SeqCst);
                };
                AFTER_ZERO.with(|hook| *hook.borrow_mut() = Some(Box::new(pause)));
                latch.complete(None);
            });
            assert!(latch.wait_helping(&pool.inner, None).is_none());
            let _ = tx.send(());
        });
        assert!(
            !returned_in_pause.load(Ordering::SeqCst),
            "the waiter returned while `complete` could still notify the latch"
        );
    }

    #[test]
    fn batch_runs_all_pieces_in_order() {
        let pool = PoolHandle::new(4);
        let pieces: Vec<usize> = (0..100).collect();
        let out = execute_batch(&pool.inner, pieces, &|_idx, v: usize| v * 2);
        assert_eq!(out, (0..100).map(|v| v * 2).collect::<Vec<_>>());
    }

    #[test]
    fn batch_panic_propagates_after_completion() {
        let pool = PoolHandle::new(4);
        let completed = AtomicUsize::new(0);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            execute_batch(&pool.inner, (0..16).collect::<Vec<usize>>(), &|_i, v| {
                if v == 7 {
                    panic!("boom {v}");
                }
                completed.fetch_add(1, Ordering::Relaxed);
                v
            })
        }));
        assert!(result.is_err());
        assert_eq!(completed.load(Ordering::Relaxed), 15);
    }

    #[test]
    fn nested_par_iter_helps_inside_pool_tasks() {
        // Each outer piece runs an inner parallel sum on the same pool, so
        // outer tasks block in `wait_helping` on inner batches while other
        // workers hold outer pieces: the nested-helping path.
        use crate::prelude::*;
        let pool = PoolHandle::new(4);
        let _guard = push_installed(Arc::clone(&pool.inner));
        let total: u64 = (0..64u64)
            .into_par_iter()
            .map(|i| (0..256u64).into_par_iter().map(|j| i * j).sum::<u64>())
            .sum();
        assert_eq!(total, (0..64u64).sum::<u64>() * (0..256u64).sum::<u64>());
    }

    #[test]
    fn deque_push_past_capacity_refused() {
        let d = Deque::new();
        for _ in 0..DEQUE_CAP {
            d.push(TaskPtr::new(Box::new(|| {}))).ok().unwrap();
        }
        // Slot DEQUE_CAP would alias slot 0 under the mask; push must
        // refuse and hand the task back instead of overwriting it.
        let overflow = TaskPtr::new(Box::new(|| {}));
        let raw = overflow.raw();
        match d.push(overflow) {
            Ok(()) => panic!("push past capacity must be refused"),
            Err(t) => {
                assert_eq!(t.raw(), raw, "refused task handed back intact");
                t.discard();
            }
        }
        // Draining one slot makes room again.
        d.take().unwrap().discard();
        d.push(TaskPtr::new(Box::new(|| {}))).ok().unwrap();
        while let Some(t) = d.steal() {
            t.discard();
        }
    }

    #[test]
    fn deque_final_element_take_vs_steal_boundary() {
        // Owner side: taking the last element goes through the t == b CAS
        // race window; sequentially the owner must always win it.
        let d = Deque::new();
        let t = TaskPtr::new(Box::new(|| {}));
        let raw = t.raw();
        d.push(t).ok().unwrap();
        let got = d.take().expect("owner wins the final-element CAS");
        assert_eq!(got.raw(), raw);
        got.discard();
        assert!(d.take().is_none());
        assert!(d.steal().is_none());

        // Thief side: stealing the only element empties the deque for the
        // owner too.
        let t = TaskPtr::new(Box::new(|| {}));
        let raw = t.raw();
        d.push(t).ok().unwrap();
        let got = d.steal().expect("thief claims the only element");
        assert_eq!(got.raw(), raw);
        got.discard();
        assert!(d.take().is_none());
        assert!(d.steal().is_none());
    }

    #[test]
    fn deque_wraparound_preserves_fifo_steal_order() {
        // Indices straddle the mask boundary: pushes land in slots
        // DEQUE_CAP-2, DEQUE_CAP-1, 0, 1 while logical order is FIFO for
        // thieves and LIFO for the owner.
        let d = Deque::new_at(DEQUE_CAP as i64 - 2);
        let mut raws = Vec::new();
        for _ in 0..4 {
            let t = TaskPtr::new(Box::new(|| {}));
            raws.push(t.raw());
            d.push(t).ok().unwrap();
        }
        for &expect in &raws[..2] {
            let got = d.steal().unwrap();
            assert_eq!(got.raw(), expect, "steals come oldest-first");
            got.discard();
        }
        for &expect in raws[2..].iter().rev() {
            let got = d.take().unwrap();
            assert_eq!(got.raw(), expect, "takes come newest-first");
            got.discard();
        }
        assert!(d.take().is_none());
    }

    #[test]
    fn deque_push_take_steal_roundtrip() {
        let d = Deque::new();
        let ran = Arc::new(AtomicUsize::new(0));
        for _ in 0..10 {
            let ran = Arc::clone(&ran);
            let t = TaskPtr::new(Box::new(move || {
                ran.fetch_add(1, Ordering::Relaxed);
            }));
            d.push(t).ok().unwrap();
        }
        // Owner takes half, thief steals half.
        for _ in 0..5 {
            d.take().unwrap().run();
        }
        for _ in 0..5 {
            d.steal().unwrap().run();
        }
        assert!(d.take().is_none());
        assert!(d.steal().is_none());
        assert_eq!(ran.load(Ordering::Relaxed), 10);
    }
}
