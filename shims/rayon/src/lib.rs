//! Offline stand-in for [rayon](https://crates.io/crates/rayon) with a real
//! work-stealing executor.
//!
//! The build environment for this workspace has no access to crates.io, so
//! this crate provides the subset of rayon's API the workspace uses. Unlike
//! the original sequential shim, execution is now genuinely parallel: a
//! hand-rolled pool of `std::thread` workers with chase-lev work-stealing
//! deques (see [`mod@iter`] for the iterator surface and `pool.rs` for the
//! executor). Semantics still match rayon: `fold` produces task-local
//! accumulators merged by `reduce`, `collect`/`zip`/`enumerate` preserve
//! order via indexed chunks, panics in tasks propagate to the caller, and
//! atomics written inside `for_each` are visible afterwards (the batch
//! latch is a full happens-before barrier).
//!
//! # Thread-count resolution
//!
//! The effective thread count is resolved in this order:
//!
//! 1. an explicit [`ThreadPoolBuilder::num_threads`] on a pool you `install`
//!    into (always wins — lets tests pin `threads=1` deterministically);
//! 2. a prior [`ThreadPoolBuilder::build_global`] configuration;
//! 3. the `GRAFT_THREADS` environment variable (parsed once, min 1);
//! 4. **1** — the ambient default stays sequential so recorded matchings
//!    and stats remain byte-identical unless concurrency is requested.
//!
//! With an effective count of 1 every combinator runs the exact sequential
//! code path on the calling thread — bit-identical to the old shim.
//!
//! Concurrency in the service layer (`graft-svc`) does not route through
//! this shim — it uses `std::thread` directly.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod iter;
mod pool;
pub mod prelude;

// Executor internals for the graft-check model suites (and this crate's
// unit tests). Invisible in normal downstream builds.
#[cfg(graft_check)]
#[doc(hidden)]
pub use pool::check_api;

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

/// Error returned by [`ThreadPoolBuilder::build_global`] when the global
/// pool was already initialized (mirrors upstream rayon's behavior).
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "the global thread pool has already been initialized")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

impl ThreadPoolBuilder {
    /// Creates a new builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of threads. `0` (the default) means "use the
    /// ambient default" (`build_global` config, then `GRAFT_THREADS`,
    /// then 1).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Builds a pool with its own worker threads. A 1-thread pool spawns
    /// no workers and executes sequentially on the calling thread.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let n = if self.num_threads == 0 {
            pool::default_threads()
        } else {
            self.num_threads
        };
        Ok(ThreadPool {
            handle: pool::PoolHandle::new(n),
        })
    }

    /// Configures the lazily-built global pool. Like upstream rayon, this
    /// errors if the global pool has already been configured or built.
    pub fn build_global(self) -> Result<(), ThreadPoolBuildError> {
        pool::configure_global(self.num_threads).map_err(|()| ThreadPoolBuildError(()))
    }
}

/// A pool of worker threads (mirrors `rayon::ThreadPool`). Dropping the
/// pool shuts down and joins its workers.
pub struct ThreadPool {
    handle: pool::PoolHandle,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("num_threads", &self.current_num_threads())
            .finish()
    }
}

impl ThreadPool {
    /// Runs `op` with this pool as the target for parallel work. `op`
    /// itself executes on the calling thread, which also participates in
    /// executing any parallel batches it submits.
    pub fn install<R>(&self, op: impl FnOnce() -> R) -> R {
        let _guard = pool::push_installed(std::sync::Arc::clone(&self.handle.inner));
        op()
    }

    /// The thread count this pool was built with (workers + caller).
    pub fn current_num_threads(&self) -> usize {
        self.handle.inner.num_threads()
    }
}

/// Number of threads parallel work issued from the current thread would
/// use: the enclosing pool's size on a worker or under
/// [`ThreadPool::install`], otherwise the ambient default (`build_global`
/// config, then `GRAFT_THREADS`, then 1).
pub fn current_num_threads() -> usize {
    pool::current_num_threads()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_thread_pool_reports_one_and_spawns_nothing() {
        let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        assert_eq!(pool.current_num_threads(), 1);
        assert_eq!(pool.install(crate::current_num_threads), 1);
    }

    #[test]
    fn install_scopes_current_num_threads() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        assert_eq!(pool.install(crate::current_num_threads), 3);
    }

    #[test]
    fn build_global_twice_errors() {
        // Both calls happen in this one test so ordering is deterministic
        // regardless of test interleaving.
        let first = ThreadPoolBuilder::new().num_threads(2).build_global();
        let second = ThreadPoolBuilder::new().num_threads(3).build_global();
        // Another test binary may not have configured it; within this
        // process the first call here either succeeds or something else
        // configured it already — the second call must always fail.
        assert!(second.is_err());
        if first.is_ok() {
            assert_eq!(current_num_threads(), 2);
        }
    }
}
