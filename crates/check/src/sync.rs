//! Drop-in instrumented replacements for `std::sync` types.
//!
//! Each type wraps its `std` counterpart (the *mirror*). On a thread that
//! belongs to a model-checked execution, every operation is routed through
//! the execution's memory model and scheduler; the mirror is kept in sync
//! with the latest value in modification order so first-touch
//! initialization and non-instrumented observers stay coherent. On any
//! other thread the operation is a plain passthrough to `std` — so a
//! build compiled with `--cfg graft_check` behaves normally outside
//! [`crate::Checker`] runs.
//!
//! Layout mirrors `std::sync`: atomics live in [`atomic`], `Mutex` /
//! `Condvar` / `MutexGuard` / `WaitTimeoutResult` at the module root.

use crate::rt;
use std::sync::{
    Condvar as StdCondvar, LockResult, Mutex as StdMutex, MutexGuard as StdMutexGuard, PoisonError,
};
use std::time::Duration;

/// Instrumented atomic types and fences.
pub mod atomic {
    use super::rt;
    pub use std::sync::atomic::Ordering;

    /// An atomic memory fence, modeled when on a model thread.
    pub fn fence(order: Ordering) {
        match rt::ctx() {
            Some((e, me)) => rt::ok_or_unwind(e.fence(me, order)),
            None => std::sync::atomic::fence(order),
        }
    }

    macro_rules! instrumented_atomic_int {
        ($(#[$doc:meta])* $name:ident, $std:ty, $prim:ty, $uns:ty) => {
            $(#[$doc])*
            #[derive(Debug, Default)]
            pub struct $name {
                inner: $std,
            }

            impl $name {
                /// Creates the atomic with an initial value.
                pub const fn new(v: $prim) -> Self {
                    Self { inner: <$std>::new(v) }
                }

                /// Consumes the atomic and returns its value. Owning it
                /// means no other thread can access it, so this is not a
                /// scheduling point; the mirror holds the latest value.
                pub fn into_inner(self) -> $prim {
                    self.inner.into_inner()
                }

                fn addr(&self) -> usize {
                    &self.inner as *const $std as usize
                }

                fn bits(v: $prim) -> u64 {
                    v as $uns as u64
                }

                fn unbits(b: u64) -> $prim {
                    b as $uns as $prim
                }

                fn mirror(&self) -> u64 {
                    Self::bits(self.inner.load(Ordering::Relaxed))
                }

                /// Atomic load.
                pub fn load(&self, order: Ordering) -> $prim {
                    match rt::ctx() {
                        Some((e, me)) => Self::unbits(rt::ok_or_unwind(
                            e.atomic_load(me, self.addr(), self.mirror(), order),
                        )),
                        None => self.inner.load(order),
                    }
                }

                /// Atomic store.
                pub fn store(&self, v: $prim, order: Ordering) {
                    match rt::ctx() {
                        Some((e, me)) => {
                            rt::ok_or_unwind(e.atomic_store(
                                me,
                                self.addr(),
                                self.mirror(),
                                Self::bits(v),
                                order,
                            ));
                            self.inner.store(v, Ordering::Relaxed);
                        }
                        None => self.inner.store(v, order),
                    }
                }

                /// Atomic swap; returns the previous value.
                pub fn swap(&self, v: $prim, order: Ordering) -> $prim {
                    self.rmw(order, |_| v)
                }

                /// Atomic add; returns the previous value.
                pub fn fetch_add(&self, v: $prim, order: Ordering) -> $prim {
                    self.rmw(order, |old| old.wrapping_add(v))
                }

                /// Atomic subtract; returns the previous value.
                pub fn fetch_sub(&self, v: $prim, order: Ordering) -> $prim {
                    self.rmw(order, |old| old.wrapping_sub(v))
                }

                /// Atomic bitwise or; returns the previous value.
                pub fn fetch_or(&self, v: $prim, order: Ordering) -> $prim {
                    self.rmw(order, |old| old | v)
                }

                /// Atomic bitwise and; returns the previous value.
                pub fn fetch_and(&self, v: $prim, order: Ordering) -> $prim {
                    self.rmw(order, |old| old & v)
                }

                /// Atomic max; returns the previous value.
                pub fn fetch_max(&self, v: $prim, order: Ordering) -> $prim {
                    self.rmw(order, |old| old.max(v))
                }

                /// Atomic min; returns the previous value.
                pub fn fetch_min(&self, v: $prim, order: Ordering) -> $prim {
                    self.rmw(order, |old| old.min(v))
                }

                fn rmw(&self, order: Ordering, f: impl Fn($prim) -> $prim) -> $prim {
                    match rt::ctx() {
                        Some((e, me)) => {
                            let old = Self::unbits(rt::ok_or_unwind(e.atomic_rmw(
                                me,
                                self.addr(),
                                self.mirror(),
                                order,
                                |b| Self::bits(f(Self::unbits(b))),
                            )));
                            self.inner.store(f(old), Ordering::Relaxed);
                            old
                        }
                        None => {
                            // Passthrough RMW via a CAS loop so one closure
                            // serves every fetch_* flavor.
                            let mut cur = self.inner.load(Ordering::Relaxed);
                            loop {
                                match self.inner.compare_exchange_weak(
                                    cur,
                                    f(cur),
                                    order,
                                    Ordering::Relaxed,
                                ) {
                                    Ok(old) => return old,
                                    Err(now) => cur = now,
                                }
                            }
                        }
                    }
                }

                /// Atomic compare-exchange.
                pub fn compare_exchange(
                    &self,
                    current: $prim,
                    new: $prim,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$prim, $prim> {
                    match rt::ctx() {
                        Some((e, me)) => {
                            let r = rt::ok_or_unwind(e.atomic_cas(
                                me,
                                self.addr(),
                                self.mirror(),
                                Self::bits(current),
                                Self::bits(new),
                                success,
                                failure,
                            ));
                            match r {
                                Ok(old) => {
                                    self.inner.store(new, Ordering::Relaxed);
                                    Ok(Self::unbits(old))
                                }
                                Err(old) => Err(Self::unbits(old)),
                            }
                        }
                        None => self.inner.compare_exchange(current, new, success, failure),
                    }
                }

                /// Atomic compare-exchange, allowed to fail spuriously.
                /// The model never fails spuriously (strictly fewer
                /// behaviors than hardware; see DESIGN.md §18).
                pub fn compare_exchange_weak(
                    &self,
                    current: $prim,
                    new: $prim,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$prim, $prim> {
                    match rt::ctx() {
                        Some(_) => self.compare_exchange(current, new, success, failure),
                        None => self
                            .inner
                            .compare_exchange_weak(current, new, success, failure),
                    }
                }
            }
        };
    }

    instrumented_atomic_int!(
        /// Instrumented `AtomicU32`.
        AtomicU32, std::sync::atomic::AtomicU32, u32, u32
    );
    instrumented_atomic_int!(
        /// Instrumented `AtomicU64`.
        AtomicU64, std::sync::atomic::AtomicU64, u64, u64
    );
    instrumented_atomic_int!(
        /// Instrumented `AtomicI64`.
        AtomicI64, std::sync::atomic::AtomicI64, i64, u64
    );
    instrumented_atomic_int!(
        /// Instrumented `AtomicUsize`.
        AtomicUsize, std::sync::atomic::AtomicUsize, usize, u64
    );

    /// Instrumented `AtomicBool`.
    #[derive(Debug, Default)]
    pub struct AtomicBool {
        inner: AtomicU32,
    }

    impl AtomicBool {
        /// Creates the atomic with an initial value.
        pub const fn new(v: bool) -> Self {
            AtomicBool {
                inner: AtomicU32::new(v as u32),
            }
        }

        /// Atomic load.
        pub fn load(&self, order: Ordering) -> bool {
            self.inner.load(order) != 0
        }

        /// Atomic store.
        pub fn store(&self, v: bool, order: Ordering) {
            self.inner.store(v as u32, order)
        }

        /// Atomic swap; returns the previous value.
        pub fn swap(&self, v: bool, order: Ordering) -> bool {
            self.inner.swap(v as u32, order) != 0
        }

        /// Atomic compare-exchange.
        pub fn compare_exchange(
            &self,
            current: bool,
            new: bool,
            success: Ordering,
            failure: Ordering,
        ) -> Result<bool, bool> {
            self.inner
                .compare_exchange(current as u32, new as u32, success, failure)
                .map(|v| v != 0)
                .map_err(|v| v != 0)
        }
    }

    /// Instrumented `AtomicPtr<T>`.
    #[derive(Debug)]
    pub struct AtomicPtr<T> {
        inner: std::sync::atomic::AtomicPtr<T>,
    }

    impl<T> AtomicPtr<T> {
        /// Creates the atomic with an initial pointer.
        pub const fn new(p: *mut T) -> Self {
            AtomicPtr {
                inner: std::sync::atomic::AtomicPtr::new(p),
            }
        }

        fn addr(&self) -> usize {
            &self.inner as *const std::sync::atomic::AtomicPtr<T> as usize
        }

        fn mirror(&self) -> u64 {
            self.inner.load(Ordering::Relaxed) as usize as u64
        }

        /// Atomic load.
        pub fn load(&self, order: Ordering) -> *mut T {
            match rt::ctx() {
                Some((e, me)) => {
                    rt::ok_or_unwind(e.atomic_load(me, self.addr(), self.mirror(), order)) as usize
                        as *mut T
                }
                None => self.inner.load(order),
            }
        }

        /// Atomic store.
        pub fn store(&self, p: *mut T, order: Ordering) {
            match rt::ctx() {
                Some((e, me)) => {
                    rt::ok_or_unwind(e.atomic_store(
                        me,
                        self.addr(),
                        self.mirror(),
                        p as usize as u64,
                        order,
                    ));
                    self.inner.store(p, Ordering::Relaxed);
                }
                None => self.inner.store(p, order),
            }
        }

        /// Atomic swap; returns the previous pointer.
        pub fn swap(&self, p: *mut T, order: Ordering) -> *mut T {
            match rt::ctx() {
                Some((e, me)) => {
                    let old = rt::ok_or_unwind(e.atomic_rmw(
                        me,
                        self.addr(),
                        self.mirror(),
                        order,
                        |_| p as usize as u64,
                    )) as usize as *mut T;
                    self.inner.store(p, Ordering::Relaxed);
                    old
                }
                None => self.inner.swap(p, order),
            }
        }

        /// Atomic compare-exchange.
        pub fn compare_exchange(
            &self,
            current: *mut T,
            new: *mut T,
            success: Ordering,
            failure: Ordering,
        ) -> Result<*mut T, *mut T> {
            match rt::ctx() {
                Some((e, me)) => {
                    let r = rt::ok_or_unwind(e.atomic_cas(
                        me,
                        self.addr(),
                        self.mirror(),
                        current as usize as u64,
                        new as usize as u64,
                        success,
                        failure,
                    ));
                    match r {
                        Ok(old) => {
                            self.inner.store(new, Ordering::Relaxed);
                            Ok(old as usize as *mut T)
                        }
                        Err(old) => Err(old as usize as *mut T),
                    }
                }
                None => self.inner.compare_exchange(current, new, success, failure),
            }
        }

        /// Atomic compare-exchange, allowed to fail spuriously (the model
        /// never does).
        pub fn compare_exchange_weak(
            &self,
            current: *mut T,
            new: *mut T,
            success: Ordering,
            failure: Ordering,
        ) -> Result<*mut T, *mut T> {
            match rt::ctx() {
                Some(_) => self.compare_exchange(current, new, success, failure),
                None => self
                    .inner
                    .compare_exchange_weak(current, new, success, failure),
            }
        }
    }
}

/// Whether a [`Condvar::wait_timeout`] returned because of a timeout.
///
/// Own type because `std`'s has no public constructor. In the model, a
/// timeout fires only when no other thread is runnable (see DESIGN.md
/// §18), which preserves every wakeup-race behavior without livelocking
/// the explorer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// True when the wait ended by timeout rather than notification.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// Instrumented `Mutex<T>`: scheduler-visible lock state in the model,
/// plain `std::sync::Mutex` otherwise.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized> {
    inner: StdMutex<T>,
}

/// Guard for [`Mutex`]; releases the model lock (a scheduling point) on
/// drop.
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
    std: Option<StdMutexGuard<'a, T>>,
    /// True when this guard holds the *model* lock and must release it.
    model: bool,
}

impl<T> Mutex<T> {
    /// Creates the mutex.
    pub const fn new(t: T) -> Self {
        Mutex {
            inner: StdMutex::new(t),
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> LockResult<T> {
        self.inner.into_inner()
    }
}

impl<T: ?Sized> Mutex<T> {
    fn addr(&self) -> usize {
        &self.inner as *const StdMutex<T> as *const () as usize
    }

    /// Acquires the lock (a model scheduling point on model threads).
    pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
        match rt::ctx() {
            Some((e, me)) => {
                rt::ok_or_unwind(e.mutex_lock(me, self.addr()));
                // The model grants exclusivity, so the std lock is
                // uncontended here.
                let g = self.inner.lock().unwrap_or_else(|p| p.into_inner());
                Ok(MutexGuard {
                    lock: self,
                    std: Some(g),
                    model: true,
                })
            }
            None => match self.inner.lock() {
                Ok(g) => Ok(MutexGuard {
                    lock: self,
                    std: Some(g),
                    model: false,
                }),
                Err(p) => Err(PoisonError::new(MutexGuard {
                    lock: self,
                    std: Some(p.into_inner()),
                    model: false,
                })),
            },
        }
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.std.as_ref().expect("guard used after release")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.std.as_mut().expect("guard used after release")
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        // Release the real lock before the model unlock hands the token
        // to another thread that may immediately std-lock it.
        drop(self.std.take());
        if self.model {
            if let Some((e, me)) = rt::ctx() {
                // Ignore aborts: this can run while unwinding, and a
                // panic here would abort the process.
                let _ = e.mutex_unlock(me, self.lock.addr());
            }
        }
    }
}

/// Instrumented `Condvar` with modeled notify choice and idle-only
/// timeouts.
#[derive(Debug, Default)]
pub struct Condvar {
    inner: StdCondvar,
}

impl Condvar {
    /// Creates the condition variable.
    pub const fn new() -> Self {
        Condvar {
            inner: StdCondvar::new(),
        }
    }

    fn addr(&self) -> usize {
        &self.inner as *const StdCondvar as usize
    }

    /// Blocks until notified, releasing the mutex while waiting.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
        match self.wait_impl(guard, None) {
            Ok((g, _)) => Ok(g),
            Err(p) => Err(PoisonError::new(p.into_inner().0)),
        }
    }

    /// Blocks until notified or (model: only when the system is otherwise
    /// idle) the timeout elapses.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        dur: Duration,
    ) -> LockResult<(MutexGuard<'a, T>, WaitTimeoutResult)> {
        self.wait_impl(guard, Some(dur))
    }

    fn wait_impl<'a, T>(
        &self,
        mut guard: MutexGuard<'a, T>,
        dur: Option<Duration>,
    ) -> LockResult<(MutexGuard<'a, T>, WaitTimeoutResult)> {
        if guard.model {
            let (e, me) = rt::ctx().expect("model guard on non-model thread");
            let mutex_addr = guard.lock.addr();
            drop(guard.std.take());
            // Disarm the guard: if the wait unwinds (abort), its Drop
            // must not model-unlock a lock we no longer hold.
            guard.model = false;
            let timed_out =
                rt::ok_or_unwind(e.condvar_wait(me, self.addr(), mutex_addr, dur.is_some()));
            guard.std = Some(guard.lock.inner.lock().unwrap_or_else(|p| p.into_inner()));
            guard.model = true;
            Ok((guard, WaitTimeoutResult(timed_out)))
        } else {
            let std = guard.std.take().expect("guard used after release");
            match dur {
                Some(d) => match self.inner.wait_timeout(std, d) {
                    Ok((g, r)) => {
                        guard.std = Some(g);
                        Ok((guard, WaitTimeoutResult(r.timed_out())))
                    }
                    Err(p) => {
                        let (g, r) = p.into_inner();
                        guard.std = Some(g);
                        Err(PoisonError::new((guard, WaitTimeoutResult(r.timed_out()))))
                    }
                },
                None => match self.inner.wait(std) {
                    Ok(g) => {
                        guard.std = Some(g);
                        Ok((guard, WaitTimeoutResult(false)))
                    }
                    Err(p) => {
                        guard.std = Some(p.into_inner());
                        Err(PoisonError::new((guard, WaitTimeoutResult(false))))
                    }
                },
            }
        }
    }

    /// Wakes one waiter; in the model, *which* waiter is a decision point.
    pub fn notify_one(&self) {
        match rt::ctx() {
            Some((e, me)) => rt::ok_or_unwind(e.condvar_notify(me, self.addr(), false)),
            None => self.inner.notify_one(),
        }
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) {
        match rt::ctx() {
            Some((e, me)) => rt::ok_or_unwind(e.condvar_notify(me, self.addr(), true)),
            None => self.inner.notify_all(),
        }
    }
}
