//! Time as a capability: `Clock` is the only way the service observes or
//! spends time, so tests can swap wall time for a virtual timeline.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// The time capability handed to every component of the service stack.
///
/// `Instant` stays the universal timestamp type — a virtual clock picks a
/// real base instant at creation and reports `base + virtual_elapsed`, so
/// deadline arithmetic (a job's `Option<Instant>` deadline, drain
/// budgets, retry timeouts) is unchanged between backends.
pub trait Clock: Send + Sync {
    /// The current (possibly virtual) time.
    fn now(&self) -> Instant;

    /// Blocks the calling thread for `d` of *this clock's* time. Under
    /// [`WallClock`] this is `thread::sleep`; under [`SimClock`] it
    /// registers a timer and returns as soon as virtual time reaches it,
    /// usually within microseconds of wall time.
    fn sleep(&self, d: Duration);

    /// Bounds one *real* condvar-wait slice for a caller that polls a
    /// condition with `remaining` of this clock's time left on its
    /// deadline. A wall clock waits the full remainder (wakeups come
    /// from notifications); a virtual clock returns a short real slice
    /// so the caller re-reads `now()` — which other threads advance —
    /// without blocking the timeline on a real-time wait.
    fn wait_slice(&self, remaining: Duration) -> Duration {
        remaining
    }
}

/// Production clock: real time, real sleeps.
#[derive(Debug, Default, Clone, Copy)]
pub struct WallClock;

impl Clock for WallClock {
    fn now(&self) -> Instant {
        Instant::now()
    }

    fn sleep(&self, d: Duration) {
        std::thread::sleep(d)
    }
}

/// How long a virtual-clock caller may block on a real condvar before
/// re-checking the virtual timeline. Purely a liveness bound — wakeups
/// are normally delivered by `notify_all` — so it only has to be short
/// enough that a missed edge cannot stall a test noticeably.
const SIM_WAIT_SLICE: Duration = Duration::from_millis(5);

struct SimState {
    /// Virtual time elapsed since `base`.
    elapsed: Duration,
    /// Pending wake-ups: `(wake_offset, timer_id)` min-heap. Entries are
    /// removed by whichever sleeper advances time past them; ids break
    /// ties in registration order so equal deadlines stay deterministic.
    timers: BinaryHeap<Reverse<(Duration, u64)>>,
    next_id: u64,
}

/// A deterministic virtual clock.
///
/// Sleeping registers a timer in a priority queue; the earliest pending
/// sleeper *advances virtual time to its own wake-up* and returns
/// immediately, and everyone else blocks on a condvar until an advance
/// carries the timeline past their wake-up. There is no wall-clock
/// dependence: a 30-second drain test finishes in microseconds.
///
/// Because the program under test runs real OS threads (not a
/// cooperative scheduler), the clock cannot know whether a thread that
/// has not called `sleep` *yet* is about to — so the earliest sleeper
/// advances without waiting for stragglers. Two consequences, both
/// deliberate: sleeps that race on the clock's lock serialize (their
/// durations accumulate rather than overlap), and determinism of
/// *timestamps* is guaranteed only when callers keep at most one thread
/// sleeping at a time — which is exactly how the scenario runner drives
/// the service (one sequential client; one worker). Event *content*
/// stays deterministic regardless.
///
/// `advance()` lets a non-sleeping driver (a scenario runner, a paced
/// load generator) push the timeline forward explicitly; it releases
/// every parked sleeper whose deadline the jump crosses.
pub struct SimClock {
    base: Instant,
    state: Mutex<SimState>,
    cv: Condvar,
}

impl Default for SimClock {
    fn default() -> Self {
        Self::new()
    }
}

impl SimClock {
    /// A virtual clock starting "now" (the base instant is only an
    /// anchor so `now()` can return real `Instant` values).
    pub fn new() -> Self {
        SimClock {
            base: Instant::now(),
            state: Mutex::new(SimState {
                elapsed: Duration::ZERO,
                timers: BinaryHeap::new(),
                next_id: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Virtual time elapsed since the clock was created.
    pub fn elapsed(&self) -> Duration {
        lock_ok(&self.state).elapsed
    }

    /// Advances virtual time by `d` from the outside (no timer needed),
    /// waking every sleeper whose deadline the jump crosses.
    pub fn advance(&self, d: Duration) {
        let mut st = lock_ok(&self.state);
        st.elapsed += d;
        while matches!(st.timers.peek(), Some(&Reverse((w, _))) if w <= st.elapsed) {
            st.timers.pop();
        }
        self.cv.notify_all();
    }

    /// Pins the timeline: registers a timer at `now + d` *without*
    /// sleeping on it, so every sleeper with a later deadline parks
    /// (it is not the earliest, so it cannot self-advance) until the
    /// returned [`TimeHold`] is dropped. Sleeps shorter than `d` still
    /// self-advance underneath the hold.
    ///
    /// This is how a scenario keeps a job genuinely *in flight*: without
    /// a hold, a worker's virtual sleep completes within microseconds of
    /// wall time, and "shut down while a job is running" becomes a
    /// thread race instead of a scripted state.
    pub fn hold(self: &Arc<Self>, d: Duration) -> TimeHold {
        let mut st = lock_ok(&self.state);
        let wake = st.elapsed + d;
        let id = st.next_id;
        st.next_id += 1;
        st.timers.push(Reverse((wake, id)));
        TimeHold {
            clock: Arc::clone(self),
            wake,
            id,
        }
    }

    /// Timers currently registered (parked sleepers plus live holds).
    /// Scenario runners rendezvous on this instead of sleeping: "wait
    /// until the worker is parked in its virtual sleep".
    pub fn pending_timers(&self) -> usize {
        lock_ok(&self.state).timers.len()
    }
}

/// A pin on a [`SimClock`]'s timeline (see [`SimClock::hold`]).
/// Dropping it removes the pin and wakes parked sleepers so the
/// earliest can resume self-advancing.
pub struct TimeHold {
    clock: Arc<SimClock>,
    wake: Duration,
    id: u64,
}

impl Drop for TimeHold {
    fn drop(&mut self) {
        let mut st = lock_ok(&self.clock.state);
        // An `advance` past our deadline may already have popped us;
        // filtering is idempotent either way.
        let timers = std::mem::take(&mut st.timers);
        st.timers = timers
            .into_iter()
            .filter(|&Reverse((w, i))| !(w == self.wake && i == self.id))
            .collect();
        self.clock.cv.notify_all();
    }
}

/// Poisoning tolerance: a panicking sleeper (fault injection panics
/// inside worker threads on purpose) must not take the timeline down
/// with it.
fn lock_ok<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Clock for SimClock {
    fn now(&self) -> Instant {
        self.base + lock_ok(&self.state).elapsed
    }

    fn sleep(&self, d: Duration) {
        if d.is_zero() {
            return;
        }
        let mut st = lock_ok(&self.state);
        let wake = st.elapsed + d;
        let id = st.next_id;
        st.next_id += 1;
        st.timers.push(Reverse((wake, id)));
        loop {
            if st.elapsed >= wake {
                // Whoever advanced past our deadline already popped our
                // timer (see `advance` and the branch below).
                return;
            }
            match st.timers.peek() {
                Some(&Reverse((_, earliest_id))) if earliest_id == id => {
                    // We are the earliest pending sleeper: advance the
                    // timeline to our own wake-up and release everyone
                    // whose deadline that crosses (ties included).
                    st.timers.pop();
                    st.elapsed = wake;
                    while matches!(st.timers.peek(), Some(&Reverse((w, _))) if w <= st.elapsed) {
                        st.timers.pop();
                    }
                    self.cv.notify_all();
                    return;
                }
                _ => {
                    let (guard, _) = self
                        .cv
                        .wait_timeout(st, SIM_WAIT_SLICE)
                        .unwrap_or_else(|e| e.into_inner());
                    st = guard;
                }
            }
        }
    }

    fn wait_slice(&self, _remaining: Duration) -> Duration {
        SIM_WAIT_SLICE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn wall_clock_now_is_monotonic() {
        let c = WallClock;
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }

    #[test]
    fn sim_sleep_advances_virtual_time_without_wall_time() {
        let c = SimClock::new();
        let wall0 = Instant::now();
        let t0 = c.now();
        c.sleep(Duration::from_secs(3600));
        let t1 = c.now();
        assert_eq!(t1 - t0, Duration::from_secs(3600));
        // An hour of virtual time must cost well under a second of wall
        // time (generous bound for slow CI machines).
        assert!(wall0.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn sequential_sleeps_accumulate_exactly() {
        let c = SimClock::new();
        c.sleep(Duration::from_millis(100));
        c.sleep(Duration::from_millis(250));
        assert_eq!(c.elapsed(), Duration::from_millis(350));
    }

    #[test]
    fn racing_sleeps_serialize_to_a_deterministic_total() {
        let c = Arc::new(SimClock::new());
        let mut handles = Vec::new();
        for ms in [100u64, 200, 300] {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                c.sleep(Duration::from_millis(ms))
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Whatever order the threads win the clock's lock in, each sleep
        // extends the timeline by its own duration, so the total is the
        // order-independent sum.
        assert_eq!(c.elapsed(), Duration::from_millis(600));
    }

    #[test]
    fn advance_moves_time_and_releases_crossed_timers() {
        let c = SimClock::new();
        c.advance(Duration::from_secs(7));
        assert_eq!(c.elapsed(), Duration::from_secs(7));
        let before = c.now();
        c.advance(Duration::from_secs(3));
        assert_eq!(c.now() - before, Duration::from_secs(3));
    }

    #[test]
    fn wait_slice_is_short_and_real_under_sim() {
        let c = SimClock::new();
        assert!(c.wait_slice(Duration::from_secs(3600)) <= Duration::from_millis(5));
        let w = WallClock;
        assert_eq!(w.wait_slice(Duration::from_secs(2)), Duration::from_secs(2));
    }

    #[test]
    fn zero_sleep_returns_without_registering_a_timer() {
        let c = SimClock::new();
        c.sleep(Duration::ZERO);
        assert_eq!(c.elapsed(), Duration::ZERO);
    }

    #[test]
    fn hold_parks_later_sleepers_until_dropped() {
        let c = Arc::new(SimClock::new());
        let hold = c.hold(Duration::from_millis(5));
        let sleeper = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || c.sleep(Duration::from_millis(300)))
        };
        // The sleeper parks behind the hold instead of self-advancing.
        let budget = Instant::now();
        while c.pending_timers() < 2 {
            assert!(budget.elapsed() < Duration::from_secs(10));
            std::thread::yield_now();
        }
        assert!(!sleeper.is_finished());
        assert_eq!(c.elapsed(), Duration::ZERO);
        // A shorter sleep still self-advances underneath the hold.
        c.sleep(Duration::from_millis(2));
        assert_eq!(c.elapsed(), Duration::from_millis(2));
        assert!(!sleeper.is_finished());
        drop(hold);
        sleeper.join().unwrap();
        // The sleeper's deadline was fixed at registration (t=0ms), so
        // the timeline lands on it, not 300ms past the short sleep.
        assert_eq!(c.elapsed(), Duration::from_millis(300));
    }
}
