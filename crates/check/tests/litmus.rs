//! Litmus tests for graft-check itself: known-racy programs must produce
//! violations, known-correct ones must explore clean, and failing
//! schedules must replay deterministically.

use graft_check::sync::atomic::{fence, AtomicU32, Ordering};
use graft_check::sync::{Condvar, Mutex};
use graft_check::{thread, Checker};
use std::sync::Arc;

/// Unsynchronized read-modify-write: two threads each do `x = x + 1`
/// with separate load/store. The lost-update interleaving must be found.
#[test]
fn finds_lost_update() {
    let report = Checker::new().check_report(|| {
        let x = Arc::new(AtomicU32::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let x = Arc::clone(&x);
                thread::spawn(move || {
                    let v = x.load(Ordering::SeqCst);
                    x.store(v + 1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(x.load(Ordering::SeqCst), 2, "lost update");
    });
    let v = report.violation.expect("lost update must be found");
    assert!(v.message.contains("lost update"), "got: {}", v.message);
    assert!(!v.schedule.is_empty());
}

/// The same program with fetch_add is correct; the bounded exploration
/// must complete with no violation.
#[test]
fn fetch_add_is_clean() {
    let report = Checker::new().check_report(|| {
        let x = Arc::new(AtomicU32::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let x = Arc::clone(&x);
                thread::spawn(move || {
                    x.fetch_add(1, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(x.load(Ordering::SeqCst), 2);
    });
    assert!(report.violation.is_none(), "{:?}", report.violation);
    assert!(report.complete, "exploration should exhaust this space");
    assert!(report.executions > 1, "must explore more than one schedule");
}

/// Store-buffer litmus (Dekker core): with SeqCst everywhere, both
/// threads reading 0 is impossible.
#[test]
fn dekker_seqcst_is_clean() {
    let report = Checker::new().check_report(|| {
        let x = Arc::new(AtomicU32::new(0));
        let y = Arc::new(AtomicU32::new(0));
        let (x2, y2) = (Arc::clone(&x), Arc::clone(&y));
        let a = thread::spawn(move || {
            x2.store(1, Ordering::SeqCst);
            y2.load(Ordering::SeqCst)
        });
        let (x3, y3) = (Arc::clone(&x), Arc::clone(&y));
        let b = thread::spawn(move || {
            y3.store(1, Ordering::SeqCst);
            x3.load(Ordering::SeqCst)
        });
        let ra = a.join().unwrap();
        let rb = b.join().unwrap();
        assert!(
            ra == 1 || rb == 1,
            "store-buffer reordering visible under SeqCst"
        );
    });
    assert!(report.violation.is_none(), "{:?}", report.violation);
    assert!(report.complete);
}

/// The same litmus with Relaxed operations: both-read-0 is allowed and
/// the stale-read exploration must exhibit it.
#[test]
fn dekker_relaxed_exhibits_store_buffering() {
    let report = Checker::new().check_report(|| {
        let x = Arc::new(AtomicU32::new(0));
        let y = Arc::new(AtomicU32::new(0));
        let (x2, y2) = (Arc::clone(&x), Arc::clone(&y));
        let a = thread::spawn(move || {
            x2.store(1, Ordering::Relaxed);
            y2.load(Ordering::Relaxed)
        });
        let (x3, y3) = (Arc::clone(&x), Arc::clone(&y));
        let b = thread::spawn(move || {
            y3.store(1, Ordering::Relaxed);
            x3.load(Ordering::Relaxed)
        });
        let ra = a.join().unwrap();
        let rb = b.join().unwrap();
        assert!(ra == 1 || rb == 1, "both-zero observed");
    });
    let v = report
        .violation
        .expect("relaxed store buffering must be observable");
    assert!(v.message.contains("both-zero"), "got: {}", v.message);
}

/// Message passing: Release store / Acquire load synchronize, so the
/// flag implies the payload is visible.
#[test]
fn message_passing_release_acquire_clean() {
    let report = Checker::new().check_report(|| {
        let data = Arc::new(AtomicU32::new(0));
        let flag = Arc::new(AtomicU32::new(0));
        let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
        let t = thread::spawn(move || {
            d2.store(42, Ordering::Relaxed);
            f2.store(1, Ordering::Release);
        });
        if flag.load(Ordering::Acquire) == 1 {
            assert_eq!(data.load(Ordering::Relaxed), 42, "stale payload");
        }
        t.join().unwrap();
    });
    assert!(report.violation.is_none(), "{:?}", report.violation);
    assert!(report.complete);
}

/// Message passing with Relaxed flag: the stale payload read must be
/// found.
#[test]
fn message_passing_relaxed_is_racy() {
    let report = Checker::new().check_report(|| {
        let data = Arc::new(AtomicU32::new(0));
        let flag = Arc::new(AtomicU32::new(0));
        let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
        let t = thread::spawn(move || {
            d2.store(42, Ordering::Relaxed);
            f2.store(1, Ordering::Relaxed);
        });
        if flag.load(Ordering::Relaxed) == 1 {
            assert_eq!(data.load(Ordering::Relaxed), 42, "stale payload");
        }
        t.join().unwrap();
    });
    let v = report.violation.expect("relaxed message passing is racy");
    assert!(v.message.contains("stale payload"), "got: {}", v.message);
}

/// Release/acquire *fences* restore message passing over relaxed
/// accesses.
#[test]
fn message_passing_with_fences_clean() {
    let report = Checker::new().check_report(|| {
        let data = Arc::new(AtomicU32::new(0));
        let flag = Arc::new(AtomicU32::new(0));
        let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
        let t = thread::spawn(move || {
            d2.store(42, Ordering::Relaxed);
            fence(Ordering::Release);
            f2.store(1, Ordering::Relaxed);
        });
        if flag.load(Ordering::Relaxed) == 1 {
            fence(Ordering::Acquire);
            assert_eq!(data.load(Ordering::Relaxed), 42, "stale payload");
        }
        t.join().unwrap();
    });
    assert!(report.violation.is_none(), "{:?}", report.violation);
    assert!(report.complete);
}

/// Mutex-protected counter is correct and the lock is scheduler-visible.
#[test]
fn mutex_counter_clean() {
    let report = Checker::new().check_report(|| {
        let m = Arc::new(Mutex::new(0u32));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let m = Arc::clone(&m);
                thread::spawn(move || {
                    let mut g = m.lock().unwrap();
                    *g += 1;
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock().unwrap(), 2);
    });
    assert!(report.violation.is_none(), "{:?}", report.violation);
    assert!(report.complete);
}

/// Classic AB/BA lock ordering deadlock must be detected (not hang).
#[test]
fn detects_lock_order_deadlock() {
    let report = Checker::new().check_report(|| {
        let a = Arc::new(Mutex::new(()));
        let b = Arc::new(Mutex::new(()));
        let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
        let t = thread::spawn(move || {
            let _ga = a2.lock().unwrap();
            let _gb = b2.lock().unwrap();
        });
        let _gb = b.lock().unwrap();
        let _ga = a.lock().unwrap();
        drop((_ga, _gb));
        t.join().unwrap();
    });
    let v = report.violation.expect("deadlock must be detected");
    assert!(v.message.contains("deadlock"), "got: {}", v.message);
}

/// Condvar handoff: waiter with a predicate loop, notifier under the
/// lock. Must complete without deadlock or livelock.
#[test]
fn condvar_handoff_clean() {
    let report = Checker::new().check_report(|| {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = Arc::clone(&pair);
        let t = thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut g = m.lock().unwrap();
            *g = true;
            drop(g);
            cv.notify_one();
        });
        let (m, cv) = &*pair;
        let mut g = m.lock().unwrap();
        while !*g {
            g = cv.wait(g).unwrap();
        }
        drop(g);
        t.join().unwrap();
    });
    assert!(report.violation.is_none(), "{:?}", report.violation);
    assert!(report.complete);
}

/// wait_timeout without any notifier: the virtual timeout must fire
/// (system idle) instead of deadlocking.
#[test]
fn wait_timeout_fires_when_idle() {
    let report = Checker::new().check_report(|| {
        let pair = (Mutex::new(()), Condvar::new());
        let g = pair.0.lock().unwrap();
        let (_g, r) = pair
            .1
            .wait_timeout(g, std::time::Duration::from_millis(1))
            .unwrap();
        assert!(r.timed_out());
    });
    assert!(report.violation.is_none(), "{:?}", report.violation);
    assert!(report.complete);
}

/// A failing schedule replays to the same failure, and a DFS re-run
/// finds the same first counterexample (determinism).
#[test]
fn replay_reproduces_failure() {
    fn racy() -> impl Fn() + Send + Sync + 'static {
        || {
            let x = Arc::new(AtomicU32::new(0));
            let x2 = Arc::clone(&x);
            let t = thread::spawn(move || {
                let v = x2.load(Ordering::SeqCst);
                x2.store(v + 1, Ordering::SeqCst);
            });
            let v = x.load(Ordering::SeqCst);
            x.store(v + 1, Ordering::SeqCst);
            t.join().unwrap();
            assert_eq!(x.load(Ordering::SeqCst), 2, "lost update");
        }
    }
    let checker = Checker::new();
    let r1 = checker.check_report(racy());
    let v1 = r1.violation.expect("race must be found");
    let r2 = checker.check_report(racy());
    let v2 = r2.violation.expect("race must be found again");
    assert_eq!(v1.schedule, v2.schedule, "DFS must be deterministic");
    assert_eq!(r1.executions, r2.executions);

    let replayed = checker.replay(racy(), &v1.schedule);
    assert_eq!(replayed.executions, 1);
    let rv = replayed.violation.expect("replay must reproduce");
    assert!(rv.message.contains("lost update"), "got: {}", rv.message);
}

/// Seeded-random mode also finds the lost update, and is reproducible
/// for a fixed seed.
#[test]
fn random_mode_finds_race() {
    let mk = || Checker::new().seed(0xC0FFEE).max_executions(5_000);
    let run = || {
        mk().check_report(|| {
            let x = Arc::new(AtomicU32::new(0));
            let x2 = Arc::clone(&x);
            let t = thread::spawn(move || {
                let v = x2.load(Ordering::SeqCst);
                x2.store(v + 1, Ordering::SeqCst);
            });
            let v = x.load(Ordering::SeqCst);
            x.store(v + 1, Ordering::SeqCst);
            t.join().unwrap();
            assert_eq!(x.load(Ordering::SeqCst), 2, "lost update");
        })
    };
    let r1 = run();
    let v1 = r1.violation.expect("random mode must find the race");
    let r2 = run();
    let v2 = r2.violation.expect("random mode must find it again");
    assert_eq!(r1.executions, r2.executions, "fixed seed is reproducible");
    assert_eq!(v1.schedule, v2.schedule);
}

/// State hashes name atomics by first touch, not by address, so DFS
/// pruning does not depend on where the allocator puts a model's objects:
/// an atomic that moves in every execution explores exactly like one at a
/// fixed address.
#[test]
fn exploration_does_not_depend_on_addresses() {
    fn model(x: &'static AtomicU32) {
        let bump = move || {
            let v = x.load(Ordering::Relaxed);
            x.store(v + 1, Ordering::Relaxed);
            x.load(Ordering::Relaxed);
        };
        let t = thread::spawn(bump);
        bump();
        t.join().unwrap();
        // Back to 0, the value the next execution's first touch reads.
        x.store(0, Ordering::Relaxed);
    }
    let leak = || &*Box::leak(Box::new(AtomicU32::new(0)));
    let fixed = leak();
    let at_one_address = Checker::new().check_report(move || model(fixed));
    // A fresh leaked allocation per execution: never the same address.
    let moving = Checker::new().check_report(move || model(leak()));
    for r in [&at_one_address, &moving] {
        assert!(r.violation.is_none(), "{:?}", r.violation);
        assert!(r.complete);
    }
    assert!(
        at_one_address.pruned_points > 0,
        "the model must exercise pruning"
    );
    assert_eq!(at_one_address.executions, moving.executions);
    assert_eq!(at_one_address.pruned_points, moving.pruned_points);
}

/// Instrumented primitives pass through to std off model threads: plain
/// use outside a Checker works (this very test body).
#[test]
fn passthrough_outside_checker() {
    let x = AtomicU32::new(7);
    assert_eq!(x.load(Ordering::SeqCst), 7);
    x.store(9, Ordering::SeqCst);
    assert_eq!(x.fetch_add(1, Ordering::AcqRel), 9);
    assert_eq!(
        x.compare_exchange(10, 11, Ordering::SeqCst, Ordering::Relaxed),
        Ok(10)
    );
    let m = Mutex::new(5u32);
    {
        let mut g = m.lock().unwrap();
        *g = 6;
    }
    assert_eq!(*m.lock().unwrap(), 6);
    let h = thread::spawn(|| 40 + 2);
    assert_eq!(h.join().unwrap(), 42);
    fence(Ordering::SeqCst);
}

/// Three threads under the preemption bound: exploration stays bounded
/// and completes (sanity check that pruning + bound terminate).
#[test]
fn three_thread_exploration_terminates() {
    let report = Checker::new()
        .preemption_bound(2)
        .max_executions(200_000)
        .check_report(|| {
            let x = Arc::new(AtomicU32::new(0));
            let handles: Vec<_> = (0..3)
                .map(|_| {
                    let x = Arc::clone(&x);
                    thread::spawn(move || {
                        x.fetch_add(1, Ordering::AcqRel);
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(x.load(Ordering::Acquire), 3);
        });
    assert!(report.violation.is_none(), "{:?}", report.violation);
    assert!(report.complete, "space must be exhausted");
}
