//! Model-checked parallel Pothen-Fan kernel suite (graft-check).
//!
//! Compiled only under `RUSTFLAGS="--cfg graft_check"`. These tests drive
//! the *real* pool-side `dfs::<true>` search of the Pothen-Fan engine —
//! the exact code a PF(par) pool task runs per root — on graft-check model
//! threads over tiny graphs, so the checker enumerates every bounded
//! interleaving of the free-vertex CAS, visited stamping (the free
//! vertex's too), lookahead cursor, and path-flip stores. The search state
//! (`pf_check_api::Arena`) is owned by the test and lent to the kernel, as
//! a solve lends it the matching's mates and the workspace's arrays.
//!
//! The centerpiece is a mutation-verified regression test for the adoption
//! race: descending through a matched edge without confirming
//! `mate_x[mate] == y` lets a searcher adopt an `X` vertex that is still
//! on another searcher's stack mid-flip, tearing the mate arrays. With the
//! stability check disabled (test-only knob) the checker must find that
//! interleaving and print a replayable schedule; with the shipped check in
//! place the same exploration must come up clean.
//!
//! Memory here is explored sequentially consistent (`stale_reads(false)`):
//! the adoption race is a pure scheduling race, and SC keeps the space
//! small enough to exhaust. Weak-memory behaviors of the primitives are
//! covered by graft-check's own litmus suite and `model_deque.rs`.
#![cfg(graft_check)]

use graft_check::{thread, Checker};
use graft_core::pf_check_api::{make_shared, mates, run_search, DISABLE_STABILITY_CHECK};
use graft_graph::{BipartiteCsr, VertexId, NONE};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// `DISABLE_STABILITY_CHECK` is process-global; serialize the tests that
/// read or write it so the harness's parallel runner cannot interleave a
/// mutated execution into a clean test.
fn knob_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

/// RAII knob setter: disables the stability check for one test body. The
/// guard is held, not read — it keeps the knob lock until drop.
struct DisableCheck(#[allow(dead_code)] MutexGuard<'static, ()>);

impl DisableCheck {
    fn new() -> Self {
        let g = knob_lock();
        DISABLE_STABILITY_CHECK.store(true, std::sync::atomic::Ordering::Relaxed);
        DisableCheck(g)
    }
}

impl Drop for DisableCheck {
    fn drop(&mut self) {
        DISABLE_STABILITY_CHECK.store(false, std::sync::atomic::Ordering::Relaxed);
    }
}

/// Assert the mate arrays are mutually consistent: every matched slot must
/// be matched back by its partner. A torn flip (the adoption race) leaves
/// a slot pointing at a vertex whose own slot disagrees.
fn assert_mates_consistent(mate_x: &[VertexId], mate_y: &[VertexId]) {
    for (x, &y) in mate_x.iter().enumerate() {
        if y != NONE {
            assert_eq!(
                mate_y[y as usize], x as VertexId,
                "torn matching: mate_x[{x}] = {y} but mate_y[{y}] = {}",
                mate_y[y as usize]
            );
        }
    }
    for (y, &x) in mate_y.iter().enumerate() {
        if x != NONE {
            assert_eq!(
                mate_x[x as usize], y as VertexId,
                "torn matching: mate_y[{y}] = {x} but mate_x[{x}] = {}",
                mate_x[x as usize]
            );
        }
    }
}

/// The minimal race graph: `x0 — {y0, y1}`, `x1 — {y0}`. Searcher A (from
/// `x0`) free-claims `y0`; if A is preempted mid-flip, searcher B (from
/// `x1`) sees `mate_y[y0] = x0` and — without the stability check — adopts
/// `x0` while it is still on A's stack, and both flips interleave over the
/// same slots.
fn race_graph() -> &'static BipartiteCsr {
    static G: OnceLock<BipartiteCsr> = OnceLock::new();
    G.get_or_init(|| BipartiteCsr::from_edges(2, 2, &[(0, 0), (0, 1), (1, 0)]))
}

/// Two concurrent searchers over the race graph; the closure asserts the
/// post-join invariant every real phase relies on.
fn two_searcher_scenario() {
    let g = race_graph();
    let sh = Arc::new(make_shared(g));
    let sh2 = Arc::clone(&sh);
    let b = thread::spawn(move || run_search(&sh2, 1));
    run_search(&sh, 0);
    b.join().unwrap();
    let (mx, my) = mates(&sh);
    assert_mates_consistent(&mx, &my);
}

/// Mutation test, part 1: with the stability check knocked out the checker
/// must find the adoption race and hand back a replayable schedule.
#[test]
fn adoption_race_found_when_stability_check_disabled() {
    let _knob = DisableCheck::new();
    let start = std::time::Instant::now();
    let checker = Checker::new().stale_reads(false);
    let report = checker.check_report(two_searcher_scenario);
    let v = report
        .violation
        .expect("mutated kernel must exhibit the adoption race");
    assert!(
        v.message.contains("torn matching"),
        "unexpected violation: {}",
        v.message
    );
    assert!(!v.schedule.is_empty(), "violation must carry a schedule");
    // The schedule must replay: the same interleaving, the same tear.
    let replay = checker.replay(two_searcher_scenario, &v.schedule);
    let rv = replay.violation.expect("recorded schedule must reproduce");
    assert!(rv.message.contains("torn matching"), "{}", rv.message);
    assert!(
        start.elapsed() < std::time::Duration::from_secs(10),
        "race must be found and replayed within the 10s budget"
    );
}

/// Mutation test, part 2: the shipped kernel (stability check in place)
/// survives the exact same bounded exploration with zero violations.
#[test]
fn adoption_race_absent_with_stability_check() {
    let _guard = knob_lock();
    let report = Checker::new()
        .stale_reads(false)
        .check_report(two_searcher_scenario);
    assert!(report.violation.is_none(), "{:?}", report.violation);
    assert!(report.complete, "exploration should exhaust: {report:?}");
}

/// Three searchers over a 6-vertex ladder, all contending for overlap:
/// whatever the schedule, the final mate arrays must be mutually
/// consistent and every matched pair must be a real edge.
#[test]
fn three_searchers_ladder_consistent() {
    let _guard = knob_lock();
    let report = Checker::new()
        .stale_reads(false)
        .preemption_bound(2)
        .max_executions(30_000)
        .check_report(|| {
            static G: OnceLock<BipartiteCsr> = OnceLock::new();
            let g = G.get_or_init(|| {
                BipartiteCsr::from_edges(3, 3, &[(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)])
            });
            let sh = Arc::new(make_shared(g));
            let (s1, s2) = (Arc::clone(&sh), Arc::clone(&sh));
            let b = thread::spawn(move || run_search(&s1, 1));
            let c = thread::spawn(move || run_search(&s2, 2));
            run_search(&sh, 0);
            b.join().unwrap();
            c.join().unwrap();
            let (mx, my) = mates(&sh);
            assert_mates_consistent(&mx, &my);
            for (x, &y) in mx.iter().enumerate() {
                if y != NONE {
                    assert!(
                        g.x_neighbors(x as VertexId).contains(&y),
                        "matched non-edge ({x}, {y})"
                    );
                }
            }
        });
    assert!(report.violation.is_none(), "{:?}", report.violation);
    assert_eq!(report.divergent, 0);
}
