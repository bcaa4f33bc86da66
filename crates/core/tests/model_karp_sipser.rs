//! Model-checked parallel Karp-Sipser claim protocol (graft-check).
//!
//! Compiled only under `RUSTFLAGS="--cfg graft_check"`. These tests drive
//! the *real* per-item code of `parallel_karp_sipser` — one item of the
//! degree-1 pass, one item of the random phase, each with its degree-1
//! cascade — on graft-check model threads over graphs of 5–6 vertices, so
//! the checker enumerates the bounded interleavings of the `X` and `Y`
//! claims, the degree decrements and the cascades. As in the real
//! function, the random phase starts after every thread has finished the
//! degree-1 pass.
//!
//! Every schedule must end with mutually consistent mate arrays, matched
//! pairs that are edges, and a maximal matching: maximality follows from
//! the claims alone. The mutation test replaces the `X` claim's CAS with a
//! load and a store (a knob that exists only in check builds); the checker
//! must then find an `X` matched twice and hand back a schedule that
//! replays.
//!
//! Memory is explored sequentially consistent (`stale_reads(false)`), as
//! in `model_pothen_fan.rs`: double claims are scheduling races, and SC
//! keeps the spaces small enough to exhaust.
#![cfg(graft_check)]

use graft_check::{thread, Checker};
use graft_core::init::ks_check_api::{
    degree_one_item, make_shared, mates, random_item, UNGUARDED_X_CLAIM,
};
use graft_graph::{BipartiteCsr, VertexId, NONE};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// `UNGUARDED_X_CLAIM` is process-global; serialize the tests that read
/// or write it so the harness's parallel runner cannot interleave a
/// mutated execution into a clean test.
fn knob_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

/// RAII knob setter: makes the `X` claim a load and a store for one test
/// body. The guard is held, not read — it keeps the knob lock until drop.
struct UnguardedClaim(#[allow(dead_code)] MutexGuard<'static, ()>);

impl UnguardedClaim {
    fn new() -> Self {
        let g = knob_lock();
        UNGUARDED_X_CLAIM.store(true, std::sync::atomic::Ordering::Relaxed);
        UnguardedClaim(g)
    }
}

impl Drop for UnguardedClaim {
    fn drop(&mut self) {
        UNGUARDED_X_CLAIM.store(false, std::sync::atomic::Ordering::Relaxed);
    }
}

/// The path `y0 – x0 – y1 – x1 – y2`. Both ends are degree-1 `Y`
/// vertices: matching `y0` drops `y1` to degree 1, and the cascade from
/// `y1` and the item `y2` then race to claim `x1`.
fn path() -> &'static BipartiteCsr {
    static G: OnceLock<BipartiteCsr> = OnceLock::new();
    G.get_or_init(|| BipartiteCsr::from_edges(2, 3, &[(0, 0), (0, 1), (1, 1), (1, 2)]))
}

/// The crown `x_i – y_i`, `x_i – y_{i+1}` on three pairs: `y0` and `x2`
/// start at degree 1, and each match cascades along the crown.
fn crown() -> &'static BipartiteCsr {
    static G: OnceLock<BipartiteCsr> = OnceLock::new();
    G.get_or_init(|| BipartiteCsr::from_edges(3, 3, &[(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)]))
}

/// K₂,₂ on `x0, x1 × y0, y1` plus the pendant `y2` on `x0`: the degree-1
/// pass matches the pendant, and the random phase races for the rest.
fn k22_pendant() -> &'static BipartiteCsr {
    static G: OnceLock<BipartiteCsr> = OnceLock::new();
    G.get_or_init(|| BipartiteCsr::from_edges(2, 3, &[(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]))
}

/// Asserts that the mate arrays agree, that every pair is an edge of `g`,
/// and that no edge has two unmatched endpoints.
fn assert_consistent_and_maximal(g: &BipartiteCsr, mate_x: &[VertexId], mate_y: &[VertexId]) {
    for (y, &x) in mate_y.iter().enumerate() {
        if x != NONE {
            assert_eq!(
                mate_x[x as usize], y as VertexId,
                "x{x} matched twice: mate_y[{y}] = {x} but mate_x[{x}] = {}",
                mate_x[x as usize]
            );
        }
    }
    for (x, &y) in mate_x.iter().enumerate() {
        if y != NONE {
            assert_eq!(
                mate_y[y as usize], x as VertexId,
                "mate_x[{x}] = {y} is one-sided"
            );
            assert!(
                g.x_neighbors(x as VertexId).contains(&y),
                "matched non-edge ({x}, {y})"
            );
        }
    }
    for (x, y) in g.edges() {
        assert!(
            mate_x[x as usize] != NONE || mate_y[y as usize] != NONE,
            "not maximal: edge ({x}, {y}) has both endpoints free"
        );
    }
}

/// Runs the whole protocol on `g` with one model thread per entry of
/// `degree_one` and `random`: thread `t` runs its degree-1 items (`X` is
/// `0..nx`, `Y` is `nx + y`), all threads join, thread `t` runs its
/// random-phase items, all join, and the result is checked.
fn protocol(g: &'static BipartiteCsr, degree_one: &[&[VertexId]], random: &[&[VertexId]]) {
    let ks = Arc::new(make_shared(g, 1));
    for (pass, items) in [degree_one, random].into_iter().enumerate() {
        let run = move |ks: &_, items: &[VertexId]| {
            for &v in items {
                if pass == 0 {
                    degree_one_item(ks, v);
                } else {
                    random_item(ks, v);
                }
            }
        };
        let workers: Vec<_> = items[1..]
            .iter()
            .map(|&mine| {
                let (ks, mine) = (Arc::clone(&ks), mine.to_vec());
                thread::spawn(move || run(&ks, &mine))
            })
            .collect();
        run(&ks, items[0]);
        for w in workers {
            w.join().unwrap();
        }
    }
    let (mx, my) = mates(&ks);
    assert_consistent_and_maximal(g, &mx, &my);
}

/// The path scenario: the `y0` cascade on one thread, `y2` on the other.
fn path_scenario() {
    protocol(path(), &[&[2, 0], &[4, 1, 3]], &[&[0], &[1]]);
}

/// Mutation test, part 1: with the `X` claim a load and a store, the
/// checker must find an `X` matched twice and a schedule that replays.
#[test]
fn double_claim_found_when_the_x_claim_is_unguarded() {
    let _knob = UnguardedClaim::new();
    let start = std::time::Instant::now();
    let checker = Checker::new().stale_reads(false);
    let report = checker.check_report(path_scenario);
    let v = report
        .violation
        .expect("the unguarded claim must let two threads match one X");
    assert!(v.message.contains("matched twice"), "{}", v.message);
    assert!(!v.schedule.is_empty(), "violation must carry a schedule");
    let replay = checker.replay(path_scenario, &v.schedule);
    let rv = replay.violation.expect("recorded schedule must reproduce");
    assert!(rv.message.contains("matched twice"), "{}", rv.message);
    assert!(
        start.elapsed() < std::time::Duration::from_secs(10),
        "double claim must be found and replayed within the 10s budget"
    );
}

/// Mutation test, part 2: the shipped CAS claim survives the same
/// exploration with no violation.
#[test]
fn path_is_consistent_and_maximal_in_every_schedule() {
    let _guard = knob_lock();
    let report = Checker::new()
        .stale_reads(false)
        .check_report(path_scenario);
    assert!(report.violation.is_none(), "{:?}", report.violation);
    assert!(report.complete, "exploration should exhaust: {report:?}");
}

/// Three threads on the crown: degree-1 items split across them, then
/// one random-phase item each.
#[test]
fn crown_with_three_threads_is_consistent_and_maximal() {
    let _guard = knob_lock();
    let report = Checker::new()
        .stale_reads(false)
        .preemption_bound(2)
        .max_executions(30_000)
        .check_report(|| protocol(crown(), &[&[3, 2], &[5, 0], &[4, 1]], &[&[0], &[1], &[2]]));
    assert!(report.violation.is_none(), "{:?}", report.violation);
    assert!(report.complete, "exploration should exhaust: {report:?}");
}

/// K₂,₂ plus a pendant: the pendant's degree-1 item races an `X` item on
/// the other thread, then both `X` race in the random phase.
#[test]
fn k22_with_a_pendant_is_consistent_and_maximal() {
    let _guard = knob_lock();
    let report = Checker::new()
        .stale_reads(false)
        .check_report(|| protocol(k22_pendant(), &[&[4, 0], &[1, 2, 3]], &[&[0], &[1]]));
    assert!(report.violation.is_none(), "{:?}", report.violation);
    assert!(report.complete, "exploration should exhaust: {report:?}");
}
