//! The heap a dynamic matching holds for its live graph.
//!
//! A counting allocator tracks the bytes the calling thread allocates and
//! holds live. On kkt_power at Small scale:
//!
//! * `DynamicMatching::with_warm_start` allocates no more than
//!   `solve_from_in` does for the same graph and matching in a fresh
//!   workspace, plus [`BUILD_SLACK`] bytes: before its first update a
//!   dynamic matching holds nothing per vertex.
//! * A delete/restore pair leaves nothing behind: once a first pair has
//!   run, every later pair ends with the live heap where it started.

use gen::Scale;
use ms_bfs_graft::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// What `with_warm_start` may allocate beyond its solve.
const BUILD_SLACK: usize = 1024;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

/// Counts `got` bytes as allocated and live on this thread, and `freed`
/// bytes as no longer live.
fn track(got: usize, freed: usize) {
    LIVE.with(|l| l.set(l.get() + got as isize - freed as isize));
    ALLOCATED.with(|a| a.set(a.get() + got));
}

/// System allocator that counts this thread's allocated and live heap
/// bytes.
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size(), 0);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(0, layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        track(layout.size(), 0);
        System.alloc_zeroed(layout)
    }

    /// Counted as a fresh block of `new_size` that frees the old one.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size, layout.size());
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the bytes allocated during it.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - before)
}

fn live() -> isize {
    LIVE.with(Cell::get)
}

/// kkt_power at Small scale and its seed-1 Karp-Sipser matching.
fn kkt_small() -> (Arc<BipartiteCsr>, Matching) {
    let g = gen::suite::by_name("kkt_power")
        .expect("suite entry")
        .build(Scale::Small);
    let m0 = matching::init::Initializer::KarpSipser.run(&g, 1);
    (Arc::new(g), m0)
}

#[test]
fn a_dynamic_matching_allocates_only_its_solve_before_an_update() {
    let (g, m0) = kkt_small();
    let (solved, solve_bytes) = allocated_by(|| {
        let mut ws = SolveWorkspace::new();
        let out = solve_from_in(
            &g,
            m0.clone(),
            Algorithm::MsBfsGraft,
            &SolveOptions::default(),
            &mut ws,
        );
        (out, ws)
    });
    let (dm, dyn_bytes) = allocated_by(|| {
        DynamicMatching::with_warm_start(Arc::clone(&g), m0.clone(), DynConfig::default())
    });
    assert_eq!(dm.cardinality(), solved.0.matching.cardinality());
    assert!(
        dyn_bytes <= solve_bytes + BUILD_SLACK,
        "with_warm_start allocated {dyn_bytes} bytes, its solve {solve_bytes} \
         ({} beyond it, {} per vertex; the slack is {BUILD_SLACK})",
        dyn_bytes.saturating_sub(solve_bytes),
        dyn_bytes.saturating_sub(solve_bytes) / g.num_vertices(),
    );
}

#[test]
fn a_delete_restore_pair_leaves_the_live_heap_where_it_was() {
    let (g, m0) = kkt_small();
    let mut dm = DynamicMatching::with_warm_start(Arc::clone(&g), m0, DynConfig::default());
    // Matched and unmatched edges spread over the graph; a matched one
    // runs the repair searches.
    let edges: Vec<(VertexId, VertexId)> = (0..g.num_x() as VertexId)
        .step_by(97)
        .enumerate()
        .filter_map(|(i, x)| {
            let mate = dm.matching().mate_of_x(x);
            let y = if i % 2 == 0 {
                Some(mate).filter(|&y| y != NONE)
            } else {
                g.x_neighbors(x).iter().copied().find(|&y| y != mate)
            };
            y.map(|y| (x, y))
        })
        .take(12)
        .collect();
    assert!(edges.len() >= 8, "{edges:?}");
    let mut pair = |(x, y): (VertexId, VertexId)| {
        dm.delete_edge(x, y).expect("a base edge is live");
        dm.insert_edge(x, y).expect("restore");
        assert_eq!(dm.num_edges(), g.num_edges());
    };
    pair(edges[0]);
    let after_first = live();
    for &e in &edges[1..] {
        pair(e);
        assert_eq!(
            live(),
            after_first,
            "the pair on {e:?} left {} bytes live",
            live() - after_first
        );
    }
}
