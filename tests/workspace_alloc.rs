//! Locks the tentpole's "allocation-free warm path" claim with a counting
//! allocator: after a first solve has grown a [`SolveWorkspace`], a second
//! solve of the same instance through any serial engine must perform
//! **zero** heap allocations.
//!
//! The counter is thread-local, so the (single-threaded in this build)
//! solver's allocations are attributed exactly and other test threads
//! cannot interfere.

use ms_bfs_graft::matching::augment_from_free_x;
use ms_bfs_graft::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static TL_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// System allocator with a thread-local allocation counter. `dealloc` is
/// deliberately not counted: freeing memory the warm-up round allocated
/// is fine; *acquiring* memory on the warm path is the regression.
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        TL_ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        TL_ALLOCS.with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        TL_ALLOCS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocs_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = TL_ALLOCS.with(Cell::get);
    let out = f();
    (out, TL_ALLOCS.with(Cell::get) - before)
}

/// The algorithms whose engine keeps every buffer in the workspace, solved
/// at `threads: 1`: the serial ones, and the parallel ones, which at one
/// thread build no pool and run their engine inline. (SS-DFS/SS-BFS/HK
/// keep their own local state, and on a pool of two or more threads the
/// parallel engines go through the rayon shim's fold/collect machinery,
/// so they are allocation-*light* but not allocation-free.)
const ZERO_ALLOC_ENGINES: &[Algorithm] = &[
    Algorithm::MsBfs,
    Algorithm::MsBfsDirOpt,
    Algorithm::MsBfsGraft,
    Algorithm::MsBfsGraftParallel,
    Algorithm::PothenFan,
    Algorithm::PothenFanParallel,
    Algorithm::PushRelabel,
    Algorithm::PushRelabelParallel,
];

#[test]
fn warm_solves_perform_zero_heap_allocations() {
    let g = gen::preferential_attachment(2000, 2000, 4, 0.6, 21);
    let m0 = matching::init::Initializer::KarpSipser.run(&g, 9);
    let opts = SolveOptions {
        initializer: matching::init::Initializer::None,
        threads: 1,
        ..SolveOptions::default()
    };
    for &alg in ZERO_ALLOC_ENGINES {
        let mut ws = SolveWorkspace::new();
        // Round 1 grows the workspace and must allocate.
        let m_cold = m0.clone();
        let (cold, cold_allocs) = allocs_during(|| solve_from_in(&g, m_cold, alg, &opts, &mut ws));
        assert!(
            cold_allocs > 0,
            "{}: cold solve unexpectedly allocation-free (counter broken?)",
            alg.name()
        );
        // Round 2 must run entirely out of the resident buffers. The
        // initial matching is cloned outside the counted region, as the
        // svc warm path clones its cached matching before submitting.
        let m_warm = m0.clone();
        let (warm, warm_allocs) = allocs_during(|| solve_from_in(&g, m_warm, alg, &opts, &mut ws));
        assert_eq!(
            warm_allocs,
            0,
            "{}: warm solve allocated {warm_allocs} times",
            alg.name()
        );
        assert_eq!(
            cold.matching.cardinality(),
            warm.matching.cardinality(),
            "{}: warm solve changed the answer",
            alg.name()
        );
    }
}

/// A warm workspace also absorbs a *smaller* instance without touching
/// the heap — buffers only ever grow.
#[test]
fn warm_workspace_handles_smaller_graph_without_allocating() {
    let big = gen::preferential_attachment(2000, 1800, 4, 0.5, 2);
    let small = gen::preferential_attachment(400, 500, 3, 0.5, 3);
    let opts = SolveOptions {
        initializer: matching::init::Initializer::None,
        threads: 1,
        ..SolveOptions::default()
    };
    for &alg in ZERO_ALLOC_ENGINES {
        let mut ws = SolveWorkspace::new();
        let m_big = Matching::for_graph(&big);
        solve_from_in(&big, m_big, alg, &opts, &mut ws);
        let m_small = Matching::for_graph(&small);
        let (_, allocs) = allocs_during(|| solve_from_in(&small, m_small, alg, &opts, &mut ws));
        assert_eq!(
            allocs,
            0,
            "{}: smaller graph on warm workspace allocated {allocs} times",
            alg.name()
        );
    }
}

/// `augment_from_free_x`, the repair search of `DynamicMatching` when an
/// inserted edge joins two matched endpoints, reads its sources, every
/// free `X`, into the workspace frontier: a warm search performs zero
/// heap allocations, whether it augments or proves no path exists.
#[test]
fn warm_free_x_search_performs_zero_heap_allocations() {
    let g = gen::preferential_attachment(2000, 2000, 4, 0.6, 21);
    let opts = SolveOptions {
        threads: 1,
        ..SolveOptions::default()
    };
    let maximum = solve_from_in(
        &g,
        Matching::for_graph(&g),
        Algorithm::MsBfsGraft,
        &opts,
        &mut SolveWorkspace::new(),
    )
    .matching;
    let mut ws = SolveWorkspace::new();
    for (name, m0, augments) in [
        ("empty", Matching::for_graph(&g), true),
        ("maximum", maximum, false),
    ] {
        assert!(
            m0.unmatched_x().next().is_some(),
            "{name}: no free X to search from"
        );
        // Round 1 grows the workspace; round 2, from the same matching
        // cloned outside the counted region, must not allocate.
        augment_from_free_x(&g, &mut m0.clone(), &mut ws);
        let mut m = m0.clone();
        let (out, allocs) = allocs_during(|| augment_from_free_x(&g, &mut m, &mut ws));
        assert_eq!(
            allocs, 0,
            "{name}: warm free-X search allocated {allocs} times"
        );
        assert_eq!(out.augmented(), augments, "{name}: {out:?}");
    }
}
