//! The CSR build: exact arrays and a bounded peak.
//!
//! * Every suite graph at Tiny scale builds to pinned `x_ptr`, `x_adj`,
//!   `y_ptr` and `y_adj` (an FNV-1a hash of each). The hashes were taken
//!   from the build that bucketed `Y` from a separate `(y, x)` pair list,
//!   so they pin that a change to the build leaves every graph
//!   byte-identical.
//! * A counting allocator tracks the live and peak heap bytes of the
//!   calling thread, and `GraphBuilder::build` may raise the peak above
//!   what was live before the call by no more than the finished CSR plus
//!   16 bytes per vertex.

use gen::Scale;
use ms_bfs_graft::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of_val;

/// FNV-1a (64-bit) over little-endian bytes.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The hashes of `x_ptr`, `x_adj`, `y_ptr` and `y_adj`; the pointers are
/// hashed as `u64`.
fn csr_hashes(g: &BipartiteCsr) -> [u64; 4] {
    let ptr = |p: &[usize]| fnv1a(p.iter().flat_map(|&v| (v as u64).to_le_bytes()));
    let adj = |a: &[VertexId]| fnv1a(a.iter().flat_map(|&v| v.to_le_bytes()));
    [
        ptr(g.x_ptr()),
        adj(g.x_adj()),
        ptr(g.y_ptr()),
        adj(g.y_adj()),
    ]
}

/// `(graph, [x_ptr, x_adj, y_ptr, y_adj])` at Tiny scale. A test failure
/// prints the computed lines in this form.
#[rustfmt::skip]
const TINY_HASHES: &[(&str, [u64; 4])] = &[
    ("kkt_power", [0xcbe6c273725ea882, 0x5bedf2aab4292ffa, 0xef343bc3c07c4302, 0xd38d00356ea11bfd]),
    ("delaunay", [0x44b94915bc30f0d3, 0x0dc5c4ec1f8e4884, 0x44b94915bc30f0d3, 0x0dc5c4ec1f8e4884]),
    ("hugetrace", [0x08284fe967744bdc, 0x690a5f048a806f71, 0x08284fe967744bdc, 0x690a5f048a806f71]),
    ("road_usa", [0x3c59ed7a1045b415, 0xc39dc4f185efd51b, 0x22a67ba40901ce6b, 0x4b452292f5c9b467]),
    ("cit-Patents", [0xd4e29a22802a1e60, 0x7e32864db4230953, 0x2d797c6645835bf6, 0xe6f3f036ce07dce2]),
    ("amazon0312", [0x71531fb30e0a2fff, 0x67df2cce755f80c2, 0x427fb3cc614b18b0, 0x8afd81e99dc6c4d5]),
    ("coPapersDBLP", [0x591e99e501903358, 0x8030693be23214c3, 0x080b3f5206ec6839, 0x7f738bc3f64c0093]),
    ("RMAT", [0x12102d3c5d6806b6, 0x379e8e24598b5119, 0xc8358b3157239bcd, 0xb211c3d08467ec2c]),
    ("wikipedia", [0xe55e4f7eeddf11d4, 0x4fd1c41e620c630a, 0xc1e75052654d61ec, 0x2bc5e2e21d2a9ef9]),
    ("web-Google", [0xcec77d9e7676802a, 0xd926ffcbec9ad673, 0x9a24d78c2c744d81, 0x386debce4d7f894f]),
    ("wb-edu", [0x981f148a2386d572, 0xe1b8ef62f577d0b7, 0x196c3098b37be3ac, 0x088628f2f53ef121]),
];

#[test]
fn every_tiny_suite_graph_builds_to_its_pinned_arrays() {
    let mut got = String::new();
    for entry in gen::suite::suite() {
        let g = entry.build(Scale::Tiny);
        let [a, b, c, d] = csr_hashes(&g);
        got.push_str(&format!(
            "    (\"{}\", [0x{a:016x}, 0x{b:016x}, 0x{c:016x}, 0x{d:016x}]),\n",
            entry.name
        ));
    }
    let want: String = TINY_HASHES
        .iter()
        .map(|(name, [a, b, c, d])| {
            format!("    (\"{name}\", [0x{a:016x}, 0x{b:016x}, 0x{c:016x}, 0x{d:016x}]),\n")
        })
        .collect();
    assert_eq!(got, want, "the CSR arrays moved; computed:\n{got}");
}

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Moves this thread's live-byte count by `delta` and raises its peak.
fn track(delta: isize) {
    let live = LIVE.with(|l| {
        l.set(l.get() + delta);
        l.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

/// System allocator that counts this thread's live and peak heap bytes.
struct PeakAlloc;

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    /// Counted as a new block live beside the old one, the most a copying
    /// reallocation can hold at once.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as isize);
        let out = System.realloc(ptr, layout, new_size);
        track(-(layout.size() as isize));
        out
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// Runs `f` and returns its result with the largest number of bytes that
/// were live during it above those live when it started.
fn peak_above_start<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(start));
    let out = f();
    (out, (PEAK.with(Cell::get) - start) as usize)
}

#[test]
fn build_peaks_within_the_finished_csr_plus_16_bytes_per_vertex() {
    let g = gen::suite::by_name("kkt_power")
        .expect("suite entry")
        .build(Scale::Small);
    assert!(g.num_edges() >= 100_000, "{} edges", g.num_edges());
    // The edges in reverse order, every seventh twice, so rows arrive
    // unsorted and with duplicates.
    let mut b = GraphBuilder::with_capacity(g.num_x(), g.num_y(), g.num_edges() * 8 / 7 + 1);
    let edges: Vec<(VertexId, VertexId)> = g.edges().collect();
    for (i, &(x, y)) in edges.iter().enumerate().rev() {
        b.add_edge(x, y);
        if i % 7 == 0 {
            b.add_edge(x, y);
        }
    }
    drop(edges);
    let (built, peak) = peak_above_start(|| b.build());
    assert_eq!(built, g);
    let csr = size_of_val(g.x_ptr())
        + size_of_val(g.x_adj())
        + size_of_val(g.y_ptr())
        + size_of_val(g.y_adj());
    let bound = csr + 16 * g.num_vertices();
    assert!(
        peak <= bound,
        "build() peaked {peak} bytes above its start; the CSR is {csr} bytes, the bound {bound}"
    );
}
