//! The Karp-Sipser maximal-matching initializer, serial and multithreaded.
//!
//! Karp-Sipser repeatedly applies the **degree-1 rule**: a vertex with
//! exactly one unmatched neighbor is matched to that neighbor (this is
//! always optimal — some maximum matching contains that edge). When no
//! degree-1 vertex exists, a random unmatched vertex is matched to a random
//! unmatched neighbor. The paper uses this as the initializer for every
//! algorithm it evaluates (§II-B), citing Duff et al.'s finding that it is
//! among the best initializers for cardinality matching.
//!
//! [`parallel_karp_sipser`] is the multithreaded form; its docs give the
//! claim protocol.

use crate::Matching;
use graft_graph::{BipartiteCsr, VertexId, NONE};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use std::collections::VecDeque;

// Under `--cfg graft_check` the per-vertex words become graft-check's
// instrumented atomics, so the model suite explores the real claim
// protocol. Outside the checker they are std's.
#[cfg(not(graft_check))]
use std::sync::atomic::{AtomicU32, Ordering};

#[cfg(graft_check)]
use graft_check::sync::atomic::{AtomicU32, Ordering};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Side {
    X,
    Y,
}

/// The serial state of a matched vertex, in place of its effective degree.
const MATCHED: u32 = u32::MAX;

/// Karp-Sipser maximal matching with the degree-1 rule and seeded random
/// edge selection. Runs in `O(n + m)` amortized, serially, whatever the
/// ambient thread count.
///
/// Deterministic for a fixed `(g, seed)` pair, which the experiment harness
/// relies on for reproducibility.
///
/// ```
/// use graft_core::init::karp_sipser;
/// use graft_graph::BipartiteCsr;
///
/// let g = BipartiteCsr::from_edges(2, 2, &[(0, 0), (1, 0), (1, 1)]);
/// let m = karp_sipser(&g, 42);
/// // The degree-1 rule matches x0 to its only neighbor first, so KS
/// // finds the perfect matching here.
/// assert_eq!(m.cardinality(), 2);
/// ```
pub fn karp_sipser(g: &BipartiteCsr, seed: u64) -> Matching {
    let nx = g.num_x();
    let mut ks = SerialKs {
        g,
        m: Matching::for_graph(g),
        deg_x: (0..nx).map(|x| g.x_degree(x as VertexId) as u32).collect(),
        deg_y: (0..g.num_y())
            .map(|y| g.y_degree(y as VertexId) as u32)
            .collect(),
        q1: VecDeque::new(),
    };
    for (x, &d) in ks.deg_x.iter().enumerate() {
        if d == 1 {
            ks.q1.push_back((Side::X, x as VertexId));
        }
    }
    for (y, &d) in ks.deg_y.iter().enumerate() {
        if d == 1 {
            ks.q1.push_back((Side::Y, y as VertexId));
        }
    }

    let mut rng = SmallRng::seed_from_u64(seed);
    // Pool of X vertices to consider in the random phase. Every edge has an
    // X endpoint, so exhausting this pool certifies maximality.
    let mut pool: Vec<VertexId> = (0..nx as VertexId)
        .filter(|&x| ks.deg_x[x as usize] > 0)
        .collect();

    loop {
        ks.degree_one_rule();
        // Random phase: a random live X vertex and its k-th unmatched
        // neighbor for a random k.
        let mut picked = None;
        while !pool.is_empty() {
            let x = pool.swap_remove(rng.gen_range(0..pool.len()));
            let d = ks.deg_x[x as usize];
            if d != MATCHED && d != 0 {
                picked = Some((x, rng.gen_range(0..d as usize)));
                break;
            }
        }
        let Some((x, k)) = picked else { break };
        let y = ks.free_neighbors_x(x).nth(k).expect("k < effective degree");
        ks.match_pair(x, y);
    }
    ks.m
}

/// The serial algorithm's state. `deg_x`/`deg_y` hold each unmatched
/// vertex's effective degree (its number of unmatched neighbors) and
/// [`MATCHED`] once it is matched, so one read answers both questions.
struct SerialKs<'g> {
    g: &'g BipartiteCsr,
    m: Matching,
    deg_x: Vec<u32>,
    deg_y: Vec<u32>,
    /// Vertices whose effective degree reached 1, in FIFO order.
    q1: VecDeque<(Side, VertexId)>,
}

impl SerialKs<'_> {
    /// The unmatched neighbors of `x`, in adjacency order.
    fn free_neighbors_x(&self, x: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.g
            .x_neighbors(x)
            .iter()
            .copied()
            .filter(|&y| self.deg_y[y as usize] != MATCHED)
    }

    /// Matches `(x, y)` and decrements the effective degrees of their
    /// unmatched neighbors, queueing those that reach 1.
    fn match_pair(&mut self, x: VertexId, y: VertexId) {
        self.m.match_pair(x, y);
        self.deg_x[x as usize] = MATCHED;
        self.deg_y[y as usize] = MATCHED;
        for &y2 in self.g.x_neighbors(x) {
            let d = &mut self.deg_y[y2 as usize];
            if *d != MATCHED {
                *d -= 1;
                if *d == 1 {
                    self.q1.push_back((Side::Y, y2));
                }
            }
        }
        for &x2 in self.g.y_neighbors(y) {
            let d = &mut self.deg_x[x2 as usize];
            if *d != MATCHED {
                *d -= 1;
                if *d == 1 {
                    self.q1.push_back((Side::X, x2));
                }
            }
        }
    }

    /// Applies the degree-1 rule until the queue is empty.
    fn degree_one_rule(&mut self) {
        while let Some((side, v)) = self.q1.pop_front() {
            match side {
                Side::X => {
                    if self.deg_x[v as usize] != 1 {
                        continue;
                    }
                    let y = self
                        .free_neighbors_x(v)
                        .next()
                        .expect("degree counter promised an unmatched neighbor");
                    self.match_pair(v, y);
                }
                Side::Y => {
                    if self.deg_y[v as usize] != 1 {
                        continue;
                    }
                    let x = self
                        .g
                        .y_neighbors(v)
                        .iter()
                        .copied()
                        .find(|&x| self.deg_x[x as usize] != MATCHED)
                        .expect("degree counter promised an unmatched neighbor");
                    self.match_pair(x, v);
                }
            }
        }
    }
}

/// The mate of an `X` vertex that a thread has claimed but not matched yet
/// (or could not match).
const CLAIMED: VertexId = NONE - 1;

/// A final mate slot as a matching reads it: a claim that found no free
/// neighbor leaves its `X` unmatched.
fn final_mate(mate: VertexId) -> VertexId {
    if mate == CLAIMED {
        NONE
    } else {
        mate
    }
}

/// Karp-Sipser on the ambient rayon pool: a two-sided lock-free variant
/// after the multithreaded KS of Azad et al. (IPDPS 2012). It returns a
/// maximal matching of the same quality as [`karp_sipser`]'s, but which
/// one depends on the schedule.
///
/// Each vertex has an atomic mate and an atomic *effective degree* (its
/// neighbors not yet claimed).
///
/// * **Claims.** A thread owns an `X` vertex once its CAS moves the mate
///   from `NONE` to a claimed mark; it claims a `Y` vertex for that `X` by
///   a CAS of the `Y` mate from `NONE` to the `X`. Claims are never
///   released.
/// * **Degree-1 rule.** A match decrements the effective degree of every
///   unclaimed neighbor; a neighbor whose degree falls from 2 to 1 goes on
///   the thread's local stack and is handled next. A degree-1 `X` is
///   claimed and takes its one free neighbor. A degree-1 `Y` first claims
///   an unclaimed `X` neighbor, then CASes its own mate; if that CAS loses,
///   the `X` it holds looks for another `Y`.
/// * **Random phase.** After a pass over the vertices of degree 1, the
///   threads walk `X` in a seeded random permutation. Each unclaimed `X`
///   with a free neighbor is claimed and scans its neighbors from a seeded
///   random offset.
///
/// Maximality follows from the claims alone. An `X` left unmatched saw
/// every neighbor already claimed, and every claimed `Y` is matched. An
/// unmatched `Y` was never claimed, so every `X` neighbor of it is matched:
/// a claimed one would have seen it free, and an `X` the random phase
/// skipped had every neighbor matched already.
///
/// On a one-thread pool, or when `n + m` is below the MS-BFS engine's
/// inline cutoff (a pool batch would cost more than it saves), it returns
/// `karp_sipser(g, seed)`.
///
/// ```
/// use graft_core::init::{is_maximal, parallel_karp_sipser};
/// use graft_graph::BipartiteCsr;
///
/// let g = BipartiteCsr::from_edges(2, 2, &[(0, 0), (1, 0), (1, 1)]);
/// let m = parallel_karp_sipser(&g, 42);
/// assert!(is_maximal(&g, &m));
/// ```
pub fn parallel_karp_sipser(g: &BipartiteCsr, seed: u64) -> Matching {
    let work = g.num_x() + g.num_y() + g.num_edges();
    // The last test keeps `CLAIMED` from being a `Y` id.
    if rayon::current_num_threads() == 1
        || work < crate::ms_bfs::INLINE_WORK
        || g.num_y() > CLAIMED as usize
    {
        return karp_sipser(g, seed);
    }
    let ks = ParKs::new(g, seed);
    (0..(g.num_x() + g.num_y()) as VertexId)
        .into_par_iter()
        .for_each_init(Vec::new, |stack, v| ks.degree_one_item(v, stack));
    let mut order: Vec<VertexId> = (0..g.num_x() as VertexId).collect();
    order.shuffle(&mut SmallRng::seed_from_u64(seed));
    order
        .par_iter()
        .for_each_init(Vec::new, |stack, &x| ks.random_item(x, stack));
    ks.into_matching()
}

/// The parallel algorithm's shared state: per vertex, its mate (`NONE`
/// while unclaimed) and its effective degree. Public only so the
/// graft-check model suite can drive the per-item code directly.
pub struct ParKs<'g> {
    g: &'g BipartiteCsr,
    seed: u64,
    mate_x: Vec<AtomicU32>,
    mate_y: Vec<AtomicU32>,
    deg_x: Vec<AtomicU32>,
    deg_y: Vec<AtomicU32>,
}

impl<'g> ParKs<'g> {
    fn new(g: &'g BipartiteCsr, seed: u64) -> Self {
        let unclaimed = |n: usize| (0..n).map(|_| AtomicU32::new(NONE)).collect();
        Self {
            g,
            seed,
            mate_x: unclaimed(g.num_x()),
            mate_y: unclaimed(g.num_y()),
            deg_x: (0..g.num_x() as VertexId)
                .map(|x| AtomicU32::new(g.x_degree(x) as u32))
                .collect(),
            deg_y: (0..g.num_y() as VertexId)
                .map(|y| AtomicU32::new(g.y_degree(y) as u32))
                .collect(),
        }
    }

    fn mate(&self, side: Side, v: VertexId) -> &AtomicU32 {
        match side {
            Side::X => &self.mate_x[v as usize],
            Side::Y => &self.mate_y[v as usize],
        }
    }

    fn degree(&self, side: Side, v: VertexId) -> &AtomicU32 {
        match side {
            Side::X => &self.deg_x[v as usize],
            Side::Y => &self.deg_y[v as usize],
        }
    }

    /// Whether `v` has no mate and no claim yet.
    fn unclaimed(&self, side: Side, v: VertexId) -> bool {
        self.mate(side, v).load(Ordering::Relaxed) == NONE
    }

    /// Moves `v`'s mate from `NONE` to `mate`; false when another thread
    /// claimed `v` first. The relaxed load screens out claimed vertices
    /// before the CAS.
    fn claim(&self, side: Side, v: VertexId, mate: VertexId) -> bool {
        let slot = self.mate(side, v);
        #[cfg(graft_check)]
        if side == Side::X
            && check_api::UNGUARDED_X_CLAIM.load(std::sync::atomic::Ordering::Relaxed)
        {
            let free = slot.load(Ordering::Relaxed) == NONE;
            if free {
                slot.store(mate, Ordering::Relaxed);
            }
            return free;
        }
        slot.load(Ordering::Relaxed) == NONE
            && slot
                .compare_exchange(NONE, mate, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
    }

    /// Decrements the effective degree of `v` if it is unclaimed; true
    /// when it fell from 2 to 1. Each matched neighbor decrements once, so
    /// a degree never drops below zero, even for a vertex claimed between
    /// the check and the decrement.
    fn drop_degree(&self, side: Side, v: VertexId) -> bool {
        self.unclaimed(side, v) && self.degree(side, v).fetch_sub(1, Ordering::Relaxed) == 2
    }

    /// Records the match of `x` (claimed by this thread) and `y` (claimed
    /// for `x`), and pushes the neighbors whose degree fell to 1.
    fn matched(&self, x: VertexId, y: VertexId, stack: &mut Vec<(Side, VertexId)>) {
        self.mate_x[x as usize].store(y, Ordering::Relaxed);
        for &y2 in self.g.x_neighbors(x) {
            if self.drop_degree(Side::Y, y2) {
                stack.push((Side::Y, y2));
            }
        }
        for &x2 in self.g.y_neighbors(y) {
            if self.drop_degree(Side::X, x2) {
                stack.push((Side::X, x2));
            }
        }
    }

    /// Matches `x`, which this thread has claimed, to its first free
    /// neighbor from position `start` on, wrapping around. Leaves `x`
    /// unmatched when every neighbor is claimed.
    fn match_x(&self, x: VertexId, start: usize, stack: &mut Vec<(Side, VertexId)>) {
        let (head, tail) = self.g.x_neighbors(x).split_at(start);
        if let Some(&y) = tail
            .iter()
            .chain(head)
            .find(|&&y| self.claim(Side::Y, y, x))
        {
            self.matched(x, y, stack);
        }
    }

    /// Applies the degree-1 rule to every vertex on `stack` that is still
    /// unclaimed with effective degree 1, until the stack is empty.
    fn degree_one_rule(&self, stack: &mut Vec<(Side, VertexId)>) {
        while let Some((side, v)) = stack.pop() {
            if !self.unclaimed(side, v) || self.degree(side, v).load(Ordering::Relaxed) != 1 {
                continue;
            }
            match side {
                Side::X => {
                    if self.claim(Side::X, v, CLAIMED) {
                        self.match_x(v, 0, stack);
                    }
                }
                Side::Y => {
                    let held = self
                        .g
                        .y_neighbors(v)
                        .iter()
                        .copied()
                        .find(|&x| self.claim(Side::X, x, CLAIMED));
                    if let Some(x) = held {
                        if self.claim(Side::Y, v, x) {
                            self.matched(x, v, stack);
                        } else {
                            self.match_x(x, 0, stack);
                        }
                    }
                }
            }
        }
    }

    /// One item of the degree-1 pass: `X` vertices are `0..nx`, and `Y`
    /// vertex `y` is `nx + y`.
    fn degree_one_item(&self, v: VertexId, stack: &mut Vec<(Side, VertexId)>) {
        let nx = self.g.num_x() as VertexId;
        stack.push(if v < nx {
            (Side::X, v)
        } else {
            (Side::Y, v - nx)
        });
        self.degree_one_rule(stack);
    }

    /// One item of the random phase: claims `x` if it is unclaimed with a
    /// free neighbor, scans from a seeded random offset, and then applies
    /// the degree-1 rule to whatever that match pushed.
    fn random_item(&self, x: VertexId, stack: &mut Vec<(Side, VertexId)>) {
        if self.deg_x[x as usize].load(Ordering::Relaxed) == 0 || !self.claim(Side::X, x, CLAIMED) {
            return;
        }
        let start = splitmix64(self.seed ^ u64::from(x)) % self.g.x_degree(x) as u64;
        self.match_x(x, start as usize, stack);
        self.degree_one_rule(stack);
    }

    /// The matching, with claimed-but-unmatched `X` vertices unmatched.
    /// The mate vectors reuse the atomics' buffers.
    fn into_matching(self) -> Matching {
        let mut cardinality = 0;
        let mate_x: Vec<VertexId> = self
            .mate_x
            .into_iter()
            .map(|m| {
                let y = final_mate(m.into_inner());
                cardinality += usize::from(y != NONE);
                y
            })
            .collect();
        let mate_y = self.mate_y.into_iter().map(AtomicU32::into_inner).collect();
        Matching::from_counted_mates(mate_x, mate_y, cardinality)
    }
}

/// SplitMix64's finalizer: a well-mixed 64-bit hash of `z`.
fn splitmix64(z: u64) -> u64 {
    let mut z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Test-only surface for the graft-check model suite: build the shared
/// state, run one item of either pass exactly as a pool task would, and
/// read the mate arrays back.
#[cfg(graft_check)]
pub mod check_api {
    use super::*;

    /// When set, an `X` claim is a load and a store instead of a CAS, so
    /// two threads can both claim one `X` and match it twice. A plain std
    /// atomic on purpose: this is test configuration, not modeled state,
    /// so reading it adds no scheduling points.
    pub static UNGUARDED_X_CLAIM: std::sync::atomic::AtomicBool =
        std::sync::atomic::AtomicBool::new(false);

    /// Fresh shared state for `g`: every vertex unclaimed.
    pub fn make_shared(g: &BipartiteCsr, seed: u64) -> ParKs<'_> {
        ParKs::new(g, seed)
    }

    /// One item of the degree-1 pass (`X` is `0..nx`, `Y` is `nx + y`).
    pub fn degree_one_item(ks: &ParKs<'_>, v: VertexId) {
        ks.degree_one_item(v, &mut Vec::new());
    }

    /// One item of the random phase.
    pub fn random_item(ks: &ParKs<'_>, x: VertexId) {
        ks.random_item(x, &mut Vec::new());
    }

    /// `(mate_x, mate_y)`, with claimed-but-unmatched `X` as `NONE`.
    pub fn mates(ks: &ParKs<'_>) -> (Vec<VertexId>, Vec<VertexId>) {
        let load = |m: &AtomicU32| m.load(Ordering::Relaxed);
        (
            ks.mate_x.iter().map(|m| final_mate(load(m))).collect(),
            ks.mate_y.iter().map(load).collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::is_maximal;

    fn crown(k: usize) -> BipartiteCsr {
        // Perfect matching exists: (i, i); plus distracting edges (i, i+1).
        let mut edges = Vec::new();
        for i in 0..k as VertexId {
            edges.push((i, i));
            if (i as usize) < k - 1 {
                edges.push((i, i + 1));
            }
        }
        BipartiteCsr::from_edges(k, k, &edges)
    }

    #[test]
    fn ks_is_valid_and_maximal() {
        let g = crown(50);
        let m = karp_sipser(&g, 1);
        assert!(m.validate(&g).is_ok());
        assert!(is_maximal(&g, &m));
    }

    #[test]
    fn ks_deterministic_per_seed() {
        let g = crown(64);
        let a = karp_sipser(&g, 7);
        let b = karp_sipser(&g, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn ks_degree_one_rule_finds_perfect_matching_on_path() {
        // A path x0-y0-x1-y1-...-x(k-1)-y(k-1): degree-1 cascade should
        // recover the unique perfect matching without any random picks.
        let k = 20;
        let mut edges = Vec::new();
        for i in 0..k as VertexId {
            edges.push((i, i));
            if i > 0 {
                edges.push((i, i - 1));
            }
        }
        let g = BipartiteCsr::from_edges(k, k, &edges);
        let m = karp_sipser(&g, 0);
        assert_eq!(m.cardinality(), k);
    }

    #[test]
    fn ks_handles_isolated_vertices() {
        let g = BipartiteCsr::from_edges(5, 5, &[(0, 0), (1, 1)]);
        let m = karp_sipser(&g, 3);
        assert_eq!(m.cardinality(), 2);
        assert!(is_maximal(&g, &m));
    }

    #[test]
    fn ks_empty_graph() {
        let g = BipartiteCsr::from_edges(0, 0, &[]);
        assert_eq!(karp_sipser(&g, 0).cardinality(), 0);
    }

    #[test]
    fn ks_star() {
        // Hub x0 with 5 leaves: degree-1 rule fires on the leaves.
        let g = BipartiteCsr::from_edges(1, 5, &[(0, 0), (0, 1), (0, 2), (0, 3), (0, 4)]);
        let m = karp_sipser(&g, 0);
        assert_eq!(m.cardinality(), 1);
    }

    #[test]
    fn ks_at_least_half_of_maximum_on_crown() {
        let g = crown(40);
        let m = karp_sipser(&g, 11);
        assert!(m.cardinality() >= 20);
    }

    /// A crown long enough to clear the inline cutoff, so a pool of two
    /// or more threads runs the parallel protocol.
    #[test]
    fn parallel_ks_is_valid_and_maximal_above_the_cutoff() {
        let g = crown(40_000);
        for threads in [1, 2, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let m = pool.install(|| parallel_karp_sipser(&g, 5));
            assert!(m.validate(&g).is_ok(), "{threads} threads");
            assert!(is_maximal(&g, &m), "{threads} threads");
            if threads == 1 {
                assert_eq!(m, karp_sipser(&g, 5));
            }
        }
    }

    #[test]
    fn parallel_ks_below_the_cutoff_is_the_serial_ks() {
        let g = crown(100);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        assert_eq!(
            pool.install(|| parallel_karp_sipser(&g, 9)),
            karp_sipser(&g, 9)
        );
    }
}
