//! Single-shot augmenting-path searches over an abstract adjacency view.
//!
//! The solvers in this crate run to a fixed point on a static
//! [`BipartiteCsr`]. A *dynamic* matching (the `graft-dyn` crate) instead
//! repairs one edge update at a time, which needs exactly one augmenting
//! BFS per update — from a newly exposed vertex, or as a wave from every
//! free `X` vertex. A search has no traversal budget: each vertex enters
//! its frontier at most once, so it reads each edge of the view at most
//! once, and it ends with a flipped path or a proof that none exists.
//!
//! Those searches live here, inside graft-core, because they run on the
//! MS-BFS engine's arena of the [`SolveWorkspace`], the paper's
//! `visited`, `parent` and `root` pointers (§III-B) with its frontier
//! vectors. Opening a search advances the arena's epoch instead of
//! clearing it, so a search on a warm workspace touches only the vertices
//! it reaches and allocates nothing. A found path is flipped in place
//! along its parent pointers, as Hopcroft-Karp's DFS flips its stack.
//!
//! The graph is abstracted behind [`XYAdjacency`] so the same search runs
//! on a plain CSR *and* on graft-dyn's delta overlay (base CSR minus
//! tombstones plus insert buffers) without materializing anything.

use crate::workspace::{pack, unpack, MsBuffers, SolveWorkspace};
use crate::Matching;
use graft_graph::{BipartiteCsr, VertexId, NONE};
use std::sync::atomic::AtomicU32;

/// An adjacency view of a bipartite graph, traversable from both sides
/// with early exit.
///
/// The callback returns `true` to stop the enumeration; the method
/// returns whether it stopped early. Implementations must enumerate each
/// neighbor exactly once and agree between the two directions
/// (`y ∈ N(x) ⇔ x ∈ N(y)`).
pub trait XYAdjacency {
    /// Number of `X`-side vertices.
    fn nx(&self) -> usize;
    /// Number of `Y`-side vertices.
    fn ny(&self) -> usize;
    /// Enumerates the `Y` neighbors of `x` until `f` returns `true`.
    fn for_each_x_neighbor(&self, x: VertexId, f: &mut dyn FnMut(VertexId) -> bool) -> bool;
    /// Enumerates the `X` neighbors of `y` until `f` returns `true`.
    fn for_each_y_neighbor(&self, y: VertexId, f: &mut dyn FnMut(VertexId) -> bool) -> bool;
}

impl XYAdjacency for BipartiteCsr {
    fn nx(&self) -> usize {
        self.num_x()
    }

    fn ny(&self) -> usize {
        self.num_y()
    }

    fn for_each_x_neighbor(&self, x: VertexId, f: &mut dyn FnMut(VertexId) -> bool) -> bool {
        self.x_neighbors(x).iter().any(|&y| f(y))
    }

    fn for_each_y_neighbor(&self, y: VertexId, f: &mut dyn FnMut(VertexId) -> bool) -> bool {
        self.y_neighbors(y).iter().any(|&x| f(x))
    }
}

/// The result of one augmenting-path search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AugmentOutcome {
    /// An augmenting path was found and applied: the matching grew by one.
    Augmented {
        /// Vertices on the applied path (even, ≥ 2).
        path_len: usize,
        /// Edges traversed by the search.
        edges_traversed: u64,
    },
    /// The search ran to completion without finding an augmenting path —
    /// a *proof* that none exists from the given source(s), so a maximum
    /// matching stays maximum.
    Exhausted {
        /// Edges traversed by the search.
        edges_traversed: u64,
    },
}

impl AugmentOutcome {
    /// Whether the search applied an augmenting path.
    pub fn augmented(&self) -> bool {
        matches!(self, AugmentOutcome::Augmented { .. })
    }

    /// Edges traversed, whatever the outcome.
    pub fn edges_traversed(&self) -> u64 {
        match *self {
            AugmentOutcome::Augmented {
                edges_traversed, ..
            }
            | AugmentOutcome::Exhausted { edges_traversed } => edges_traversed,
        }
    }
}

/// Stamps `mark` with `epoch`; whether it was not stamped yet. A mark
/// already stamped is not written again.
fn stamp(mark: &mut AtomicU32, epoch: u32) -> bool {
    let mark = mark.get_mut();
    if *mark == epoch {
        return false;
    }
    *mark = epoch;
    true
}

/// BFS for an augmenting path from the single free `X` vertex `x0`,
/// applying it to `m` if found.
///
/// Alternating structure: edges `x → y` are traversed unmatched and
/// `y → x` only through the matched edge, so any path found starts
/// unmatched at `x0` and ends at a free `y` — exactly an augmenting path.
/// The BFS finds a shortest one.
pub fn augment_from_x<G: XYAdjacency + ?Sized>(
    g: &G,
    m: &mut Matching,
    x0: VertexId,
    ws: &mut SolveWorkspace,
) -> AugmentOutcome {
    debug_assert!(!m.is_x_matched(x0), "source x must be free");
    x_side_search(g, m, |_, sources| sources.push(x0), ws)
}

/// BFS wave for an augmenting path from *every* free `X` vertex at once,
/// applying the first one found. This is the repair used when an inserted
/// edge joins two already-matched endpoints: any augmenting path the new
/// edge enables still starts at some free `X` vertex, and the multi-source
/// wave finds it without guessing which. The sources are read by the
/// matching's own scan into the workspace frontier: a warm search does
/// not allocate.
pub fn augment_from_free_x<G: XYAdjacency + ?Sized>(
    g: &G,
    m: &mut Matching,
    ws: &mut SolveWorkspace,
) -> AugmentOutcome {
    x_side_search(g, m, |m, sources| sources.extend(m.unmatched_x()), ws)
}

/// The BFS of [`augment_from_x`] and [`augment_from_free_x`], from the
/// free `X` that `sources` appends to the (empty) first frontier.
fn x_side_search<G: XYAdjacency + ?Sized>(
    g: &G,
    m: &mut Matching,
    sources: impl FnOnce(&Matching, &mut Vec<VertexId>),
    ws: &mut SolveWorkspace,
) -> AugmentOutcome {
    let epoch = ws.ms.begin_solve(g.nx(), g.ny(), true);
    let MsBuffers {
        visited,
        parent_y,
        root_x,
        frontier,
        next,
        ..
    } = &mut ws.ms;
    frontier.clear();
    sources(m, frontier);
    for &x in frontier.iter() {
        // `root_x` doubles as the X-side visited mark (epoch-packed, so
        // this costs no clear); the stored value is unused.
        *root_x[x as usize].get_mut() = pack(epoch, x);
    }

    let (mut traversed, mut found) = (0u64, NONE);
    while !frontier.is_empty() && found == NONE {
        next.clear();
        for &x in frontier.iter() {
            let stopped = g.for_each_x_neighbor(x, &mut |y| {
                traversed += 1;
                if !stamp(&mut visited[y as usize], epoch) {
                    return false;
                }
                *parent_y[y as usize].get_mut() = x;
                let xm = m.mate_of_y(y);
                if xm == NONE {
                    found = y;
                    return true;
                }
                let root = root_x[xm as usize].get_mut();
                if unpack(epoch, *root) == NONE {
                    *root = pack(epoch, x);
                    next.push(xm);
                }
                false
            });
            if stopped {
                break;
            }
        }
        std::mem::swap(frontier, next);
    }

    if found == NONE {
        return AugmentOutcome::Exhausted {
            edges_traversed: traversed,
        };
    }
    AugmentOutcome::Augmented {
        path_len: m.flip_path_to_y(found, |y| *parent_y[y as usize].get_mut()),
        edges_traversed: traversed,
    }
}

/// BFS for an augmenting path from the single free `Y` vertex `y0`,
/// applying it to `m` if found. Mirror image of [`augment_from_x`]:
/// edges `y → x` are traversed unmatched and `x → y` only through the
/// matched edge, so a found path runs from a free `x` back to `y0`.
pub fn augment_from_y<G: XYAdjacency + ?Sized>(
    g: &G,
    m: &mut Matching,
    y0: VertexId,
    ws: &mut SolveWorkspace,
) -> AugmentOutcome {
    debug_assert!(!m.is_y_matched(y0), "source y must be free");
    let epoch = ws.ms.begin_solve(g.nx(), g.ny(), true);
    let MsBuffers {
        visited,
        root_x,
        frontier,
        next,
        ..
    } = &mut ws.ms;
    frontier.clear();
    *visited[y0 as usize].get_mut() = epoch;
    frontier.push(y0);

    let (mut traversed, mut found) = (0u64, NONE);
    while !frontier.is_empty() && found == NONE {
        next.clear();
        for &y in frontier.iter() {
            let stopped = g.for_each_y_neighbor(y, &mut |x| {
                traversed += 1;
                // `root_x` stores the Y vertex that discovered `x`: the
                // visited mark and the parent pointer in one packed slot.
                let root = root_x[x as usize].get_mut();
                if unpack(epoch, *root) != NONE {
                    return false;
                }
                *root = pack(epoch, y);
                let ym = m.mate_of_x(x);
                if ym == NONE {
                    found = x;
                    return true;
                }
                if stamp(&mut visited[ym as usize], epoch) {
                    next.push(ym);
                }
                false
            });
            if stopped {
                break;
            }
        }
        std::mem::swap(frontier, next);
    }

    if found == NONE {
        return AugmentOutcome::Exhausted {
            edges_traversed: traversed,
        };
    }
    AugmentOutcome::Augmented {
        path_len: m.flip_path_to_x(found, |x| unpack(epoch, *root_x[x as usize].get_mut())),
        edges_traversed: traversed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph() -> BipartiteCsr {
        // x0 - y0 - x1 - y1 - x2 - y2 (a 6-vertex alternating chain).
        BipartiteCsr::from_edges(3, 3, &[(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)])
    }

    #[test]
    fn x_search_finds_length_one_path() {
        let g = BipartiteCsr::from_edges(1, 1, &[(0, 0)]);
        let mut m = Matching::empty(1, 1);
        let mut ws = SolveWorkspace::new();
        let out = augment_from_x(&g, &mut m, 0, &mut ws);
        assert!(matches!(out, AugmentOutcome::Augmented { path_len: 2, .. }));
        assert_eq!(m.mate_of_x(0), 0);
    }

    #[test]
    fn x_search_walks_alternating_chain() {
        let g = path_graph();
        let mut m = Matching::empty(3, 3);
        m.match_pair(1, 0);
        m.match_pair(2, 1);
        let mut ws = SolveWorkspace::new();
        // Only augmenting path from x0: x0-y0-x1-y1-x2-y2.
        let out = augment_from_x(&g, &mut m, 0, &mut ws);
        assert!(matches!(out, AugmentOutcome::Augmented { path_len: 6, .. }));
        assert_eq!(m.cardinality(), 3);
        m.validate(&g).unwrap();
    }

    #[test]
    fn y_search_walks_alternating_chain() {
        let g = path_graph();
        let mut m = Matching::empty(3, 3);
        m.match_pair(1, 0);
        m.match_pair(2, 1);
        let mut ws = SolveWorkspace::new();
        let out = augment_from_y(&g, &mut m, 2, &mut ws);
        assert!(matches!(out, AugmentOutcome::Augmented { path_len: 6, .. }));
        assert_eq!(m.cardinality(), 3);
        m.validate(&g).unwrap();
    }

    #[test]
    fn exhausted_is_a_no_path_proof() {
        // x0 and x1 both only see y0.
        let g = BipartiteCsr::from_edges(2, 1, &[(0, 0), (1, 0)]);
        let mut m = Matching::empty(2, 1);
        m.match_pair(0, 0);
        let mut ws = SolveWorkspace::new();
        let out = augment_from_x(&g, &mut m, 1, &mut ws);
        assert!(matches!(out, AugmentOutcome::Exhausted { .. }));
        assert_eq!(m.cardinality(), 1);
    }

    #[test]
    fn multi_source_wave_reaches_through_matched_endpoints() {
        // x0-y0 and x1-y1 matched; the only augmenting structure needs
        // the wave to pass through matched vertices: x2 free sees y0,
        // x0's alternative is y2.
        let g = BipartiteCsr::from_edges(3, 3, &[(0, 0), (0, 2), (1, 1), (2, 0)]);
        let mut m = Matching::empty(3, 3);
        m.match_pair(0, 0);
        m.match_pair(1, 1);
        let mut ws = SolveWorkspace::new();
        let out = augment_from_free_x(&g, &mut m, &mut ws);
        assert!(out.augmented());
        assert_eq!(m.cardinality(), 3);
        m.validate(&g).unwrap();
    }

    #[test]
    fn workspace_reuse_across_searches_is_clean() {
        // The same workspace serves many searches on different graphs;
        // epoch bumping must isolate them without clears.
        let mut ws = SolveWorkspace::new();
        for seed in 0..20u64 {
            let g = crate::tests_support::random_graph(30, 30, 90, seed);
            let mut m = Matching::empty(30, 30);
            loop {
                let out = augment_from_free_x(&g, &mut m, &mut ws);
                if !out.augmented() {
                    break;
                }
            }
            m.validate(&g).unwrap();
            let oracle = crate::hopcroft_karp(&g, Matching::for_graph(&g))
                .matching
                .cardinality();
            assert_eq!(m.cardinality(), oracle, "seed {seed}");
        }
    }

    #[test]
    fn csr_adjacency_early_exit() {
        let g = path_graph();
        let mut seen = 0;
        let stopped = g.for_each_x_neighbor(1, &mut |_| {
            seen += 1;
            true
        });
        assert!(stopped);
        assert_eq!(seen, 1);
        let mut all = Vec::new();
        let stopped = g.for_each_y_neighbor(1, &mut |x| {
            all.push(x);
            false
        });
        assert!(!stopped);
        assert_eq!(all, vec![1, 2]);
    }
}
