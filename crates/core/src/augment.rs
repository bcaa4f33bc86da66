//! Single-shot augmenting-path searches over an abstract adjacency view.
//!
//! The solvers in this crate run to a fixed point on a static
//! [`BipartiteCsr`]. A *dynamic* matching (the `graft-dyn` crate) instead
//! repairs one edge update at a time, which needs exactly one bounded
//! augmenting BFS per update — from a newly exposed vertex, or as a wave
//! from every free `X` vertex. Those searches live here, inside
//! graft-core, because they borrow the [`SolveWorkspace`] internals (the
//! epoch-versioned visited marks and frontier vectors) that make the hot
//! path allocation-free: `begin_solve` bumps the epoch instead of
//! clearing, so a search on a warm workspace touches only the vertices it
//! actually reaches.
//!
//! The graph is abstracted behind [`XYAdjacency`] so the same search runs
//! on a plain CSR *and* on graft-dyn's delta overlay (base CSR minus
//! tombstones plus insert buffers) without materializing anything.

use crate::workspace::SolveWorkspace;
use crate::Matching;
use graft_graph::{BipartiteCsr, VertexId, NONE};

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

/// The result of one bounded augmenting-path search.
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
    /// The traversal budget ran out before the search completed. The
    /// matching is unchanged; the caller must fall back to an exact
    /// re-solve to restore the maximum invariant.
    BudgetExceeded {
        /// Edges traversed before giving up (> the budget).
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
            | AugmentOutcome::Exhausted { edges_traversed }
            | AugmentOutcome::BudgetExceeded { edges_traversed } => edges_traversed,
        }
    }
}

/// BFS for an augmenting path from the single free `X` vertex `x0`,
/// applying it to `m` if found. Traverses at most `budget` edges
/// (pass `u64::MAX` for an exhaustive search).
///
/// Alternating structure: edges `x → y` are traversed unmatched and
/// `y → x` only through the matched edge, so any path found starts
/// unmatched at `x0` and ends at a free `y` — exactly an augmenting path.
pub fn augment_from_x<G: XYAdjacency + ?Sized>(
    g: &G,
    m: &mut Matching,
    x0: VertexId,
    budget: u64,
    ws: &mut SolveWorkspace,
) -> AugmentOutcome {
    debug_assert!(!m.is_x_matched(x0), "source x must be free");
    x_side_search(g, m, |_, sources| sources.push(x0), budget, ws)
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
    budget: u64,
    ws: &mut SolveWorkspace,
) -> AugmentOutcome {
    x_side_search(
        g,
        m,
        |m, sources| sources.extend(m.unmatched_x()),
        budget,
        ws,
    )
}

/// The BFS of [`augment_from_x`] and [`augment_from_free_x`], from the
/// free `X` that `sources` appends to the (empty) first frontier.
fn x_side_search<G: XYAdjacency + ?Sized>(
    g: &G,
    m: &mut Matching,
    sources: impl FnOnce(&Matching, &mut Vec<VertexId>),
    budget: u64,
    ws: &mut SolveWorkspace,
) -> AugmentOutcome {
    let ms = &mut ws.ms;
    ms.begin_solve(g.nx(), g.ny());
    let mut frontier = std::mem::take(&mut ms.frontier);
    let mut next = std::mem::take(&mut ms.next);
    frontier.clear();
    next.clear();
    sources(m, &mut frontier);
    for &x in &frontier {
        // `root_x` doubles as the X-side visited mark (epoch-packed, so
        // this costs no clear); the stored value is unused.
        ms.set_root_x(x, x);
    }

    let mut traversed = 0u64;
    let mut over_budget = false;
    let mut found: Option<VertexId> = None;
    while !frontier.is_empty() && found.is_none() && !over_budget {
        for &x in &frontier {
            g.for_each_x_neighbor(x, &mut |y| {
                traversed += 1;
                if traversed > budget {
                    over_budget = true;
                    return true;
                }
                if ms.is_visited(y) {
                    return false;
                }
                ms.set_visited(y);
                ms.parent_y[y as usize] = x;
                let xm = m.mate_of_y(y);
                if xm == NONE {
                    found = Some(y);
                    return true;
                }
                if ms.root_of_x(xm) == NONE {
                    ms.set_root_x(xm, x);
                    next.push(xm);
                }
                false
            });
            if found.is_some() || over_budget {
                break;
            }
        }
        std::mem::swap(&mut frontier, &mut next);
        next.clear();
    }

    let outcome = match found {
        _ if over_budget => AugmentOutcome::BudgetExceeded {
            edges_traversed: traversed,
        },
        None => AugmentOutcome::Exhausted {
            edges_traversed: traversed,
        },
        Some(y_end) => {
            // Walk parents back to a (free) source, building the reversed
            // interleaved path, then flip it into augment's order.
            let mut path = std::mem::take(&mut ms.path);
            path.clear();
            path.push(y_end);
            let mut x = ms.parent_y[y_end as usize];
            loop {
                path.push(x);
                let ym = m.mate_of_x(x);
                if ym == NONE {
                    break;
                }
                path.push(ym);
                x = ms.parent_y[ym as usize];
            }
            path.reverse();
            m.augment(&path);
            let path_len = path.len();
            ms.path = path;
            AugmentOutcome::Augmented {
                path_len,
                edges_traversed: traversed,
            }
        }
    };
    ms.frontier = frontier;
    ms.next = next;
    outcome
}

/// BFS for an augmenting path from the single free `Y` vertex `y0`,
/// applying it to `m` if found. Mirror image of [`augment_from_x`]:
/// edges `y → x` are traversed unmatched and `x → y` only through the
/// matched edge, so a found path runs from a free `x` back to `y0`.
pub fn augment_from_y<G: XYAdjacency + ?Sized>(
    g: &G,
    m: &mut Matching,
    y0: VertexId,
    budget: u64,
    ws: &mut SolveWorkspace,
) -> AugmentOutcome {
    debug_assert!(!m.is_y_matched(y0), "source y must be free");
    let ms = &mut ws.ms;
    ms.begin_solve(g.nx(), g.ny());
    let mut frontier = std::mem::take(&mut ms.frontier);
    let mut next = std::mem::take(&mut ms.next);
    frontier.clear();
    next.clear();
    ms.set_visited(y0);
    frontier.push(y0);

    let mut traversed = 0u64;
    let mut over_budget = false;
    let mut found: Option<VertexId> = None;
    while !frontier.is_empty() && found.is_none() && !over_budget {
        for &y in &frontier {
            g.for_each_y_neighbor(y, &mut |x| {
                traversed += 1;
                if traversed > budget {
                    over_budget = true;
                    return true;
                }
                // `root_x` stores the Y vertex that discovered `x`: the
                // visited mark and the parent pointer in one packed slot.
                if ms.root_of_x(x) != NONE {
                    return false;
                }
                ms.set_root_x(x, y);
                let ym = m.mate_of_x(x);
                if ym == NONE {
                    found = Some(x);
                    return true;
                }
                if !ms.is_visited(ym) {
                    ms.set_visited(ym);
                    next.push(ym);
                }
                false
            });
            if found.is_some() || over_budget {
                break;
            }
        }
        std::mem::swap(&mut frontier, &mut next);
        next.clear();
    }

    let outcome = match found {
        _ if over_budget => AugmentOutcome::BudgetExceeded {
            edges_traversed: traversed,
        },
        None => AugmentOutcome::Exhausted {
            edges_traversed: traversed,
        },
        Some(x_end) => {
            // The parent walk already yields augment's order: the free
            // `x` first, alternating back to the free `y0`.
            let mut path = std::mem::take(&mut ms.path);
            path.clear();
            path.push(x_end);
            let mut y = ms.root_of_x(x_end);
            loop {
                path.push(y);
                let xm = m.mate_of_y(y);
                if xm == NONE {
                    break;
                }
                path.push(xm);
                y = ms.root_of_x(xm);
            }
            m.augment(&path);
            let path_len = path.len();
            ms.path = path;
            AugmentOutcome::Augmented {
                path_len,
                edges_traversed: traversed,
            }
        }
    };
    ms.frontier = frontier;
    ms.next = next;
    outcome
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
        let out = augment_from_x(&g, &mut m, 0, u64::MAX, &mut ws);
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
        let out = augment_from_x(&g, &mut m, 0, u64::MAX, &mut ws);
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
        let out = augment_from_y(&g, &mut m, 2, u64::MAX, &mut ws);
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
        let out = augment_from_x(&g, &mut m, 1, u64::MAX, &mut ws);
        assert!(matches!(out, AugmentOutcome::Exhausted { .. }));
        assert_eq!(m.cardinality(), 1);
    }

    #[test]
    fn budget_exhaustion_leaves_matching_unchanged() {
        let g = path_graph();
        let mut m = Matching::empty(3, 3);
        m.match_pair(1, 0);
        m.match_pair(2, 1);
        let before = m.clone();
        let mut ws = SolveWorkspace::new();
        let out = augment_from_x(&g, &mut m, 0, 1, &mut ws);
        assert!(matches!(out, AugmentOutcome::BudgetExceeded { .. }));
        assert_eq!(m, before);
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
        let out = augment_from_free_x(&g, &mut m, u64::MAX, &mut ws);
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
                let out = augment_from_free_x(&g, &mut m, u64::MAX, &mut ws);
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
