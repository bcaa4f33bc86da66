//! # graft-dyn — incremental bipartite matching under edge updates
//!
//! The tree-grafting insight of the source paper (Azad, Buluç, Pothen,
//! IPDPS 2015) is that work already done — alive trees, a partial
//! matching — should be *repaired*, not recomputed. This crate applies
//! the same principle across graph **versions**: [`DynamicMatching`]
//! shares an immutable CSR base graph (an `Arc`, such as the service
//! registry's own), holds a copy-on-write live row for each vertex whose
//! row an update changed, and keeps a live maximum [`Matching`] as edges
//! are inserted and deleted, one augmenting BFS per update instead of a
//! full re-solve.
//!
//! The repair rules (proofs in DESIGN.md §14):
//!
//! * **insert `(x, y)`, both endpoints free** — match the pair directly.
//! * **insert, one endpoint free** — a single-source augmenting BFS from
//!   the free endpoint decides whether the matching grows; the new edge
//!   is the only way the answer can have changed, and every augmenting
//!   path through it has the free endpoint as a terminus.
//! * **insert, both endpoints matched** — a multi-source wave from every
//!   free `X` vertex (skipped outright when either side has no free
//!   vertex: the matching is still maximum by König).
//! * **delete an unmatched edge** — structural only, the matching is
//!   untouched and still maximum.
//! * **delete a matched edge** — unmatch it, then search from the
//!   exposed `x` and, failing that, from the exposed `y`. Any augmenting
//!   path for the shrunk matching must terminate at `x` or `y` (else it
//!   would have augmented the old maximum), so two exhausted searches
//!   *prove* the matching is maximum at one less.
//!
//! A search reads each vertex's live row, or its base row when it has
//! none, without materializing anything, and reuses a [`SolveWorkspace`].
//! It has no traversal budget: it reads each live edge at most once and
//! always ends with a flipped path or a proof that none exists. When
//! tombstones outgrow [`DynConfig::rebuild_tombstone_ratio`], the live
//! rows are compacted into a fresh CSR and MS-BFS-Graft is warm-started
//! from the surviving matching.
//!
//! ```
//! use graft_graph::BipartiteCsr;
//! use graft_dyn::DynamicMatching;
//!
//! let g = BipartiteCsr::from_edges(2, 2, &[(0, 0), (1, 0)]);
//! let mut dm = DynamicMatching::new(g);
//! assert_eq!(dm.cardinality(), 1);
//! dm.insert_edge(1, 1).unwrap();
//! assert_eq!(dm.cardinality(), 2);
//! dm.delete_edge(0, 0).unwrap();
//! assert_eq!(dm.cardinality(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use graft_core::trace::TraceEvent;
use graft_core::{
    augment_from_free_x, augment_from_x, augment_from_y, solve_from_in, Algorithm, AugmentOutcome,
    Matching, SolveOptions, SolveWorkspace, Tracer, XYAdjacency,
};
use graft_graph::{BipartiteCsr, VertexId};

// ---------------------------------------------------------------------------
// Configuration and reports
// ---------------------------------------------------------------------------

/// Tuning knobs for [`DynamicMatching`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DynConfig {
    /// When `tombstones > ratio * base_edges`, compact the live rows into
    /// a fresh CSR and warm-start a full solve. `0.25` by default.
    pub rebuild_tombstone_ratio: f64,
}

impl Default for DynConfig {
    fn default() -> Self {
        Self {
            rebuild_tombstone_ratio: 0.25,
        }
    }
}

/// A rejected update. The graph and matching are unchanged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateError {
    /// An endpoint is outside the graph's fixed vertex ranges.
    OutOfRange {
        /// `X` endpoint of the update.
        x: VertexId,
        /// `Y` endpoint of the update.
        y: VertexId,
        /// `|X|` of the graph.
        nx: usize,
        /// `|Y|` of the graph.
        ny: usize,
    },
    /// A delete of an edge that is not live (never present, already
    /// deleted, or out of the base and never inserted).
    MissingEdge {
        /// `X` endpoint of the update.
        x: VertexId,
        /// `Y` endpoint of the update.
        y: VertexId,
    },
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateError::OutOfRange { x, y, nx, ny } => {
                write!(f, "endpoint ({x}, {y}) outside graph ({nx} x {ny})")
            }
            UpdateError::MissingEdge { x, y } => write!(f, "edge ({x}, {y}) is not live"),
        }
    }
}

impl std::error::Error for UpdateError {}

/// How one accepted update resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdateOutcome {
    /// Insert of an edge that was already live; nothing changed.
    Noop,
    /// Insert matched the two free endpoints directly.
    Matched,
    /// Insert enabled an augmenting path; the matching grew by one.
    Augmented,
    /// Insert changed the graph but an exhaustive search proved the
    /// matching is still maximum.
    NoPath,
    /// Delete of an unmatched edge; the matching is untouched.
    Removed,
    /// Delete of a matched edge; a replacement augmenting path restored
    /// the cardinality.
    Repaired,
    /// Delete of a matched edge; both exposed-endpoint searches
    /// exhausted, proving the maximum dropped by one.
    Degraded,
}

impl UpdateOutcome {
    /// Stable lowercase label used on the service wire.
    pub fn label(self) -> &'static str {
        match self {
            UpdateOutcome::Noop => "noop",
            UpdateOutcome::Matched => "matched",
            UpdateOutcome::Augmented => "augmented",
            UpdateOutcome::NoPath => "no-path",
            UpdateOutcome::Removed => "removed",
            UpdateOutcome::Repaired => "repaired",
            UpdateOutcome::Degraded => "degraded",
        }
    }
}

/// What one accepted update did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UpdateReport {
    /// How the update resolved.
    pub outcome: UpdateOutcome,
    /// Whether this update triggered a compaction + warm re-solve (the
    /// tombstone-ratio policy).
    pub rebuilt: bool,
    /// Matching cardinality after the update.
    pub cardinality: usize,
    /// Edges traversed by the repair search(es); 0 for structural-only
    /// updates and direct matches.
    pub edges_traversed: u64,
}

// ---------------------------------------------------------------------------
// Live graph
// ---------------------------------------------------------------------------

/// Vertex → its live sorted row, held only while that row differs from
/// the vertex's base row.
type LiveRows = HashMap<VertexId, Vec<VertexId>>;

/// The live graph: the shared base CSR and the live rows of the vertices
/// that updates changed. Split off from [`DynamicMatching`] so searches
/// can borrow the graph immutably while the matching and workspace are
/// borrowed mutably.
struct LiveGraph {
    /// Shared, never mutated: the service hands in its registry's graph,
    /// and a rebuild installs a fresh one.
    base: Arc<BipartiteCsr>,
    /// The live rows of the edited `X` vertices.
    rows_x: LiveRows,
    /// Mirror of `rows_x`, keyed by `Y`.
    rows_y: LiveRows,
}

impl LiveGraph {
    fn x_row(&self, x: VertexId) -> &[VertexId] {
        self.rows_x
            .get(&x)
            .map_or_else(|| self.base.x_neighbors(x), Vec::as_slice)
    }

    fn y_row(&self, y: VertexId) -> &[VertexId] {
        self.rows_y
            .get(&y)
            .map_or_else(|| self.base.y_neighbors(y), Vec::as_slice)
    }
}

impl XYAdjacency for LiveGraph {
    fn nx(&self) -> usize {
        self.base.num_x()
    }

    fn ny(&self) -> usize {
        self.base.num_y()
    }

    fn for_each_x_neighbor(&self, x: VertexId, f: &mut dyn FnMut(VertexId) -> bool) -> bool {
        self.x_row(x).iter().any(|&y| f(y))
    }

    fn for_each_y_neighbor(&self, y: VertexId, f: &mut dyn FnMut(VertexId) -> bool) -> bool {
        self.y_row(y).iter().any(|&x| f(x))
    }
}

/// Adds (`add`) or removes `u` in `v`'s live row: the row is copied from
/// `base` on its first edit and dropped once it equals `base` again.
fn edit_row(rows: &mut LiveRows, base: &[VertexId], v: VertexId, u: VertexId, add: bool) {
    let row = rows.entry(v).or_insert_with(|| base.to_vec());
    let changed = if add {
        sorted_insert(row, u)
    } else {
        sorted_remove(row, u)
    };
    debug_assert!(changed, "edit of ({v}, {u}) changed no row");
    if row.as_slice() == base {
        rows.remove(&v);
    }
}

/// Inserts `v` into a sorted vector, returning whether it was absent.
fn sorted_insert(vec: &mut Vec<VertexId>, v: VertexId) -> bool {
    match vec.binary_search(&v) {
        Ok(_) => false,
        Err(pos) => {
            vec.insert(pos, v);
            true
        }
    }
}

/// Removes `v` from a sorted vector, returning whether it was present.
fn sorted_remove(vec: &mut Vec<VertexId>, v: VertexId) -> bool {
    match vec.binary_search(&v) {
        Ok(pos) => {
            vec.remove(pos);
            true
        }
        Err(_) => false,
    }
}

// ---------------------------------------------------------------------------
// DynamicMatching
// ---------------------------------------------------------------------------

/// A maximum bipartite matching maintained under edge insertions and
/// deletions. See the [crate docs](crate) for the repair rules.
///
/// The vertex ranges are fixed at construction (`|X|` and `|Y|` of the
/// base graph); updates address vertices inside those ranges. The
/// maintained matching is maximum on the *live* graph after every
/// accepted update.
pub struct DynamicMatching {
    graph: LiveGraph,
    /// Live edges not in the base.
    extra_count: usize,
    /// Base edges deleted and not restored.
    tomb_count: usize,
    matching: Matching,
    ws: SolveWorkspace,
    tracer: Tracer,
    config: DynConfig,
    rebuilds: u64,
}

impl DynamicMatching {
    /// Wraps `base`, solving it to a maximum matching with serial
    /// MS-BFS-Graft from the empty matching before any update. An `Arc`
    /// is shared, not copied.
    pub fn new(base: impl Into<Arc<BipartiteCsr>>) -> Self {
        Self::with_config(base, DynConfig::default())
    }

    /// [`new`](Self::new) with explicit tuning knobs.
    pub fn with_config(base: impl Into<Arc<BipartiteCsr>>, config: DynConfig) -> Self {
        let base = base.into();
        let m0 = Matching::for_graph(&base);
        Self::warm(base, m0, config)
    }

    /// Wraps `base` warm-starting from an existing (partial or maximum)
    /// matching of it — e.g. the surviving matching after a restart —
    /// and solving the remainder. Panics if `m0`'s dimensions disagree
    /// with `base`.
    pub fn with_warm_start(
        base: impl Into<Arc<BipartiteCsr>>,
        m0: Matching,
        config: DynConfig,
    ) -> Self {
        let base = base.into();
        assert_eq!(m0.mates_x().len(), base.num_x(), "matching |X| mismatch");
        assert_eq!(m0.mates_y().len(), base.num_y(), "matching |Y| mismatch");
        Self::warm(base, m0, config)
    }

    fn warm(base: Arc<BipartiteCsr>, m0: Matching, config: DynConfig) -> Self {
        let mut ws = SolveWorkspace::new();
        let opts = SolveOptions::default();
        let out = solve_from_in(&base, m0, Algorithm::MsBfsGraft, &opts, &mut ws);
        Self {
            graph: LiveGraph {
                base,
                rows_x: LiveRows::new(),
                rows_y: LiveRows::new(),
            },
            extra_count: 0,
            tomb_count: 0,
            matching: out.matching,
            ws,
            tracer: Tracer::disabled(),
            config,
            rebuilds: 0,
        }
    }

    /// Routes [`TraceEvent::DynAugment`] / [`TraceEvent::DynRepair`] /
    /// [`TraceEvent::DynRebuild`] events (plus the run events of rebuild
    /// re-solves) to `tracer`.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// `|X|` of the (fixed) vertex ranges.
    pub fn num_x(&self) -> usize {
        self.graph.base.num_x()
    }

    /// `|Y|` of the (fixed) vertex ranges.
    pub fn num_y(&self) -> usize {
        self.graph.base.num_y()
    }

    /// Number of live edges (base minus tombstones plus inserts).
    pub fn num_edges(&self) -> usize {
        self.graph.base.num_edges() - self.tomb_count + self.extra_count
    }

    /// Inserted edges not in the base CSR (not yet compacted).
    pub fn pending_inserts(&self) -> usize {
        self.extra_count
    }

    /// Deleted base edges not yet restored or compacted.
    pub fn tombstones(&self) -> usize {
        self.tomb_count
    }

    /// How many times the live rows were compacted into a fresh CSR.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// The live maximum matching.
    pub fn matching(&self) -> &Matching {
        &self.matching
    }

    /// Cardinality of the live maximum matching.
    pub fn cardinality(&self) -> usize {
        self.matching.cardinality()
    }

    /// The configuration this instance runs with.
    pub fn config(&self) -> DynConfig {
        self.config
    }

    /// Whether `(x, y)` is live (out-of-range endpoints are `false`).
    pub fn has_edge(&self, x: VertexId, y: VertexId) -> bool {
        self.check_range(x, y).is_ok() && self.graph.x_row(x).binary_search(&y).is_ok()
    }

    /// Materializes the live graph as a fresh CSR (the live rows are left
    /// untouched). This is what differential tests solve from scratch to
    /// check the incremental cardinality against.
    pub fn materialize(&self) -> BipartiteCsr {
        let (nx, ny) = (self.num_x(), self.num_y());
        let mut x_ptr = Vec::with_capacity(nx + 1);
        let mut x_adj = Vec::with_capacity(self.num_edges());
        x_ptr.push(0);
        for x in 0..nx as VertexId {
            x_adj.extend_from_slice(self.graph.x_row(x));
            x_ptr.push(x_adj.len());
        }
        BipartiteCsr::from_x_csr(nx, ny, x_ptr, x_adj)
    }

    fn check_range(&self, x: VertexId, y: VertexId) -> Result<(), UpdateError> {
        let (nx, ny) = (self.num_x(), self.num_y());
        if (x as usize) >= nx || (y as usize) >= ny {
            return Err(UpdateError::OutOfRange { x, y, nx, ny });
        }
        Ok(())
    }

    /// The one structural edit, shared by insert and delete: adds (`add`)
    /// the absent edge `(x, y)` or removes the live one, in both
    /// endpoints' live rows and in the counts.
    fn edit(&mut self, x: VertexId, y: VertexId, add: bool) {
        let g = &mut self.graph;
        match (add, g.base.has_edge(x, y)) {
            (true, true) => self.tomb_count -= 1,
            (true, false) => self.extra_count += 1,
            (false, true) => self.tomb_count += 1,
            (false, false) => self.extra_count -= 1,
        }
        edit_row(&mut g.rows_x, g.base.x_neighbors(x), x, y, add);
        edit_row(&mut g.rows_y, g.base.y_neighbors(y), y, x, add);
    }

    /// Inserts the edge `(x, y)` and repairs the matching. Inserting a
    /// live edge is an accepted no-op. The matching is maximum on the
    /// live graph when this returns `Ok`.
    pub fn insert_edge(&mut self, x: VertexId, y: VertexId) -> Result<UpdateReport, UpdateError> {
        self.check_range(x, y)?;
        if self.has_edge(x, y) {
            return Ok(UpdateReport {
                outcome: UpdateOutcome::Noop,
                rebuilt: false,
                cardinality: self.cardinality(),
                edges_traversed: 0,
            });
        }

        self.edit(x, y, true);

        // Repair: the new edge is the only change, so the case analysis
        // on its endpoints is exhaustive.
        let x_free = !self.matching.is_x_matched(x);
        let y_free = !self.matching.is_y_matched(y);
        let (outcome, path_len, traversed) = if x_free && y_free {
            self.matching.match_pair(x, y);
            (UpdateOutcome::Matched, 2, 0)
        } else {
            // Field-disjoint borrows: the search reads the graph while
            // the matching and workspace are mutated.
            let view = &self.graph;
            let search = if x_free {
                augment_from_x(view, &mut self.matching, x, &mut self.ws)
            } else if y_free {
                augment_from_y(view, &mut self.matching, y, &mut self.ws)
            } else if self.matching.cardinality() == self.matching.mates_x().len()
                || self.matching.cardinality() == self.matching.mates_y().len()
            {
                // One side is saturated: the matching is maximum on any
                // supergraph, no search needed.
                AugmentOutcome::Exhausted { edges_traversed: 0 }
            } else {
                augment_from_free_x(view, &mut self.matching, &mut self.ws)
            };
            match search {
                AugmentOutcome::Augmented {
                    path_len,
                    edges_traversed,
                } => (UpdateOutcome::Augmented, path_len, edges_traversed),
                AugmentOutcome::Exhausted { edges_traversed } => {
                    (UpdateOutcome::NoPath, 0, edges_traversed)
                }
            }
        };
        self.tracer.emit(|| TraceEvent::DynAugment {
            x: x as u64,
            y: y as u64,
            augmented: matches!(outcome, UpdateOutcome::Matched | UpdateOutcome::Augmented),
            path_len: path_len as u64,
            edges_traversed: traversed,
            cardinality: self.cardinality() as u64,
        });
        Ok(UpdateReport {
            outcome,
            rebuilt: self.maybe_compact(),
            cardinality: self.cardinality(),
            edges_traversed: traversed,
        })
    }

    /// Deletes the live edge `(x, y)` and repairs the matching; returns
    /// [`UpdateError::MissingEdge`] when it is not live. The matching is
    /// maximum on the live graph when this returns `Ok`.
    pub fn delete_edge(&mut self, x: VertexId, y: VertexId) -> Result<UpdateReport, UpdateError> {
        self.check_range(x, y)?;
        if !self.has_edge(x, y) {
            return Err(UpdateError::MissingEdge { x, y });
        }

        self.edit(x, y, false);

        let was_matched = self.matching.mate_of_x(x) == y;
        let (outcome, traversed) = if !was_matched {
            (UpdateOutcome::Removed, 0)
        } else {
            self.matching.unmatch_x(x);
            // Any augmenting path for the shrunk matching terminates at
            // x or y (else it would have augmented the old maximum), so
            // two exhausted searches are a maximality proof.
            let view = &self.graph;
            let first = augment_from_x(view, &mut self.matching, x, &mut self.ws);
            let mut traversed = first.edges_traversed();
            let repaired = first.augmented() || {
                let second = augment_from_y(view, &mut self.matching, y, &mut self.ws);
                traversed += second.edges_traversed();
                second.augmented()
            };
            self.tracer.emit(|| TraceEvent::DynRepair {
                x: x as u64,
                y: y as u64,
                repaired,
                edges_traversed: traversed,
                cardinality: self.cardinality() as u64,
            });
            let outcome = if repaired {
                UpdateOutcome::Repaired
            } else {
                UpdateOutcome::Degraded
            };
            (outcome, traversed)
        };
        Ok(UpdateReport {
            outcome,
            rebuilt: self.maybe_compact(),
            cardinality: self.cardinality(),
            edges_traversed: traversed,
        })
    }

    fn maybe_compact(&mut self) -> bool {
        let threshold = self.config.rebuild_tombstone_ratio * self.graph.base.num_edges() as f64;
        if self.tomb_count as f64 > threshold {
            self.rebuild();
            true
        } else {
            false
        }
    }

    /// Compacts the live rows into a fresh CSR and warm-starts a serial
    /// MS-BFS-Graft solve from the surviving matching.
    fn rebuild(&mut self) {
        let started = Instant::now();
        let discarded = self.tomb_count;
        let fresh = Arc::new(self.materialize());
        // The surviving matching only uses live edges, so it is a valid
        // warm start on the compacted graph.
        let m0 = std::mem::replace(&mut self.matching, Matching::empty(0, 0));
        let opts = SolveOptions::default();
        let out = graft_core::solve_from_traced_in(
            &fresh,
            m0,
            Algorithm::MsBfsGraft,
            &opts,
            &self.tracer,
            &mut self.ws,
        );
        self.matching = out.matching;
        self.graph.base = fresh;
        self.graph.rows_x.clear();
        self.graph.rows_y.clear();
        self.extra_count = 0;
        self.tomb_count = 0;
        self.rebuilds += 1;
        self.tracer.emit(|| TraceEvent::DynRebuild {
            edges: self.graph.base.num_edges() as u64,
            tombstones: discarded as u64,
            cardinality: self.cardinality() as u64,
            elapsed_us: started.elapsed().as_micros() as u64,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graft_core::solve;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    fn oracle_cardinality(g: &BipartiteCsr) -> usize {
        solve(g, Algorithm::HopcroftKarp, &SolveOptions::default())
            .matching
            .cardinality()
    }

    fn assert_invariants(dm: &DynamicMatching) {
        let g = dm.materialize();
        dm.matching().validate(&g).expect("matching must be valid");
        assert_eq!(
            dm.cardinality(),
            oracle_cardinality(&g),
            "incremental matching must stay maximum"
        );
    }

    #[test]
    fn insert_matches_free_pair_directly() {
        let g = BipartiteCsr::from_edges(2, 2, &[]);
        let mut dm = DynamicMatching::new(g);
        let r = dm.insert_edge(0, 1).unwrap();
        assert_eq!(r.outcome, UpdateOutcome::Matched);
        assert_eq!(r.cardinality, 1);
        assert_eq!(r.edges_traversed, 0);
        assert_invariants(&dm);
    }

    #[test]
    fn insert_existing_edge_is_noop() {
        let g = BipartiteCsr::from_edges(2, 2, &[(0, 0)]);
        let mut dm = DynamicMatching::new(g);
        let r = dm.insert_edge(0, 0).unwrap();
        assert_eq!(r.outcome, UpdateOutcome::Noop);
        assert_eq!(dm.num_edges(), 1);
    }

    #[test]
    fn insert_out_of_range_is_rejected() {
        let g = BipartiteCsr::from_edges(2, 2, &[]);
        let mut dm = DynamicMatching::new(g);
        assert!(matches!(
            dm.insert_edge(2, 0),
            Err(UpdateError::OutOfRange { .. })
        ));
        assert!(matches!(
            dm.insert_edge(0, 9),
            Err(UpdateError::OutOfRange { .. })
        ));
    }

    #[test]
    fn insert_augments_through_alternating_chain() {
        // x0-y0 matched, x1 free; inserting (x1, y0) forces the chain
        // x1 → y0 → x0 → y1.
        let g = BipartiteCsr::from_edges(2, 2, &[(0, 0), (0, 1)]);
        let mut dm = DynamicMatching::new(g);
        assert_eq!(dm.cardinality(), 1);
        let r = dm.insert_edge(1, 0).unwrap();
        assert_eq!(r.outcome, UpdateOutcome::Augmented);
        assert_eq!(r.cardinality, 2);
        assert_invariants(&dm);
    }

    #[test]
    fn insert_between_matched_endpoints_no_path() {
        // Perfect matching x0-y0, x1-y1: inserting (0, 1) joins two
        // matched endpoints with no free X left, so the saturation guard
        // skips the search entirely.
        let g = BipartiteCsr::from_edges(2, 2, &[(0, 0), (1, 1)]);
        let mut dm = DynamicMatching::new(g);
        let r = dm.insert_edge(0, 1).unwrap();
        assert_eq!(r.outcome, UpdateOutcome::NoPath);
        assert_eq!(r.edges_traversed, 0, "saturation guard skips the search");
        assert_invariants(&dm);
    }

    #[test]
    fn insert_with_one_free_endpoint_proves_no_path() {
        // y0 is the only Y vertex: inserting (1, 0) leaves x1 free but
        // the single-source search proves no augmenting path exists.
        let g = BipartiteCsr::from_edges(2, 1, &[(0, 0)]);
        let mut dm = DynamicMatching::new(g);
        let r = dm.insert_edge(1, 0).unwrap();
        assert_eq!(r.outcome, UpdateOutcome::NoPath);
        assert!(r.edges_traversed > 0, "the search actually ran");
        assert_invariants(&dm);
    }

    #[test]
    fn delete_unmatched_edge_is_structural() {
        let g = BipartiteCsr::from_edges(2, 2, &[(0, 0), (0, 1), (1, 0)]);
        let mut dm = DynamicMatching::new(g);
        assert_eq!(dm.cardinality(), 2);
        // (0, 0) cannot be matched when cardinality is 2... find an
        // unmatched live edge instead of guessing.
        let unmatched = [(0u32, 0u32), (0, 1), (1, 0)]
            .into_iter()
            .find(|&(x, y)| dm.matching().mate_of_x(x) != y)
            .unwrap();
        let r = dm.delete_edge(unmatched.0, unmatched.1).unwrap();
        assert_eq!(r.outcome, UpdateOutcome::Removed);
        assert_eq!(r.cardinality, 2);
        assert_invariants(&dm);
    }

    #[test]
    fn delete_matched_edge_repairs() {
        // Complete 2x2: whichever perfect matching stands, deleting one
        // matched edge leaves a replacement alternating path.
        let g = BipartiteCsr::from_edges(2, 2, &[(0, 0), (0, 1), (1, 0), (1, 1)]);
        let mut dm = DynamicMatching::new(g);
        let (x, y) = (0u32, dm.matching().mate_of_x(0));
        let r = dm.delete_edge(x, y).unwrap();
        assert_eq!(r.outcome, UpdateOutcome::Repaired, "a replacement exists");
        assert_eq!(r.cardinality, 2);
        assert_invariants(&dm);
    }

    #[test]
    fn delete_matched_edge_degrades_when_no_replacement() {
        // x1's only neighbor is y0, so the maximum matching is forced;
        // deleting (0, 1) has no replacement: both repair searches
        // exhaust and prove the maximum dropped.
        let g = BipartiteCsr::from_edges(2, 2, &[(0, 0), (0, 1), (1, 0)]);
        let mut dm = DynamicMatching::new(g);
        assert_eq!(dm.matching().mate_of_x(0), 1, "matching is forced");
        let r = dm.delete_edge(0, 1).unwrap();
        assert_eq!(r.outcome, UpdateOutcome::Degraded);
        assert_eq!(r.cardinality, 1);
        assert_invariants(&dm);
    }

    #[test]
    fn delete_last_edge_degrades() {
        let g = BipartiteCsr::from_edges(1, 1, &[(0, 0)]);
        let mut dm = DynamicMatching::new(g);
        let r = dm.delete_edge(0, 0).unwrap();
        assert_eq!(r.outcome, UpdateOutcome::Degraded);
        assert_eq!(r.cardinality, 0);
        assert_eq!(dm.num_edges(), 0);
        assert_invariants(&dm);
    }

    #[test]
    fn delete_missing_edge_is_rejected() {
        let g = BipartiteCsr::from_edges(2, 2, &[(0, 0)]);
        let mut dm = DynamicMatching::new(g);
        assert_eq!(
            dm.delete_edge(1, 1),
            Err(UpdateError::MissingEdge { x: 1, y: 1 })
        );
        dm.delete_edge(0, 0).unwrap();
        assert_eq!(
            dm.delete_edge(0, 0),
            Err(UpdateError::MissingEdge { x: 0, y: 0 }),
            "double delete"
        );
    }

    #[test]
    fn reinsert_of_tombstoned_edge_resurrects_it() {
        let g = BipartiteCsr::from_edges(1, 1, &[(0, 0)]);
        // Disable the ratio policy so the tombstone survives to be
        // resurrected instead of being compacted away.
        let mut dm = DynamicMatching::with_config(
            g,
            DynConfig {
                rebuild_tombstone_ratio: 1e9,
            },
        );
        dm.delete_edge(0, 0).unwrap();
        assert_eq!(dm.tombstones(), 1);
        let r = dm.insert_edge(0, 0).unwrap();
        assert_eq!(r.outcome, UpdateOutcome::Matched);
        assert_eq!(dm.tombstones(), 0);
        assert_eq!(dm.pending_inserts(), 0, "base edge, not a buffered one");
        assert_invariants(&dm);
    }

    #[test]
    fn tombstone_ratio_triggers_rebuild() {
        let edges: Vec<(u32, u32)> = (0..10).map(|i| (i, i)).collect();
        let g = BipartiteCsr::from_edges(10, 10, &edges);
        let mut dm = DynamicMatching::with_config(
            g,
            DynConfig {
                rebuild_tombstone_ratio: 0.25,
            },
        );
        dm.delete_edge(0, 0).unwrap();
        dm.delete_edge(1, 1).unwrap();
        assert_eq!(dm.rebuilds(), 0, "2/10 <= 0.25");
        let r = dm.delete_edge(2, 2).unwrap();
        assert!(r.rebuilt, "3/10 > 0.25");
        assert_eq!(dm.rebuilds(), 1);
        assert_eq!(dm.tombstones(), 0);
        assert_eq!(dm.num_edges(), 7);
        assert_invariants(&dm);
    }

    #[test]
    fn trace_events_cover_augment_repair_rebuild() {
        use graft_core::trace::{replay, MemorySink};
        use std::sync::Arc;

        let sink = Arc::new(MemorySink::new());
        let g = BipartiteCsr::from_edges(2, 2, &[(0, 0)]);
        // Any tombstone outgrows a ratio of 0: the delete rebuilds.
        let mut dm = DynamicMatching::with_config(
            g,
            DynConfig {
                rebuild_tombstone_ratio: 0.0,
            },
        );
        dm.set_tracer(Tracer::to_sink(sink.clone()));
        dm.insert_edge(1, 1).unwrap();
        assert!(dm.delete_edge(0, 0).unwrap().rebuilt);
        let events = sink.snapshot();
        let kinds: Vec<&str> = events.iter().map(|e| e.kind()).collect();
        assert!(kinds.contains(&"dyn_augment"), "kinds: {kinds:?}");
        assert!(kinds.contains(&"dyn_repair"), "kinds: {kinds:?}");
        assert!(kinds.contains(&"dyn_rebuild"), "kinds: {kinds:?}");
        // The rebuild's warm re-solve emits a run pair; the whole stream
        // must replay cleanly with dyn events interleaved.
        replay(&events).expect("dyn event stream must replay");
    }

    #[test]
    fn warm_start_resumes_from_partial_matching() {
        let g = BipartiteCsr::from_edges(2, 2, &[(0, 0), (1, 1)]);
        let mut m0 = Matching::for_graph(&g);
        m0.match_pair(0, 0);
        let dm = DynamicMatching::with_warm_start(g, m0, DynConfig::default());
        assert_eq!(dm.cardinality(), 2, "warm start still solves to maximum");
    }

    #[test]
    fn randomized_update_stream_stays_maximum() {
        let mut rng = SmallRng::seed_from_u64(0xD15C0);
        for case in 0..6u64 {
            let nx = 12 + (case as usize % 3) * 4;
            let ny = 10 + (case as usize % 4) * 3;
            let mut b = graft_graph::GraphBuilder::new(nx, ny);
            for _ in 0..(nx * 2) {
                b.add_edge(rng.gen_range(0..nx) as u32, rng.gen_range(0..ny) as u32);
            }
            let mut dm = DynamicMatching::with_config(
                b.build(),
                DynConfig {
                    rebuild_tombstone_ratio: 0.3,
                },
            );
            for _ in 0..60 {
                let x = rng.gen_range(0..nx) as u32;
                let y = rng.gen_range(0..ny) as u32;
                if rng.gen_bool(0.5) {
                    dm.insert_edge(x, y).unwrap();
                } else {
                    match dm.delete_edge(x, y) {
                        Ok(_) => {}
                        Err(UpdateError::MissingEdge { .. }) => {}
                        Err(e) => panic!("unexpected: {e}"),
                    }
                }
            }
            assert_invariants(&dm);
        }
    }

    /// Checks the live graph after an update against the model edge set
    /// `live`: the materialized CSR holds exactly `live`, every vertex's
    /// live row is its materialized row, `has_edge` agrees with it on
    /// every pair, the counts match, and no vertex whose row equals its
    /// base row holds a copy.
    fn check_live_rows(
        dm: &DynamicMatching,
        live: &BTreeSet<(u32, u32)>,
    ) -> Result<(), TestCaseError> {
        let m = dm.materialize();
        prop_assert!(m.edges().eq(live.iter().copied()), "materialized != model");
        dm.matching().validate(&m).map_err(TestCaseError::fail)?;
        let g = &dm.graph;
        for x in 0..dm.num_x() as VertexId {
            prop_assert_eq!(g.x_row(x), m.x_neighbors(x));
            for y in 0..dm.num_y() as VertexId {
                prop_assert_eq!(dm.has_edge(x, y), m.has_edge(x, y));
            }
        }
        for y in 0..dm.num_y() as VertexId {
            prop_assert_eq!(g.y_row(y), m.y_neighbors(y));
        }
        let in_base = live.iter().filter(|&&(x, y)| g.base.has_edge(x, y)).count();
        prop_assert_eq!(dm.tombstones(), g.base.num_edges() - in_base);
        prop_assert_eq!(dm.pending_inserts(), live.len() - in_base);
        for (&x, row) in &g.rows_x {
            prop_assert!(
                row != g.base.x_neighbors(x),
                "x{x} holds a copy of its base row"
            );
        }
        for (&y, row) in &g.rows_y {
            prop_assert!(
                row != g.base.y_neighbors(y),
                "y{y} holds a copy of its base row"
            );
        }
        Ok(())
    }

    // Random insert/delete streams, with deletes of base edges that are
    // restored at once or by a later toggle, with and without compaction.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn live_rows_follow_random_update_streams(
            base in proptest::collection::vec((0u32..9, 0u32..7), 0..30),
            compact in 0u8..2,
            ops in proptest::collection::vec((0u8..4, 0u32..9, 0u32..7, 0usize..64), 1..60),
        ) {
            let g = BipartiteCsr::from_edges(9, 7, &base);
            let base: Vec<(u32, u32)> = g.edges().collect();
            let mut live: BTreeSet<(u32, u32)> = base.iter().copied().collect();
            let rebuild_tombstone_ratio = if compact == 1 { 0.3 } else { f64::INFINITY };
            let mut dm = DynamicMatching::with_config(g, DynConfig { rebuild_tombstone_ratio });
            for (kind, x, y, k) in ops {
                let nth_live = live.iter().nth(k % live.len().max(1)).copied();
                let nth_base = base.get(k % base.len().max(1)).copied();
                match (kind, nth_live, nth_base) {
                    (0, _, _) => {
                        dm.insert_edge(x, y).unwrap();
                        live.insert((x, y));
                    }
                    (1, Some((x, y)), _) => {
                        dm.delete_edge(x, y).unwrap();
                        live.remove(&(x, y));
                    }
                    // Toggle a base edge: a later toggle restores it.
                    (2, _, Some((x, y))) if live.remove(&(x, y)) => {
                        dm.delete_edge(x, y).unwrap();
                    }
                    (2, _, Some((x, y))) => {
                        dm.insert_edge(x, y).unwrap();
                        live.insert((x, y));
                    }
                    // Delete a live base edge and restore it at once.
                    (3, _, Some((x, y))) if live.remove(&(x, y)) => {
                        dm.delete_edge(x, y).unwrap();
                        check_live_rows(&dm, &live)?;
                        dm.insert_edge(x, y).unwrap();
                        live.insert((x, y));
                    }
                    _ => continue,
                }
                check_live_rows(&dm, &live)?;
            }
        }
    }
}
