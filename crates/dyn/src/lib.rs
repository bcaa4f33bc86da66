//! # graft-dyn — incremental bipartite matching under edge updates
//!
//! The tree-grafting insight of the source paper (Azad, Buluç, Pothen,
//! IPDPS 2015) is that work already done — alive trees, a partial
//! matching — should be *repaired*, not recomputed. This crate applies
//! the same principle across graph **versions**: [`DynamicMatching`]
//! shares an immutable CSR base graph (an `Arc`, such as the service
//! registry's own) and owns a delta overlay (per-side insert buffers
//! and tombstones) and keeps a live maximum [`Matching`] as edges are
//! inserted and deleted, one augmenting BFS per update instead of a
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
//! Searches run against the overlay view without materializing anything
//! and reuse a [`SolveWorkspace`], so the hot path is allocation-free. A
//! search has no traversal budget: it reads each live edge at most once
//! and always ends with a flipped path or a proof that none exists. When
//! tombstones outgrow [`DynConfig::rebuild_tombstone_ratio`], the overlay
//! is compacted into a fresh CSR and MS-BFS-Graft is warm-started from
//! the surviving matching.
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
    /// When `tombstones > ratio * base_edges`, compact the overlay into
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

/// A rejected update. The overlay and matching are unchanged.
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
// Overlay view
// ---------------------------------------------------------------------------

/// Borrowed live view: base CSR minus tombstones plus insert buffers.
/// Split off from [`DynamicMatching`] so searches can borrow the graph
/// immutably while the matching and workspace are borrowed mutably.
struct LiveView<'a> {
    base: &'a BipartiteCsr,
    extra_x: &'a [Vec<VertexId>],
    extra_y: &'a [Vec<VertexId>],
    tomb_x: &'a [Vec<VertexId>],
    tomb_y: &'a [Vec<VertexId>],
}

impl XYAdjacency for LiveView<'_> {
    fn nx(&self) -> usize {
        self.base.num_x()
    }

    fn ny(&self) -> usize {
        self.base.num_y()
    }

    fn for_each_x_neighbor(&self, x: VertexId, f: &mut dyn FnMut(VertexId) -> bool) -> bool {
        let tombs = &self.tomb_x[x as usize];
        for &y in self.base.x_neighbors(x) {
            if !tombs.is_empty() && tombs.binary_search(&y).is_ok() {
                continue;
            }
            if f(y) {
                return true;
            }
        }
        self.extra_x[x as usize].iter().any(|&y| f(y))
    }

    fn for_each_y_neighbor(&self, y: VertexId, f: &mut dyn FnMut(VertexId) -> bool) -> bool {
        let tombs = &self.tomb_y[y as usize];
        for &x in self.base.y_neighbors(y) {
            if !tombs.is_empty() && tombs.binary_search(&x).is_ok() {
                continue;
            }
            if f(x) {
                return true;
            }
        }
        self.extra_y[y as usize].iter().any(|&x| f(x))
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
    /// Shared, never mutated: the service hands in its registry's graph,
    /// and a rebuild installs a fresh one.
    base: Arc<BipartiteCsr>,
    /// Per-`X` sorted insert buffers (edges live but not in `base`).
    extra_x: Vec<Vec<VertexId>>,
    /// Mirror of `extra_x`, keyed by `Y`.
    extra_y: Vec<Vec<VertexId>>,
    /// Per-`X` sorted tombstones (edges in `base` but deleted).
    tomb_x: Vec<Vec<VertexId>>,
    /// Mirror of `tomb_x`, keyed by `Y`.
    tomb_y: Vec<Vec<VertexId>>,
    extra_count: usize,
    tomb_count: usize,
    matching: Matching,
    ws: SolveWorkspace,
    tracer: Tracer,
    config: DynConfig,
    rebuilds: u64,
}

impl DynamicMatching {
    /// Wraps `base`, solving it to a maximum matching with serial
    /// MS-BFS-Graft (Karp-Sipser initialized) before any update. An
    /// `Arc` is shared, not copied.
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
        let (nx, ny) = (base.num_x(), base.num_y());
        Self {
            base,
            extra_x: vec![Vec::new(); nx],
            extra_y: vec![Vec::new(); ny],
            tomb_x: vec![Vec::new(); nx],
            tomb_y: vec![Vec::new(); ny],
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
        self.base.num_x()
    }

    /// `|Y|` of the (fixed) vertex ranges.
    pub fn num_y(&self) -> usize {
        self.base.num_y()
    }

    /// Number of live edges (base minus tombstones plus inserts).
    pub fn num_edges(&self) -> usize {
        self.base.num_edges() - self.tomb_count + self.extra_count
    }

    /// Inserted edges currently held in the overlay (not yet compacted).
    pub fn pending_inserts(&self) -> usize {
        self.extra_count
    }

    /// Deleted base edges currently tombstoned (not yet compacted).
    pub fn tombstones(&self) -> usize {
        self.tomb_count
    }

    /// How many times the overlay was compacted into a fresh CSR.
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
        if (x as usize) >= self.base.num_x() || (y as usize) >= self.base.num_y() {
            return false;
        }
        if self.extra_x[x as usize].binary_search(&y).is_ok() {
            return true;
        }
        self.base.has_edge(x, y) && self.tomb_x[x as usize].binary_search(&y).is_err()
    }

    /// Materializes the live graph as a fresh CSR (the overlay is left
    /// untouched). This is what differential tests solve from scratch to
    /// check the incremental cardinality against.
    ///
    /// Row `x` is handed to the CSR build as the base row minus its
    /// tombstones, then its inserts: not sorted as a whole, but the live
    /// edges hold no duplicate, and the build sorts each row.
    pub fn materialize(&self) -> BipartiteCsr {
        let mut x_ptr = Vec::with_capacity(self.base.num_x() + 1);
        let mut x_adj = Vec::with_capacity(self.num_edges());
        x_ptr.push(0);
        for (x, (tombs, extra)) in self.tomb_x.iter().zip(&self.extra_x).enumerate() {
            let base = self.base.x_neighbors(x as VertexId);
            if tombs.is_empty() {
                x_adj.extend_from_slice(base);
            } else {
                x_adj.extend(base.iter().filter(|y| tombs.binary_search(y).is_err()));
            }
            x_adj.extend_from_slice(extra);
            x_ptr.push(x_adj.len());
        }
        BipartiteCsr::from_x_csr(self.base.num_x(), self.base.num_y(), x_ptr, x_adj)
    }

    fn check_range(&self, x: VertexId, y: VertexId) -> Result<(), UpdateError> {
        if (x as usize) >= self.base.num_x() || (y as usize) >= self.base.num_y() {
            return Err(UpdateError::OutOfRange {
                x,
                y,
                nx: self.base.num_x(),
                ny: self.base.num_y(),
            });
        }
        Ok(())
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

        // Structural add: resurrect a tombstoned base edge, else buffer.
        if self.base.has_edge(x, y) {
            sorted_remove(&mut self.tomb_x[x as usize], y);
            sorted_remove(&mut self.tomb_y[y as usize], x);
            self.tomb_count -= 1;
        } else {
            sorted_insert(&mut self.extra_x[x as usize], y);
            sorted_insert(&mut self.extra_y[y as usize], x);
            self.extra_count += 1;
        }

        // Repair: the new edge is the only change, so the case analysis
        // on its endpoints is exhaustive.
        let x_free = !self.matching.is_x_matched(x);
        let y_free = !self.matching.is_y_matched(y);
        let (outcome, path_len, traversed) = if x_free && y_free {
            self.matching.match_pair(x, y);
            (UpdateOutcome::Matched, 2, 0)
        } else {
            let search = {
                // Field-disjoint borrows: the view reads the graph parts
                // while the matching and workspace are mutated.
                let view = LiveView {
                    base: &self.base,
                    extra_x: &self.extra_x,
                    extra_y: &self.extra_y,
                    tomb_x: &self.tomb_x,
                    tomb_y: &self.tomb_y,
                };
                if x_free {
                    augment_from_x(&view, &mut self.matching, x, &mut self.ws)
                } else if y_free {
                    augment_from_y(&view, &mut self.matching, y, &mut self.ws)
                } else if self.matching.cardinality() == self.matching.mates_x().len()
                    || self.matching.cardinality() == self.matching.mates_y().len()
                {
                    // One side is saturated: the matching is maximum on
                    // any supergraph, no search needed.
                    AugmentOutcome::Exhausted { edges_traversed: 0 }
                } else {
                    augment_from_free_x(&view, &mut self.matching, &mut self.ws)
                }
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

        // Structural remove: drop a buffered insert, else tombstone.
        if sorted_remove(&mut self.extra_x[x as usize], y) {
            sorted_remove(&mut self.extra_y[y as usize], x);
            self.extra_count -= 1;
        } else {
            sorted_insert(&mut self.tomb_x[x as usize], y);
            sorted_insert(&mut self.tomb_y[y as usize], x);
            self.tomb_count += 1;
        }

        let was_matched = self.matching.mate_of_x(x) == y;
        let (outcome, traversed) = if !was_matched {
            (UpdateOutcome::Removed, 0)
        } else {
            self.matching.unmatch_x(x);
            // Any augmenting path for the shrunk matching terminates at
            // x or y (else it would have augmented the old maximum), so
            // two exhausted searches are a maximality proof.
            let view = LiveView {
                base: &self.base,
                extra_x: &self.extra_x,
                extra_y: &self.extra_y,
                tomb_x: &self.tomb_x,
                tomb_y: &self.tomb_y,
            };
            let first = augment_from_x(&view, &mut self.matching, x, &mut self.ws);
            let mut traversed = first.edges_traversed();
            let repaired = first.augmented() || {
                let second = augment_from_y(&view, &mut self.matching, y, &mut self.ws);
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
        let threshold = self.config.rebuild_tombstone_ratio * self.base.num_edges() as f64;
        if self.tomb_count as f64 > threshold {
            self.rebuild();
            true
        } else {
            false
        }
    }

    /// Compacts the overlay into a fresh CSR and warm-starts a serial
    /// MS-BFS-Graft solve from the surviving matching. Automatic under
    /// the tombstone-ratio policy; public for callers that want to
    /// schedule compaction themselves.
    pub fn force_rebuild(&mut self) {
        self.rebuild();
    }

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
        self.base = fresh;
        for v in &mut self.extra_x {
            v.clear();
        }
        for v in &mut self.extra_y {
            v.clear();
        }
        for v in &mut self.tomb_x {
            v.clear();
        }
        for v in &mut self.tomb_y {
            v.clear();
        }
        self.extra_count = 0;
        self.tomb_count = 0;
        self.rebuilds += 1;
        self.tracer.emit(|| TraceEvent::DynRebuild {
            edges: self.base.num_edges() as u64,
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
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

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
        let mut dm = DynamicMatching::new(g);
        dm.set_tracer(Tracer::to_sink(sink.clone()));
        dm.insert_edge(1, 1).unwrap();
        dm.delete_edge(0, 0).unwrap();
        dm.force_rebuild();
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
}
