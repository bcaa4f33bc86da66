//! The [`Matching`] type: a set of vertex-disjoint edges with O(1) mate
//! lookup on both sides.
//!
//! All algorithms in this crate communicate through this type. It mirrors
//! the paper's `mate` array (§III-B): `mate[u] = -1` for an unmatched
//! vertex, here represented by [`NONE`].

use graft_graph::{BipartiteCsr, VertexId, NONE};

/// A matching in a bipartite graph: `mate_x[x] = y ⇔ mate_y[y] = x`.
///
/// The cardinality is maintained incrementally so that `cardinality()` is
/// O(1) — the algorithms poll it after every phase.
#[derive(Clone, PartialEq, Eq)]
pub struct Matching {
    mate_x: Vec<VertexId>,
    mate_y: Vec<VertexId>,
    cardinality: usize,
}

/// The number of matched pairs in consistent mate arrays, or where they
/// disagree (mates that do not point back, or out-of-range ids).
fn checked_cardinality(mate_x: &[VertexId], mate_y: &[VertexId]) -> Result<usize, String> {
    let mut cardinality = 0;
    for (x, &y) in mate_x.iter().enumerate() {
        if y != NONE {
            if (y as usize) >= mate_y.len() || mate_y[y as usize] != x as VertexId {
                return Err(format!("mate arrays inconsistent at x={x}"));
            }
            cardinality += 1;
        }
    }
    for (y, &x) in mate_y.iter().enumerate() {
        if x != NONE && ((x as usize) >= mate_x.len() || mate_x[x as usize] != y as VertexId) {
            return Err(format!("mate arrays inconsistent at y={y}"));
        }
    }
    Ok(cardinality)
}

impl Matching {
    /// The empty matching for an `nx × ny` bipartite graph.
    pub fn empty(nx: usize, ny: usize) -> Self {
        Self {
            mate_x: vec![NONE; nx],
            mate_y: vec![NONE; ny],
            cardinality: 0,
        }
    }

    /// The empty matching sized for `g`.
    pub fn for_graph(g: &BipartiteCsr) -> Self {
        Self::empty(g.num_x(), g.num_y())
    }

    /// Reconstructs a matching from raw mate arrays.
    ///
    /// Panics if the arrays are inconsistent (mates that do not point back
    /// at each other, or out-of-range ids). See
    /// [`Matching::try_from_mates`] for the fallible variant.
    pub fn from_mates(mate_x: Vec<VertexId>, mate_y: Vec<VertexId>) -> Self {
        Self::try_from_mates(mate_x, mate_y).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`Matching::from_mates`] for untrusted input.
    pub fn try_from_mates(mate_x: Vec<VertexId>, mate_y: Vec<VertexId>) -> Result<Self, String> {
        let cardinality = checked_cardinality(&mate_x, &mate_y)?;
        Ok(Self::from_counted_mates(mate_x, mate_y, cardinality))
    }

    /// A matching from mate arrays an engine kept consistent, with the
    /// `cardinality` it counted; checked (O(n)) in debug builds only.
    pub(crate) fn from_counted_mates(
        mate_x: Vec<VertexId>,
        mate_y: Vec<VertexId>,
        cardinality: usize,
    ) -> Self {
        debug_assert_eq!(checked_cardinality(&mate_x, &mate_y), Ok(cardinality));
        Self {
            mate_x,
            mate_y,
            cardinality,
        }
    }

    /// Number of matched edges `|M|`.
    #[inline(always)]
    pub fn cardinality(&self) -> usize {
        self.cardinality
    }

    /// The mate of `x`, or [`NONE`] if unmatched.
    #[inline(always)]
    pub fn mate_of_x(&self, x: VertexId) -> VertexId {
        self.mate_x[x as usize]
    }

    /// The mate of `y`, or [`NONE`] if unmatched.
    #[inline(always)]
    pub fn mate_of_y(&self, y: VertexId) -> VertexId {
        self.mate_y[y as usize]
    }

    /// Whether `x` is matched.
    #[inline(always)]
    pub fn is_x_matched(&self, x: VertexId) -> bool {
        self.mate_x[x as usize] != NONE
    }

    /// Whether `y` is matched.
    #[inline(always)]
    pub fn is_y_matched(&self, y: VertexId) -> bool {
        self.mate_y[y as usize] != NONE
    }

    /// The raw `X`-side mate array.
    #[inline(always)]
    pub fn mates_x(&self) -> &[VertexId] {
        &self.mate_x
    }

    /// The raw `Y`-side mate array.
    #[inline(always)]
    pub fn mates_y(&self) -> &[VertexId] {
        &self.mate_y
    }

    /// Iterator over unmatched `X` vertices, ascending. It tests 64 mates
    /// at a time without a branch and skips a block with none free, so a
    /// near-perfect matching costs about one branch per 64 `X`. It is the
    /// one free-vertex scan of this crate: the MS-BFS and Pothen-Fan
    /// engines read the roots of a solve through it, once.
    pub fn unmatched_x(&self) -> impl Iterator<Item = VertexId> + '_ {
        FreeIds::new(&self.mate_x)
    }

    /// Iterator over unmatched `Y` vertices, ascending; scans as
    /// [`Matching::unmatched_x`] does.
    pub fn unmatched_y(&self) -> impl Iterator<Item = VertexId> + '_ {
        FreeIds::new(&self.mate_y)
    }

    /// Iterator over the matched edges `(x, y)`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.mate_x
            .iter()
            .enumerate()
            .filter(|(_, &m)| m != NONE)
            .map(|(x, &y)| (x as VertexId, y))
    }

    /// Matches the currently-unmatched pair `(x, y)`.
    ///
    /// Panics (debug) if either endpoint is already matched; use
    /// [`Matching::rematch`] to steal.
    #[inline]
    pub fn match_pair(&mut self, x: VertexId, y: VertexId) {
        debug_assert_eq!(self.mate_x[x as usize], NONE, "x={x} already matched");
        debug_assert_eq!(self.mate_y[y as usize], NONE, "y={y} already matched");
        self.mate_x[x as usize] = y;
        self.mate_y[y as usize] = x;
        self.cardinality += 1;
    }

    /// Matches `(x, y)`, unmatching any previous partners. Returns the
    /// previous mate of `y` (the "stolen-from" vertex used by push-relabel),
    /// or [`NONE`].
    pub fn rematch(&mut self, x: VertexId, y: VertexId) -> VertexId {
        let old_x = self.mate_y[y as usize];
        if old_x == x {
            return NONE; // already matched to each other
        }
        if old_x != NONE {
            self.mate_x[old_x as usize] = NONE;
            self.cardinality -= 1;
        }
        let old_y = self.mate_x[x as usize];
        if old_y != NONE {
            self.mate_y[old_y as usize] = NONE;
            self.cardinality -= 1;
        }
        self.mate_x[x as usize] = y;
        self.mate_y[y as usize] = x;
        self.cardinality += 1;
        old_x
    }

    /// Removes the matched edge incident to `x`. Panics (debug) if `x` is
    /// unmatched.
    pub fn unmatch_x(&mut self, x: VertexId) {
        let y = self.mate_x[x as usize];
        debug_assert_ne!(y, NONE);
        self.mate_x[x as usize] = NONE;
        self.mate_y[y as usize] = NONE;
        self.cardinality -= 1;
    }

    /// Augments along the path
    /// `x₀, y₁, x₁, y₂, …, x_k, y_{k+1}` given as the interleaved vertex
    /// sequence `[x₀, y₁, x₁, …, x_k, y_{k+1}]` (even length ≥ 2).
    ///
    /// Endpoints must be unmatched; interior edges must alternate
    /// matched/unmatched with respect to the current matching (checked in
    /// debug builds). Increases the cardinality by exactly one.
    pub fn augment(&mut self, path: &[VertexId]) {
        assert!(
            path.len() >= 2 && path.len().is_multiple_of(2),
            "augmenting path must interleave x,y"
        );
        debug_assert_eq!(
            self.mate_x[path[0] as usize], NONE,
            "path must start unmatched"
        );
        debug_assert_eq!(
            self.mate_y[path[path.len() - 1] as usize],
            NONE,
            "path must end unmatched"
        );
        // path[2i] = x_i, path[2i+1] = y_{i+1}; matched pairs before the
        // augmentation are (x_i, y_i), i.e. (path[2i], path[2i-1]).
        for i in (2..path.len()).step_by(2) {
            debug_assert_eq!(
                self.mate_x[path[i] as usize],
                path[i - 1],
                "interior path edge not matched"
            );
        }
        for i in (0..path.len()).step_by(2) {
            let (x, y) = (path[i], path[i + 1]);
            self.mate_x[x as usize] = y;
            self.mate_y[y as usize] = x;
        }
        self.cardinality += 1;
    }

    /// Augments in place along the path a search found to the free `y`:
    /// `parent(y)` is the `X` through which the search reached `y`, and
    /// the path runs back through mates and parents to a free `X`.
    /// Returns the number of vertices on the path.
    pub(crate) fn flip_path_to_y(
        &mut self,
        mut y: VertexId,
        mut parent: impl FnMut(VertexId) -> VertexId,
    ) -> usize {
        debug_assert_eq!(self.mate_y[y as usize], NONE, "path must end unmatched");
        let mut len = 0;
        loop {
            let x = parent(y);
            let next = self.mate_x[x as usize];
            self.rematch(x, y);
            len += 2;
            if next == NONE {
                return len;
            }
            y = next;
        }
    }

    /// [`Matching::flip_path_to_y`] with the sides swapped, for a search
    /// from a free `Y`: `parent(x)` is the `Y` through which the search
    /// reached the free `x`.
    pub(crate) fn flip_path_to_x(
        &mut self,
        mut x: VertexId,
        mut parent: impl FnMut(VertexId) -> VertexId,
    ) -> usize {
        debug_assert_eq!(self.mate_x[x as usize], NONE, "path must end unmatched");
        let mut len = 0;
        loop {
            let y = parent(x);
            let next = self.mate_y[y as usize];
            self.rematch(x, y);
            len += 2;
            if next == NONE {
                return len;
            }
            x = next;
        }
    }

    /// Consumes the matching, returning the `(mate_x, mate_y)` arrays.
    pub fn into_mates(self) -> (Vec<VertexId>, Vec<VertexId>) {
        (self.mate_x, self.mate_y)
    }

    /// Checks structural validity against `g`: mates point at each other,
    /// every matched pair is an edge of `g`, cardinality is consistent.
    pub fn validate(&self, g: &BipartiteCsr) -> Result<(), String> {
        if self.mate_x.len() != g.num_x() || self.mate_y.len() != g.num_y() {
            return Err("matching dimensions do not match graph".into());
        }
        let mut count = 0;
        for x in 0..g.num_x() {
            let y = self.mate_x[x];
            if y == NONE {
                continue;
            }
            if y as usize >= g.num_y() {
                return Err(format!("x={x} matched to out-of-range y={y}"));
            }
            if self.mate_y[y as usize] != x as VertexId {
                return Err(format!("mate_y[{y}] does not point back at x={x}"));
            }
            if !g.has_edge(x as VertexId, y) {
                return Err(format!("matched pair ({x},{y}) is not an edge"));
            }
            count += 1;
        }
        for y in 0..g.num_y() {
            let x = self.mate_y[y];
            if x != NONE && self.mate_x[x as usize] != y as VertexId {
                return Err(format!("mate_x[{x}] does not point back at y={y}"));
            }
        }
        if count != self.cardinality {
            return Err(format!(
                "cached cardinality {} disagrees with actual {count}",
                self.cardinality
            ));
        }
        Ok(())
    }

    /// The matching number as a fraction of `|V|`, the normalization the
    /// paper's Table II reports (`2|M| / n` — a perfect matching of a
    /// balanced graph gives 1.0).
    pub fn matching_fraction(&self, g: &BipartiteCsr) -> f64 {
        if g.num_vertices() == 0 {
            return 0.0;
        }
        2.0 * self.cardinality as f64 / g.num_vertices() as f64
    }
}

/// The ids `i` with `mates[i] == NONE`, ascending, found a block of
/// [`FreeIds::BLOCK`] mates at a time: one branch-free test per block
/// skips a block with no free entry, and a block with one yields its free
/// entries from a bit mask.
struct FreeIds<'a> {
    /// The blocks not yet tested, numbered from the first.
    blocks: std::iter::Enumerate<std::slice::Chunks<'a, VertexId>>,
    /// The id of the first entry of the current block.
    base: usize,
    /// The current block's free entries not yet yielded: bit `i` is the
    /// id `base + i`.
    free: u64,
}

impl<'a> FreeIds<'a> {
    const BLOCK: usize = u64::BITS as usize;

    fn new(mates: &'a [VertexId]) -> Self {
        #[cfg(test)]
        crate::tests_support::count_range(mates.len());
        Self {
            blocks: mates.chunks(Self::BLOCK).enumerate(),
            base: 0,
            free: 0,
        }
    }

    /// The free entries of `block` (at most [`FreeIds::BLOCK`] long) as a
    /// bit mask. The none-free and all-free tests have no branch inside,
    /// so they vectorize; only a block with some of each builds its mask
    /// an entry at a time.
    #[inline]
    fn mask(block: &[VertexId]) -> u64 {
        if !block.iter().fold(false, |any, &m| any | (m == NONE)) {
            return 0;
        }
        if block.iter().fold(true, |all, &m| all & (m == NONE)) {
            return u64::MAX >> (Self::BLOCK - block.len());
        }
        block
            .iter()
            .rev()
            .fold(0, |mask, &m| (mask << 1) | u64::from(m == NONE))
    }
}

impl Iterator for FreeIds<'_> {
    type Item = VertexId;

    #[inline]
    fn next(&mut self) -> Option<VertexId> {
        while self.free == 0 {
            let (k, block) = self.blocks.next()?;
            (self.base, self.free) = (k * Self::BLOCK, Self::mask(block));
        }
        let i = self.free.trailing_zeros() as usize;
        self.free &= self.free - 1;
        Some((self.base + i) as VertexId)
    }
}

impl std::fmt::Debug for Matching {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Matching")
            .field("nx", &self.mate_x.len())
            .field("ny", &self.mate_y.len())
            .field("cardinality", &self.cardinality)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_matching() {
        let m = Matching::empty(3, 4);
        assert_eq!(m.cardinality(), 0);
        assert_eq!(m.unmatched_x().count(), 3);
        assert_eq!(m.unmatched_y().count(), 4);
        assert!(!m.is_x_matched(0));
    }

    #[test]
    fn match_and_unmatch() {
        let mut m = Matching::empty(2, 2);
        m.match_pair(0, 1);
        assert_eq!(m.cardinality(), 1);
        assert_eq!(m.mate_of_x(0), 1);
        assert_eq!(m.mate_of_y(1), 0);
        assert!(m.is_y_matched(1));
        assert!(!m.is_y_matched(0));
        m.unmatch_x(0);
        assert_eq!(m.cardinality(), 0);
        assert_eq!(m.mate_of_y(1), NONE);
    }

    #[test]
    fn rematch_steals() {
        let mut m = Matching::empty(3, 3);
        m.match_pair(0, 0);
        let stolen = m.rematch(1, 0);
        assert_eq!(stolen, 0);
        assert_eq!(m.cardinality(), 1);
        assert_eq!(m.mate_of_x(0), NONE);
        assert_eq!(m.mate_of_x(1), 0);
        // Rematching the same pair is a no-op.
        assert_eq!(m.rematch(1, 0), NONE);
        assert_eq!(m.cardinality(), 1);
    }

    #[test]
    fn rematch_releases_both_old_partners() {
        let mut m = Matching::empty(3, 3);
        m.match_pair(0, 0);
        m.match_pair(1, 1);
        m.rematch(0, 1); // 0 leaves y0, steals y1 from x1
        assert_eq!(m.cardinality(), 1);
        assert_eq!(m.mate_of_x(0), 1);
        assert_eq!(m.mate_of_y(0), NONE);
        assert_eq!(m.mate_of_x(1), NONE);
    }

    #[test]
    fn augment_length_one() {
        let mut m = Matching::empty(1, 1);
        m.augment(&[0, 0]);
        assert_eq!(m.cardinality(), 1);
        assert_eq!(m.mate_of_x(0), 0);
    }

    #[test]
    fn augment_length_three() {
        // x0 - y1 - x1 - y2 where (x1,y1) is matched.
        let mut m = Matching::empty(2, 3);
        m.match_pair(1, 1);
        m.augment(&[0, 1, 1, 2]);
        assert_eq!(m.cardinality(), 2);
        assert_eq!(m.mate_of_x(0), 1);
        assert_eq!(m.mate_of_x(1), 2);
    }

    #[test]
    fn validate_catches_non_edge() {
        let g = BipartiteCsr::from_edges(2, 2, &[(0, 0)]);
        let mut m = Matching::for_graph(&g);
        m.match_pair(0, 1); // not an edge of g
        assert!(m.validate(&g).is_err());
        let mut m2 = Matching::for_graph(&g);
        m2.match_pair(0, 0);
        assert!(m2.validate(&g).is_ok());
    }

    #[test]
    fn from_mates_roundtrip() {
        let mut m = Matching::empty(3, 3);
        m.match_pair(0, 2);
        m.match_pair(2, 0);
        let (mx, my) = m.clone().into_mates();
        let m2 = Matching::from_mates(mx, my);
        assert_eq!(m, m2);
    }

    #[test]
    #[should_panic]
    fn from_mates_rejects_inconsistent() {
        Matching::from_mates(vec![1], vec![NONE, NONE]);
    }

    #[test]
    fn matching_fraction_perfect() {
        let g = BipartiteCsr::from_edges(2, 2, &[(0, 0), (1, 1)]);
        let mut m = Matching::for_graph(&g);
        m.match_pair(0, 0);
        m.match_pair(1, 1);
        assert!((m.matching_fraction(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn edges_iterator() {
        let mut m = Matching::empty(3, 3);
        m.match_pair(2, 0);
        m.match_pair(0, 1);
        let e: Vec<_> = m.edges().collect();
        assert_eq!(e, vec![(0, 1), (2, 0)]);
    }
}
