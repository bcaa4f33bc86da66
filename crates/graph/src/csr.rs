//! The bipartite compressed-sparse-row graph type.

use crate::{builder, GraphError, VertexId};

/// A bipartite graph `G(X ∪ Y, E)` stored in CSR form on **both** sides.
///
/// Invariants (checked by [`BipartiteCsr::validate`], established by every
/// constructor in this crate):
///
/// * `x_ptr.len() == nx + 1`, `y_ptr.len() == ny + 1`;
/// * both `ptr` arrays are non-decreasing and end at the edge count;
/// * `x_adj` values are `< ny`, `y_adj` values are `< nx`;
/// * every neighbor list is sorted ascending and duplicate-free;
/// * the two directions describe the same edge set (the graph is its own
///   transpose pair): `y ∈ x_adj[x] ⇔ x ∈ y_adj[y]`.
///
/// The neighbor lists being sorted makes `has_edge` a binary search and
/// gives deterministic traversal orders, which the serial algorithms rely
/// on for reproducibility.
#[derive(Clone, PartialEq, Eq)]
pub struct BipartiteCsr {
    nx: usize,
    ny: usize,
    x_ptr: Vec<usize>,
    x_adj: Vec<VertexId>,
    y_ptr: Vec<usize>,
    y_adj: Vec<VertexId>,
}

impl BipartiteCsr {
    /// Builds a graph from an edge list of `(x, y)` pairs.
    ///
    /// Duplicate edges are merged; edges are sorted per vertex. Panics if
    /// any endpoint is out of range (use
    /// [`BipartiteCsr::try_from_edges`] for fallible construction).
    pub fn from_edges(nx: usize, ny: usize, edges: &[(VertexId, VertexId)]) -> Self {
        Self::try_from_edges(nx, ny, edges).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`BipartiteCsr::from_edges`] for untrusted
    /// input: returns an error instead of panicking on out-of-range
    /// endpoints or oversized dimensions.
    ///
    /// ```
    /// use graft_graph::{BipartiteCsr, GraphError};
    ///
    /// let err = BipartiteCsr::try_from_edges(2, 2, &[(0, 9)]).unwrap_err();
    /// assert_eq!(err, GraphError::YOutOfRange { y: 9, ny: 2 });
    /// assert!(BipartiteCsr::try_from_edges(2, 2, &[(1, 1)]).is_ok());
    /// ```
    pub fn try_from_edges(
        nx: usize,
        ny: usize,
        edges: &[(VertexId, VertexId)],
    ) -> Result<Self, GraphError> {
        for n in [nx, ny] {
            if n >= VertexId::MAX as usize {
                return Err(GraphError::TooManyVertices { requested: n });
            }
        }
        for &(x, y) in edges {
            if (x as usize) >= nx {
                return Err(GraphError::XOutOfRange { x, nx });
            }
            if (y as usize) >= ny {
                return Err(GraphError::YOutOfRange { y, ny });
            }
        }
        let (x_ptr, x_adj) = builder::rows_by_x(nx, edges);
        Ok(builder::from_x_rows(nx, ny, x_ptr, x_adj))
    }

    /// Constructs directly from raw CSR arrays.
    ///
    /// `x_adj` neighbor lists may be unsorted or contain duplicates; they
    /// are normalized in place and the `Y`-side CSR is derived. Panics if
    /// the pointers are malformed or a neighbor id is out of range.
    pub fn from_x_csr(nx: usize, ny: usize, x_ptr: Vec<usize>, x_adj: Vec<VertexId>) -> Self {
        assert!(
            nx < VertexId::MAX as usize && ny < VertexId::MAX as usize,
            "a side exceeds the u32 vertex-id space"
        );
        assert_eq!(x_ptr.len(), nx + 1, "x_ptr must have nx+1 entries");
        assert_eq!(*x_ptr.last().unwrap(), x_adj.len(), "x_ptr must end at |E|");
        assert!(
            x_ptr.windows(2).all(|w| w[0] <= w[1]),
            "x_ptr must be non-decreasing"
        );
        if let Some(&y) = x_adj[x_ptr[0]..].iter().find(|&&y| y as usize >= ny) {
            panic!("y vertex {y} out of range (ny = {ny})");
        }
        builder::from_x_rows(nx, ny, x_ptr, x_adj)
    }

    pub(crate) fn from_parts_unchecked(
        nx: usize,
        ny: usize,
        x_ptr: Vec<usize>,
        x_adj: Vec<VertexId>,
        y_ptr: Vec<usize>,
        y_adj: Vec<VertexId>,
    ) -> Self {
        Self {
            nx,
            ny,
            x_ptr,
            x_adj,
            y_ptr,
            y_adj,
        }
    }

    /// Number of `X`-side vertices (matrix rows).
    #[inline(always)]
    pub fn num_x(&self) -> usize {
        self.nx
    }

    /// Number of `Y`-side vertices (matrix columns).
    #[inline(always)]
    pub fn num_y(&self) -> usize {
        self.ny
    }

    /// Total number of vertices `|X ∪ Y|` (the paper's `n`).
    #[inline(always)]
    pub fn num_vertices(&self) -> usize {
        self.nx + self.ny
    }

    /// Number of undirected edges (matrix nonzeros).
    ///
    /// Note the paper counts `m = 2·nnz` because it stores both directions;
    /// this accessor returns `nnz`. Use [`BipartiteCsr::num_directed_edges`]
    /// for the paper's convention.
    #[inline(always)]
    pub fn num_edges(&self) -> usize {
        self.x_adj.len()
    }

    /// `2·nnz`, the paper's `m` (both stored directions).
    #[inline(always)]
    pub fn num_directed_edges(&self) -> usize {
        2 * self.x_adj.len()
    }

    /// Neighbors (in `Y`) of the `X` vertex `x`, sorted ascending.
    #[inline(always)]
    pub fn x_neighbors(&self, x: VertexId) -> &[VertexId] {
        let x = x as usize;
        &self.x_adj[self.x_ptr[x]..self.x_ptr[x + 1]]
    }

    /// Neighbors (in `X`) of the `Y` vertex `y`, sorted ascending.
    #[inline(always)]
    pub fn y_neighbors(&self, y: VertexId) -> &[VertexId] {
        let y = y as usize;
        &self.y_adj[self.y_ptr[y]..self.y_ptr[y + 1]]
    }

    /// Degree of the `X` vertex `x`.
    #[inline(always)]
    pub fn x_degree(&self, x: VertexId) -> usize {
        let x = x as usize;
        self.x_ptr[x + 1] - self.x_ptr[x]
    }

    /// Degree of the `Y` vertex `y`.
    #[inline(always)]
    pub fn y_degree(&self, y: VertexId) -> usize {
        let y = y as usize;
        self.y_ptr[y + 1] - self.y_ptr[y]
    }

    /// The raw `X`-side row-pointer array (`nx + 1` entries).
    #[inline(always)]
    pub fn x_ptr(&self) -> &[usize] {
        &self.x_ptr
    }

    /// The raw `X`-side adjacency array.
    #[inline(always)]
    pub fn x_adj(&self) -> &[VertexId] {
        &self.x_adj
    }

    /// The raw `Y`-side row-pointer array (`ny + 1` entries).
    #[inline(always)]
    pub fn y_ptr(&self) -> &[usize] {
        &self.y_ptr
    }

    /// The raw `Y`-side adjacency array.
    #[inline(always)]
    pub fn y_adj(&self) -> &[VertexId] {
        &self.y_adj
    }

    /// Whether the edge `(x, y)` exists, by binary search (`O(log deg)`).
    pub fn has_edge(&self, x: VertexId, y: VertexId) -> bool {
        self.x_neighbors(x).binary_search(&y).is_ok()
    }

    /// Iterates over all edges as `(x, y)` pairs in row-major order.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.nx as VertexId).flat_map(move |x| self.x_neighbors(x).iter().map(move |&y| (x, y)))
    }

    /// The graph with the two sides swapped (transpose of the matrix).
    ///
    /// `O(1)` index shuffling: the stored arrays are simply exchanged.
    pub fn transposed(&self) -> Self {
        Self {
            nx: self.ny,
            ny: self.nx,
            x_ptr: self.y_ptr.clone(),
            x_adj: self.y_adj.clone(),
            y_ptr: self.x_ptr.clone(),
            y_adj: self.x_adj.clone(),
        }
    }

    /// Checks every structural invariant; returns a description of the
    /// first violation found.
    pub fn validate(&self) -> Result<(), String> {
        if self.x_ptr.len() != self.nx + 1 {
            return Err(format!(
                "x_ptr has {} entries, expected {}",
                self.x_ptr.len(),
                self.nx + 1
            ));
        }
        if self.y_ptr.len() != self.ny + 1 {
            return Err(format!(
                "y_ptr has {} entries, expected {}",
                self.y_ptr.len(),
                self.ny + 1
            ));
        }
        if *self.x_ptr.last().unwrap() != self.x_adj.len() {
            return Err("x_ptr does not end at |E|".into());
        }
        if *self.y_ptr.last().unwrap() != self.y_adj.len() {
            return Err("y_ptr does not end at |E|".into());
        }
        if self.x_adj.len() != self.y_adj.len() {
            return Err("the two directions store different edge counts".into());
        }
        for (side, n, other_n, ptr, adj) in [
            ("X", self.nx, self.ny, &self.x_ptr, &self.x_adj),
            ("Y", self.ny, self.nx, &self.y_ptr, &self.y_adj),
        ] {
            for v in 0..n {
                if ptr[v] > ptr[v + 1] {
                    return Err(format!("{side}-ptr decreases at vertex {v}"));
                }
                let nbrs = &adj[ptr[v]..ptr[v + 1]];
                for w in nbrs.windows(2) {
                    if w[0] >= w[1] {
                        return Err(format!("{side}-adjacency of {v} not sorted/deduped"));
                    }
                }
                if let Some(&last) = nbrs.last() {
                    if last as usize >= other_n {
                        return Err(format!(
                            "{side}-adjacency of {v} references out-of-range vertex {last}"
                        ));
                    }
                }
            }
        }
        // Directions must agree.
        for (x, y) in self.edges() {
            if self.y_neighbors(y).binary_search(&x).is_err() {
                return Err(format!(
                    "edge ({x},{y}) present in X-side but missing in Y-side"
                ));
            }
        }
        Ok(())
    }
}

impl std::fmt::Debug for BipartiteCsr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BipartiteCsr")
            .field("nx", &self.nx)
            .field("ny", &self.ny)
            .field("edges", &self.num_edges())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> BipartiteCsr {
        BipartiteCsr::from_edges(3, 4, &[(0, 1), (0, 0), (1, 2), (2, 3), (2, 0), (0, 1)])
    }

    #[test]
    fn sizes() {
        let g = small();
        assert_eq!(g.num_x(), 3);
        assert_eq!(g.num_y(), 4);
        assert_eq!(g.num_edges(), 5); // duplicate (0,1) merged
        assert_eq!(g.num_directed_edges(), 10);
        assert_eq!(g.num_vertices(), 7);
    }

    #[test]
    fn neighbors_sorted_and_deduped() {
        let g = small();
        assert_eq!(g.x_neighbors(0), &[0, 1]);
        assert_eq!(g.x_neighbors(1), &[2]);
        assert_eq!(g.x_neighbors(2), &[0, 3]);
        assert_eq!(g.y_neighbors(0), &[0, 2]);
        assert_eq!(g.y_neighbors(1), &[0]);
        assert_eq!(g.y_neighbors(2), &[1]);
        assert_eq!(g.y_neighbors(3), &[2]);
    }

    #[test]
    fn degrees() {
        let g = small();
        assert_eq!(g.x_degree(0), 2);
        assert_eq!(g.y_degree(1), 1);
        assert_eq!(g.y_degree(3), 1);
    }

    #[test]
    fn has_edge_lookup() {
        let g = small();
        assert!(g.has_edge(0, 0));
        assert!(g.has_edge(2, 3));
        assert!(!g.has_edge(1, 0));
        assert!(!g.has_edge(0, 3));
    }

    #[test]
    fn edges_iterator_row_major() {
        let g = small();
        let e: Vec<_> = g.edges().collect();
        assert_eq!(e, vec![(0, 0), (0, 1), (1, 2), (2, 0), (2, 3)]);
    }

    #[test]
    fn transpose_swaps_sides() {
        let g = small();
        let t = g.transposed();
        assert_eq!(t.num_x(), 4);
        assert_eq!(t.num_y(), 3);
        assert_eq!(t.x_neighbors(0), g.y_neighbors(0));
        assert!(t.validate().is_ok());
        assert_eq!(t.transposed(), g);
    }

    #[test]
    fn validate_accepts_well_formed() {
        assert_eq!(small().validate(), Ok(()));
    }

    #[test]
    fn empty_graph() {
        let g = BipartiteCsr::from_edges(0, 0, &[]);
        assert_eq!(g.num_edges(), 0);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn isolated_vertices() {
        let g = BipartiteCsr::from_edges(5, 5, &[(0, 0)]);
        assert_eq!(g.x_degree(4), 0);
        assert_eq!(g.y_degree(3), 0);
        assert!(g.x_neighbors(4).is_empty());
        assert!(g.validate().is_ok());
    }

    #[test]
    fn from_x_csr_normalizes() {
        // Unsorted with duplicates.
        let g = BipartiteCsr::from_x_csr(2, 3, vec![0, 3, 4], vec![2, 0, 2, 1]);
        assert_eq!(g.x_neighbors(0), &[0, 2]);
        assert_eq!(g.x_neighbors(1), &[1]);
        assert!(g.validate().is_ok());
        // Entries before `x_ptr[0]` belong to no row.
        let g = BipartiteCsr::from_x_csr(1, 3, vec![1, 3], vec![2, 1, 1]);
        assert_eq!(g.x_neighbors(0), &[1]);
        assert_eq!(g.x_ptr(), &[0, 1]);
        assert!(g.validate().is_ok());
    }

    #[test]
    #[should_panic]
    fn out_of_range_edge_panics() {
        BipartiteCsr::from_edges(2, 2, &[(0, 5)]);
    }
}
