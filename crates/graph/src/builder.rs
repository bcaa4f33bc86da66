//! Edge-list accumulation and the one CSR build behind every constructor.
//!
//! Every [`BipartiteCsr`] is built the same way, whether its edges come
//! from a [`GraphBuilder`], a borrowed edge list
//! ([`BipartiteCsr::from_edges`]) or raw `X` rows
//! ([`BipartiteCsr::from_x_csr`]):
//!
//! 1. a counting sort of the edges by `x` straight into the final `x_adj`
//!    (a builder drops its edge list right after it);
//! 2. an in-place sort and dedup of each row, compacting `x_adj` and
//!    `x_ptr`;
//! 3. a transpose of the deduplicated `X` side into the `Y` side: a degree
//!    count, a prefix sum and a scatter in ascending `x`, so every `Y` row
//!    comes out sorted and duplicate-free without a sort of its own.
//!
//! Time is `O(n + m log d)` (`d` = the largest degree), the cost profile of
//! the matrix assembly the paper performs when converting UF-collection
//! matrices. Memory peaks at the edge list plus the `X` side while the
//! edges are scattered, and at the finished CSR afterwards: never above
//! edge list + CSR + `O(n)`.

use crate::csr::BipartiteCsr;
use crate::VertexId;

/// Accumulates edges and produces a normalized [`BipartiteCsr`].
///
/// ```
/// use graft_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(2, 2);
/// b.add_edge(0, 1);
/// b.add_edge(1, 0);
/// b.add_edge(0, 1); // duplicates are merged
/// let g = b.build();
/// assert_eq!(g.num_edges(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    nx: usize,
    ny: usize,
    edges: Vec<(VertexId, VertexId)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `nx` X-vertices and `ny`
    /// Y-vertices and no edges.
    pub fn new(nx: usize, ny: usize) -> Self {
        assert!(
            nx < VertexId::MAX as usize,
            "nx exceeds the u32 vertex-id space"
        );
        assert!(
            ny < VertexId::MAX as usize,
            "ny exceeds the u32 vertex-id space"
        );
        Self {
            nx,
            ny,
            edges: Vec::new(),
        }
    }

    /// Creates a builder with capacity reserved for `m` edges.
    pub fn with_capacity(nx: usize, ny: usize, m: usize) -> Self {
        let mut b = Self::new(nx, ny);
        b.edges.reserve(m);
        b
    }

    /// Adds the edge `(x, y)`. Panics on out-of-range endpoints.
    #[inline]
    pub fn add_edge(&mut self, x: VertexId, y: VertexId) {
        assert!(
            (x as usize) < self.nx,
            "x vertex {x} out of range (nx = {})",
            self.nx
        );
        assert!(
            (y as usize) < self.ny,
            "y vertex {y} out of range (ny = {})",
            self.ny
        );
        self.edges.push((x, y));
    }

    /// Adds the edge `(x, y)` if both endpoints are in range, returning
    /// whether it was added.
    #[inline]
    pub fn try_add_edge(&mut self, x: VertexId, y: VertexId) -> bool {
        if (x as usize) < self.nx && (y as usize) < self.ny {
            self.edges.push((x, y));
            true
        } else {
            false
        }
    }

    /// Removes every pending copy of the edge `(x, y)`, returning whether
    /// any was present. Out-of-range endpoints are a no-op `false` (they
    /// can never have been added).
    pub fn remove_edge(&mut self, x: VertexId, y: VertexId) -> bool {
        let before = self.edges.len();
        self.edges.retain(|&e| e != (x, y));
        self.edges.len() != before
    }

    /// Number of edges accumulated so far (duplicates still counted).
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether no edges have been added.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Builds the CSR graph (see the [module docs](self)). The edge list
    /// is freed as soon as it has been sorted into rows.
    pub fn build(self) -> BipartiteCsr {
        let (x_ptr, x_adj) = rows_by_x(self.nx, &self.edges);
        drop(self.edges);
        from_x_rows(self.nx, self.ny, x_ptr, x_adj)
    }
}

/// Counting sort of `edges` by `x`: row `x` holds the `y` of every edge
/// `(x, y)`, in input order. Endpoints must be in range.
pub(crate) fn rows_by_x(nx: usize, edges: &[(VertexId, VertexId)]) -> (Vec<usize>, Vec<VertexId>) {
    counting_sort(nx, edges.len(), || edges.iter().copied())
}

/// Finishes a build from `X` rows that may be unsorted or hold
/// duplicates: sorts and dedups each row in place, then transposes the
/// result into the `Y` side. Row `x` spans `x_adj[x_ptr[x]..x_ptr[x + 1]]`
/// (entries before `x_ptr[0]` are ignored); pointers and ids must be in
/// range.
pub(crate) fn from_x_rows(
    nx: usize,
    ny: usize,
    mut x_ptr: Vec<usize>,
    mut x_adj: Vec<VertexId>,
) -> BipartiteCsr {
    sort_dedup_rows_in_place(&mut x_ptr, &mut x_adj);
    // Rows are read in ascending `x`, so each `Y` row is sorted and
    // duplicate-free as it is written.
    let (y_ptr, y_adj) = counting_sort(ny, x_adj.len(), || {
        (0..nx).flat_map(|x| {
            x_adj[x_ptr[x]..x_ptr[x + 1]]
                .iter()
                .map(move |&y| (y, x as VertexId))
        })
    });
    BipartiteCsr::from_parts_unchecked(nx, ny, x_ptr, x_adj, y_ptr, y_adj)
}

/// Counting sort of the `m` `(row, value)` pairs that `pairs` yields (the
/// same ones on each of its two calls) into `n` CSR rows, each in the
/// order the pairs came.
fn counting_sort<I>(n: usize, m: usize, pairs: impl Fn() -> I) -> (Vec<usize>, Vec<VertexId>)
where
    I: Iterator<Item = (VertexId, VertexId)>,
{
    let mut ptr = vec![0usize; n + 1];
    pairs().for_each(|(r, _)| ptr[r as usize + 1] += 1);
    for r in 0..n {
        ptr[r + 1] += ptr[r];
    }
    let mut adj = vec![0 as VertexId; m];
    pairs().for_each(|(r, v)| {
        let next = &mut ptr[r as usize];
        adj[*next] = v;
        *next += 1;
    });
    // Each `ptr[r]` now holds the end of row `r`, the start of row `r + 1`.
    ptr.copy_within(0..n, 1);
    ptr[0] = 0;
    (ptr, adj)
}

/// Sorts each row and removes its duplicates in place, moving the rows
/// down over the gaps and shrinking `adj` to the distinct entries.
fn sort_dedup_rows_in_place(ptr: &mut [usize], adj: &mut Vec<VertexId>) {
    let mut start = ptr[0];
    let mut len = 0;
    ptr[0] = 0;
    for end_of_row in ptr.iter_mut().skip(1) {
        let end = *end_of_row;
        adj[start..end].sort_unstable();
        let row_start = len;
        for i in start..end {
            let v = adj[i];
            if len == row_start || adj[len - 1] != v {
                adj[len] = v;
                len += 1;
            }
        }
        *end_of_row = len;
        start = end;
    }
    adj.truncate(len);
    adj.shrink_to_fit();
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn build_empty() {
        let g = GraphBuilder::new(3, 2).build();
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.num_x(), 3);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn duplicates_merged_both_sides() {
        let mut b = GraphBuilder::new(2, 2);
        for _ in 0..5 {
            b.add_edge(1, 0);
        }
        b.add_edge(0, 1);
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.y_neighbors(0), &[1]);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn try_add_edge_bounds() {
        let mut b = GraphBuilder::new(1, 1);
        assert!(b.try_add_edge(0, 0));
        assert!(!b.try_add_edge(1, 0));
        assert!(!b.try_add_edge(0, 1));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn dense_block_complete() {
        let mut b = GraphBuilder::new(4, 3);
        for x in 0..4 {
            for y in 0..3 {
                b.add_edge(x, y);
            }
        }
        let g = b.build();
        assert_eq!(g.num_edges(), 12);
        for x in 0..4 {
            assert_eq!(g.x_neighbors(x), &[0, 1, 2]);
        }
        for y in 0..3 {
            assert_eq!(g.y_neighbors(y), &[0, 1, 2, 3]);
        }
        assert!(g.validate().is_ok());
    }

    #[test]
    fn remove_edge_drops_every_pending_copy() {
        let mut b = GraphBuilder::new(3, 3);
        b.add_edge(0, 1);
        b.add_edge(0, 1);
        b.add_edge(1, 2);
        assert!(b.remove_edge(0, 1));
        assert_eq!(b.len(), 1);
        assert!(!b.remove_edge(0, 1), "already gone");
        assert!(!b.remove_edge(2, 0), "never added");
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert!(g.has_edge(1, 2));
        assert!(!g.has_edge(0, 1));
    }

    #[test]
    fn remove_then_readd_keeps_edge() {
        let mut b = GraphBuilder::new(2, 2);
        b.add_edge(0, 0);
        assert!(b.remove_edge(0, 0));
        b.add_edge(0, 0);
        let g = b.build();
        assert!(g.has_edge(0, 0));
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn reverse_insertion_order_sorted() {
        let mut b = GraphBuilder::new(1, 100);
        for y in (0..100).rev() {
            b.add_edge(0, y);
        }
        let g = b.build();
        let expect: Vec<u32> = (0..100).collect();
        assert_eq!(g.x_neighbors(0), expect.as_slice());
    }

    /// `x_ptr`, `x_adj`, `y_ptr` and `y_adj`.
    type Arrays = (Vec<usize>, Vec<VertexId>, Vec<usize>, Vec<VertexId>);

    /// The CSR arrays of `edges` built the naive way: a sorted set of
    /// pairs per side, turned into rows.
    fn reference(nx: usize, ny: usize, edges: &[(VertexId, VertexId)]) -> Arrays {
        let rows = |n: usize, pairs: BTreeSet<(VertexId, VertexId)>| {
            let mut ptr = vec![0usize; n + 1];
            for &(r, _) in &pairs {
                ptr[r as usize + 1] += 1;
            }
            for r in 0..n {
                ptr[r + 1] += ptr[r];
            }
            (ptr, pairs.iter().map(|&(_, v)| v).collect::<Vec<_>>())
        };
        let (x_ptr, x_adj) = rows(nx, edges.iter().copied().collect());
        let (y_ptr, y_adj) = rows(ny, edges.iter().map(|&(x, y)| (y, x)).collect());
        (x_ptr, x_adj, y_ptr, y_adj)
    }

    fn arrays(g: &BipartiteCsr) -> Arrays {
        (
            g.x_ptr().to_vec(),
            g.x_adj().to_vec(),
            g.y_ptr().to_vec(),
            g.y_adj().to_vec(),
        )
    }

    /// Up to 12 × 12 vertices, either side possibly empty, and up to 60
    /// edges drawn from a small range, so rows and columns go empty and
    /// edges repeat.
    fn arb_edges() -> impl Strategy<Value = (usize, usize, Vec<(VertexId, VertexId)>)> {
        (0usize..12, 0usize..12).prop_flat_map(|(nx, ny)| {
            proptest::collection::vec((0u32..12, 0u32..12), 0..60).prop_map(move |raw| {
                let edges = raw
                    .into_iter()
                    .filter(|&(x, y)| (x as usize) < nx && (y as usize) < ny)
                    .collect();
                (nx, ny, edges)
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn build_matches_a_naive_reference((nx, ny, edges) in arb_edges()) {
            let expected = reference(nx, ny, &edges);
            let mut b = GraphBuilder::new(nx, ny);
            for &(x, y) in &edges {
                b.add_edge(x, y);
            }
            let built = b.build();
            prop_assert_eq!(arrays(&built), expected.clone());
            prop_assert!(built.validate().is_ok());
            prop_assert_eq!(&BipartiteCsr::from_edges(nx, ny, &edges), &built);

            // The same edges as raw rows, unsorted and with duplicates.
            let mut by_x = edges.clone();
            by_x.sort_by_key(|&(x, _)| x);
            let mut x_ptr = vec![0usize; nx + 1];
            for &(x, _) in &by_x {
                x_ptr[x as usize + 1] += 1;
            }
            for x in 0..nx {
                x_ptr[x + 1] += x_ptr[x];
            }
            let x_adj = by_x.iter().map(|&(_, y)| y).collect();
            let from_rows = BipartiteCsr::from_x_csr(nx, ny, x_ptr, x_adj);
            prop_assert_eq!(arrays(&from_rows), expected);
            prop_assert!(from_rows.validate().is_ok());
        }
    }
}
