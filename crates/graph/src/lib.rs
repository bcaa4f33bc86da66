//! # graft-graph — bipartite CSR graph substrate
//!
//! This crate provides the graph representation used by every matching
//! algorithm in the workspace. It mirrors the storage scheme of the IPDPS
//! 2015 tree-grafting paper (Azad, Buluç, Pothen): a bipartite graph
//! `G(X ∪ Y, E)` is stored in **compressed sparse row** form *twice*, once
//! per side, so that
//!
//! * **top-down** BFS steps can stream over the adjacency of frontier `X`
//!   vertices, and
//! * **bottom-up** BFS steps can stream over the adjacency of unvisited `Y`
//!   vertices
//!
//! without any transposition at search time. In matrix terms, `X` vertices
//! are the rows of a sparse matrix `A`, `Y` vertices are the columns, and
//! each nonzero `A[i,j]` contributes the edge `(x_i, y_j)` in both
//! directions, exactly as §IV-B of the paper describes.
//!
//! The two vertex sides use **independent index spaces**: `X` vertices are
//! `0..nx` and `Y` vertices are `0..ny`. All vertex ids are `u32`
//! ([`VertexId`]), which halves the memory traffic of the search kernels
//! relative to `usize` indices on 64-bit hosts (a Rust-performance-book
//! idiom) and comfortably covers the graph sizes the paper evaluates.
//!
//! ```
//! use graft_graph::BipartiteCsr;
//!
//! // The worked example of Fig. 2 in the paper: 6 + 6 vertices.
//! let g = BipartiteCsr::from_edges(3, 3, &[(0, 0), (0, 1), (1, 1), (2, 2), (1, 2)]);
//! assert_eq!(g.num_x(), 3);
//! assert_eq!(g.num_y(), 3);
//! assert_eq!(g.num_edges(), 5);
//! assert_eq!(g.x_neighbors(1), &[1, 2]);
//! assert_eq!(g.y_neighbors(1), &[0, 1]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod csr;
mod degree;
mod error;
pub mod mtx;
pub mod ops;
mod permute;

pub use builder::GraphBuilder;
pub use csr::BipartiteCsr;
pub use degree::{DegreeHistogram, DegreeStats};
pub use error::GraphError;
pub use permute::{identity_permutation, random_permutation_with, Relabeling};

/// Vertex identifier within one side of the bipartition.
///
/// `X` and `Y` vertices live in separate index spaces, each starting at 0;
/// a `VertexId` is only meaningful together with the side it indexes.
pub type VertexId = u32;

/// Sentinel for "no vertex" (unmatched mate, absent parent/root pointer).
///
/// The paper uses `-1`; we use `u32::MAX` so that ids stay unsigned.
pub const NONE: VertexId = VertexId::MAX;

/// Returns `true` if `v` is a real vertex id (not [`NONE`]).
#[inline(always)]
pub fn is_vertex(v: VertexId) -> bool {
    v != NONE
}
