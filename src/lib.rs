//! # ms-bfs-graft — parallel tree-grafting maximum bipartite matching
//!
//! Umbrella crate for the Rust reproduction of *"A Parallel Tree Grafting
//! Algorithm for Maximum Cardinality Matching in Bipartite Graphs"*
//! (Azad, Buluç, Pothen, IPDPS 2015). It re-exports the workspace crates:
//!
//! * [`graph`] — bipartite CSR graphs, Matrix Market I/O, relabelings;
//! * [`gen`] — seeded synthetic generators and the paper-suite analogs;
//! * [`matching`] — every matching algorithm the paper evaluates,
//!   including the MS-BFS-Graft contribution (serial and parallel);
//! * [`dm`] — the Dulmage-Mendelsohn / block-triangular-form application;
//! * [`dyn_matching`] — incremental matching under edge updates (a CSR
//!   base plus a delta overlay, repaired by bounded augmenting searches);
//! * [`svc`] — the resident matching service behind `graftmatch serve`
//!   (graph registry + LRU cache, worker pool with deadlines and warm
//!   starts, newline-delimited TCP protocol).
//!
//! ## Quickstart
//!
//! ```
//! use ms_bfs_graft::prelude::*;
//!
//! // Generate a scale-free instance and compute a maximum matching.
//! let g = gen::preferential_attachment(1000, 1000, 4, 0.6, 42);
//! let out = matching::solve(&g, Algorithm::MsBfsGraftParallel, &SolveOptions::default());
//!
//! // Certify optimality with a König vertex cover.
//! let cover = matching::verify::certify_maximum(&g, &out.matching).unwrap();
//! assert_eq!(cover.size(), out.matching.cardinality());
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! harness that regenerates the paper's tables and figures.

pub use graft_core as matching;
pub use graft_dist as dist;
pub use graft_dm as dm;
pub use graft_dyn as dyn_matching;
pub use graft_gen as gen;
pub use graft_graph as graph;
pub use graft_svc as svc;

/// The most common imports in one place.
pub mod prelude {
    pub use graft_core::{
        self as matching, solve, solve_from_in, solve_from_traced_in, Algorithm, Matching,
        MsBfsOptions, PushRelabelOptions, RunOutcome, SolveOptions, SolveWorkspace, Tracer,
    };
    pub use graft_dist::{self as dist, distributed_ms_bfs_graft};
    pub use graft_dm::{self as dm, DmDecomposition};
    pub use graft_dyn::{self as dyn_matching, DynConfig, DynamicMatching};
    pub use graft_gen as gen;
    pub use graft_graph::{self as graph, BipartiteCsr, GraphBuilder, VertexId, NONE};
    pub use graft_svc as svc;
}
