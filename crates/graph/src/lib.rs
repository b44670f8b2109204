//! GraphBLAS-flavoured graph algorithms on top of the masked-SpGEMM core.
//!
//! The paper's introduction motivates masked-SpGEMM through the graph
//! algorithms that depend on it: "triangle counting, k-truss analysis,
//! breath first search, betweenness centrality" (§I). This crate provides
//! exactly those algorithms, expressed over the
//! [`mxm`]/[`masked_mxm`] primitives the way
//! GraphBLAS composes them:
//!
//! * [`triangles`] — triangle counting via `C = A ⊙ (A×A)` (the paper's
//!   benchmark kernel) and the Azad et al. lower-triangular variant;
//! * [`ktruss`](ktruss()) — k-truss peeling, re-running the masked product on the
//!   shrinking edge set;
//! * [`bfs`] — level-synchronous BFS with masked sparse matrix-vector
//!   products (the `!visited` mask);
//! * [`bc`] — Brandes-style betweenness centrality over BFS waves.
//!
//! All algorithms accept a [`mspgemm_core::Config`] so the tuning insights
//! of the paper carry through to application level.

pub mod bc;
pub mod bfs;
pub mod descriptor;
pub mod grb;
pub mod ktruss;
pub mod triangles;

pub use bc::{
    bc_forward_fused, bc_forward_fused_from_levels, bc_forward_unfused,
    bc_forward_unfused_from_levels, betweenness_centrality, betweenness_centrality_batched,
};
pub use bfs::{bfs_levels, bfs_levels_multi, BfsResult};
pub use descriptor::{mxm_desc, Descriptor};
pub use triangles::clustering_coefficients;
pub use grb::{masked_mxm, masked_mxm_complemented, mxm, spgemm_unmasked};
pub use ktruss::{ktruss, ktruss_unfused, KTrussResult};
pub use triangles::{
    count_triangles, count_triangles_ll, count_triangles_with_stats, triangle_support,
};
