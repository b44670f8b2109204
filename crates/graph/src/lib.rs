//! Graph algorithms on top of the masked-SpGEMM engine.
//!
//! The paper's introduction motivates masked-SpGEMM through the graph
//! algorithms that depend on it: "triangle counting, k-truss analysis,
//! breath first search, betweenness centrality" (§I). This crate provides
//! exactly those algorithms. Every matrix-matrix product they compute is
//! the structurally masked `C = M ⊙ (A × B)` of `mspgemm-core`, run
//! through its one tile engine:
//!
//! * [`triangles`] — triangle counting via `C = A ⊙ (A×A)` (the paper's
//!   benchmark kernel) and the Azad et al. lower-triangular variant;
//! * [`ktruss`](ktruss()) — k-truss peeling, re-running the masked product on the
//!   shrinking edge set;
//! * [`bfs`] — level-synchronous BFS with masked sparse vector-matrix
//!   products (the `!visited` mask), one source at a time;
//! * [`bc`] — Brandes-style betweenness centrality over BFS waves, with
//!   the forward sweep batched into masked products.
//!
//! [`grb`] keeps the two-step product of §III-B as the test oracle the
//! engine is checked against. The algorithms that run the masked product
//! accept a [`mspgemm_core::Config`] so the tuning insights of the paper
//! carry through to application level.

pub mod bc;
pub mod bfs;
pub mod grb;
pub mod ktruss;
pub mod triangles;

pub use bc::{
    bc_forward_fused, bc_forward_fused_from_levels, bc_forward_unfused,
    bc_forward_unfused_from_levels, betweenness_centrality,
};
pub use bfs::{bfs_levels, bfs_levels_multi, BfsResult};
pub use ktruss::{ktruss, ktruss_unfused, KTrussResult};
pub use triangles::{
    count_triangles, count_triangles_ll, count_triangles_with_stats, triangle_support,
};
