//! Sparse matrix substrate for the masked-SpGEMM reproduction of
//! *"To tile or not to tile, that is the question"* (IPDPSW 2024).
//!
//! This crate provides the data structures the paper's kernels operate on:
//!
//! * [`Csr`] — compressed sparse row storage, the format all masked-SpGEMM
//!   operands use in the paper (§II-A: "all operands are stored in the CSR
//!   format").
//! * [`Coo`] — a triplet builder used by generators and I/O.
//! * [`Dense`] — a small dense matrix used as the reference oracle in tests.
//! * [`Semiring`] — the algebraic structure GraphBLAS parameterises every
//!   multiply with ("GraphBLAS permits the use of any semiring", §II-A).
//!
//! plus Matrix Market I/O ([`io`]), element-wise kernels ([`ops`]),
//! symmetric permutation ([`permute`]) and structural statistics
//! ([`stats`]) used by the experiment harness to characterise inputs the
//! way Table I of the paper does.
//!
//! # Index type
//!
//! Column indices are stored as [`Idx`] (`u32`) — the paper's largest graph
//! has 51 M vertices, comfortably within `u32`, and halving index width
//! measurably reduces memory traffic for a bandwidth-bound kernel. Row
//! pointers are `usize` since `nnz` can exceed `u32::MAX` in principle.

pub mod coo;
pub mod csr;
pub mod dense;
pub mod error;
pub mod io;
pub mod ops;
pub mod permute;
pub mod semiring;
pub mod stats;
pub mod vector;

pub use coo::Coo;
pub use csr::Csr;
pub use dense::Dense;
pub use error::SparseError;
pub use semiring::{BoolOrAnd, MaxMin, MinPlus, PlusPair, PlusTimes, Semiring};
pub use vector::SparseVec;

/// Column-index type used throughout the workspace.
///
/// `u32` halves index memory traffic relative to `usize` on 64-bit targets;
/// masked-SpGEMM is memory-bandwidth bound so this matters (see the paper's
/// §III-C discussion of accumulator state width for the same reasoning).
pub type Idx = u32;

/// Maximum dimension representable by [`Idx`].
pub const MAX_DIM: usize = u32::MAX as usize;
