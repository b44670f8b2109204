//! Deterministic synthetic graph generators standing in for the SuiteSparse
//! Matrix Collection inputs of Table I in *"To tile or not to tile"*.
//!
//! The paper evaluates on ten matrices from four structural classes — web
//! crawls (W), circuit/CFD simulations (C), social networks (S) and road
//! networks (R) — and its findings are expressed *per class*: road networks
//! are insensitive to co-iteration, social networks gain ~2×, circuits are
//! rescued from timeout, and so on (§IV, §V). We cannot redistribute the
//! collection, so this crate generates graphs that reproduce the structural
//! features each class's behaviour hinges on:
//!
//! * **degree skew** — social/web graphs have heavy-tailed degrees
//!   ([`rmat`], [`web`]); road networks are near-regular ([`road`]);
//! * **column locality** — road and circuit matrices are (mostly) banded
//!   ([`road`], [`circuit`]); web graphs have host-local clusters plus
//!   long-range links ([`web`]);
//! * **dense-row outliers** — circuit matrices mix a narrow band with a few
//!   extremely dense rows (power rails), which is precisely what makes the
//!   paper's `circuit5M` time out without co-iteration ([`circuit`]).
//!
//! Every generator is deterministic in its seed (ChaCha8), so experiment
//! runs are reproducible bit-for-bit.
//!
//! [`suite`] assembles the Table I stand-in collection at laptop-feasible
//! scale.

pub mod circuit;
pub mod er;
pub mod rmat;
pub mod road;
pub mod suite;
pub mod web;

pub use suite::{suite_graph, suite_specs, GraphKind, SuiteSpec};

use mspgemm_sparse::{Csr, SparseError};

/// Post-process an adjacency matrix the way the paper's triangle-counting
/// setup expects: symmetric, zero-free diagonal, boolean values.
///
/// All generators already return symmetric matrices; this helper is exposed
/// for users loading their own (possibly directed) graphs via Matrix Market.
/// An adjacency matrix is square: a rectangular input is a
/// [`SparseError::ShapeMismatch`].
pub fn symmetrize_boolean(a: &Csr<f64>) -> Result<Csr<f64>, SparseError> {
    let n = a.nrows();
    if a.ncols() != n {
        return Err(SparseError::ShapeMismatch {
            expected: (n, n),
            found: (n, a.ncols()),
            context: "symmetrize_boolean: adjacency matrix must be square",
        });
    }
    let at = a.transpose();
    let sym = mspgemm_sparse::ops::ewise_add::<mspgemm_sparse::PlusTimes>(a, &at)?;
    Ok(sym.without_diagonal().spones(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mspgemm_sparse::Coo;

    #[test]
    fn symmetrize_makes_symmetric_and_clears_diagonal() {
        let mut coo = Coo::new(4, 4);
        coo.push(0, 1, 1.0);
        coo.push(2, 3, 1.0);
        coo.push(1, 1, 1.0); // diagonal to be dropped
        let a = coo.to_csr_sum();
        let s = symmetrize_boolean(&a).unwrap();
        assert!(s.is_structurally_symmetric());
        assert!(!s.contains(1, 1));
        assert!(s.contains(1, 0));
        assert!(s.contains(3, 2));
        assert!(s.values().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn symmetrize_rejects_a_rectangular_matrix() {
        let mut coo = Coo::new(3, 4);
        coo.push(0, 1, 1.0);
        coo.push(2, 3, 1.0);
        assert!(matches!(
            symmetrize_boolean(&coo.to_csr_sum()),
            Err(SparseError::ShapeMismatch { expected: (3, 3), found: (3, 4), .. })
        ));
    }
}
