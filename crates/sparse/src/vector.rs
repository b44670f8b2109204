//! Sparse vectors — the `GrB_Vector` analogue.
//!
//! BFS and betweenness centrality (the paper's §I motivating algorithms)
//! are masked *matrix-vector* recurrences; this module gives them a real
//! vector type instead of ad-hoc `(index, value)` slices: sorted
//! coordinate storage, plus the masked `vxm` (vector × matrix) product
//! that is the 1-D restriction of the paper's masked-SpGEMM.

use crate::semiring::Semiring;
use crate::{Csr, Idx, SparseError};

/// A sparse vector: sorted, duplicate-free `(index, value)` pairs plus a
/// logical dimension.
#[derive(Clone, Debug, PartialEq)]
pub struct SparseVec<T> {
    dim: usize,
    idx: Vec<Idx>,
    val: Vec<T>,
}

impl<T: Copy> SparseVec<T> {
    /// A single-entry vector (e.g. a BFS source frontier).
    ///
    /// Errors with [`SparseError::RowOutOfBounds`] when `i >= dim`.
    pub fn unit(dim: usize, i: usize, v: T) -> Result<Self, SparseError> {
        if i >= dim {
            return Err(SparseError::RowOutOfBounds { row: i, nrows: dim });
        }
        Ok(SparseVec { dim, idx: vec![i as Idx], val: vec![v] })
    }

    /// Logical dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.idx.len()
    }

    /// `true` if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.idx.is_empty()
    }

    /// Iterate stored `(index, value)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (Idx, T)> + '_ {
        self.idx.iter().copied().zip(self.val.iter().copied())
    }
}

/// Masked vector × matrix product — the 1-D masked-SpGEMM:
/// `y = x ⊗ A` with `y[j] = ⊕_k x[k] ⊗ A[k,j]`, restricted to indices
/// where `mask_allow` holds (structural complement masks pass
/// `|j| !visited[j]`).
///
/// This is BFS's frontier expansion: `frontier ⊗ A` under the boolean
/// semiring with the `!visited` mask.
///
/// Errors with [`SparseError::ShapeMismatch`] unless `x.dim() ==
/// a.nrows()`.
pub fn masked_vxm<S: Semiring>(
    x: &SparseVec<S::T>,
    a: &Csr<S::T>,
    mut mask_allow: impl FnMut(Idx) -> bool,
) -> Result<SparseVec<S::T>, SparseError> {
    if x.dim() != a.nrows() {
        return Err(SparseError::ShapeMismatch {
            expected: (1, a.nrows()),
            found: (1, x.dim()),
            context: "masked_vxm: vector dimension",
        });
    }
    let mut acc: Vec<Option<S::T>> = vec![None; a.ncols()];
    let mut touched: Vec<Idx> = Vec::new();
    for (k, xv) in x.iter() {
        let (cols, vals) = a.row(k as usize);
        for (&j, &av) in cols.iter().zip(vals) {
            let ju = j as usize;
            match acc[ju] {
                Some(cur) => acc[ju] = Some(S::fma(cur, xv, av)),
                None => {
                    if mask_allow(j) {
                        acc[ju] = Some(S::mul(xv, av));
                        touched.push(j);
                    }
                }
            }
        }
    }
    touched.sort_unstable();
    // every touched index holds a value; pairing them keeps idx and val
    // the same length without a panic path
    let (idx, val) = touched.iter().filter_map(|&j| Some((j, acc[j as usize]?))).unzip();
    Ok(SparseVec { dim: a.ncols(), idx, val })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::{BoolOrAnd, PlusTimes};
    use crate::Coo;

    /// The stored indices of `v`, in order.
    fn indices<T: Copy>(v: &SparseVec<T>) -> Vec<Idx> {
        v.iter().map(|(i, _)| i).collect()
    }

    #[test]
    fn masked_vxm_expands_frontier() {
        // path 0-1-2-3 (symmetric)
        let mut coo = Coo::new(4, 4);
        for i in 0..3 {
            coo.push_symmetric(i, i + 1, true);
        }
        let a = coo.to_csr_with(|x, _| x);
        let frontier = SparseVec::unit(4, 1, true).unwrap();
        // mask forbids going back to 0
        let next = masked_vxm::<BoolOrAnd>(&frontier, &a, |j| j != 0).unwrap();
        assert_eq!(indices(&next), [2]);
        // no mask: both neighbours
        let next = masked_vxm::<BoolOrAnd>(&frontier, &a, |_| true).unwrap();
        assert_eq!(indices(&next), [0, 2]);
    }

    #[test]
    fn masked_vxm_accumulates_path_counts() {
        // diamond 0→1, 0→2, 1→3, 2→3: x = e0, two steps reach 3 twice
        let mut coo = Coo::new(4, 4);
        coo.push(0, 1, 1.0);
        coo.push(0, 2, 1.0);
        coo.push(1, 3, 1.0);
        coo.push(2, 3, 1.0);
        let a = coo.to_csr_sum();
        let x = SparseVec::unit(4, 0, 1.0).unwrap();
        let step1 = masked_vxm::<PlusTimes>(&x, &a, |_| true).unwrap();
        let step2 = masked_vxm::<PlusTimes>(&step1, &a, |_| true).unwrap();
        let at3 = step2.iter().find(|&(i, _)| i == 3).map(|(_, v)| v);
        assert_eq!(at3, Some(2.0), "two shortest paths to 3");
    }

    #[test]
    fn vxm_mask_is_structural_not_late() {
        // an index disallowed by the mask must never be written, even if
        // multiple contributions arrive
        let mut coo = Coo::new(3, 3);
        coo.push(0, 2, 1.0);
        coo.push(1, 2, 1.0);
        let a = coo.to_csr_sum();
        let x = SparseVec { dim: 3, idx: vec![0, 1], val: vec![1.0, 1.0] };
        let y = masked_vxm::<PlusTimes>(&x, &a, |j| j != 2).unwrap();
        assert!(y.is_empty());
    }

    #[test]
    fn bad_inputs_are_structured_errors() {
        let e = SparseVec::unit(3, 3, true).unwrap_err();
        assert!(matches!(e, SparseError::RowOutOfBounds { row: 3, nrows: 3 }), "{e}");
        // a 3-vector against a 4-row matrix
        let mut coo = Coo::new(4, 4);
        coo.push(0, 1, true);
        let a = coo.to_csr_with(|x, _| x);
        let x = SparseVec::unit(3, 0, true).unwrap();
        let e = masked_vxm::<BoolOrAnd>(&x, &a, |_| true).unwrap_err();
        assert!(matches!(e, SparseError::ShapeMismatch { .. }), "{e}");
    }
}
