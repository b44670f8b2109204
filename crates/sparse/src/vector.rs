//! Sparse vectors — the `GrB_Vector` analogue.
//!
//! BFS and betweenness centrality (the paper's §I motivating algorithms)
//! are masked *matrix-vector* recurrences; this module gives them a real
//! vector type instead of ad-hoc `(index, value)` slices: sorted
//! coordinate storage and structural selection, plus the masked `vxm`
//! (vector × matrix) product that is the 1-D restriction of the paper's
//! masked-SpGEMM.

use crate::semiring::Semiring;
use crate::{Csr, Idx};

/// A sparse vector: sorted, duplicate-free `(index, value)` pairs plus a
/// logical dimension.
#[derive(Clone, Debug, PartialEq)]
pub struct SparseVec<T> {
    dim: usize,
    idx: Vec<Idx>,
    val: Vec<T>,
}

impl<T: Copy> SparseVec<T> {
    /// An empty vector of dimension `dim`.
    pub fn new(dim: usize) -> Self {
        SparseVec { dim, idx: Vec::new(), val: Vec::new() }
    }

    /// Build from entries in any order; duplicates keep the last value.
    pub fn from_entries(dim: usize, mut entries: Vec<(Idx, T)>) -> Self {
        entries.sort_by_key(|&(i, _)| i);
        let mut idx = Vec::with_capacity(entries.len());
        let mut val = Vec::with_capacity(entries.len());
        for (i, v) in entries {
            assert!((i as usize) < dim, "index {i} out of dimension {dim}");
            if idx.last() == Some(&i) {
                *val.last_mut().unwrap() = v;
            } else {
                idx.push(i);
                val.push(v);
            }
        }
        SparseVec { dim, idx, val }
    }

    /// A single-entry vector (e.g. a BFS source frontier).
    pub fn unit(dim: usize, i: usize, v: T) -> Self {
        assert!(i < dim);
        SparseVec { dim, idx: vec![i as Idx], val: vec![v] }
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

    /// Stored indices (sorted).
    pub fn indices(&self) -> &[Idx] {
        &self.idx
    }

    /// Stored values, parallel to [`SparseVec::indices`].
    pub fn values(&self) -> &[T] {
        &self.val
    }

    /// Iterate stored `(index, value)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (Idx, T)> + '_ {
        self.idx.iter().copied().zip(self.val.iter().copied())
    }

    /// Look up index `i`.
    pub fn get(&self, i: usize) -> Option<T> {
        self.idx.binary_search(&(i as Idx)).ok().map(|p| self.val[p])
    }

    /// Densify with `zero` at absent positions.
    pub fn to_dense(&self, zero: T) -> Vec<T> {
        let mut out = vec![zero; self.dim];
        for (i, v) in self.iter() {
            out[i as usize] = v;
        }
        out
    }

    /// Keep only entries whose index passes `keep` (structural select; the
    /// complement-mask filter of BFS is `keep = !visited`).
    pub fn select(&self, mut keep: impl FnMut(Idx) -> bool) -> SparseVec<T> {
        let mut idx = Vec::new();
        let mut val = Vec::new();
        for (i, v) in self.iter() {
            if keep(i) {
                idx.push(i);
                val.push(v);
            }
        }
        SparseVec { dim: self.dim, idx, val }
    }
}

/// Masked vector × matrix product — the 1-D masked-SpGEMM:
/// `y = x ⊗ A` with `y[j] = ⊕_k x[k] ⊗ A[k,j]`, restricted to indices
/// where `mask_allow` holds (structural complement masks pass
/// `|j| !visited[j]`).
///
/// This is BFS's frontier expansion: `frontier ⊗ A` under the boolean
/// semiring with the `!visited` mask.
pub fn masked_vxm<S: Semiring>(
    x: &SparseVec<S::T>,
    a: &Csr<S::T>,
    mut mask_allow: impl FnMut(Idx) -> bool,
) -> SparseVec<S::T> {
    assert_eq!(x.dim(), a.nrows(), "vxm: dimension mismatch");
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
    let val: Vec<S::T> = touched.iter().map(|&j| acc[j as usize].unwrap()).collect();
    SparseVec { dim: a.ncols(), idx: touched, val }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::{BoolOrAnd, PlusTimes};
    use crate::Coo;

    #[test]
    fn construction_sorts_and_dedups() {
        let v = SparseVec::from_entries(10, vec![(5, 1.0), (2, 2.0), (5, 3.0)]);
        assert_eq!(v.nnz(), 2);
        assert_eq!(v.get(5), Some(3.0)); // last wins
        assert_eq!(v.get(2), Some(2.0));
        assert_eq!(v.get(0), None);
        assert_eq!(v.indices(), &[2, 5]);
    }

    #[test]
    fn unit_and_dense_roundtrip() {
        let v = SparseVec::unit(4, 2, 7.0);
        assert_eq!(v.to_dense(0.0), vec![0.0, 0.0, 7.0, 0.0]);
        assert!(!v.is_empty());
        assert_eq!(SparseVec::<f64>::new(4).to_dense(0.0), vec![0.0; 4]);
    }

    #[test]
    fn select_filters_structurally() {
        let a = SparseVec::from_entries(6, vec![(0, 1.0), (2, 2.0), (4, 3.0)]);
        let s = a.select(|i| i >= 2);
        assert_eq!(s.indices(), &[2, 4]);
    }

    #[test]
    fn masked_vxm_expands_frontier() {
        // path 0-1-2-3 (symmetric)
        let mut coo = Coo::new(4, 4);
        for i in 0..3 {
            coo.push_symmetric(i, i + 1, true);
        }
        let a = coo.to_csr_with(|x, _| x);
        let frontier = SparseVec::unit(4, 1, true);
        // mask forbids going back to 0
        let next = masked_vxm::<BoolOrAnd>(&frontier, &a, |j| j != 0);
        assert_eq!(next.indices(), &[2]);
        // no mask: both neighbours
        let next = masked_vxm::<BoolOrAnd>(&frontier, &a, |_| true);
        assert_eq!(next.indices(), &[0, 2]);
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
        let x = SparseVec::unit(4, 0, 1.0);
        let step1 = masked_vxm::<PlusTimes>(&x, &a, |_| true);
        let step2 = masked_vxm::<PlusTimes>(&step1, &a, |_| true);
        assert_eq!(step2.get(3), Some(2.0), "two shortest paths to 3");
    }

    #[test]
    fn vxm_mask_is_structural_not_late() {
        // an index disallowed by the mask must never be written, even if
        // multiple contributions arrive
        let mut coo = Coo::new(3, 3);
        coo.push(0, 2, 1.0);
        coo.push(1, 2, 1.0);
        let a = coo.to_csr_sum();
        let x = SparseVec::from_entries(3, vec![(0, 1.0), (1, 1.0)]);
        let y = masked_vxm::<PlusTimes>(&x, &a, |j| j != 2);
        assert!(y.is_empty());
    }
}
