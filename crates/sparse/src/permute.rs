//! Symmetric permutation `PAPᵀ` — vertex relabelling.
//!
//! The paper runs the matrices in the vertex order the collection ships
//! ("we did not perform any pre-processing of the data like partitioning
//! the graphs, or reorganizing the data", §V-A), and so does every
//! experiment here. Relabelling remains useful to inputs and tests: a
//! generator can shuffle away the locality its construction leaves
//! behind, and a masked product must commute with any relabelling.

use crate::{Coo, Csr, Idx};

/// Validate that `perm` is a permutation of `0..n` (each value once).
fn check_permutation(perm: &[Idx], n: usize) -> bool {
    if perm.len() != n {
        return false;
    }
    let mut seen = vec![false; n];
    for &p in perm {
        let p = p as usize;
        if p >= n || seen[p] {
            return false;
        }
        seen[p] = true;
    }
    true
}

/// Apply the symmetric permutation `B = P A Pᵀ`: `B[perm[i], perm[j]] =
/// A[i, j]`. `perm[v]` is the *new* index of old vertex `v`.
///
/// Panics if `perm` is not a permutation of `0..nrows` (square input
/// required).
pub fn permute_symmetric<T: Copy>(a: &Csr<T>, perm: &[Idx]) -> Csr<T> {
    assert_eq!(a.nrows(), a.ncols(), "symmetric permutation needs a square matrix");
    assert!(check_permutation(perm, a.nrows()), "perm is not a permutation");
    let mut coo = Coo::with_capacity(a.nrows(), a.ncols(), a.nnz());
    for (i, j, v) in a.iter() {
        coo.push(perm[i] as usize, perm[j as usize] as usize, v);
    }
    coo.to_csr_with(|x, _| x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> Csr<f64> {
        let mut coo = Coo::new(n, n);
        for i in 0..n - 1 {
            coo.push_symmetric(i, i + 1, 1.0);
        }
        coo.to_csr_sum()
    }

    fn scrambled_path(n: usize) -> Csr<f64> {
        // path graph with vertices renumbered by a fixed stride
        let perm = stride_relabel(n);
        let mut coo = Coo::new(n, n);
        for i in 0..n - 1 {
            coo.push_symmetric(perm[i] as usize, perm[i + 1] as usize, 1.0);
        }
        coo.to_csr_sum()
    }

    /// `v ↦ 97·v mod n`, a permutation whenever 97 does not divide `n`.
    fn stride_relabel(n: usize) -> Vec<Idx> {
        (0..n).map(|v| ((v * 97) % n) as Idx).collect()
    }

    #[test]
    fn identity_permutation_is_noop() {
        let a = path(10);
        let p: Vec<Idx> = (0..10).collect();
        assert_eq!(permute_symmetric(&a, &p), a);
    }

    #[test]
    fn permutation_preserves_structure_invariants() {
        let a = scrambled_path(100);
        let perm = stride_relabel(100);
        let b = permute_symmetric(&a, &perm);
        assert_eq!(b.nnz(), a.nnz());
        assert!(b.is_structurally_symmetric());
        // degree multiset preserved
        let mut da: Vec<usize> = (0..100).map(|i| a.row_nnz(i)).collect();
        let mut db: Vec<usize> = (0..100).map(|i| b.row_nnz(i)).collect();
        da.sort_unstable();
        db.sort_unstable();
        assert_eq!(da, db);
    }

    #[test]
    fn invalid_permutations_panic() {
        let a = path(4);
        let bad = vec![0 as Idx, 1, 1, 3]; // duplicate
        let r = std::panic::catch_unwind(|| permute_symmetric(&a, &bad));
        assert!(r.is_err());
        let short = vec![0 as Idx, 1];
        let r = std::panic::catch_unwind(|| permute_symmetric(&a, &short));
        assert!(r.is_err());
    }
}
