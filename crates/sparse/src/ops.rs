//! Element-wise and matrix-vector building blocks.
//!
//! These are the GraphBLAS primitives the algorithm layer (`mspgemm-graph`)
//! composes with masked-SpGEMM: `eWiseAdd`, `eWiseMult` (set union /
//! intersection of patterns), sparse matrix × dense vector (SpMV) and the
//! masked SpMV used by direction-optimising BFS.

use crate::error::SparseError;
use crate::semiring::Semiring;
use crate::{Csr, Idx};

/// Check that two matrices have identical dimensions, naming the caller.
fn check_same_shape<T: Copy, U: Copy>(
    a: &Csr<T>,
    b: &Csr<U>,
    context: &'static str,
) -> Result<(), SparseError> {
    if a.nrows() != b.nrows() || a.ncols() != b.ncols() {
        return Err(SparseError::DimensionMismatch {
            expected: (a.nrows(), a.ncols()),
            found: (b.nrows(), b.ncols()),
            context,
        });
    }
    Ok(())
}

/// Element-wise "multiply" (pattern **intersection**): `C = A ⊙ B` with
/// `C[i,j] = mul(A[i,j], B[i,j])` wherever both are stored.
///
/// This is the two-step masking the paper says is "never implemented"
/// (§III-B) — we implement it anyway as the slow-but-obvious baseline that
/// the single-pass kernels are validated and benchmarked against.
pub fn ewise_mult<S: Semiring>(a: &Csr<S::T>, b: &Csr<S::T>) -> Result<Csr<S::T>, SparseError> {
    check_same_shape(a, b, "ewise_mult")?;
    let m = a.nrows();
    let mut row_ptr = vec![0usize; m + 1];
    let mut col_idx: Vec<Idx> = Vec::new();
    let mut values: Vec<S::T> = Vec::new();
    for i in 0..m {
        let (ac, av) = a.row(i);
        let (bc, bv) = b.row(i);
        let (mut p, mut q) = (0, 0);
        while p < ac.len() && q < bc.len() {
            match ac[p].cmp(&bc[q]) {
                std::cmp::Ordering::Less => p += 1,
                std::cmp::Ordering::Greater => q += 1,
                std::cmp::Ordering::Equal => {
                    col_idx.push(ac[p]);
                    values.push(S::mul(av[p], bv[q]));
                    p += 1;
                    q += 1;
                }
            }
        }
        row_ptr[i + 1] = col_idx.len();
    }
    Ok(Csr::from_parts_unchecked(m, a.ncols(), row_ptr, col_idx, values))
}

/// Element-wise "add" (pattern **union**): `C = A ⊕ B` with `add` applied
/// where both are stored, and the present operand's value elsewhere.
pub fn ewise_add<S: Semiring>(a: &Csr<S::T>, b: &Csr<S::T>) -> Result<Csr<S::T>, SparseError> {
    check_same_shape(a, b, "ewise_add")?;
    let m = a.nrows();
    let mut row_ptr = vec![0usize; m + 1];
    let mut col_idx: Vec<Idx> = Vec::new();
    let mut values: Vec<S::T> = Vec::new();
    for i in 0..m {
        let (ac, av) = a.row(i);
        let (bc, bv) = b.row(i);
        let (mut p, mut q) = (0, 0);
        while p < ac.len() || q < bc.len() {
            let take_a = q == bc.len() || (p < ac.len() && ac[p] <= bc[q]);
            let take_b = p == ac.len() || (q < bc.len() && bc[q] <= ac[p]);
            if take_a && take_b {
                col_idx.push(ac[p]);
                values.push(S::add(av[p], bv[q]));
                p += 1;
                q += 1;
            } else if take_a {
                col_idx.push(ac[p]);
                values.push(av[p]);
                p += 1;
            } else {
                col_idx.push(bc[q]);
                values.push(bv[q]);
                q += 1;
            }
        }
        row_ptr[i + 1] = col_idx.len();
    }
    Ok(Csr::from_parts_unchecked(m, a.ncols(), row_ptr, col_idx, values))
}

/// Element-wise "difference" (pattern **subtraction**): keep the entries of
/// `a` whose positions are *not* stored in `pattern` — the complemented
/// structural mask of GraphBLAS (`GrB_DESC_C`). Values of `pattern` are
/// ignored.
pub fn ewise_without<T: Copy, U: Copy>(
    a: &Csr<T>,
    pattern: &Csr<U>,
) -> Result<Csr<T>, SparseError> {
    check_same_shape(a, pattern, "ewise_without")?;
    let m = a.nrows();
    let mut row_ptr = vec![0usize; m + 1];
    let mut col_idx: Vec<Idx> = Vec::new();
    let mut values: Vec<T> = Vec::new();
    for i in 0..m {
        let (ac, av) = a.row(i);
        let (pc, _) = pattern.row(i);
        let mut q = 0usize;
        for (&c, &v) in ac.iter().zip(av) {
            while q < pc.len() && pc[q] < c {
                q += 1;
            }
            if q >= pc.len() || pc[q] != c {
                col_idx.push(c);
                values.push(v);
            }
        }
        row_ptr[i + 1] = col_idx.len();
    }
    Ok(Csr::from_parts_unchecked(m, a.ncols(), row_ptr, col_idx, values))
}

/// Sparse matrix × dense vector over a semiring: `y[i] = ⊕_k A[i,k] ⊗ x[k]`.
pub fn spmv<S: Semiring>(a: &Csr<S::T>, x: &[S::T]) -> Result<Vec<S::T>, SparseError> {
    if a.ncols() != x.len() {
        return Err(SparseError::DimensionMismatch {
            expected: (a.nrows(), a.ncols()),
            found: (x.len(), 1),
            context: "spmv",
        });
    }
    Ok((0..a.nrows())
        .map(|i| {
            let (cols, vals) = a.row(i);
            let mut acc = S::zero();
            for (&k, &v) in cols.iter().zip(vals) {
                acc = S::fma(acc, v, x[k as usize]);
            }
            acc
        })
        .collect())
}

/// Masked sparse matrix × sparse vector (push-style), the row-wise analogue
/// of the masked-SpGEMM kernel for a single dense-stored-but-sparse vector.
///
/// Computes `y = mᵀ ⊗ x`: `y[j] = ⊕_k m[k,j] ⊗ x[k]`, scattering each
/// input entry along its matrix row. `x` is sorted `(index, value)` pairs;
/// `mask[j] == false` suppresses output `j` (complement masking is the
/// caller's job). BFS push passes the adjacency matrix itself to expand a
/// frontier to its out-neighbours under the `!visited` mask.
pub fn masked_spmspv<S: Semiring>(
    m: &Csr<S::T>,
    x: &[(Idx, S::T)],
    mask: &[bool],
) -> Result<Vec<(Idx, S::T)>, SparseError> {
    let at = m;
    if at.ncols() != mask.len() {
        return Err(SparseError::DimensionMismatch {
            expected: (at.ncols(), 1),
            found: (mask.len(), 1),
            context: "masked_spmspv mask",
        });
    }
    // accumulate into a dense buffer of candidates (the "dense accumulator"
    // strategy — fine at vector scale); outputs are column indices of `m`
    let mut acc: Vec<S::T> = vec![S::zero(); at.ncols()];
    let mut touched: Vec<bool> = vec![false; at.ncols()];
    let mut out_idx: Vec<Idx> = Vec::new();
    for &(k, xv) in x {
        let (rows, vals) = at.row(k as usize);
        for (&i, &av) in rows.iter().zip(vals) {
            let iu = i as usize;
            if !mask[iu] {
                continue;
            }
            if !touched[iu] {
                touched[iu] = true;
                out_idx.push(i);
            }
            acc[iu] = S::fma(acc[iu], av, xv);
        }
    }
    out_idx.sort_unstable();
    Ok(out_idx.into_iter().map(|i| (i, acc[i as usize])).collect())
}

/// Row-sum reduction over a semiring's additive monoid:
/// `out[i] = ⊕_j A[i,j]`.
pub fn reduce_rows<S: Semiring>(a: &Csr<S::T>) -> Vec<S::T> {
    (0..a.nrows())
        .map(|i| a.row(i).1.iter().fold(S::zero(), |acc, &v| S::add(acc, v)))
        .collect()
}

/// Full reduction over the additive monoid.
pub fn reduce_all<S: Semiring>(a: &Csr<S::T>) -> S::T {
    a.values().iter().fold(S::zero(), |acc, &v| S::add(acc, v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::{BoolOrAnd, PlusTimes};
    use crate::Dense;

    fn a3() -> Csr<f64> {
        Csr::try_from_parts(
            3,
            3,
            vec![0, 2, 3, 5],
            vec![0, 1, 2, 0, 2],
            vec![1.0, 2.0, 3.0, 4.0, 5.0],
        )
        .unwrap()
    }

    #[test]
    fn ewise_mult_is_intersection() {
        let a = a3();
        let b = Csr::try_from_parts(3, 3, vec![0, 1, 2, 3], vec![1, 2, 0], vec![10.0, 10.0, 10.0])
            .unwrap();
        let c = ewise_mult::<PlusTimes>(&a, &b).unwrap();
        assert_eq!(c.nnz(), 3);
        assert_eq!(c.get(0, 1), Some(20.0));
        assert_eq!(c.get(1, 2), Some(30.0));
        assert_eq!(c.get(2, 0), Some(40.0));
    }

    #[test]
    fn ewise_add_is_union() {
        let a = a3();
        let b = Csr::try_from_parts(3, 3, vec![0, 1, 1, 2], vec![2, 1], vec![7.0, 7.0]).unwrap();
        let c = ewise_add::<PlusTimes>(&a, &b).unwrap();
        assert_eq!(c.nnz(), a.nnz() + 2); // two new positions
        assert_eq!(c.get(0, 2), Some(7.0));
        assert_eq!(c.get(2, 1), Some(7.0));
        assert_eq!(c.get(0, 0), Some(1.0));
    }

    #[test]
    fn ewise_add_combines_overlaps() {
        let a = a3();
        let c = ewise_add::<PlusTimes>(&a, &a).unwrap();
        assert!(c.structure_eq(&a));
        assert_eq!(c.get(2, 2), Some(10.0));
    }

    #[test]
    fn ewise_without_subtracts_pattern() {
        let a = a3(); // entries (0,0) (0,1) (1,2) (2,0) (2,2)
        // pattern covers (0,0) and (2,0), plus (2,1) which is absent in a
        let p =
            Csr::try_from_parts(3, 3, vec![0, 1, 1, 3], vec![0, 0, 1], vec![(), (), ()]).unwrap();
        let c = ewise_without(&a, &p).unwrap();
        assert_eq!(c.nnz(), 3);
        assert_eq!(c.get(0, 0), None);
        assert_eq!(c.get(2, 0), None);
        assert_eq!(c.get(0, 1), Some(2.0));
        assert_eq!(c.get(2, 2), Some(5.0));
        // subtracting the full pattern leaves nothing
        assert_eq!(ewise_without(&a, &a).unwrap().nnz(), 0);
        // subtracting nothing is identity
        let z: Csr<f64> = Csr::zeros(3, 3);
        assert_eq!(ewise_without(&a, &z).unwrap(), a);
    }

    #[test]
    fn spmv_matches_dense() {
        let a = a3();
        let x = vec![1.0, 2.0, 3.0];
        let y = spmv::<PlusTimes>(&a, &x).unwrap();
        let d = Dense::from_csr(&a, 0.0);
        for i in 0..3 {
            let expect: f64 = (0..3).map(|j| d.get(i, j) * x[j]).sum();
            assert!((y[i] - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn spmv_boolean_reachability() {
        let a = a3().spones(true);
        let x = vec![true, false, false];
        let y = spmv::<BoolOrAnd>(&a, &x).unwrap();
        // y[i] = OR_k A[i,k] & x[k] = A[:,0] as rows holding col 0
        assert_eq!(y, vec![true, false, true]);
    }

    #[test]
    fn masked_spmspv_respects_mask() {
        let a = a3().spones(true);
        let at = a.transpose();
        // frontier = {0}; allowed = all but row 0
        let x = vec![(0u32, true)];
        let mask = vec![false, true, true];
        let next = masked_spmspv::<BoolOrAnd>(&at, &x, &mask).unwrap();
        // A^T row 0 = columns of A holding 0 = rows {0,2}; row 0 masked out
        assert_eq!(next, vec![(2, true)]);
    }

    #[test]
    fn reductions() {
        let a = a3();
        assert_eq!(reduce_rows::<PlusTimes>(&a), vec![3.0, 3.0, 9.0]);
        assert_eq!(reduce_all::<PlusTimes>(&a), 15.0);
    }

    #[test]
    fn mismatched_shapes_return_structured_errors() {
        let a = a3();
        let wide = Csr::<f64>::zeros(3, 4);
        let tall = Csr::<f64>::zeros(4, 3);
        for e in [
            ewise_mult::<PlusTimes>(&a, &wide).unwrap_err(),
            ewise_add::<PlusTimes>(&a, &tall).unwrap_err(),
            ewise_without(&a, &wide).unwrap_err(),
        ] {
            assert!(
                matches!(e, SparseError::DimensionMismatch { expected: (3, 3), .. }),
                "{e}"
            );
        }
        let e = spmv::<PlusTimes>(&a, &[1.0, 2.0]).unwrap_err();
        assert!(matches!(e, SparseError::DimensionMismatch { found: (2, 1), .. }), "{e}");
        let e = masked_spmspv::<PlusTimes>(&a, &[], &[true, true]).unwrap_err();
        assert!(matches!(e, SparseError::DimensionMismatch { context: "masked_spmspv mask", .. }), "{e}");
    }

    #[test]
    fn ewise_with_empty_matrix() {
        let a = a3();
        let z: Csr<f64> = Csr::zeros(3, 3);
        assert_eq!(ewise_mult::<PlusTimes>(&a, &z).unwrap().nnz(), 0);
        let u = ewise_add::<PlusTimes>(&a, &z).unwrap();
        assert_eq!(u, a);
    }
}
