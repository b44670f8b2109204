//! GraphBLAS-style multiply entry points (`GrB_mxm` analogues).
//!
//! GraphBLAS's `GrB_mxm(C, M, accum, op, A, B, desc)` computes either a
//! plain SpGEMM (`M == GrB_NULL`) or a masked one (§II-B). We mirror that
//! split: [`mxm`] dispatches on an optional mask, [`masked_mxm`] is the
//! fused one-pass kernel from `mspgemm-core`, and [`spgemm_unmasked`] is a
//! Gustavson row-wise SpGEMM.
//!
//! [`two_step_masked`] — SpGEMM first, masking after — is the approach the
//! paper says "is never implemented" (§III-B) because it materialises the
//! whole unmasked product. We implement it anyway as a correctness oracle
//! and as the baseline for the fused-vs-two-step ablation bench.

use mspgemm_core::{spgemm, Config};
use mspgemm_rt::obs;
use mspgemm_sparse::ops::ewise_mult;
use mspgemm_sparse::{Csr, Idx, Semiring, SparseError};

/// `GrB_mxm` analogue: masked when `mask` is `Some` (structural mask),
/// plain SpGEMM otherwise.
pub fn mxm<S: Semiring>(
    mask: Option<&Csr<S::T>>,
    a: &Csr<S::T>,
    b: &Csr<S::T>,
    config: &Config,
) -> Result<Csr<S::T>, SparseError> {
    match mask {
        Some(m) => masked_mxm::<S>(m, a, b, config),
        None => spgemm_unmasked::<S>(a, b),
    }
}

/// The fused masked product `C = M ⊙ (A × B)` — delegates to the
/// tunable kernel of `mspgemm-core`.
pub fn masked_mxm<S: Semiring>(
    mask: &Csr<S::T>,
    a: &Csr<S::T>,
    b: &Csr<S::T>,
    config: &Config,
) -> Result<Csr<S::T>, SparseError> {
    obs::incr(obs::Counter::GrbMxmMasked);
    spgemm::<S>(a, b, mask, config).map(|(c, _)| c)
}

/// Row-wise Gustavson SpGEMM without a mask, serial on the calling
/// thread and independent of any worker pool.
///
/// One dense accumulator plus a touched-column list serves every row;
/// each row is sorted on gather and appended straight to the output
/// arrays, so the result satisfies the CSR invariants.
pub fn spgemm_unmasked<S: Semiring>(
    a: &Csr<S::T>,
    b: &Csr<S::T>,
) -> Result<Csr<S::T>, SparseError> {
    if a.ncols() != b.nrows() {
        return Err(SparseError::ShapeMismatch {
            expected: (a.ncols(), b.ncols()),
            found: (b.nrows(), b.ncols()),
            context: "spgemm_unmasked: inner dimension",
        });
    }
    obs::incr(obs::Counter::GrbMxmUnmasked);
    let n = b.ncols();
    let mut acc = vec![S::zero(); n];
    let mut touched = vec![false; n];
    let mut row_ptr = Vec::with_capacity(a.nrows() + 1);
    row_ptr.push(0usize);
    let mut cols: Vec<Idx> = Vec::new();
    let mut vals: Vec<S::T> = Vec::new();
    for i in 0..a.nrows() {
        let row_start = cols.len();
        let (acols, avals) = a.row(i);
        for (&k, &av) in acols.iter().zip(avals) {
            let (bcols, bvals) = b.row(k as usize);
            for (&j, &bv) in bcols.iter().zip(bvals) {
                let ju = j as usize;
                if touched[ju] {
                    acc[ju] = S::fma(acc[ju], av, bv);
                } else {
                    touched[ju] = true;
                    acc[ju] = S::mul(av, bv);
                    cols.push(j);
                }
            }
        }
        cols[row_start..].sort_unstable();
        for &j in &cols[row_start..] {
            vals.push(acc[j as usize]);
            touched[j as usize] = false;
        }
        row_ptr.push(cols.len());
    }
    Ok(Csr::from_parts_unchecked(a.nrows(), b.ncols(), row_ptr, cols, vals))
}

/// Complemented-mask product (`GrB_DESC_C`): `C = ¬M ⊙ (A × B)` — keep
/// exactly the product entries the mask does *not* admit.
///
/// A complement mask cannot be preloaded into the accumulator (its
/// admitted set is the whole row minus `M[i,:]`), so the fused
/// mask-preload kernels don't apply; GraphBLAS implementations fall back
/// to computing the product and subtracting, which is what we do. Used by
/// algorithms like BFS ("not yet visited") and k-truss deltas.
pub fn masked_mxm_complemented<S: Semiring>(
    mask: &Csr<S::T>,
    a: &Csr<S::T>,
    b: &Csr<S::T>,
) -> Result<Csr<S::T>, SparseError> {
    let full = spgemm_unmasked::<S>(a, b)?;
    if mask.nrows() != full.nrows() || mask.ncols() != full.ncols() {
        return Err(SparseError::ShapeMismatch {
            expected: (full.nrows(), full.ncols()),
            found: (mask.nrows(), mask.ncols()),
            context: "masked_mxm_complemented: mask shape",
        });
    }
    mspgemm_sparse::ops::ewise_without(&full, mask)
}

/// The two-step masked product the paper contrasts against (§III-B):
/// materialise `A × B` in full, then intersect with the mask.
pub fn two_step_masked<S: Semiring>(
    mask: &Csr<S::T>,
    a: &Csr<S::T>,
    b: &Csr<S::T>,
) -> Result<Csr<S::T>, SparseError> {
    let full = spgemm_unmasked::<S>(a, b)?;
    if mask.nrows() != full.nrows() || mask.ncols() != full.ncols() {
        return Err(SparseError::ShapeMismatch {
            expected: (full.nrows(), full.ncols()),
            found: (mask.nrows(), mask.ncols()),
            context: "two_step_masked: mask shape",
        });
    }
    // structural mask: keep positions present in the mask; values come
    // from the product (multiply by `one` keeps semiring genericity)
    let mask_ones = mask.spones(S::one());
    ewise_mult::<S>(&mask_ones, &full)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mspgemm_sparse::{Coo, Dense, PlusTimes};

    fn lcg_matrix(nrows: usize, ncols: usize, per_row: usize, seed: u64) -> Csr<f64> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut coo = Coo::new(nrows, ncols);
        for i in 0..nrows {
            for _ in 0..per_row {
                coo.push(i, next() % ncols, ((next() % 5) + 1) as f64);
            }
        }
        coo.to_csr_with(|a, _| a)
    }

    #[test]
    fn unmasked_matches_dense_oracle() {
        let a = lcg_matrix(25, 30, 4, 1);
        let b = lcg_matrix(30, 20, 3, 2);
        let got = spgemm_unmasked::<PlusTimes>(&a, &b).unwrap();
        let want = Dense::matmul::<PlusTimes>(&a, &b);
        assert_eq!(got, want);
    }

    #[test]
    fn mxm_dispatches_on_mask() {
        let a = lcg_matrix(20, 20, 4, 3);
        let cfg = Config::builder().n_threads(2).build();
        let masked = mxm::<PlusTimes>(Some(&a), &a, &a, &cfg).unwrap();
        let unmasked = mxm::<PlusTimes>(None, &a, &a, &cfg).unwrap();
        assert!(masked.nnz() <= unmasked.nnz());
        let want = Dense::masked_matmul::<PlusTimes, f64>(&a, &a, &a);
        assert_eq!(masked, want);
    }

    #[test]
    fn two_step_equals_fused() {
        // the paper's §III-B point: same result, different cost
        let a = lcg_matrix(30, 30, 5, 7);
        let mask = lcg_matrix(30, 30, 4, 8);
        let cfg = Config::builder().n_threads(2).build();
        let fused = masked_mxm::<PlusTimes>(&mask, &a, &a, &cfg).unwrap();
        let two = two_step_masked::<PlusTimes>(&mask, &a, &a).unwrap();
        assert_eq!(fused, two);
    }

    #[test]
    fn complement_mask_partitions_the_product() {
        // masked + complemented = unmasked (structurally and in values)
        let a = lcg_matrix(25, 25, 4, 15);
        let mask = lcg_matrix(25, 25, 5, 16);
        let cfg = Config::builder().n_threads(2).build();
        let full = spgemm_unmasked::<PlusTimes>(&a, &a).unwrap();
        let kept = masked_mxm::<PlusTimes>(&mask, &a, &a, &cfg).unwrap();
        let dropped = masked_mxm_complemented::<PlusTimes>(&mask, &a, &a).unwrap();
        assert_eq!(kept.nnz() + dropped.nnz(), full.nnz());
        for (i, j, v) in kept.iter() {
            assert_eq!(full.get(i, j as usize), Some(v));
            assert!(mask.contains(i, j as usize));
        }
        for (i, j, v) in dropped.iter() {
            assert_eq!(full.get(i, j as usize), Some(v));
            assert!(!mask.contains(i, j as usize));
        }
    }

    #[test]
    fn unmasked_shape_mismatch_rejected() {
        let a = lcg_matrix(4, 5, 2, 1);
        let b = lcg_matrix(6, 4, 2, 2);
        assert!(spgemm_unmasked::<PlusTimes>(&a, &b).is_err());
    }

    #[test]
    fn empty_rows_propagate() {
        let mut coo = Coo::new(3, 3);
        coo.push(0, 1, 2.0);
        let a = coo.to_csr_sum();
        let c = spgemm_unmasked::<PlusTimes>(&a, &a).unwrap();
        // row 0 of A hits row 1 of A, which is empty → C is empty
        assert_eq!(c.nnz(), 0);
    }
}
