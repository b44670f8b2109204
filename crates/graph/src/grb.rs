//! The two-step masked product, kept as the oracle the engine is tested
//! against.
//!
//! [`two_step_masked`] — SpGEMM first, masking after — is the approach the
//! paper says "is never implemented" (§III-B) because it materialises the
//! whole unmasked product. We implement it anyway as a correctness oracle
//! (`tests/properties.rs`) and as the baseline for the fused-vs-two-step
//! ablation bench. Its unmasked product is a row-wise Gustavson SpGEMM,
//! serial on the calling thread: it shares no code with the engine in
//! `mspgemm-core` and no worker pool with it, so a fault in either shows
//! up as a disagreement. Apart from this oracle, every matrix-matrix
//! product the library computes runs through the engine's
//! `driver::run_jobs`.

use mspgemm_sparse::ops::ewise_mult;
use mspgemm_sparse::{Csr, Idx, Semiring, SparseError};

/// Row-wise Gustavson SpGEMM without a mask, serial on the calling
/// thread and independent of any worker pool.
///
/// One dense accumulator plus a touched-column list serves every row;
/// each row is sorted on gather and appended straight to the output
/// arrays, so the result satisfies the CSR invariants.
fn spgemm_unmasked<S: Semiring>(a: &Csr<S::T>, b: &Csr<S::T>) -> Result<Csr<S::T>, SparseError> {
    if a.ncols() != b.nrows() {
        return Err(SparseError::ShapeMismatch {
            expected: (a.ncols(), b.ncols()),
            found: (b.nrows(), b.ncols()),
            context: "spgemm_unmasked: inner dimension",
        });
    }
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
    use mspgemm_core::{spgemm, Config};
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
    fn two_step_equals_fused() {
        // the paper's §III-B point: same result, different cost
        let a = lcg_matrix(30, 30, 5, 7);
        let mask = lcg_matrix(30, 30, 4, 8);
        let cfg = Config::builder().n_threads(2).build();
        let fused = spgemm::<PlusTimes>(&a, &a, &mask, &cfg).unwrap().0;
        let two = two_step_masked::<PlusTimes>(&mask, &a, &a).unwrap();
        assert_eq!(fused, two);
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
