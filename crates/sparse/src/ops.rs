//! Element-wise building blocks.
//!
//! These are the GraphBLAS primitives the algorithm layer (`mspgemm-graph`)
//! composes with masked-SpGEMM: `eWiseAdd` and `eWiseMult` (set union /
//! intersection of patterns).

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::PlusTimes;

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
    fn mismatched_shapes_return_structured_errors() {
        let a = a3();
        let wide = Csr::<f64>::zeros(3, 4);
        let tall = Csr::<f64>::zeros(4, 3);
        for e in [
            ewise_mult::<PlusTimes>(&a, &wide).unwrap_err(),
            ewise_add::<PlusTimes>(&a, &tall).unwrap_err(),
        ] {
            assert!(
                matches!(e, SparseError::DimensionMismatch { expected: (3, 3), .. }),
                "{e}"
            );
        }
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
