//! The Eq. 2 work estimator.
//!
//! For the mask-preload algorithm (paper Fig. 5), the work of output row
//! `i` is estimated as
//!
//! ```text
//! W[i] = nnz(M[i,:]) + Σ_{A[i,k] ≠ 0} nnz(B[k,:])        (Eq. 2)
//! ```
//!
//! — the mask load plus one linear scan of every fetched `B` row. Because
//! `B` is CSR, each `nnz(B[k,:])` is a constant-time pointer difference, so
//! the whole estimate costs `O(nnz(A) + m)`, cheap enough to run before
//! every multiply (the paper's §V-A concludes this estimate "is indeed a
//! good estimate of load").

use mspgemm_sparse::Csr;

/// Eq. 2 for the rows `lo..lo + out.len()`: `out[r] = W[lo + r]`. The one
/// per-row formula every estimate runs, whether over the whole matrix
/// ([`row_work`]) or one row block at a time on a worker pool.
///
/// The estimator is exactly the paper's, including counting the mask
/// load. All accumulation saturates: an adversarial distribution (e.g. a
/// near-dense `B` row referenced by every `A` row on a huge matrix) clamps
/// to `u64::MAX` instead of wrapping, which would silently corrupt the
/// balanced tiler's split points (and panic in debug builds).
pub fn row_work_into<TA, TB, TM>(
    a: &Csr<TA>,
    b: &Csr<TB>,
    mask: &Csr<TM>,
    lo: usize,
    out: &mut [u64],
) where
    TA: Copy,
    TB: Copy,
    TM: Copy,
{
    for (w, i) in out.iter_mut().zip(lo..) {
        let (acols, _) = a.row(i);
        let mut acc = mask.row_nnz(i) as u64;
        for &k in acols {
            acc = acc.saturating_add(b.row_nnz(k as usize) as u64);
        }
        *w = acc;
    }
}

/// Per-row work estimates `W[i]` (Eq. 2) for `C = M ⊙ (A × B)`, computed
/// serially on the calling thread.
pub fn row_work<TA, TB, TM>(a: &Csr<TA>, b: &Csr<TB>, mask: &Csr<TM>) -> Vec<u64>
where
    TA: Copy,
    TB: Copy,
    TM: Copy,
{
    assert_eq!(a.ncols(), b.nrows(), "row_work: inner dimensions");
    assert_eq!(mask.nrows(), a.nrows(), "row_work: mask rows");
    let mut work = vec![0u64; a.nrows()];
    row_work_into(a, b, mask, 0, &mut work);
    work
}

/// Total estimated work — `Σ_i W[i]`, saturating at `u64::MAX`.
pub fn total_work(work: &[u64]) -> u64 {
    work.iter().fold(0u64, |acc, &w| acc.saturating_add(w))
}

/// Exclusive prefix sums of `work`, with the grand total appended:
/// `out[i] = Σ_{r<i} work[r]`, `out[n] = total`. The balanced tiler splits
/// on this array. Saturating: once the running total clamps at `u64::MAX`
/// the prefix stays monotone (non-decreasing), which is all the tiler's
/// `partition_point` search requires.
pub fn work_prefix(work: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(work.len() + 1);
    let mut acc = 0u64;
    out.push(0);
    for &w in work {
        acc = acc.saturating_add(w);
        out.push(acc);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mspgemm_sparse::Coo;

    fn adj(edges: &[(usize, usize)], n: usize) -> Csr<f64> {
        let mut coo = Coo::new(n, n);
        for &(u, v) in edges {
            coo.push(u, v, 1.0);
        }
        coo.to_csr_with(|a, _| a)
    }

    #[test]
    fn work_matches_hand_computation() {
        // A: row0 = {1, 2}, row1 = {0}, row2 = {}
        let a = adj(&[(0, 1), (0, 2), (1, 0)], 3);
        // B: nnz per row = [1, 2, 0]
        let b = adj(&[(0, 0), (1, 0), (1, 2)], 3);
        // M: nnz per row = [1, 1, 1]
        let m = adj(&[(0, 0), (1, 1), (2, 2)], 3);
        let w = row_work(&a, &b, &m);
        // W[0] = 1 + nnz(B[1]) + nnz(B[2]) = 1 + 2 + 0 = 3
        // W[1] = 1 + nnz(B[0]) = 2
        // W[2] = 1 + 0 = 1
        assert_eq!(w, vec![3, 2, 1]);
        assert_eq!(total_work(&w), 6);
    }

    #[test]
    fn row_blocks_match_the_whole_matrix_call() {
        let a = adj(&[(0, 1), (0, 2), (1, 0), (3, 1), (3, 3)], 4);
        let b = adj(&[(0, 0), (1, 0), (1, 2), (3, 3)], 4);
        let m = adj(&[(0, 0), (1, 1), (2, 2), (3, 0), (3, 3)], 4);
        let whole = row_work(&a, &b, &m);
        let mut blocks = vec![0u64; 4];
        let (head, tail) = blocks.split_at_mut(1);
        row_work_into(&a, &b, &m, 1, tail);
        row_work_into(&a, &b, &m, 0, head);
        assert_eq!(blocks, whole);
    }

    #[test]
    fn empty_a_row_costs_only_the_mask() {
        let a = adj(&[(0, 0)], 2);
        let b = adj(&[(0, 0), (0, 1)], 2);
        let m = adj(&[(0, 0), (1, 0), (1, 1)], 2);
        let w = row_work(&a, &b, &m);
        assert_eq!(w[1], 2); // mask only
    }

    #[test]
    fn prefix_has_total_at_end() {
        let p = work_prefix(&[3, 2, 1]);
        assert_eq!(p, vec![0, 3, 5, 6]);
    }

    #[test]
    fn prefix_saturates_on_adversarial_work() {
        // an adversarial row-work distribution whose naive running sum
        // wraps (and panics in debug builds): 16 rows near u64::MAX / 4
        let work = vec![u64::MAX / 4; 16];
        let p = work_prefix(&work);
        assert_eq!(p.len(), 17);
        assert_eq!(p[0], 0);
        // monotone non-decreasing throughout, clamped at the top
        for w in p.windows(2) {
            assert!(w[0] <= w[1], "prefix must stay monotone: {w:?}");
        }
        assert_eq!(*p.last().unwrap(), u64::MAX);
        assert_eq!(total_work(&work), u64::MAX);
        // the balanced tiler still produces a valid partition on it
        let tiles = crate::tile::balanced_tiles(&work, 4);
        assert_eq!(tiles.first().unwrap().lo, 0);
        assert_eq!(tiles.last().unwrap().hi, 16);
        for w in tiles.windows(2) {
            assert_eq!(w[0].hi, w[1].lo);
        }
    }

    #[test]
    fn total_work_saturates() {
        assert_eq!(total_work(&[u64::MAX, 1, 2]), u64::MAX);
        assert_eq!(total_work(&[u64::MAX - 1, 1]), u64::MAX);
        assert_eq!(total_work(&[3, 2, 1]), 6);
    }

    #[test]
    fn estimator_scales_with_dense_b_rows() {
        // the circuit5M effect: one dense B row inflates every A row that
        // references it
        let n = 100;
        let mut coo = Coo::new(n, n);
        for j in 0..n {
            if j != 50 {
                coo.push(50, j, 1.0); // row 50 of B is dense
            }
        }
        for i in 0..n {
            if i != 50 {
                coo.push(i, 50, 1.0); // every A row references it
            }
        }
        let b = coo.to_csr_with(|a, _| a);
        let m = b.clone();
        let w = row_work(&b, &b, &m);
        // every row except 50 pays the dense row's nnz
        for i in 0..n {
            if i != 50 {
                assert!(w[i] >= 99, "row {i} work {} too small", w[i]);
            }
        }
    }
}
