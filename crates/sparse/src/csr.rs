//! Compressed Sparse Row storage — the operand format of every kernel in
//! the paper (§II-A: "all operands are stored in the CSR format").

use crate::error::SparseError;
use crate::{Coo, Idx, MAX_DIM};

/// A sparse matrix in CSR (compressed sparse row) format.
///
/// Invariants, checked by [`Csr::try_from_parts`] and preserved by every
/// method:
///
/// * `row_ptr.len() == nrows + 1`, `row_ptr[0] == 0`,
///   `row_ptr[nrows] == col_idx.len() == values.len()`;
/// * `row_ptr` is monotonically non-decreasing;
/// * within each row, column indices are **strictly increasing** (sorted,
///   duplicate-free). The co-iteration kernel (Fig. 7 of the paper) binary
///   searches rows of `B`, which requires sortedness; the paper notes
///   SuiteSparse does not always guarantee this — we always do.
#[derive(Clone, Debug, PartialEq)]
pub struct Csr<T> {
    nrows: usize,
    ncols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<Idx>,
    values: Vec<T>,
}

impl<T: Copy> Csr<T> {
    /// An empty `nrows × ncols` matrix with no stored entries.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Csr {
            nrows,
            ncols,
            row_ptr: vec![0; nrows + 1],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// The identity pattern (diagonal of `value`) on an `n × n` matrix.
    pub fn identity(n: usize, value: T) -> Self {
        Csr {
            nrows: n,
            ncols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n as Idx).collect(),
            values: vec![value; n],
        }
    }

    /// Build from raw parts, validating every CSR invariant.
    pub fn try_from_parts(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<Idx>,
        values: Vec<T>,
    ) -> Result<Self, SparseError> {
        if nrows > MAX_DIM {
            return Err(SparseError::DimensionTooLarge { dim: nrows });
        }
        if ncols > MAX_DIM {
            return Err(SparseError::DimensionTooLarge { dim: ncols });
        }
        if row_ptr.len() != nrows + 1 {
            return Err(SparseError::MalformedPointers {
                detail: format!("row_ptr.len() = {}, expected {}", row_ptr.len(), nrows + 1),
            });
        }
        if row_ptr[0] != 0 {
            return Err(SparseError::MalformedPointers {
                detail: format!("row_ptr[0] = {}, expected 0", row_ptr[0]),
            });
        }
        if col_idx.len() != values.len() {
            return Err(SparseError::LengthMismatch {
                indices: col_idx.len(),
                values: values.len(),
            });
        }
        if *row_ptr.last().unwrap() != col_idx.len() {
            return Err(SparseError::MalformedPointers {
                detail: format!(
                    "row_ptr[nrows] = {}, expected nnz = {}",
                    row_ptr.last().unwrap(),
                    col_idx.len()
                ),
            });
        }
        for i in 0..nrows {
            let (lo, hi) = (row_ptr[i], row_ptr[i + 1]);
            if lo > hi {
                return Err(SparseError::MalformedPointers {
                    detail: format!("row_ptr decreases at row {i}: {lo} > {hi}"),
                });
            }
            let row = &col_idx[lo..hi];
            for w in row.windows(2) {
                if w[0] == w[1] {
                    return Err(SparseError::DuplicateEntry { row: i, col: w[0] as usize });
                }
                if w[0] > w[1] {
                    return Err(SparseError::UnsortedRow { row: i });
                }
            }
            if let Some(&last) = row.last() {
                if last as usize >= ncols {
                    return Err(SparseError::ColumnOutOfBounds {
                        row: i,
                        col: last as usize,
                        ncols,
                    });
                }
            }
        }
        Ok(Csr { nrows, ncols, row_ptr, col_idx, values })
    }

    /// Build from raw parts without validation.
    ///
    /// Not `unsafe` in the memory-safety sense (all accessors bounds-check),
    /// but violating the invariants produces garbage results; kernels use
    /// this for outputs they construct row-by-row in sorted order.
    pub fn from_parts_unchecked(
        nrows: usize,
        ncols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<Idx>,
        values: Vec<T>,
    ) -> Self {
        debug_assert_eq!(row_ptr.len(), nrows + 1);
        debug_assert_eq!(col_idx.len(), values.len());
        debug_assert_eq!(*row_ptr.last().unwrap_or(&0), col_idx.len());
        Csr { nrows, ncols, row_ptr, col_idx, values }
    }

    /// Number of rows.
    #[inline(always)]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline(always)]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries.
    #[inline(always)]
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// The row-pointer array (`nrows + 1` entries).
    #[inline(always)]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// All column indices, concatenated row-major.
    #[inline(always)]
    pub fn col_idx(&self) -> &[Idx] {
        &self.col_idx
    }

    /// All stored values, concatenated row-major.
    #[inline(always)]
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Mutable view of the stored values (structure is immutable).
    #[inline(always)]
    pub fn values_mut(&mut self) -> &mut [T] {
        &mut self.values
    }

    /// Number of stored entries in row `i` — constant time, as the paper's
    /// work estimator (Eq. 2) requires.
    #[inline(always)]
    pub fn row_nnz(&self, i: usize) -> usize {
        self.row_ptr[i + 1] - self.row_ptr[i]
    }

    /// The column indices and values of row `i`.
    #[inline(always)]
    pub fn row(&self, i: usize) -> (&[Idx], &[T]) {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Iterate over `(row, col, value)` triples in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, Idx, T)> + '_ {
        (0..self.nrows).flat_map(move |i| {
            let (cols, vals) = self.row(i);
            cols.iter().zip(vals.iter()).map(move |(&c, &v)| (i, c, v))
        })
    }

    /// Look up the value at `(i, j)` by binary search (rows are sorted).
    pub fn get(&self, i: usize, j: usize) -> Option<T> {
        let (cols, vals) = self.row(i);
        cols.binary_search(&(j as Idx)).ok().map(|p| vals[p])
    }

    /// `true` if `(i, j)` is a stored entry.
    #[inline]
    pub fn contains(&self, i: usize, j: usize) -> bool {
        let (cols, _) = self.row(i);
        cols.binary_search(&(j as Idx)).is_ok()
    }

    /// Apply `f` to every stored value, producing a matrix with identical
    /// structure.
    pub fn map_values<U: Copy>(&self, mut f: impl FnMut(T) -> U) -> Csr<U> {
        Csr {
            nrows: self.nrows,
            ncols: self.ncols,
            row_ptr: self.row_ptr.clone(),
            col_idx: self.col_idx.clone(),
            values: self.values.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Replace every stored value with `value` (GraphBLAS `spones` analog —
    /// the paper treats the mask as boolean: "its values are not used",
    /// §IV-A).
    pub fn spones<U: Copy>(&self, value: U) -> Csr<U> {
        self.map_values(|_| value)
    }

    /// Keep only entries where `keep(i, j, v)` holds (GraphBLAS `select`).
    pub fn select(&self, mut keep: impl FnMut(usize, Idx, T) -> bool) -> Csr<T> {
        let mut row_ptr = Vec::with_capacity(self.nrows + 1);
        row_ptr.push(0usize);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for i in 0..self.nrows {
            let (cols, vals) = self.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                if keep(i, c, v) {
                    col_idx.push(c);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        Csr { nrows: self.nrows, ncols: self.ncols, row_ptr, col_idx, values }
    }

    /// The strictly lower-triangular part (`j < i`). Used by the L·L
    /// formulation of triangle counting (Azad et al.).
    pub fn tril(&self) -> Csr<T> {
        self.select(|i, j, _| (j as usize) < i)
    }

    /// The strictly upper-triangular part (`j > i`).
    pub fn triu(&self) -> Csr<T> {
        self.select(|i, j, _| (j as usize) > i)
    }

    /// Drop explicit diagonal entries.
    pub fn without_diagonal(&self) -> Csr<T> {
        self.select(|i, j, _| (j as usize) != i)
    }

    /// Transpose by counting-sort over columns — `O(nnz + n)`, the standard
    /// CSR→CSC-style pass. The result has sorted rows by construction.
    pub fn transpose(&self) -> Csr<T> {
        let mut counts = vec![0usize; self.ncols + 1];
        for &c in &self.col_idx {
            counts[c as usize + 1] += 1;
        }
        for j in 0..self.ncols {
            counts[j + 1] += counts[j];
        }
        let row_ptr_t = counts.clone();
        let mut col_idx_t = vec![0 as Idx; self.nnz()];
        let mut values_t = self.values.clone();
        let mut next = counts;
        for i in 0..self.nrows {
            let (cols, vals) = self.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                let dst = next[c as usize];
                col_idx_t[dst] = i as Idx;
                values_t[dst] = v;
                next[c as usize] += 1;
            }
        }
        Csr {
            nrows: self.ncols,
            ncols: self.nrows,
            row_ptr: row_ptr_t,
            col_idx: col_idx_t,
            values: values_t,
        }
    }

    /// `true` if the sparsity pattern is symmetric (structure only; values
    /// are ignored). Adjacency matrices of undirected graphs are symmetric.
    pub fn is_structurally_symmetric(&self) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        let t = self.transpose();
        self.row_ptr == t.row_ptr && self.col_idx == t.col_idx
    }

    /// `true` if `self` and `other` share the same pattern (values ignored).
    pub fn structure_eq<U: Copy>(&self, other: &Csr<U>) -> bool {
        self.nrows == other.nrows
            && self.ncols == other.ncols
            && self.row_ptr == other.row_ptr
            && self.col_idx == other.col_idx
    }

    /// Convert into a [`Coo`] triplet list.
    pub fn to_coo(&self) -> Coo<T> {
        let mut coo = Coo::with_capacity(self.nrows, self.ncols, self.nnz());
        for (i, j, v) in self.iter() {
            coo.push(i, j as usize, v);
        }
        coo
    }

    /// Extract rows `lo..hi` as a standalone matrix (column count is
    /// unchanged). This is what a 1-D row tile materialises to; the
    /// schedulers in `mspgemm-sched` use *logical* tiles instead, but tests
    /// use this to validate them.
    pub fn row_slice(&self, lo: usize, hi: usize) -> Csr<T> {
        assert!(lo <= hi && hi <= self.nrows, "row range out of bounds");
        let base = self.row_ptr[lo];
        let row_ptr = self.row_ptr[lo..=hi].iter().map(|&p| p - base).collect();
        Csr {
            nrows: hi - lo,
            ncols: self.ncols,
            row_ptr,
            col_idx: self.col_idx[base..self.row_ptr[hi]].to_vec(),
            values: self.values[base..self.row_ptr[hi]].to_vec(),
        }
    }

    /// Total scalar multiplications of an (unmasked) SpGEMM `self × B`:
    /// `Σ_{A[i,k]≠0} nnz(B[k,:])`. The paper uses this `O(nnz(A))`
    /// computation as the basis of FLOP-balanced tiling (§III-A).
    pub fn spgemm_flops<U: Copy>(&self, b: &Csr<U>) -> u64 {
        assert_eq!(self.ncols, b.nrows, "inner dimensions must agree");
        let mut total = 0u64;
        for &k in &self.col_idx {
            total += b.row_nnz(k as usize) as u64;
        }
        total
    }

    /// Approximate heap footprint in bytes — used by the harness to report
    /// working-set sizes the way the paper relates matrix size to the
    /// 128 MB L3 (§IV-B).
    pub fn size_bytes(&self) -> usize {
        self.row_ptr.len() * std::mem::size_of::<usize>()
            + self.col_idx.len() * std::mem::size_of::<Idx>()
            + self.values.len() * std::mem::size_of::<T>()
    }
}

impl<T: Copy + PartialEq> Csr<T> {
    /// Drop stored entries equal to `zero` (GraphBLAS `prune`).
    pub fn prune(&self, zero: T) -> Csr<T> {
        self.select(|_, _, v| v != zero)
    }
}

/// Sum a value over all stored entries — used by triangle counting's final
/// reduction.
pub fn reduce_values<T: Copy, Acc>(
    m: &Csr<T>,
    init: Acc,
    mut f: impl FnMut(Acc, T) -> Acc,
) -> Acc {
    let mut acc = init;
    for &v in m.values() {
        acc = f(acc, v);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Csr<f64> {
        // [ 1 0 2 ]
        // [ 0 0 0 ]
        // [ 3 4 0 ]
        Csr::try_from_parts(
            3,
            3,
            vec![0, 2, 2, 4],
            vec![0, 2, 0, 1],
            vec![1.0, 2.0, 3.0, 4.0],
        )
        .unwrap()
    }

    #[test]
    fn basic_accessors() {
        let a = small();
        assert_eq!(a.nrows(), 3);
        assert_eq!(a.ncols(), 3);
        assert_eq!(a.nnz(), 4);
        assert_eq!(a.row_nnz(0), 2);
        assert_eq!(a.row_nnz(1), 0);
        assert_eq!(a.get(0, 2), Some(2.0));
        assert_eq!(a.get(1, 1), None);
        assert!(a.contains(2, 1));
        assert!(!a.contains(0, 1));
    }

    #[test]
    fn zeros_and_identity() {
        let z: Csr<f64> = Csr::zeros(4, 5);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.nrows(), 4);
        assert_eq!(z.ncols(), 5);
        let i = Csr::identity(3, 7.0);
        assert_eq!(i.nnz(), 3);
        for k in 0..3 {
            assert_eq!(i.get(k, k), Some(7.0));
        }
    }

    #[test]
    fn validation_rejects_bad_pointers() {
        let e = Csr::try_from_parts(2, 2, vec![0, 2], vec![0, 1], vec![1.0, 2.0]);
        assert!(matches!(e, Err(SparseError::MalformedPointers { .. })));
        let e = Csr::try_from_parts(2, 2, vec![1, 1, 2], vec![0, 1], vec![1.0, 2.0]);
        assert!(matches!(e, Err(SparseError::MalformedPointers { .. })));
        let e = Csr::try_from_parts(2, 2, vec![0, 1, 1], vec![0, 1], vec![1.0, 2.0]);
        assert!(matches!(e, Err(SparseError::MalformedPointers { .. })));
    }

    #[test]
    fn validation_rejects_unsorted_and_duplicates() {
        let e = Csr::try_from_parts(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]);
        assert!(matches!(e, Err(SparseError::UnsortedRow { row: 0 })));
        let e = Csr::try_from_parts(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 2.0]);
        assert!(matches!(e, Err(SparseError::DuplicateEntry { row: 0, col: 1 })));
    }

    #[test]
    fn validation_rejects_out_of_bounds_column() {
        let e = Csr::try_from_parts(1, 2, vec![0, 1], vec![5], vec![1.0]);
        assert!(matches!(e, Err(SparseError::ColumnOutOfBounds { .. })));
    }

    #[test]
    fn validation_rejects_length_mismatch() {
        let e = Csr::try_from_parts(1, 3, vec![0, 2], vec![0, 1], vec![1.0]);
        assert!(matches!(e, Err(SparseError::LengthMismatch { .. })));
    }

    #[test]
    fn transpose_roundtrip() {
        let a = small();
        let t = a.transpose();
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.get(0, 0), Some(1.0));
        assert_eq!(t.get(2, 0), Some(2.0));
        assert_eq!(t.get(1, 2), Some(4.0));
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn tril_triu_partition_offdiagonal() {
        let a = small();
        let l = a.tril();
        let u = a.triu();
        assert_eq!(l.nnz() + u.nnz() + 1 /* diagonal (0,0) */, a.nnz());
        assert!(l.iter().all(|(i, j, _)| (j as usize) < i));
        assert!(u.iter().all(|(i, j, _)| (j as usize) > i));
    }

    #[test]
    fn symmetry_detection() {
        let sym = Csr::try_from_parts(
            2,
            2,
            vec![0, 1, 2],
            vec![1, 0],
            vec![5.0, 9.0],
        )
        .unwrap();
        assert!(sym.is_structurally_symmetric());
        let asym =
            Csr::try_from_parts(2, 2, vec![0, 1, 1], vec![1], vec![5.0]).unwrap();
        assert!(!asym.is_structurally_symmetric());
    }

    #[test]
    fn row_slice_matches_rows() {
        let a = small();
        let s = a.row_slice(1, 3);
        assert_eq!(s.nrows(), 2);
        assert_eq!(s.row(0).0, a.row(1).0);
        assert_eq!(s.row(1).1, a.row(2).1);
    }

    #[test]
    fn spgemm_flops_counts_b_row_lengths() {
        let a = small();
        // row0 of A hits cols {0,2}: nnz(B[0,:])=2, nnz(B[2,:])=2 -> 4
        // row2 of A hits cols {0,1}: nnz(B[0,:])=2, nnz(B[1,:])=0 -> 2
        assert_eq!(a.spgemm_flops(&a), 6);
    }

    #[test]
    fn spones_and_prune() {
        let a = small();
        let ones = a.spones(1u8);
        assert!(ones.structure_eq(&a));
        assert!(ones.values().iter().all(|&v| v == 1));
        let mut b = small();
        b.values_mut()[1] = 0.0;
        let p = b.prune(0.0);
        assert_eq!(p.nnz(), 3);
        assert_eq!(p.get(0, 2), None);
    }

    #[test]
    fn reduce_sums_values() {
        let a = small();
        let s = reduce_values(&a, 0.0, |acc, v| acc + v);
        assert_eq!(s, 10.0);
    }

    #[test]
    fn coo_roundtrip() {
        let a = small();
        let c = a.to_coo();
        let back = c.to_csr_sum();
        assert_eq!(back, a);
    }

    #[test]
    fn iter_yields_row_major_sorted() {
        let a = small();
        let triples: Vec<_> = a.iter().collect();
        assert_eq!(
            triples,
            vec![(0, 0, 1.0), (0, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)]
        );
    }
}
