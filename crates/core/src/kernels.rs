//! The four row-wise saxpy masked-SpGEMM kernels (Figs. 3, 5, 7, 9 of the
//! paper).
//!
//! Each kernel computes one output row `C[i,:]` given `A[i,:]`, the whole
//! of `B`, and the mask row `M[i,:]`, emitting the surviving entries (in
//! sorted column order) through the caller's [`RowSink`] — the driver's
//! preallocated mask-bounded `SlotSink` (wrapped in a `FusedSink` when a
//! graph node carries post-ops), or a growable `VecSink` in tests. The
//! kernels are generic over the [`Semiring`], the [`Accumulator`] and the
//! sink, so the driver monomorphises `4 iteration spaces × 2 accumulator
//! families × 4 marker widths` into straight-line code, and the kernel
//! bodies themselves never touch the heap.

use mspgemm_accum::{Accumulator, RowSink};
use mspgemm_rt::obs;
use mspgemm_sparse::{Csr, Idx, Semiring};

/// Row access over the left operand `A`.
///
/// The kernels read `A` exclusively through `row(i)`, so they are generic
/// over anything that can hand out a sorted row slice: a materialised
/// [`Csr`], or the fused graph executor's view of a predecessor op's
/// output still sitting in its slot scratch ([`crate::graph`]). The
/// driver monomorphises per implementation — no dynamic dispatch on the
/// hot path.
pub trait RowRead<T: Copy> {
    /// The stored entries of row `i`: sorted column indices and values.
    fn row(&self, i: usize) -> (&[Idx], &[T]);
}

impl<T: Copy> RowRead<T> for Csr<T> {
    #[inline(always)]
    fn row(&self, i: usize) -> (&[Idx], &[T]) {
        Csr::row(self, i)
    }
}

/// Per-thread tallies of the hybrid kernel's Eq. 3 decisions.
///
/// [`row_hybrid`] itself records nothing: its decision is a pure function
/// of `(nnz(M[i,:]), nnz(B[k,:]), κ)`, so when metrics are armed the
/// driver *replays* the decisions with [`tally_row_hybrid`] — exact, and
/// the kernel hot path stays byte-identical to the uninstrumented build.
/// Tallies fold into the global `obs` registry via
/// [`flush`](HybridStats::flush), at most once per tile.
#[derive(Clone, Copy, Debug, Default)]
pub struct HybridStats {
    /// Fetched B rows traversed by co-iteration (Fig. 9 lines 11-18).
    pub coiterate: u64,
    /// Fetched B rows traversed by linear saxpy scan (Fig. 9 lines 20-26).
    pub saxpy: u64,
    /// Modeled binary-search comparisons spent co-iterating:
    /// `nnz(M[i,:]) · ⌈log₂ nnz(B[k,:])⌉` per co-iterated row — the very
    /// quantity Eq. 3 prices, so the counter is comparable to `w_co`.
    pub binsearch_steps: u64,
    /// Whether the driver replays decisions at all; sampled from
    /// [`obs::armed`] by [`armed`](Self::armed). `Default` leaves it off.
    pub on: bool,
}

impl HybridStats {
    /// Tallies gated on the *current* armed state — what the driver's
    /// worker threads construct.
    pub fn armed() -> Self {
        HybridStats { on: obs::armed(), ..HybridStats::default() }
    }

    /// Fold the tallies into the global registry (no-op unless armed) and
    /// zero them, preserving the recording flag.
    pub fn flush(&mut self) {
        obs::add(obs::Counter::KernelHybridCoiterate, self.coiterate);
        obs::add(obs::Counter::KernelHybridSaxpy, self.saxpy);
        obs::add(obs::Counter::KernelBinarySearchSteps, self.binsearch_steps);
        *self = HybridStats { on: self.on, ..HybridStats::default() };
    }

    /// Total fetched-B-row decisions recorded.
    pub fn decisions(&self) -> u64 {
        self.coiterate + self.saxpy
    }
}

/// Replay the Eq. 3 decisions [`row_hybrid`] takes for row `i` and add
/// them to `stats`. Both decide through `coiterate_wins`, so the replay
/// is exact; `metrics.rs` asserts the tallies against the driver's runs.
#[cold]
#[inline(never)]
pub fn tally_row_hybrid<T: Copy, R: RowRead<T> + ?Sized>(
    i: usize,
    a: &R,
    b: &Csr<T>,
    mask_nnz: usize,
    kappa: f64,
    stats: &mut HybridStats,
) {
    let m = mask_nnz as f64;
    let (acols, _) = a.row(i);
    for &k in acols {
        let blen = b.row_nnz(k as usize);
        if blen == 0 {
            continue;
        }
        if coiterate_wins(m, blen, kappa) {
            stats.coiterate += 1;
            stats.binsearch_steps += mask_nnz as u64 * log2_ceil(blen) as u64;
        } else {
            stats.saxpy += 1;
        }
    }
}

/// Fig. 3 — the vanilla kernel: accumulate **all** intermediate products,
/// intersect with the mask only at the end.
///
/// ```text
/// for non-zero column k in A[i,:]:
///     for nonzero column j in B[k,:]:
///         acc[i,j] = a*x + y        # no mask check
/// for non-zero column j in acc[i,:]:
///     if M[i,j] is zero: acc[i,j] = 0
/// C[i,:] = acc.gather()
/// ```
#[inline]
pub fn row_vanilla<S, A, R, W>(
    i: usize,
    a: &R,
    b: &Csr<S::T>,
    mask_cols: &[Idx],
    acc: &mut A,
    out: &mut W,
) where
    S: Semiring,
    A: Accumulator<S>,
    R: RowRead<S::T> + ?Sized,
    W: RowSink<S::T> + ?Sized,
{
    acc.begin_row();
    let (acols, avals) = a.row(i);
    for (&k, &av) in acols.iter().zip(avals) {
        let (bcols, bvals) = b.row(k as usize);
        for (&j, &bv) in bcols.iter().zip(bvals) {
            acc.accumulate_any(j, av, bv);
        }
    }
    // late mask intersection (Fig. 3 lines 14-16) fused into the gather
    acc.gather_into(mask_cols, out);
}

/// Fig. 5 — the GrB kernel: load the mask into the accumulator first, then
/// discard updates that miss it.
#[inline]
pub fn row_mask_accumulate<S, A, R, W>(
    i: usize,
    a: &R,
    b: &Csr<S::T>,
    mask_cols: &[Idx],
    acc: &mut A,
    out: &mut W,
) where
    S: Semiring,
    A: Accumulator<S>,
    R: RowRead<S::T> + ?Sized,
    W: RowSink<S::T> + ?Sized,
{
    acc.begin_row();
    for &j in mask_cols {
        acc.set_mask(j);
    }
    let (acols, avals) = a.row(i);
    for (&k, &av) in acols.iter().zip(avals) {
        let (bcols, bvals) = b.row(k as usize);
        for (&j, &bv) in bcols.iter().zip(bvals) {
            acc.accumulate_masked(j, av, bv);
        }
    }
    acc.gather_into(mask_cols, out);
}

/// Fig. 7 — pure co-iteration: for every fetched `B[k,:]`, iterate the
/// *mask* and binary search each mask column within the B row. Only the
/// matching elements of B are ever loaded.
#[inline]
pub fn row_coiterate<S, A, R, W>(
    i: usize,
    a: &R,
    b: &Csr<S::T>,
    mask_cols: &[Idx],
    acc: &mut A,
    out: &mut W,
) where
    S: Semiring,
    A: Accumulator<S>,
    R: RowRead<S::T> + ?Sized,
    W: RowSink<S::T> + ?Sized,
{
    acc.begin_row();
    let (acols, avals) = a.row(i);
    for (&k, &av) in acols.iter().zip(avals) {
        let (bcols, bvals) = b.row(k as usize);
        for &j in mask_cols {
            if let Ok(pos) = bcols.binary_search(&j) {
                acc.accumulate_any(j, av, bvals[pos]);
            }
        }
    }
    acc.gather_into(mask_cols, out);
}

/// Fig. 9 — the hybrid kernel: per fetched row `B[k,:]`, compare the
/// co-iteration cost `W_co = nnz(M[i,:]) · log₂ nnz(B[k,:])` (Eq. 3)
/// against `κ · nnz(B[k,:])` and take the cheaper traversal. This is the
/// kernel that rescues `circuit5M` in the paper (Fig. 14d).
#[inline]
pub fn row_hybrid<S, A, R, W>(
    i: usize,
    a: &R,
    b: &Csr<S::T>,
    mask_cols: &[Idx],
    kappa: f64,
    acc: &mut A,
    out: &mut W,
) where
    S: Semiring,
    A: Accumulator<S>,
    R: RowRead<S::T> + ?Sized,
    W: RowSink<S::T> + ?Sized,
{
    acc.begin_row();
    for &j in mask_cols {
        acc.set_mask(j);
    }
    let mask_nnz = mask_cols.len() as f64;
    let (acols, avals) = a.row(i);
    for (&k, &av) in acols.iter().zip(avals) {
        let (bcols, bvals) = b.row(k as usize);
        if bcols.is_empty() {
            continue;
        }
        if coiterate_wins(mask_nnz, bcols.len(), kappa) {
            // co-iterate M[i,:] with B[k,:] (Fig. 9 lines 11-18)
            for &j in mask_cols {
                if let Ok(pos) = bcols.binary_search(&j) {
                    acc.accumulate_masked(j, av, bvals[pos]);
                }
            }
        } else {
            // linear scan of B[k,:] (Fig. 9 lines 20-26)
            for (&j, &bv) in bcols.iter().zip(bvals) {
                acc.accumulate_masked(j, av, bv);
            }
        }
    }
    acc.gather_into(mask_cols, out);
}

/// Eq. 3: co-iterate a non-empty `B[k,:]` of `blen` entries against a mask
/// row of `mask_nnz` entries when `W_co = nnz(M[i,:]) · ⌈log₂ nnz(B[k,:])⌉`
/// is below `κ · nnz(B[k,:])`. [`row_hybrid`] and [`tally_row_hybrid`] both
/// decide here, so the metered replay can never drift from the kernel.
#[inline(always)]
fn coiterate_wins(mask_nnz: f64, blen: usize, kappa: f64) -> bool {
    mask_nnz * log2_ceil(blen) < kappa * blen as f64
}

/// `⌈log₂ n⌉` as f64, with `log₂ 1 = 1` so a one-element row still costs a
/// comparison (the Eq. 3 model charges at least one probe per mask entry).
#[inline(always)]
fn log2_ceil(n: usize) -> f64 {
    debug_assert!(n > 0);
    ((usize::BITS - (n - 1).leading_zeros()) as f64).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mspgemm_accum::{DenseAccumulator, HashAccumulator, VecSink};
    use mspgemm_sparse::{Coo, Dense, PlusTimes};

    /// Deterministic pseudo-random sparse matrix (no rand dependency in
    /// unit tests; integration tests use the real generators).
    fn lcg_matrix(nrows: usize, ncols: usize, per_row: usize, seed: u64) -> Csr<f64> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut coo = Coo::new(nrows, ncols);
        for i in 0..nrows {
            for _ in 0..per_row {
                let j = next() % ncols;
                coo.push(i, j, ((next() % 9) + 1) as f64);
            }
        }
        coo.to_csr_with(|a, _| a)
    }

    /// Vec-backed adapters over the sink-generic kernels, so tests keep
    /// the historical `(out_cols, out_vals)` shape.
    fn vec_vanilla<A: Accumulator<PlusTimes>>(
        i: usize,
        a: &Csr<f64>,
        b: &Csr<f64>,
        m: &[Idx],
        acc: &mut A,
        oc: &mut Vec<Idx>,
        ov: &mut Vec<f64>,
    ) {
        row_vanilla(i, a, b, m, acc, &mut VecSink { cols: oc, vals: ov })
    }

    fn vec_mask_accumulate<A: Accumulator<PlusTimes>>(
        i: usize,
        a: &Csr<f64>,
        b: &Csr<f64>,
        m: &[Idx],
        acc: &mut A,
        oc: &mut Vec<Idx>,
        ov: &mut Vec<f64>,
    ) {
        row_mask_accumulate(i, a, b, m, acc, &mut VecSink { cols: oc, vals: ov })
    }

    fn vec_coiterate<A: Accumulator<PlusTimes>>(
        i: usize,
        a: &Csr<f64>,
        b: &Csr<f64>,
        m: &[Idx],
        acc: &mut A,
        oc: &mut Vec<Idx>,
        ov: &mut Vec<f64>,
    ) {
        row_coiterate(i, a, b, m, acc, &mut VecSink { cols: oc, vals: ov })
    }

    /// Run one kernel over all rows with a given accumulator and collect
    /// the output matrix.
    fn run_all<A: Accumulator<PlusTimes>>(
        mut kernel: impl FnMut(
            usize,
            &Csr<f64>,
            &Csr<f64>,
            &[Idx],
            &mut A,
            &mut Vec<Idx>,
            &mut Vec<f64>,
        ),
        a: &Csr<f64>,
        b: &Csr<f64>,
        mask: &Csr<f64>,
        acc: &mut A,
    ) -> Csr<f64> {
        let mut row_ptr = vec![0usize; a.nrows() + 1];
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        for i in 0..a.nrows() {
            kernel(i, a, b, mask.row(i).0, acc, &mut cols, &mut vals);
            row_ptr[i + 1] = cols.len();
        }
        Csr::from_parts_unchecked(a.nrows(), b.ncols(), row_ptr, cols, vals)
    }

    fn oracle(a: &Csr<f64>, b: &Csr<f64>, mask: &Csr<f64>) -> Csr<f64> {
        Dense::masked_matmul::<PlusTimes, f64>(a, b, mask)
    }

    #[test]
    fn all_kernels_match_oracle_dense_acc() {
        let a = lcg_matrix(40, 40, 5, 1);
        let b = lcg_matrix(40, 40, 4, 2);
        let mask = lcg_matrix(40, 40, 6, 3);
        let want = oracle(&a, &b, &mask);

        let mut acc: DenseAccumulator<PlusTimes, u32> = DenseAccumulator::new(40);
        assert_eq!(run_all(vec_vanilla, &a, &b, &mask, &mut acc), want, "vanilla");
        assert_eq!(run_all(vec_mask_accumulate, &a, &b, &mask, &mut acc), want, "mask-accumulate");
        assert_eq!(run_all(vec_coiterate, &a, &b, &mask, &mut acc), want, "coiterate");
        for kappa in [0.0, 0.5, 1.0, 100.0] {
            let got = run_all(
                |i, a, b, m, acc, oc, ov| {
                    row_hybrid(i, a, b, m, kappa, acc, &mut VecSink { cols: oc, vals: ov })
                },
                &a,
                &b,
                &mask,
                &mut acc,
            );
            assert_eq!(got, want, "hybrid kappa={kappa}");
        }
    }

    #[test]
    fn all_kernels_match_oracle_hash_acc() {
        let a = lcg_matrix(30, 30, 4, 7);
        let b = lcg_matrix(30, 30, 5, 8);
        let mask = lcg_matrix(30, 30, 5, 9);
        let want = oracle(&a, &b, &mask);

        // hash capacity: vanilla needs the distinct-intermediate bound
        let max_inter: usize =
            (0..30).map(|i| a.row(i).0.iter().map(|&k| b.row_nnz(k as usize)).sum::<usize>())
                .max()
                .unwrap()
                .min(30);
        let mut acc: HashAccumulator<PlusTimes, u32> =
            HashAccumulator::with_row_capacity(max_inter.max(8));
        assert_eq!(run_all(vec_vanilla, &a, &b, &mask, &mut acc), want, "vanilla");
        assert_eq!(run_all(vec_mask_accumulate, &a, &b, &mask, &mut acc), want, "mask-accumulate");
        assert_eq!(run_all(vec_coiterate, &a, &b, &mask, &mut acc), want, "coiterate");
        let got = run_all(
            |i, a, b, m, acc, oc, ov| {
                row_hybrid(i, a, b, m, 1.0, acc, &mut VecSink { cols: oc, vals: ov })
            },
            &a,
            &b,
            &mask,
            &mut acc,
        );
        assert_eq!(got, want, "hybrid");
    }

    #[test]
    fn hybrid_extremes_degenerate_to_pure_kernels() {
        // κ = 0 ⇒ co-iteration never chosen (w_co < 0 is false) ⇒ Fig. 5
        // κ = ∞ ⇒ co-iteration always chosen ⇒ Fig. 7 + mask preload
        let a = lcg_matrix(20, 20, 4, 4);
        let mask = lcg_matrix(20, 20, 3, 5);
        let mut acc: DenseAccumulator<PlusTimes, u32> = DenseAccumulator::new(20);
        let want = oracle(&a, &a, &mask);
        for kappa in [0.0, f64::INFINITY] {
            let got = run_all(
                |i, a, b, m, acc, oc, ov| {
                    row_hybrid(i, a, b, m, kappa, acc, &mut VecSink { cols: oc, vals: ov })
                },
                &a,
                &a,
                &mask,
                &mut acc,
            );
            assert_eq!(got, want, "kappa={kappa}");
            // the replayed tallies agree: every decision lands on one side
            let mut st = HybridStats::default();
            for i in 0..a.nrows() {
                tally_row_hybrid(i, &a, &a, mask.row_nnz(i), kappa, &mut st);
            }
            if kappa == 0.0 {
                assert_eq!(st.coiterate, 0, "kappa=0 never co-iterates");
                assert_eq!(st.binsearch_steps, 0);
            } else {
                assert_eq!(st.saxpy, 0, "kappa=inf never scans linearly");
                assert!(st.binsearch_steps > 0);
            }
            assert!(st.decisions() > 0);
        }
    }

    #[test]
    fn empty_mask_row_produces_empty_output_row() {
        let a = lcg_matrix(10, 10, 5, 11);
        let mask: Csr<f64> = Csr::zeros(10, 10);
        let mut acc: DenseAccumulator<PlusTimes, u32> = DenseAccumulator::new(10);
        let c = run_all(vec_mask_accumulate, &a, &a, &mask, &mut acc);
        assert_eq!(c.nnz(), 0);
        let c = run_all(vec_vanilla, &a, &a, &mask, &mut acc);
        assert_eq!(c.nnz(), 0);
    }

    #[test]
    fn empty_a_row_produces_empty_output_row() {
        // row 0 of A empty: C[0,:] must be empty regardless of mask
        let mut coo = Coo::new(3, 3);
        coo.push(1, 0, 2.0);
        coo.push(2, 1, 3.0);
        let a = coo.to_csr_sum();
        let mask = lcg_matrix(3, 3, 3, 1);
        let mut acc: DenseAccumulator<PlusTimes, u32> = DenseAccumulator::new(3);
        let c = run_all(row_hybrid_k1, &a, &a, &mask, &mut acc);
        assert_eq!(c.row_nnz(0), 0);

        fn row_hybrid_k1<A: Accumulator<PlusTimes>>(
            i: usize,
            a: &Csr<f64>,
            b: &Csr<f64>,
            m: &[Idx],
            acc: &mut A,
            oc: &mut Vec<Idx>,
            ov: &mut Vec<f64>,
        ) {
            row_hybrid(i, a, b, m, 1.0, acc, &mut VecSink { cols: oc, vals: ov })
        }
    }

    #[test]
    fn hybrid_decisions_sum_to_nonempty_ik_pairs() {
        // Eq. 3 consistency: one decision per (i, k) pair with a non-empty
        // B[k,:], independent of which side wins
        let a = lcg_matrix(25, 25, 4, 31);
        let b = lcg_matrix(25, 25, 3, 32);
        let mask = lcg_matrix(25, 25, 5, 33);
        let expected: u64 = (0..25)
            .map(|i| {
                a.row(i).0.iter().filter(|&&k| b.row_nnz(k as usize) > 0).count() as u64
            })
            .sum();
        for kappa in [0.0, 1.0, 8.0, f64::INFINITY] {
            let mut st = HybridStats::default();
            for i in 0..25 {
                tally_row_hybrid(i, &a, &b, mask.row_nnz(i), kappa, &mut st);
            }
            assert_eq!(st.decisions(), expected, "kappa={kappa}");
        }
    }

    #[test]
    fn log2_ceil_values() {
        assert_eq!(log2_ceil(1), 1.0);
        assert_eq!(log2_ceil(2), 1.0);
        assert_eq!(log2_ceil(3), 2.0);
        assert_eq!(log2_ceil(4), 2.0);
        assert_eq!(log2_ceil(5), 3.0);
        assert_eq!(log2_ceil(1024), 10.0);
        assert_eq!(log2_ceil(1025), 11.0);
    }

    #[test]
    fn kernels_handle_rectangular_operands() {
        // A: 5x7, B: 7x6, M: 5x6
        let a = lcg_matrix(5, 7, 3, 21);
        let b = lcg_matrix(7, 6, 3, 22);
        let mask = lcg_matrix(5, 6, 4, 23);
        let want = oracle(&a, &b, &mask);
        let mut acc: DenseAccumulator<PlusTimes, u16> = DenseAccumulator::new(6);
        assert_eq!(run_all(vec_mask_accumulate, &a, &b, &mask, &mut acc), want);
        assert_eq!(run_all(vec_coiterate, &a, &b, &mask, &mut acc), want);
    }
}
