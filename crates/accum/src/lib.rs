//! Sparse accumulators for masked-SpGEMM — the paper's third performance
//! dimension (§III-C).
//!
//! The accumulator "stores the partial sums during the computation of
//! `C[i,:]`, and encodes the mask `M[i,:]` to enable linear scanning of the
//! B rows". Its two requirements are (1) fast random access to all possible
//! output column indices and (2) fast state resetting between rows.
//!
//! Two families are provided, mirroring GrB and SuiteSparse:GraphBLAS,
//! plus GrB's original reset policy for the §III-C ablation:
//!
//! * [`DenseAccumulator`] — a value array of length `ncols` plus a marker
//!   array. Resetting is *implicit*: a per-row epoch counter is bumped and
//!   slots whose marker doesn't match are stale. The marker width is a
//!   tuning parameter (the paper's Fig. 13 experiment): narrow markers give
//!   better cache locality but overflow sooner, forcing a full reset —
//!   implemented exactly as described in §III-C ("overflow is detected and
//!   the state is fully reset when it occurs").
//! * [`HashAccumulator`] — an open-addressing table sized by
//!   `max_i nnz(M[i,:])` (the paper's own sizing choice, tighter than the
//!   operation-count bound GrB/SuiteSparse use), also with epoch markers.
//! * [`DenseExplicitReset`] — GrB's original strategy (explicitly clear
//!   every mask slot after each row); kept for the reset-policy ablation
//!   bench.
//!
//! All accumulators implement [`Accumulator`] and are generic over the
//! [`Semiring`], so the kernels in `mspgemm-core` are written once.

pub mod dense;
pub mod explicit;
pub mod hash;
pub mod marker;
pub mod sink;

pub use dense::DenseAccumulator;
pub use explicit::DenseExplicitReset;
pub use hash::HashAccumulator;
pub use marker::{Marker, MarkerWidth};
pub use sink::{FusedOp, FusedSink, RowSink, SlotSink, VecSink};

use mspgemm_sparse::{Idx, Semiring};

/// Row-scoped scratch storage for masked-SpGEMM.
///
/// Protocol per output row `i` (kernels in `mspgemm-core` follow it):
///
/// 1. [`begin_row`](Accumulator::begin_row) — invalidate previous state;
/// 2. optionally [`set_mask`](Accumulator::set_mask) for each column of
///    `M[i,:]` (the mask-preload kernels, Fig. 4/5 of the paper);
/// 3. a mix of [`accumulate_masked`](Accumulator::accumulate_masked)
///    (discards misses, Fig. 5 line 13) and/or
///    [`accumulate_any`](Accumulator::accumulate_any) (vanilla kernel,
///    Fig. 3 line 12);
/// 4. [`gather`](Accumulator::gather) to emit the surviving entries of the
///    row in sorted column order.
pub trait Accumulator<S: Semiring>: Send {
    /// Start a new output row, invalidating all state from previous rows.
    fn begin_row(&mut self);

    /// Record that column `j` is admissible (present in `M[i,:]`). The
    /// associated value starts at the semiring zero, "unwritten".
    /// Idempotent, and never downgrades a column already written this row.
    fn set_mask(&mut self, j: Idx);

    /// `acc[j] ⊕= a ⊗ b` **iff** `j` was [`set_mask`](Self::set_mask)-ed
    /// this row; returns whether the update hit. This is the probe-and-
    /// update of Fig. 4.
    fn accumulate_masked(&mut self, j: Idx, a: S::T, b: S::T) -> bool;

    /// `acc[j] ⊕= a ⊗ b` unconditionally (the vanilla kernel's update; the
    /// mask is intersected later, at gather time).
    fn accumulate_any(&mut self, j: Idx, a: S::T, b: S::T);

    /// The value written to `j` this row, if any.
    fn written(&self, j: Idx) -> Option<S::T>;

    /// Emit, in order, each `j ∈ mask_cols` that was written this row
    /// (together with its value) into `out`. This performs the mask
    /// intersection for the vanilla kernel and the final gather
    /// (`C[i,:] = acc.gather()`) for all kernels. The sink decides where
    /// the row lands: growable `Vec`s ([`VecSink`]), or the preallocated
    /// mask-bounded slot ([`SlotSink`]) the driver assembles in place.
    fn gather_into<W: RowSink<S::T> + ?Sized>(&mut self, mask_cols: &[Idx], out: &mut W);

    /// Convenience wrapper over [`gather_into`](Self::gather_into) that
    /// appends to a pair of `Vec`s.
    fn gather(&mut self, mask_cols: &[Idx], out_cols: &mut Vec<Idx>, out_vals: &mut Vec<S::T>) {
        self.gather_into(mask_cols, &mut VecSink { cols: out_cols, vals: out_vals });
    }

    /// How many times the whole state array had to be reset because the
    /// epoch marker overflowed (always 0 for 64-bit markers in practice).
    fn full_resets(&self) -> u64;

    /// Take-and-clear the overflow latch: `true` iff the current row tried
    /// to claim more distinct columns than the accumulator was sized for,
    /// in which case the row's state is incomplete and must be recomputed
    /// (the driver hands its tile to the degraded retry). A table sized at
    /// the hard bound never overflows; accumulators without a capacity
    /// bound keep the default `false`.
    fn take_overflow(&mut self) -> bool {
        false
    }

    /// Approximate resident state size in bytes — the quantity the paper's
    /// Fig. 13 experiment trades against reset frequency.
    fn state_bytes(&self) -> usize;

    /// Fold any instance-local observability scratch into the global
    /// `mspgemm_rt::obs` registry and clear it. Called by the driver once
    /// per tile (never per row), so implementations may keep hot-path
    /// counters as plain integers. The default is a no-op for accumulators
    /// that record nothing.
    fn flush_metrics(&mut self) {}
}

/// Runtime selection of the accumulator family and marker width — what the
/// tuner (paper Fig. 12, stage 3) sweeps over.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccumulatorKind {
    /// Dense marker-based accumulator with the given marker width.
    Dense(MarkerWidth),
    /// Hash accumulator with the given marker width.
    Hash(MarkerWidth),
}

impl AccumulatorKind {
    /// All (family × width) combinations: the Fig. 13 sweep grid.
    pub fn all() -> Vec<AccumulatorKind> {
        use MarkerWidth::*;
        let mut v = Vec::new();
        for w in [W8, W16, W32, W64] {
            v.push(AccumulatorKind::Dense(w));
            v.push(AccumulatorKind::Hash(w));
        }
        v
    }

    /// Short label used by benchmark reports.
    pub fn label(&self) -> String {
        match self {
            AccumulatorKind::Dense(w) => format!("dense{}", w.bits()),
            AccumulatorKind::Hash(w) => format!("hash{}", w.bits()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kinds_enumerates_grid() {
        let all = AccumulatorKind::all();
        assert_eq!(all.len(), 8);
        assert!(all.contains(&AccumulatorKind::Dense(MarkerWidth::W32)));
        assert!(all.contains(&AccumulatorKind::Hash(MarkerWidth::W8)));
    }

    #[test]
    fn labels_are_unique() {
        let all = AccumulatorKind::all();
        for (i, a) in all.iter().enumerate() {
            for b in &all[i + 1..] {
                assert_ne!(a.label(), b.label());
            }
        }
        assert_eq!(AccumulatorKind::Dense(MarkerWidth::W16).label(), "dense16");
    }
}
