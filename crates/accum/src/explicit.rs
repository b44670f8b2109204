//! GrB's original explicit-reset dense accumulator.
//!
//! "In GrB, all `M[i,j] ≠ 0` slots of the accumulator are reset explicitly
//! after each row" (§III-C). This is the strategy the paper's marker-based
//! modification replaces; we keep it as the baseline of the reset-policy
//! ablation bench. The engine cannot run it: `AccumulatorKind` has no
//! explicit-reset arm, and the `GrBLike` preset resets by markers through
//! a 64-bit hash accumulator.
//!
//! The cost profile differs from [`crate::DenseAccumulator`]: per-row reset
//! is `O(nnz(M[i,:]))` instead of `O(1)`, but the state array is a single
//! byte per slot with no overflow handling at all.

use crate::Accumulator;
use mspgemm_sparse::{Idx, Semiring};

/// Slot states for the explicit-reset accumulator.
const STALE: u8 = 0;
const IN_MASK: u8 = 1;
const WRITTEN: u8 = 2;

/// Dense accumulator that clears its occupied slots explicitly at the start
/// of the next row (the `begin_row` of this type is a no-op; clearing
/// happens in [`DenseExplicitReset::end_row`], which the kernels call with
/// the slots they populated).
pub struct DenseExplicitReset<S: Semiring> {
    vals: Vec<S::T>,
    state: Vec<u8>,
    /// Columns marked or written this row and not yet cleared. Tracked so
    /// `accumulate_any` users can be reset too (for mask-preload kernels it
    /// matches the mask row).
    dirty: Vec<Idx>,
}

impl<S: Semiring> DenseExplicitReset<S> {
    /// Create an accumulator for outputs with `ncols` columns.
    pub fn new(ncols: usize) -> Self {
        DenseExplicitReset {
            vals: vec![S::zero(); ncols],
            state: vec![STALE; ncols],
            dirty: Vec::new(),
        }
    }

    /// Explicitly clear all slots touched this row — GrB's per-row reset.
    pub fn end_row(&mut self) {
        for &j in &self.dirty {
            self.state[j as usize] = STALE;
        }
        self.dirty.clear();
    }
}

impl<S: Semiring> Accumulator<S> for DenseExplicitReset<S> {
    #[inline]
    fn begin_row(&mut self) {
        // clearing is attributed to the *end* of the previous row in GrB;
        // calling it here keeps the Accumulator protocol uniform
        self.end_row();
    }

    #[inline(always)]
    fn set_mask(&mut self, j: Idx) {
        let ju = j as usize;
        if self.state[ju] == STALE {
            self.state[ju] = IN_MASK;
            self.dirty.push(j);
        }
    }

    #[inline(always)]
    fn accumulate_masked(&mut self, j: Idx, a: S::T, b: S::T) -> bool {
        let ju = j as usize;
        match self.state[ju] {
            WRITTEN => {
                self.vals[ju] = S::fma(self.vals[ju], a, b);
                true
            }
            IN_MASK => {
                self.state[ju] = WRITTEN;
                self.vals[ju] = S::mul(a, b);
                true
            }
            _ => false,
        }
    }

    #[inline(always)]
    fn accumulate_any(&mut self, j: Idx, a: S::T, b: S::T) {
        let ju = j as usize;
        if self.state[ju] == WRITTEN {
            self.vals[ju] = S::fma(self.vals[ju], a, b);
        } else {
            if self.state[ju] == STALE {
                self.dirty.push(j);
            }
            self.state[ju] = WRITTEN;
            self.vals[ju] = S::mul(a, b);
        }
    }

    #[inline(always)]
    fn written(&self, j: Idx) -> Option<S::T> {
        let ju = j as usize;
        if self.state[ju] == WRITTEN {
            Some(self.vals[ju])
        } else {
            None
        }
    }

    fn gather_into<W: crate::RowSink<S::T> + ?Sized>(&mut self, mask_cols: &[Idx], out: &mut W) {
        for &j in mask_cols {
            if self.state[j as usize] == WRITTEN {
                out.push(j, self.vals[j as usize]);
            }
        }
    }

    fn full_resets(&self) -> u64 {
        0
    }

    fn state_bytes(&self) -> usize {
        self.vals.len() * std::mem::size_of::<S::T>() + self.state.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mspgemm_sparse::PlusTimes;

    type Acc = DenseExplicitReset<PlusTimes>;

    #[test]
    fn matches_marker_accumulator_semantics() {
        let mut acc = Acc::new(8);
        acc.begin_row();
        acc.set_mask(2);
        acc.set_mask(5);
        assert!(acc.accumulate_masked(2, 3.0, 4.0));
        assert!(acc.accumulate_masked(2, 1.0, 1.0));
        assert!(!acc.accumulate_masked(3, 9.0, 9.0));
        assert_eq!(acc.written(2), Some(13.0));
        assert_eq!(acc.written(5), None);
    }

    #[test]
    fn begin_row_clears_previous_state() {
        let mut acc = Acc::new(4);
        acc.begin_row();
        acc.set_mask(1);
        acc.accumulate_masked(1, 2.0, 2.0);
        acc.accumulate_any(3, 1.0, 1.0);
        acc.begin_row();
        assert_eq!(acc.written(1), None);
        assert_eq!(acc.written(3), None);
        assert!(!acc.accumulate_masked(1, 1.0, 1.0));
    }

    #[test]
    fn explicit_end_row_is_equivalent() {
        let mut acc = Acc::new(4);
        acc.begin_row();
        acc.set_mask(0);
        acc.accumulate_masked(0, 1.0, 1.0);
        acc.end_row();
        assert_eq!(acc.written(0), None);
    }

    #[test]
    fn gather_respects_mask_intersection() {
        let mut acc = Acc::new(8);
        acc.begin_row();
        acc.accumulate_any(4, 2.0, 3.0);
        acc.accumulate_any(6, 1.0, 1.0);
        let (mut cols, mut vals) = (Vec::new(), Vec::new());
        acc.gather(&[4, 5], &mut cols, &mut vals);
        assert_eq!(cols, vec![4]);
        assert_eq!(vals, vec![6.0]);
    }

    #[test]
    fn never_reports_full_resets() {
        let mut acc = Acc::new(4);
        for _ in 0..10_000 {
            acc.begin_row();
            acc.set_mask(0);
        }
        assert_eq!(acc.full_resets(), 0);
    }
}
