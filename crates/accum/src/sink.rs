//! Row output sinks — where a gathered output row lands.
//!
//! Kernels emit each surviving `(column, value)` pair of `C[i,:]` through a
//! [`RowSink`] instead of pushing into concrete `Vec`s, so the same
//! monomorphised kernel serves every destination:
//!
//! * [`VecSink`] — growable buffers, for callers (and tests) that want
//!   plain `Vec`s;
//! * [`SlotSink`] — a cursor over a *preallocated* slot slice. The driver
//!   sizes row `i`'s slot as `[mask.row_ptr[i], mask.row_ptr[i+1])`, which
//!   is a hard bound: every gathered entry is a mask entry, so
//!   `nnz(C[i,:]) ≤ nnz(M[i,:])`. Writing through a `SlotSink` therefore
//!   never allocates and never overflows on well-formed inputs; a violated
//!   bound (a buggy accumulator emitting a non-mask column twice) lands on
//!   the slice bounds check and unwinds into the driver's panic isolation.

use mspgemm_sparse::Idx;

/// Destination for one output row's `(column, value)` pairs, emitted in
/// ascending column order by [`Accumulator::gather_into`].
///
/// [`Accumulator::gather_into`]: crate::Accumulator::gather_into
pub trait RowSink<T> {
    /// Append one surviving entry of the current output row.
    fn push(&mut self, j: Idx, v: T);
}

/// Growable sink over a pair of caller-owned `Vec`s.
pub struct VecSink<'a, T> {
    /// Column indices, appended in gather order.
    pub cols: &'a mut Vec<Idx>,
    /// Values, parallel to `cols`.
    pub vals: &'a mut Vec<T>,
}

impl<T> RowSink<T> for VecSink<'_, T> {
    #[inline(always)]
    fn push(&mut self, j: Idx, v: T) {
        self.cols.push(j);
        self.vals.push(v);
    }
}

/// Fixed-capacity cursor over a preallocated per-row slot.
///
/// The slot is exactly the mask-row-sized window of the shared output
/// buffers; [`written`](Self::written) reports how much of it the row
/// actually used (the rest is slack, squeezed out by the driver's
/// compaction pass).
pub struct SlotSink<'a, T> {
    cols: &'a mut [Idx],
    vals: &'a mut [T],
    n: usize,
    /// Output row this slot belongs to, carried so an overflow unwinds
    /// with a structured, debuggable message ([`Self::ROW_UNKNOWN`] when
    /// the caller didn't attribute the slot).
    row: usize,
}

/// Structured overflow report: the panic payload carries everything needed
/// to debug a slot overflow from the message alone.
#[cold]
#[inline(never)]
fn slot_overflow(row: usize, estimated: usize, actual_at_least: usize) -> ! {
    if row == usize::MAX {
        panic!(
            "slot sink overflow: estimated row nnz {estimated}, actual >= {actual_at_least} \
             (accumulator emitted more entries than the sized mask bound)"
        );
    }
    panic!(
        "slot sink overflow on row {row}: estimated nnz {estimated}, actual >= {actual_at_least} \
         (accumulator emitted more entries than the sized mask bound)"
    );
}

impl<'a, T> SlotSink<'a, T> {
    /// Sentinel for an unattributed slot (see [`Self::new`]).
    pub const ROW_UNKNOWN: usize = usize::MAX;

    /// Wrap one row's slot. Both slices must have the same length
    /// (`nnz(M[i,:])` in the driver). Prefer [`Self::for_row`] where the
    /// output row index is known, so overflow reports are attributable.
    #[inline]
    pub fn new(cols: &'a mut [Idx], vals: &'a mut [T]) -> Self {
        Self::for_row(cols, vals, Self::ROW_UNKNOWN)
    }

    /// Like [`Self::new`], but records the output row index so an
    /// overflow panic names the row and its estimated-vs-actual nnz.
    #[inline]
    pub fn for_row(cols: &'a mut [Idx], vals: &'a mut [T], row: usize) -> Self {
        debug_assert_eq!(cols.len(), vals.len());
        SlotSink { cols, vals, n: 0, row }
    }

    /// Entries written so far (the row's actual nnz after gather).
    #[inline]
    pub fn written(&self) -> usize {
        self.n
    }

    /// Slot capacity (the mask bound for this row).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.cols.len()
    }
}

impl<T> RowSink<T> for SlotSink<'_, T> {
    #[inline(always)]
    fn push(&mut self, j: Idx, v: T) {
        // the capacity check *is* the mask-bound assertion; it also lets
        // the compiler elide the slice bounds checks below
        if self.n >= self.cols.len() {
            slot_overflow(self.row, self.cols.len(), self.n + 1);
        }
        self.cols[self.n] = j;
        self.vals[self.n] = v;
        self.n += 1;
    }
}

/// One element-wise post-op fused into a sink chain ([`FusedSink`]).
///
/// These are the consumers that would otherwise run as separate
/// memory-bound passes over a materialised intermediate: `select` by
/// threshold and `spones`. Fusing them into the gather means the
/// intermediate row never leaves the accumulator's cache-resident slot.
#[derive(Clone, Copy, Debug)]
pub enum FusedOp<T> {
    /// Keep entries whose value satisfies `v >= threshold` (GraphBLAS
    /// `select` with `GrB_VALUEGE`) — the k-truss support filter.
    SelectGe(T),
    /// Replace every surviving value (`spones` re-canonicalisation).
    Fill(T),
}

impl<T: Copy + PartialOrd> FusedOp<T> {
    /// Filter/transform one entry; `None` drops it.
    #[inline(always)]
    fn apply(&self, v: T) -> Option<T> {
        match *self {
            FusedOp::SelectGe(t) => (v >= t).then_some(v),
            FusedOp::Fill(one) => Some(one),
        }
    }
}

/// A sink adapter applying a chain of [`FusedOp`]s to each pushed entry
/// before forwarding survivors to the inner sink. Ascending column order
/// is preserved (ops filter and map values; they never reorder), and no
/// op depends on the row, so one chain serves every row of a tile.
///
/// Counters are plain instance-local integers — the zero-cost metrics
/// contract (no atomics in sink code) holds; callers fold
/// [`fused_elements`](Self::fused_elements) into the global registry at
/// most once per tile.
pub struct FusedSink<'a, T, W: RowSink<T> + ?Sized> {
    ops: &'a [FusedOp<T>],
    inner: &'a mut W,
    fused: u64,
}

impl<'a, T: Copy + PartialOrd, W: RowSink<T> + ?Sized> FusedSink<'a, T, W> {
    /// Chain `ops` (applied in order) in front of `inner`.
    pub fn new(ops: &'a [FusedOp<T>], inner: &'a mut W) -> Self {
        FusedSink { ops, inner, fused: 0 }
    }

    /// Entries that passed through the op chain (pushed × ops), whether
    /// or not they survived — the `fusion.sink_fused_elements` quantity.
    pub fn fused_elements(&self) -> u64 {
        self.fused
    }
}

impl<T: Copy + PartialOrd, W: RowSink<T> + ?Sized> RowSink<T> for FusedSink<'_, T, W> {
    #[inline(always)]
    fn push(&mut self, j: Idx, mut v: T) {
        for op in self.ops {
            self.fused += 1;
            match op.apply(v) {
                Some(next) => v = next,
                None => return,
            }
        }
        self.inner.push(j, v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_sink_appends_pairs() {
        let (mut cols, mut vals) = (Vec::new(), Vec::new());
        {
            let mut sink = VecSink { cols: &mut cols, vals: &mut vals };
            sink.push(3, 1.5);
            sink.push(7, 2.5);
        }
        assert_eq!(cols, vec![3, 7]);
        assert_eq!(vals, vec![1.5, 2.5]);
    }

    #[test]
    fn slot_sink_writes_at_cursor_and_counts() {
        let mut cols = [0u32; 4];
        let mut vals = [0.0f64; 4];
        let mut sink = SlotSink::new(&mut cols, &mut vals);
        assert_eq!(sink.capacity(), 4);
        assert_eq!(sink.written(), 0);
        sink.push(9, 1.0);
        sink.push(11, 2.0);
        assert_eq!(sink.written(), 2);
        assert_eq!(&cols[..2], &[9, 11]);
        assert_eq!(&vals[..2], &[1.0, 2.0]);
        // slack beyond the cursor is untouched
        assert_eq!(cols[2], 0);
    }

    #[test]
    fn fused_select_then_fill_matches_select_spones() {
        // the k-truss chain: keep v >= 2, then re-canonicalise to ones
        let (mut cols, mut vals) = (Vec::new(), Vec::new());
        let ops = [FusedOp::SelectGe(2u64), FusedOp::Fill(1u64)];
        {
            let mut inner = VecSink { cols: &mut cols, vals: &mut vals };
            let mut sink = FusedSink::new(&ops, &mut inner);
            sink.push(1, 1);
            sink.push(4, 2);
            sink.push(9, 5);
            assert_eq!(sink.fused_elements(), 5); // 3 through select, 2 through fill
        }
        assert_eq!(cols, vec![4, 9]);
        assert_eq!(vals, vec![1, 1]);
    }

    #[test]
    fn empty_op_chain_is_a_transparent_passthrough() {
        let (mut cols, mut vals) = (Vec::new(), Vec::new());
        let ops: [FusedOp<f64>; 0] = [];
        {
            let mut inner = VecSink { cols: &mut cols, vals: &mut vals };
            let mut sink = FusedSink::new(&ops, &mut inner);
            sink.push(5, 2.5);
            assert_eq!(sink.fused_elements(), 0);
        }
        assert_eq!(cols, vec![5]);
        assert_eq!(vals, vec![2.5]);
    }

    #[test]
    fn slot_sink_overflow_panics_on_the_bounds_check() {
        let mut cols = [0u32; 1];
        let mut vals = [0.0f64; 1];
        let err = std::panic::catch_unwind(move || {
            let mut sink = SlotSink::new(&mut cols, &mut vals);
            sink.push(1, 1.0);
            sink.push(2, 2.0); // exceeds the mask bound
        });
        assert!(err.is_err(), "overflow must unwind, not write out of bounds");
    }

    #[test]
    fn slot_sink_overflow_message_names_row_and_nnz() {
        let mut cols = [0u32; 2];
        let mut vals = [0.0f64; 2];
        let err = std::panic::catch_unwind(move || {
            let mut sink = SlotSink::for_row(&mut cols, &mut vals, 41);
            sink.push(1, 1.0);
            sink.push(2, 2.0);
            sink.push(3, 3.0); // exceeds the mask bound
        })
        .expect_err("overflow must unwind");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(msg.contains("row 41"), "message lacks row index: {msg}");
        assert!(msg.contains("estimated nnz 2"), "message lacks estimate: {msg}");
        assert!(msg.contains(">= 3"), "message lacks actual nnz: {msg}");
    }
}
