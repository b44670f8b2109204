//! The hash accumulator (§III-C).
//!
//! An open-addressing (linear probing) table whose capacity is derived from
//! `max_i nnz(M[i,:])` — the paper's sizing choice: "with masking, we can
//! have at most `max_i nnz(M[i,:])` output nonzeros", tighter than the
//! operation-count bound GrB and SuiteSparse:GraphBLAS use. "The hash
//! accumulator is often more space efficient when the dimensions are large,
//! which can increase cache locality."
//!
//! Slots carry the same epoch markers as the dense accumulator, so between-
//! row resets are O(1) and narrow markers trade locality against periodic
//! full clears (Fig. 13 applies to both families).

use crate::marker::{advance_epoch, Marker};
use crate::Accumulator;
use mspgemm_rt::{failpoint, obs};
use mspgemm_sparse::{Idx, Semiring};

/// Fibonacci multiplicative hash of a column index into `cap` buckets:
/// the **top** `log2(cap)` bits of the 32-bit product, selected by a
/// capacity-derived right shift. (A fixed `>> 16` shift kept only bits
/// 16..32 of the product: for capacities above 2^16 the initial probe
/// could never reach the upper slots, and for small capacities it threw
/// away the best-mixed high bits.)
#[inline(always)]
fn bucket_of(j: Idx, hash_shift: u32, cap_mask: usize) -> usize {
    // 2^32 / φ rounded to odd — the classic Fibonacci constant
    (j.wrapping_mul(2_654_435_769) >> hash_shift) as usize & cap_mask
}

/// Hash-table accumulator with `M`-typed epoch markers.
///
/// `METER` selects the observability instantiation at compile time. A
/// probe is a handful of ns, so even a well-predicted `if armed` branch
/// per slot is measurable there; the default `false` build therefore
/// carries no counting code at all, and the driver swaps in the `true`
/// instantiation only when metrics are armed.
pub struct HashAccumulator<S: Semiring, M: Marker, const METER: bool = false> {
    keys: Vec<Idx>,
    vals: Vec<S::T>,
    marks: Vec<M>,
    cap_mask: usize,
    /// `32 - log2(capacity)`: selects the top bits of the 32-bit hash.
    hash_shift: u32,
    cur: u64,
    full_resets: u64,
    /// Distinct keys this row may claim before the table reports overflow
    /// — the `max_row_entries` the constructor was sized with. Inserting
    /// past it would break the ≤ 50 % load factor that guarantees probe
    /// termination, so the insert paths drop the update and latch
    /// [`Accumulator::take_overflow`] instead; the driver then recomputes
    /// the row's tile through its degraded retry.
    limit: usize,
    /// Distinct keys claimed since [`Accumulator::begin_row`].
    inserted: usize,
    /// Latched when an insert was refused this row (see `limit`).
    overflowed: bool,
    /// Plain (non-atomic) observability scratch, only ever touched by the
    /// `METER = true` instantiation and folded into the global registry by
    /// [`Accumulator::flush_metrics`]; never atomic traffic. Boxed so the
    /// unmetered accumulator stays as small as the uninstrumented one.
    scratch: Box<ObsScratch>,
}

/// Instance-local observability scratch for [`HashAccumulator`].
#[derive(Default)]
struct ObsScratch {
    probe_hist: obs::LocalHist,
    probes: u64,
    probe_steps: u64,
    mask_hits: u64,
    mask_misses: u64,
    unflushed_resets: u64,
}

impl<S: Semiring, M: Marker, const METER: bool> HashAccumulator<S, M, METER> {
    /// Create an accumulator able to hold `max_row_entries` distinct
    /// columns per row. Capacity is the next power of two at ≤ 50 % load;
    /// a row that tries to claim more distinct columns than requested
    /// latches [`Accumulator::take_overflow`] instead of degrading the
    /// load factor.
    ///
    /// For mask-preload kernels pass the hard bound `max_i nnz(M[i,:])`;
    /// for the vanilla kernel pass an upper bound on distinct intermediate
    /// columns (`min(ncols, max_i Σ_{A[i,k]≠0} nnz(B[k,:]))`).
    pub fn with_row_capacity(max_row_entries: usize) -> Self {
        let limit = max_row_entries.max(1);
        let cap = (limit * 2).next_power_of_two();
        HashAccumulator {
            keys: vec![0; cap],
            vals: vec![S::zero(); cap],
            marks: vec![M::default(); cap],
            cap_mask: cap - 1,
            hash_shift: (Idx::BITS).saturating_sub(cap.trailing_zeros()),
            cur: 0,
            full_resets: 0,
            limit,
            inserted: 0,
            overflowed: false,
            scratch: Box::default(),
        }
    }

    /// Table capacity (power of two).
    pub fn capacity(&self) -> usize {
        self.keys.len()
    }

    /// Initial bucket for key `j` (exposed for distribution tests).
    #[inline]
    pub fn initial_bucket(&self, j: Idx) -> usize {
        bucket_of(j, self.hash_shift, self.cap_mask)
    }

    /// The probe-length distribution recorded since the last
    /// [`Accumulator::flush_metrics`] (power-of-two buckets; a probe that
    /// inspects one slot lands in bucket 1).
    pub fn probe_length_buckets(&self) -> &[u64; obs::HIST_BUCKETS] {
        &self.scratch.probe_hist.buckets
    }

    /// Find the slot holding `j` this row, or the first stale slot where it
    /// would be inserted. Returns `(slot, found, slots_inspected)`; the
    /// step count is only maintained when metered (or in debug builds,
    /// where the overfill assertion needs it) — otherwise the counting
    /// compiles out and the loop is the uninstrumented baseline.
    #[inline(always)]
    fn probe(&self, j: Idx) -> (usize, bool, u64) {
        let fresh_mask = M::from_epoch(self.cur);
        let fresh_written = M::from_epoch(self.cur + 1);
        let mut s = bucket_of(j, self.hash_shift, self.cap_mask);
        let mut steps = 0u64;
        loop {
            if METER || cfg!(debug_assertions) {
                steps += 1;
                debug_assert!(
                    steps as usize <= self.keys.len(),
                    "hash accumulator overfilled: capacity {} too small for this row \
                     (size with the vanilla kernel's distinct-column bound)",
                    self.keys.len()
                );
            }
            // Keep this branchy: on a miss-heavy masked workload the
            // stale exit means only the marks array is ever touched (the
            // keys load sits behind the `fresh` branch), which is what
            // keeps big near-empty tables cheap to probe. Folding the two
            // checks branchlessly forces the keys load on every probe and
            // doubles the cache traffic. A table sized at the hard bound
            // runs at a low load factor on typical rows, so `fresh` is
            // rarely taken and predicts well.
            let mark = self.marks[s];
            let fresh = mark == fresh_mask || mark == fresh_written;
            if fresh {
                if self.keys[s] == j {
                    return (s, true, steps);
                }
            } else {
                // stale slot: an insertion of j this row would have claimed
                // it, so j is absent; it is also the insertion point
                return (s, false, steps);
            }
            s = (s + 1) & self.cap_mask;
        }
    }

    /// Probe and, when metrics are armed, note the probe length in the
    /// instance-local scratch.
    #[inline(always)]
    fn probe_noted(&mut self, j: Idx) -> (usize, bool) {
        let (s, found, steps) = self.probe(j);
        if METER {
            self.scratch.probes += 1;
            self.scratch.probe_steps += steps;
            self.scratch.probe_hist.record(steps);
        }
        (s, found)
    }
}

impl<S: Semiring, M: Marker, const METER: bool> Accumulator<S> for HashAccumulator<S, M, METER> {
    #[inline]
    fn begin_row(&mut self) {
        failpoint::maybe_fire(failpoint::ACCUM_RESET, self.cur);
        let (next, overflow) = advance_epoch::<M>(self.cur);
        if overflow {
            self.marks.fill(M::default());
            self.full_resets += 1;
            if METER {
                self.scratch.unflushed_resets += 1;
            }
        }
        self.cur = next;
        self.inserted = 0;
        self.overflowed = false;
    }

    #[inline(always)]
    fn set_mask(&mut self, j: Idx) {
        let (s, found) = self.probe_noted(j);
        if !found {
            if self.inserted == self.limit {
                self.overflowed = true;
                return;
            }
            self.inserted += 1;
            self.keys[s] = j;
            self.marks[s] = M::from_epoch(self.cur);
        }
        // re-inserting an existing key leaves its state unchanged
    }

    #[inline(always)]
    fn accumulate_masked(&mut self, j: Idx, a: S::T, b: S::T) -> bool {
        let (s, found) = self.probe_noted(j);
        if !found {
            if METER {
                self.scratch.mask_misses += 1;
            }
            return false;
        }
        if METER {
            self.scratch.mask_hits += 1;
        }
        if self.marks[s] == M::from_epoch(self.cur + 1) {
            self.vals[s] = S::fma(self.vals[s], a, b);
        } else {
            self.marks[s] = M::from_epoch(self.cur + 1);
            self.vals[s] = S::mul(a, b);
        }
        true
    }

    #[inline(always)]
    fn accumulate_any(&mut self, j: Idx, a: S::T, b: S::T) {
        let (s, found) = self.probe_noted(j);
        if found && self.marks[s] == M::from_epoch(self.cur + 1) {
            self.vals[s] = S::fma(self.vals[s], a, b);
        } else {
            if !found {
                if self.inserted == self.limit {
                    self.overflowed = true;
                    return;
                }
                self.inserted += 1;
            }
            debug_assert!(
                found || self.marks[s] != M::from_epoch(self.cur + 1),
                "claiming a written slot"
            );
            self.keys[s] = j;
            self.marks[s] = M::from_epoch(self.cur + 1);
            self.vals[s] = S::mul(a, b);
        }
    }

    #[inline(always)]
    fn written(&self, j: Idx) -> Option<S::T> {
        let (s, found, _) = self.probe(j);
        if found && self.marks[s] == M::from_epoch(self.cur + 1) {
            Some(self.vals[s])
        } else {
            None
        }
    }

    fn gather_into<W: crate::RowSink<S::T> + ?Sized>(&mut self, mask_cols: &[Idx], out: &mut W) {
        for &j in mask_cols {
            let (s, found) = self.probe_noted(j);
            if found && self.marks[s] == M::from_epoch(self.cur + 1) {
                out.push(j, self.vals[s]);
            }
        }
    }

    fn full_resets(&self) -> u64 {
        self.full_resets
    }

    #[inline]
    fn take_overflow(&mut self) -> bool {
        std::mem::take(&mut self.overflowed)
    }

    fn flush_metrics(&mut self) {
        if METER {
            let s = &mut *self.scratch;
            obs::add(obs::Counter::AccumHashProbes, s.probes);
            obs::add(obs::Counter::AccumHashProbeSteps, s.probe_steps);
            obs::add(obs::Counter::AccumMaskHits, s.mask_hits);
            obs::add(obs::Counter::AccumMaskMisses, s.mask_misses);
            obs::add(obs::Counter::AccumHashFullResets, s.unflushed_resets);
            s.probe_hist.flush_into(obs::Hist::HashProbeLen);
            s.probes = 0;
            s.probe_steps = 0;
            s.mask_hits = 0;
            s.mask_misses = 0;
            s.unflushed_resets = 0;
        }
    }

    fn state_bytes(&self) -> usize {
        self.keys.len()
            * (std::mem::size_of::<Idx>()
                + std::mem::size_of::<S::T>()
                + std::mem::size_of::<M>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mspgemm_sparse::PlusTimes;

    type Acc = HashAccumulator<PlusTimes, u32>;

    #[test]
    fn capacity_is_power_of_two_at_half_load() {
        let acc = Acc::with_row_capacity(100);
        assert_eq!(acc.capacity(), 256);
        let acc = Acc::with_row_capacity(0);
        assert!(acc.capacity() >= 2);
    }

    #[test]
    fn masked_accumulation_respects_mask() {
        let mut acc = Acc::with_row_capacity(8);
        acc.begin_row();
        acc.set_mask(200);
        acc.set_mask(5_000_000);
        assert!(acc.accumulate_masked(200, 3.0, 4.0));
        assert!(acc.accumulate_masked(200, 1.0, 1.0));
        assert!(!acc.accumulate_masked(3, 9.0, 9.0));
        assert_eq!(acc.written(200), Some(13.0));
        assert_eq!(acc.written(5_000_000), None);
    }

    #[test]
    fn rows_are_isolated_by_epoch() {
        let mut acc = Acc::with_row_capacity(8);
        acc.begin_row();
        acc.set_mask(7);
        acc.accumulate_masked(7, 2.0, 2.0);
        acc.begin_row();
        assert_eq!(acc.written(7), None);
        assert!(!acc.accumulate_masked(7, 1.0, 1.0));
    }

    #[test]
    fn colliding_keys_coexist() {
        // keys j and j + cap collide under any mask-based bucketing of
        // Fibonacci hashing only sometimes; force collisions by filling
        // more than half of a tiny table's buckets
        let mut acc = Acc::with_row_capacity(4); // cap = 8
        acc.begin_row();
        let keys = [0u32, 8, 16, 24]; // likely same/nearby buckets
        for &k in &keys {
            acc.set_mask(k);
        }
        for (n, &k) in keys.iter().enumerate() {
            assert!(acc.accumulate_masked(k, n as f64 + 1.0, 1.0), "key {k}");
        }
        for (n, &k) in keys.iter().enumerate() {
            assert_eq!(acc.written(k), Some(n as f64 + 1.0), "key {k}");
        }
    }

    #[test]
    fn gather_in_mask_order() {
        let mut acc = Acc::with_row_capacity(8);
        acc.begin_row();
        for j in [3, 9, 27] {
            acc.set_mask(j);
        }
        acc.accumulate_masked(27, 1.0, 2.0);
        acc.accumulate_masked(3, 1.0, 1.0);
        let (mut cols, mut vals) = (Vec::new(), Vec::new());
        acc.gather(&[3, 9, 27], &mut cols, &mut vals);
        assert_eq!(cols, vec![3, 27]);
        assert_eq!(vals, vec![1.0, 2.0]);
    }

    #[test]
    fn accumulate_any_inserts_new_keys() {
        let mut acc = Acc::with_row_capacity(8);
        acc.begin_row();
        acc.accumulate_any(42, 2.0, 3.0);
        acc.accumulate_any(42, 1.0, 4.0);
        assert_eq!(acc.written(42), Some(10.0));
    }

    #[test]
    fn u8_marker_overflow_resets_transparently() {
        let mut acc: HashAccumulator<PlusTimes, u8> = HashAccumulator::with_row_capacity(4);
        for row in 0..500u64 {
            acc.begin_row();
            acc.set_mask(1);
            acc.accumulate_masked(1, row as f64, 1.0);
            assert_eq!(acc.written(1), Some(row as f64));
            assert_eq!(acc.written(2), None);
        }
        assert!(acc.full_resets() > 2);
    }

    #[test]
    fn initial_buckets_reach_the_whole_table() {
        // regression for the fixed `>> 16` shift: with capacity 2^17 the
        // 32-bit Fibonacci product shifted right by 16 is < 2^16, so no
        // key could ever *start* probing in the upper half of the table
        let acc = Acc::with_row_capacity(1 << 16); // cap = 2^17
        let cap = acc.capacity();
        assert_eq!(cap, 1 << 17);
        let half = cap / 2;
        let upper = (0..cap as u32).filter(|&j| acc.initial_bucket(j) >= half).count();
        // Fibonacci hashing is close to uniform: expect ~50 % upper-half
        assert!(
            upper > cap * 4 / 10 && upper < cap * 6 / 10,
            "upper-half initial buckets: {upper}/{cap}"
        );
        // and small tables still use the well-mixed top bits
        let small = Acc::with_row_capacity(4); // cap 8
        let distinct: std::collections::BTreeSet<usize> =
            (0..64u32).map(|j| small.initial_bucket(j)).collect();
        assert_eq!(distinct.len(), 8, "all 8 buckets reachable");
    }

    #[test]
    fn probe_lengths_stay_short_at_half_load() {
        // distribution regression via the probe-length histogram: insert a
        // half-load of spread-out keys and require the bulk of probes to
        // finish in one or two slots — the fixed-shift bug funneled every
        // key of a large table into the low half and exploded probe chains
        // the metered instantiation records probe lengths without arming
        // the global registry
        let mut acc: HashAccumulator<PlusTimes, u32, true> =
            HashAccumulator::with_row_capacity(1 << 12); // cap = 2^13
        acc.begin_row();
        for i in 0..(1 << 12) as u64 {
            // well-mixed deterministic keys (splitmix-style multiply)
            let key = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as u32;
            acc.accumulate_any(key, 1.0, 1.0);
        }
        let h = *acc.probe_length_buckets();
        let total: u64 = h.iter().sum();
        assert_eq!(total, 1 << 12);
        // mean probe length stays near the half-load linear-probing ideal
        // (~1.5); the fixed-shift bug produced long clustered chains
        assert!(
            acc.scratch.probe_steps * 2 <= total * 5,
            "mean probe length {} over {total} probes, histogram {h:?}",
            acc.scratch.probe_steps as f64 / total as f64
        );
        // and the tail is bounded: no probe walked 32+ slots
        // (buckets 6.. cover lengths ≥ 32)
        let long: u64 = h[6..].iter().sum();
        assert_eq!(long, 0, "probes ≥ 32 slots: {long}, histogram {h:?}");
    }

    #[test]
    fn probe_metrics_accumulate_and_flush() {
        // metered instantiation: records without arming globally
        let mut acc: HashAccumulator<PlusTimes, u32, true> =
            HashAccumulator::with_row_capacity(8);
        acc.begin_row();
        acc.set_mask(3);
        acc.accumulate_masked(3, 1.0, 1.0);
        acc.accumulate_masked(4, 1.0, 1.0); // miss
        assert_eq!(acc.scratch.probes, 3);
        assert_eq!(acc.scratch.mask_hits, 1);
        assert_eq!(acc.scratch.mask_misses, 1);
        assert!(acc.scratch.probe_steps >= 3);
        assert_eq!(acc.probe_length_buckets().iter().sum::<u64>(), 3);
        acc.flush_metrics(); // unarmed: must still clear the scratch
        assert_eq!(acc.scratch.probes, 0);
        assert_eq!(acc.scratch.probe_steps, 0);
        assert_eq!(acc.scratch.mask_hits + acc.scratch.mask_misses, 0);
        assert_eq!(acc.probe_length_buckets().iter().sum::<u64>(), 0);
    }

    #[test]
    fn marker_boundary_cycles_stay_isolated_for_every_width() {
        // drive ≥ 2 full overflow-reset cycles per width by pinning the
        // epoch just below the boundary, exercising the exact rows where
        // `cur + 1` equals MAX_EPOCH and where the reset lands
        fn cycle<M: Marker>() {
            let mut acc: HashAccumulator<PlusTimes, M> = HashAccumulator::with_row_capacity(8);
            for cycle in 0..2 {
                // place the next begin_row at MAX-3, the one after at the
                // boundary row (cur = MAX-1, written epoch = MAX)
                acc.cur = M::MAX_EPOCH - 5;
                let resets_before = acc.full_resets();
                for row in 0..4u64 {
                    acc.begin_row();
                    acc.set_mask(9);
                    acc.set_mask(17);
                    assert!(acc.accumulate_masked(9, row as f64 + 1.0, 2.0));
                    assert_eq!(acc.written(9), Some((row as f64 + 1.0) * 2.0));
                    // key 17 is in-mask but unwritten; key 1 is out-of-mask
                    assert_eq!(acc.written(17), None, "cycle {cycle} row {row}");
                    assert!(!acc.accumulate_masked(1, 1.0, 1.0));
                }
                // rows at epochs MAX-3, MAX-1, then reset → 2, 4
                assert_eq!(acc.full_resets(), resets_before + 1, "{} bits", M::BITS);
                assert_eq!(acc.cur, 4, "{} bits", M::BITS);
            }
            assert_eq!(acc.full_resets(), 2);
        }
        cycle::<u8>();
        cycle::<u16>();
        cycle::<u32>();
        cycle::<u64>();
    }

    #[test]
    fn stale_entries_reusable_after_epoch_bump() {
        // fill row 1 to the insertion limit, then verify row 2 can insert
        // again (stale slots must be treated as free)
        let mut acc = Acc::with_row_capacity(4); // cap 8
        acc.begin_row();
        for j in 0..4u32 {
            acc.accumulate_any(j, 1.0, 1.0);
        }
        acc.begin_row();
        for j in 100..104u32 {
            acc.set_mask(j);
            assert!(acc.accumulate_masked(j, 1.0, j as f64));
        }
        for j in 100..104u32 {
            assert_eq!(acc.written(j), Some(j as f64));
        }
    }

    #[test]
    fn overflow_latches_once_and_resets_per_row() {
        let mut acc = Acc::with_row_capacity(4); // limit 4, cap 8
        acc.begin_row();
        for j in 0..4u32 {
            acc.accumulate_any(j, 1.0, 1.0);
        }
        assert!(!acc.take_overflow(), "at the limit is not over it");
        // the fifth distinct key is refused, not inserted
        acc.accumulate_any(99, 1.0, 1.0);
        assert_eq!(acc.written(99), None);
        // but updates to already-claimed keys still land
        acc.accumulate_any(0, 1.0, 1.0);
        assert_eq!(acc.written(0), Some(2.0));
        assert!(acc.take_overflow());
        assert!(!acc.take_overflow(), "take clears the latch");
        // a fresh row starts clean
        acc.begin_row();
        acc.accumulate_any(7, 1.0, 1.0);
        assert!(!acc.take_overflow());
    }

    #[test]
    fn set_mask_overflow_latches_too() {
        let mut acc = Acc::with_row_capacity(2); // limit 2, cap 4
        acc.begin_row();
        for j in [10u32, 20, 30] {
            acc.set_mask(j);
        }
        // the refused key behaves as out-of-mask
        assert!(!acc.accumulate_masked(30, 1.0, 1.0));
        assert!(acc.accumulate_masked(10, 1.0, 1.0));
        assert!(acc.take_overflow());
    }
}
