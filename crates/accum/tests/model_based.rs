//! Model-based property testing of every accumulator implementation.
//!
//! A `HashMap`-backed reference model executes the same random operation
//! sequences as the real accumulators; after every operation the
//! observable state (`written`, `gather`) must agree. This catches epoch
//! aliasing, probe-chain, and reset bugs that fixed unit tests miss —
//! exactly the state machines §III-C of the paper is about.
//!
//! Runs under the in-tree `mspgemm_rt::testkit` harness with the same case
//! count the former proptest config used (48 per property).

use mspgemm_accum::{Accumulator, DenseAccumulator, DenseExplicitReset, HashAccumulator};
use mspgemm_rt::rng::Rng;
use mspgemm_rt::testkit::{check, vec_of, Strategy, TestRng};
use mspgemm_sparse::{Idx, PlusTimes};
use std::collections::HashMap;

const CASES: usize = 48;

/// One step of an accumulator workout.
#[derive(Clone, Debug)]
enum Op {
    BeginRow,
    SetMask(Idx),
    AccMasked(Idx, i32, i32),
    AccAny(Idx, i32, i32),
    CheckWritten(Idx),
}

const NCOLS: usize = 48;

/// Weighted generator of [`Op`] — same weights the proptest `prop_oneof!`
/// used (1 : 3 : 4 : 3 : 3).
#[derive(Clone, Copy, Debug)]
struct OpStrategy;

impl Strategy for OpStrategy {
    type Value = Op;

    fn generate(&self, rng: &mut TestRng) -> Op {
        let col = |rng: &mut TestRng| rng.gen_range(0..NCOLS as u32) as Idx;
        let val = |rng: &mut TestRng| rng.gen_range(1..10i32);
        match rng.gen_range(0..14u32) {
            0 => Op::BeginRow,
            1..=3 => Op::SetMask(col(rng)),
            4..=7 => {
                let j = col(rng);
                let (a, b) = (val(rng), val(rng));
                Op::AccMasked(j, a, b)
            }
            8..=10 => {
                let j = col(rng);
                let (a, b) = (val(rng), val(rng));
                Op::AccAny(j, a, b)
            }
            _ => Op::CheckWritten(col(rng)),
        }
    }

    fn shrink(&self, op: &Op) -> Vec<Op> {
        // shrink column/value payloads toward their minima; the containing
        // vec strategy handles dropping whole ops
        match *op {
            Op::BeginRow => Vec::new(),
            Op::SetMask(j) => (0..NCOLS as Idx).shrink(&j).into_iter().map(Op::SetMask).collect(),
            Op::AccMasked(j, a, b) => shrink_payload(j, a, b)
                .into_iter()
                .map(|(j, a, b)| Op::AccMasked(j, a, b))
                .collect(),
            Op::AccAny(j, a, b) => shrink_payload(j, a, b)
                .into_iter()
                .map(|(j, a, b)| Op::AccAny(j, a, b))
                .collect(),
            Op::CheckWritten(j) => {
                (0..NCOLS as Idx).shrink(&j).into_iter().map(Op::CheckWritten).collect()
            }
        }
    }
}

fn shrink_payload(j: Idx, a: i32, b: i32) -> Vec<(Idx, i32, i32)> {
    let mut out: Vec<(Idx, i32, i32)> =
        (0..NCOLS as Idx).shrink(&j).into_iter().map(|j2| (j2, a, b)).collect();
    out.extend((1..10i32).shrink(&a).into_iter().map(|a2| (j, a2, b)));
    out.extend((1..10i32).shrink(&b).into_iter().map(|b2| (j, a, b2)));
    out
}

/// Reference model of the Accumulator protocol for one row.
#[derive(Default)]
struct Model {
    mask: std::collections::HashSet<Idx>,
    written: HashMap<Idx, f64>,
}

impl Model {
    fn begin_row(&mut self) {
        self.mask.clear();
        self.written.clear();
    }
    fn set_mask(&mut self, j: Idx) {
        // "admit" is idempotent and never downgrades a written slot
        self.mask.insert(j);
    }
    fn acc_masked(&mut self, j: Idx, a: f64, b: f64) -> bool {
        if self.mask.contains(&j) || self.written.contains_key(&j) {
            *self.written.entry(j).or_insert(0.0) += a * b;
            true
        } else {
            false
        }
    }
    fn acc_any(&mut self, j: Idx, a: f64, b: f64) {
        *self.written.entry(j).or_insert(0.0) += a * b;
    }
    fn gather(&self, mask_cols: &[Idx]) -> Vec<(Idx, f64)> {
        mask_cols
            .iter()
            .filter_map(|j| self.written.get(j).map(|&v| (*j, v)))
            .collect()
    }
}

fn run_workout<A: Accumulator<PlusTimes>>(mut acc: A, ops: &[Op], rows: usize) {
    // repeat the op sequence across several rows so narrow markers overflow
    let mut model = Model::default();
    for _ in 0..rows {
        acc.begin_row();
        model.begin_row();
        for op in ops {
            match *op {
                Op::BeginRow => {
                    acc.begin_row();
                    model.begin_row();
                }
                Op::SetMask(j) => {
                    acc.set_mask(j);
                    model.set_mask(j);
                }
                Op::AccMasked(j, a, b) => {
                    let got = acc.accumulate_masked(j, a as f64, b as f64);
                    let want = model.acc_masked(j, a as f64, b as f64);
                    assert_eq!(got, want, "accumulate_masked({j}) hit mismatch");
                }
                Op::AccAny(j, a, b) => {
                    acc.accumulate_any(j, a as f64, b as f64);
                    model.acc_any(j, a as f64, b as f64);
                }
                Op::CheckWritten(j) => {
                    let got = acc.written(j);
                    let want = model.written.get(&j).copied();
                    assert_eq!(got, want, "written({j}) mismatch");
                }
            }
        }
        // final gather over a fixed sorted mask superset
        let all_cols: Vec<Idx> = (0..NCOLS as Idx).collect();
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        acc.gather(&all_cols, &mut cols, &mut vals);
        let want = model.gather(&all_cols);
        let got: Vec<(Idx, f64)> = cols.into_iter().zip(vals).collect();
        assert_eq!(got, want, "gather mismatch");
    }
}

#[test]
fn dense_u32_matches_model() {
    check("dense_u32_matches_model", CASES, vec_of(OpStrategy, 1..60), |ops| {
        run_workout(DenseAccumulator::<PlusTimes, u32>::new(NCOLS), &ops, 4);
    });
}

#[test]
fn dense_u8_matches_model_across_overflows() {
    // 200 rows forces several u8 epoch overflows mid-sequence
    check("dense_u8_matches_model_across_overflows", CASES, vec_of(OpStrategy, 1..40), |ops| {
        run_workout(DenseAccumulator::<PlusTimes, u8>::new(NCOLS), &ops, 200);
    });
}

#[test]
fn hash_u32_matches_model() {
    check("hash_u32_matches_model", CASES, vec_of(OpStrategy, 1..60), |ops| {
        run_workout(HashAccumulator::<PlusTimes, u32>::with_row_capacity(NCOLS), &ops, 4);
    });
}

#[test]
fn hash_u8_matches_model_across_overflows() {
    check("hash_u8_matches_model_across_overflows", CASES, vec_of(OpStrategy, 1..40), |ops| {
        run_workout(HashAccumulator::<PlusTimes, u8>::with_row_capacity(NCOLS), &ops, 200);
    });
}

#[test]
fn explicit_reset_matches_model() {
    check("explicit_reset_matches_model", CASES, vec_of(OpStrategy, 1..60), |ops| {
        run_workout(DenseExplicitReset::<PlusTimes>::new(NCOLS), &ops, 4);
    });
}
