//! The whole policy lattice against an independent reference.
//!
//! Every cell — tiling × schedule × iteration space × accumulator, at 2
//! threads and 7 tiles — runs every shipped semiring on a set of small
//! adversarial inputs, and must equal a naive reference
//! exactly. The reference is a per-row `BTreeMap` fold that shares no
//! code with the kernels, the accumulators or `Dense::masked_matmul`: it
//! reads the operands through `Csr::row` and combines values with the
//! `Semiring` ops alone. It folds each column's products in ascending `k`
//! (`mul` on first touch, then `fma`), the order every kernel promises,
//! so exact equality is the right bar even for `PlusTimes` over
//! non-integer values, whose sums change with the fold order.
//!
//! Under `MSPGEMM_FAILPOINTS='tile-kernel=panic@key:3'` tile 3 of every
//! product panics, so each cell's degraded retry is checked against the
//! same reference; the suite then insists that the retry really ran.

use std::collections::BTreeMap;

use masked_spgemm_repro::prelude::*;
use masked_spgemm_repro::sparse::{Idx, MaxMin};
use mspgemm_rt::failpoint;
use mspgemm_rt::rng::{ChaCha8Rng, Rng};

/// `C = M ⊙ (A·B)`, one row at a time: fold `A[i,k] ⊗ B[k,j]` into a
/// `BTreeMap` keyed by `j` in ascending `k`, then emit the mask's columns
/// that were written.
fn reference<S: Semiring>(a: &Csr<S::T>, b: &Csr<S::T>, mask: &Csr<S::T>) -> Csr<S::T> {
    let mut row_ptr = vec![0];
    let (mut cols, mut vals) = (Vec::new(), Vec::new());
    for i in 0..mask.nrows() {
        let mut row: BTreeMap<Idx, S::T> = BTreeMap::new();
        let (a_cols, a_vals) = a.row(i);
        for (&k, &av) in a_cols.iter().zip(a_vals) {
            let (b_cols, b_vals) = b.row(k as usize);
            for (&j, &bv) in b_cols.iter().zip(b_vals) {
                row.entry(j)
                    .and_modify(|acc| *acc = S::fma(*acc, av, bv))
                    .or_insert_with(|| S::mul(av, bv));
            }
        }
        for &j in mask.row(i).0 {
            if let Some(&v) = row.get(&j) {
                cols.push(j);
                vals.push(v);
            }
        }
        row_ptr.push(cols.len());
    }
    Csr::try_from_parts(mask.nrows(), mask.ncols(), row_ptr, cols, vals).unwrap()
}

/// Draws operand values for one semiring.
trait Values: Semiring {
    fn draw(rng: &mut ChaCha8Rng) -> Self::T;
}

impl Values for PlusTimes {
    /// Non-integer, so any change of fold order shows in the sums.
    fn draw(rng: &mut ChaCha8Rng) -> f64 {
        rng.gen_range(0.0..1.0)
    }
}

impl Values for BoolOrAnd {
    fn draw(rng: &mut ChaCha8Rng) -> bool {
        rng.gen_range(0..4u32) != 0
    }
}

impl Values for MinPlus {
    fn draw(rng: &mut ChaCha8Rng) -> u64 {
        rng.gen_range(0..1000u64)
    }
}

impl Values for MaxMin {
    fn draw(rng: &mut ChaCha8Rng) -> u64 {
        rng.gen_range(0..1000u64)
    }
}

impl Values for PlusPair {
    fn draw(rng: &mut ChaCha8Rng) -> u64 {
        rng.gen_range(1..10u64)
    }
}

/// An input's sparsity structure; values are drawn per semiring.
struct Shape {
    name: &'static str,
    dims: (usize, usize, usize),
    a: Vec<(usize, usize)>,
    b: Vec<(usize, usize)>,
    mask: Vec<(usize, usize)>,
}

fn random_pattern(
    rng: &mut ChaCha8Rng,
    rows: usize,
    cols: usize,
    per_row: usize,
) -> Vec<(usize, usize)> {
    let mut pattern = Vec::with_capacity(rows * per_row);
    for i in 0..rows {
        for _ in 0..per_row {
            pattern.push((i, rng.gen_range(0..cols)));
        }
    }
    pattern
}

fn shapes() -> Vec<Shape> {
    let mut rng = ChaCha8Rng::seed_from_u64(0x1a771ce);
    let mut square = |name, n: usize, per_row: (usize, usize, usize)| {
        let a = random_pattern(&mut rng, n, n, per_row.0);
        let b = random_pattern(&mut rng, n, n, per_row.1);
        let mask = random_pattern(&mut rng, n, n, per_row.2);
        Shape { name, dims: (n, n, n), a, b, mask }
    };
    let mut empty_rows = square("rows empty in A and M", 60, (4, 4, 6));
    empty_rows.a.retain(|&(i, _)| i % 5 != 0);
    empty_rows.mask.retain(|&(i, _)| i % 7 != 0);
    let empty_mask = square("all-empty mask", 60, (4, 4, 0));
    let dense_mask = square("mask denser than the product", 40, (2, 2, 30));
    // one row full in A, B and M: it alone sets the hash tables' hard
    // bound, and every column of that output row collects a product from
    // each k
    let mut fat = square("one fat row", 96, (3, 3, 3));
    for j in 0..96 {
        fat.a.push((5, j));
        fat.b.push((5, j));
        fat.mask.push((5, j));
    }
    // 1,100 rows: split over two workers, each worker's 8-bit markers
    // (255 rows per epoch cycle) wrap at least twice
    let wrap = square("marker wrap", 1100, (2, 2, 3));
    let (m, k, n) = (30, 50, 40);
    let rectangular = Shape {
        name: "rectangular",
        dims: (m, k, n),
        a: random_pattern(&mut rng, m, k, 4),
        b: random_pattern(&mut rng, k, n, 3),
        mask: random_pattern(&mut rng, m, n, 8),
    };
    vec![empty_rows, empty_mask, dense_mask, fat, wrap, rectangular]
}

fn matrix<S: Values>(
    rng: &mut ChaCha8Rng,
    rows: usize,
    cols: usize,
    pattern: &[(usize, usize)],
) -> Csr<S::T> {
    let mut coo = Coo::new(rows, cols);
    for &(i, j) in pattern {
        coo.push(i, j, S::draw(rng));
    }
    coo.to_csr_with(|first, _| first)
}

/// Every cell of the lattice at 2 threads and 7 tiles: 2 tilings × 2
/// schedules × 4 iteration spaces × 8 accumulators = 128.
fn cells() -> Vec<Config> {
    let mut cells = Vec::new();
    for tiling in TilingStrategy::all() {
        for schedule in Schedule::all() {
            for iteration in [
                IterationSpace::Vanilla,
                IterationSpace::MaskAccumulate,
                IterationSpace::CoIterate,
                IterationSpace::Hybrid { kappa: 1.0 },
            ] {
                for accumulator in AccumulatorKind::all() {
                    let kernel = KernelPolicy::new().iteration(iteration).accumulator(accumulator);
                    cells.push(
                        Config::builder()
                            .n_threads(2)
                            .n_tiles(7)
                            .tiling(tiling)
                            .schedule(schedule)
                            .kernel_policy(kernel)
                            .build(),
                    );
                }
            }
        }
    }
    cells
}

/// Run every cell on every input over `S`; panic naming how many cells
/// differ from the reference, and the first few.
fn sweep<S: Values>(seed: u64) {
    let cells = cells();
    assert_eq!(cells.len(), 128, "the lattice has 128 cells");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut failures = Vec::new();
    let mut retried = 0;
    for shape in shapes() {
        let (m, k, n) = shape.dims;
        let a = matrix::<S>(&mut rng, m, k, &shape.a);
        let b = matrix::<S>(&mut rng, k, n, &shape.b);
        let mask = matrix::<S>(&mut rng, m, n, &shape.mask);
        let want = reference::<S>(&a, &b, &mask);
        for cfg in &cells {
            let (got, stats) = spgemm::<S>(&a, &b, &mask, cfg).unwrap();
            retried += stats.retried_tiles;
            if got != want {
                failures.push(format!("{} / {}", shape.name, cfg.label()));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{}: {} cell(s) differ from the reference, e.g. {:?}",
        S::NAME,
        failures.len(),
        &failures[..failures.len().min(8)]
    );
    if failpoint::armed() {
        assert!(retried >= 1, "{}: failpoints are armed but no tile was retried", S::NAME);
    }
}

#[test]
fn plus_times_matches_the_reference_in_every_cell() {
    sweep::<PlusTimes>(1);
}

#[test]
fn bool_or_and_matches_the_reference_in_every_cell() {
    sweep::<BoolOrAnd>(2);
}

#[test]
fn min_plus_matches_the_reference_in_every_cell() {
    sweep::<MinPlus>(3);
}

#[test]
fn max_min_matches_the_reference_in_every_cell() {
    sweep::<MaxMin>(4);
}

#[test]
fn plus_pair_matches_the_reference_in_every_cell() {
    sweep::<PlusPair>(5);
}
