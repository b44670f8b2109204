//! Measurement-free configuration prediction — the paper's closing future
//! work ("build models which can intelligently tune the parameters at
//! execution time, rather than offline for the average case", §VII).
//!
//! Where [`crate::tuner`] *measures* its way through Fig. 12's flow, this
//! module *predicts* a configuration in one `O(nnz)` pass from the same
//! quantities the paper's analysis identifies as causal:
//!
//! * work skew (Eq. 2 per-row estimates) → tile count;
//! * mask density vs matrix width → accumulator family (§III-C);
//! * mask-row-to-B-row size ratio → whether co-iteration can pay (Eq. 3);
//! * the unconditional findings → FLOP-balanced tiling + dynamic
//!   scheduling (§V-A observations 1 and 4), κ = 1 (§V-B), 32-bit markers
//!   (§V-C).
//!
//! The integration tests check that the predicted configuration computes
//! the correct product on every graph class, against the dense oracle.
//! EXPERIMENTS.md ("`predict_config` against the default configuration")
//! compares its speed with the default configuration at two threads;
//! nothing compares it with the measuring tuner's pick.

use crate::config::{resolve_threads, Config, IterationSpace, KernelPolicy};
use mspgemm_accum::{AccumulatorKind, MarkerWidth};
use mspgemm_sched::{row_work, Schedule, TilingStrategy};
use mspgemm_sparse::{Csr, Semiring};

/// A predicted configuration plus the reasoning trail (one line per
/// decision, suitable for logging).
#[derive(Clone, Debug)]
pub struct Prediction {
    /// The configuration to run with.
    pub config: Config,
    /// Human-readable justification of each field.
    pub reasons: Vec<String>,
}

/// Predict a near-optimal [`Config`] for `C = M ⊙ (A × B)` without running
/// the kernel.
pub fn predict_config<S: Semiring>(
    a: &Csr<S::T>,
    b: &Csr<S::T>,
    mask: &Csr<S::T>,
    n_threads: usize,
) -> Prediction {
    let p = resolve_threads(n_threads);
    let mut reasons = Vec::new();

    // --- work distribution (Eq. 2) ---
    let work = row_work(a, b, mask);
    let total: u64 = work.iter().sum();
    let nrows = a.nrows().max(1);
    let mean = total as f64 / nrows as f64;
    let var = work
        .iter()
        .map(|&w| {
            let d = w as f64 - mean;
            d * d
        })
        .sum::<f64>()
        / nrows as f64;
    let cv = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };

    // --- tile count: enough tiles that the heaviest row cannot stall a
    // thread; scale with skew, stay in the paper's intermediate regime ---
    let skew_factor = (1.0 + cv).min(16.0);
    let n_tiles = ((32.0 * p as f64 * skew_factor) as usize)
        .clamp(p, 4096)
        .min(nrows);
    reasons.push(format!(
        "tiles = {n_tiles}: work CV {cv:.2} → {skew_factor:.1}x the 32p baseline, \
         clamped to the paper's intermediate regime"
    ));
    reasons.push("tiling = FlopBalanced: balanced never loses to uniform (§V-A obs. 1)".into());
    reasons.push("schedule = Dynamic: absorbs residual imbalance (§V-A obs. 4)".into());

    // --- accumulator family: the §III-C trade-off ---
    let ncols = b.ncols().max(1);
    let mean_mask_row = mask.nnz() as f64 / mask.nrows().max(1) as f64;
    let accumulator = if mean_mask_row * 256.0 >= ncols as f64 {
        reasons.push(format!(
            "accumulator = dense32: mask density {mean_mask_row:.1}/{ncols} high enough \
             for dense-state locality; 32-bit markers are the Fig. 13 sweet spot"
        ));
        AccumulatorKind::Dense(MarkerWidth::W32)
    } else {
        reasons.push(format!(
            "accumulator = hash32: mask rows ({mean_mask_row:.1}) tiny relative to \
             width {ncols}; hash state stays cache-resident"
        ));
        AccumulatorKind::Hash(MarkerWidth::W32)
    };

    // --- iteration space: κ = 1 hybrid unless co-iteration *cannot* pay,
    // i.e. every B row is already short relative to the mask rows ---
    let max_b_row = (0..b.nrows()).map(|k| b.row_nnz(k)).max().unwrap_or(0);
    let iteration = if max_b_row <= 8 {
        reasons.push(format!(
            "iteration = mask-accumulate: max nnz(B[k,:]) = {max_b_row}, binary search \
             can never beat a ≤8-element linear scan (Eq. 3)"
        ));
        IterationSpace::MaskAccumulate
    } else {
        reasons.push("iteration = hybrid κ=1: Eq. 3 estimate needs no scaling (§V-B)".into());
        IterationSpace::Hybrid { kappa: 1.0 }
    };

    Prediction {
        config: Config {
            n_threads: p,
            n_tiles,
            tiling: TilingStrategy::FlopBalanced,
            schedule: Schedule::Dynamic,
            kernel: KernelPolicy::new().accumulator(accumulator).iteration(iteration),
        },
        reasons,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mspgemm_sparse::{Coo, Csr, PlusTimes};

    fn banded(n: usize, half: usize) -> Csr<f64> {
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            for d in 1..=half {
                if i + d < n {
                    coo.push_symmetric(i, i + d, 1.0);
                }
            }
        }
        coo.to_csr_sum()
    }

    fn star_plus_ring(n: usize) -> Csr<f64> {
        let mut coo = Coo::new(n, n);
        for v in 1..n {
            coo.push_symmetric(0, v, 1.0); // hub: extreme skew
            coo.push_symmetric(v, (v % (n - 1)) + 1, 1.0);
        }
        coo.to_csr_with(|a, _| a)
    }

    #[test]
    fn predicts_paper_constants_for_regular_graphs() {
        let a = banded(1000, 3);
        let pred = predict_config::<PlusTimes>(&a, &a, &a, 4);
        assert_eq!(pred.config.tiling, TilingStrategy::FlopBalanced);
        assert_eq!(pred.config.schedule, Schedule::Dynamic);
        // regular graph: short B rows → linear scan always wins
        assert_eq!(pred.config.kernel.iteration, IterationSpace::MaskAccumulate);
        assert!(!pred.reasons.is_empty());
    }

    #[test]
    fn skewed_work_increases_tile_count() {
        let reg = predict_config::<PlusTimes>(&banded(2000, 3), &banded(2000, 3), &banded(2000, 3), 4);
        let skew_graph = star_plus_ring(2000);
        let skewed = predict_config::<PlusTimes>(&skew_graph, &skew_graph, &skew_graph, 4);
        assert!(
            skewed.config.n_tiles > reg.config.n_tiles,
            "skewed {} vs regular {}",
            skewed.config.n_tiles,
            reg.config.n_tiles
        );
    }

    #[test]
    fn dense_accumulator_for_dense_masks_hash_for_sparse() {
        let dense_mask = banded(512, 4);
        let p = predict_config::<PlusTimes>(&dense_mask, &dense_mask, &dense_mask, 2);
        assert!(matches!(p.config.kernel.accumulator, AccumulatorKind::Dense(MarkerWidth::W32)));

        // 2 entries per row over 100k columns → hash
        let mut coo = Coo::new(100_000, 100_000);
        for i in 0..100_000usize {
            coo.push(i, (i * 7919) % 100_000, 1.0);
            coo.push(i, (i * 104729) % 100_000, 1.0);
        }
        let wide = coo.to_csr_with(|a, _| a);
        let p = predict_config::<PlusTimes>(&wide, &wide, &wide, 2);
        assert!(matches!(p.config.kernel.accumulator, AccumulatorKind::Hash(MarkerWidth::W32)));
    }

    #[test]
    fn hub_graphs_get_the_hybrid_kernel() {
        let g = star_plus_ring(500); // hub row is huge → co-iteration can pay
        let p = predict_config::<PlusTimes>(&g, &g, &g, 2);
        assert!(matches!(p.config.kernel.iteration, IterationSpace::Hybrid { .. }));
    }

    #[test]
    fn predicted_config_is_runnable_and_correct() {
        use mspgemm_sparse::Dense;
        let g = star_plus_ring(300);
        let p = predict_config::<PlusTimes>(&g, &g, &g, 2);
        let (got, _) = crate::spgemm::<PlusTimes>(&g, &g, &g, &p.config).unwrap();
        let want = Dense::masked_matmul::<PlusTimes, f64>(&g, &g, &g);
        assert_eq!(got, want);
    }

    #[test]
    fn tile_count_never_exceeds_rows_or_cap() {
        let tiny = banded(20, 2);
        let p = predict_config::<PlusTimes>(&tiny, &tiny, &tiny, 8);
        assert!(p.config.n_tiles <= 20);
        let g = star_plus_ring(50_000);
        let p = predict_config::<PlusTimes>(&g, &g, &g, 64);
        assert!(p.config.n_tiles <= 4096);
    }
}
