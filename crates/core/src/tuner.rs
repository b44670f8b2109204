//! The staged auto-tuner — Fig. 12's "performance sweep and tuning flow".
//!
//! ```text
//! 1. Determine best combination of tiling and scheduling   (no co-iteration)
//! 2. Tune co-iteration factor κ                            (tiling fixed)
//! 3. Tune accumulator (marker width / internal state)      (κ fixed)
//! ```
//!
//! The paper performs this flow offline across a matrix suite; this module
//! runs it *online* for one operand triple, which is what the conclusion
//! proposes as future work ("build models which can intelligently tune the
//! parameters at execution time") — done here the simple way, by direct
//! measurement.
//!
//! Each candidate configuration is measured through a reusable
//! [`Plan`](crate::plan::Plan) on the global [`Executor`]: the symbolic
//! phase is built once per configuration and the repetitions re-execute
//! it, so multi-rep sweeps time the kernel, not the prologue.

use crate::config::{Config, IterationSpace, KernelPolicy};
use crate::executor::Executor;
use mspgemm_accum::{AccumulatorKind, MarkerWidth};
use mspgemm_sched::{Schedule, TilingStrategy};
use mspgemm_sparse::{Csr, Semiring, SparseError};
use std::time::Duration;

/// Options controlling the sweep granularity (and therefore tuning cost).
#[derive(Clone, Debug)]
pub struct TunerOptions {
    /// Worker threads (0 = all cores).
    pub n_threads: usize,
    /// Tile counts for stage 1. The paper sweeps 64…32768; the default
    /// here is a coarser grid that still spans the regimes of Fig. 11.
    pub tile_counts: Vec<usize>,
    /// κ grid for stage 2 (the paper's Fig. 14 sweeps 10⁻³…10³).
    pub kappas: Vec<f64>,
    /// Marker widths for stage 3.
    pub marker_widths: Vec<MarkerWidth>,
    /// Timing repetitions per configuration; the minimum is kept.
    pub reps: usize,
}

impl Default for TunerOptions {
    fn default() -> Self {
        TunerOptions {
            n_threads: 0,
            tile_counts: vec![64, 256, 1024, 2048, 8192],
            kappas: vec![0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0],
            marker_widths: MarkerWidth::all().to_vec(),
            reps: 1,
        }
    }
}

/// One timed configuration.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// The configuration measured.
    pub config: Config,
    /// Best-of-`reps` kernel time.
    pub time: Duration,
}

/// The tuner's full trace plus its final choice.
#[derive(Clone, Debug)]
pub struct TuneReport {
    /// Stage 1: tiling × scheduling × tile count × accumulator family,
    /// all with [`IterationSpace::MaskAccumulate`] (no co-iteration, as in
    /// the paper's first sweep).
    pub stage1: Vec<Measurement>,
    /// Stage 2: κ sweep (plus the no-co-iteration baseline, recorded as a
    /// `MaskAccumulate` entry).
    pub stage2: Vec<Measurement>,
    /// Stage 3: marker-width sweep for the winning family.
    pub stage3: Vec<Measurement>,
    /// The winning configuration.
    pub best: Config,
    /// Its measured time.
    pub best_time: Duration,
}

/// Time one configuration: plan once, execute `reps` times, keep the
/// minimum kernel time. Shape errors (and any execution failure) surface
/// as the [`SparseError`] the driver produced.
fn time_config<S: Semiring>(
    a: &Csr<S::T>,
    b: &Csr<S::T>,
    mask: &Csr<S::T>,
    config: &Config,
    reps: usize,
) -> Result<Duration, SparseError> {
    let mut plan = Executor::global().plan::<S>(a, b, mask, config)?;
    let mut best = Duration::MAX;
    for _ in 0..reps.max(1) {
        let (_, stats) = plan.execute(a, b, mask)?;
        best = best.min(stats.elapsed);
    }
    Ok(best)
}

/// Run the Fig. 12 flow on one operand triple and return the trace and the
/// winning configuration.
///
/// Fails with [`SparseError::InvalidConfig`] when a sweep grid is empty
/// (there would be no winner to report), and propagates any shape or
/// execution error from the measurements themselves.
pub fn tune<S: Semiring>(
    a: &Csr<S::T>,
    b: &Csr<S::T>,
    mask: &Csr<S::T>,
    opts: &TunerOptions,
) -> Result<TuneReport, SparseError> {
    if opts.tile_counts.is_empty() {
        return Err(SparseError::InvalidConfig {
            detail: "tuner: tile_counts grid is empty; stage 1 needs at least one tile count"
                .to_string(),
        });
    }
    if opts.marker_widths.is_empty() {
        return Err(SparseError::InvalidConfig {
            detail: "tuner: marker_widths grid is empty; stage 3 needs at least one width"
                .to_string(),
        });
    }

    // ---------- stage 1: tiling × scheduling (no co-iteration) ----------
    let mut stage1 = Vec::new();
    for &n_tiles in &opts.tile_counts {
        for tiling in TilingStrategy::all() {
            for schedule in Schedule::all() {
                for family in [
                    AccumulatorKind::Dense(MarkerWidth::W32),
                    AccumulatorKind::Hash(MarkerWidth::W32),
                ] {
                    let config = Config::builder()
                        .n_threads(opts.n_threads)
                        .n_tiles(n_tiles)
                        .tiling(tiling)
                        .schedule(schedule)
                        .kernel_policy(
                            KernelPolicy::new()
                                .accumulator(family)
                                .iteration(IterationSpace::MaskAccumulate),
                        )
                        .build();
                    let time = time_config::<S>(a, b, mask, &config, opts.reps)?;
                    stage1.push(Measurement { config, time });
                }
            }
        }
    }
    let Some(s1_best) = stage1.iter().min_by_key(|m| m.time).map(|m| m.config) else {
        return Err(SparseError::Internal {
            detail: "tuner: stage 1 swept a non-empty grid but measured nothing".to_string(),
        });
    };

    // ---------- stage 2: κ sweep on the stage-1 winner ----------
    let mut stage2 = Vec::new();
    // the no-co-iteration baseline re-enters as a candidate
    stage2.push(Measurement {
        config: s1_best,
        time: time_config::<S>(a, b, mask, &s1_best, opts.reps)?,
    });
    for &kappa in &opts.kappas {
        let config =
            s1_best.to_builder().kernel_policy(s1_best.kernel.hybrid(kappa)).build();
        let time = time_config::<S>(a, b, mask, &config, opts.reps)?;
        stage2.push(Measurement { config, time });
    }
    let Some(s2_best) = stage2.iter().min_by_key(|m| m.time).map(|m| m.config) else {
        return Err(SparseError::Internal {
            detail: "tuner: stage 2 lost its baseline measurement".to_string(),
        });
    };

    // ---------- stage 3: marker width for the chosen family ----------
    let mut stage3 = Vec::new();
    for &w in &opts.marker_widths {
        let accumulator = match s2_best.kernel.accumulator {
            AccumulatorKind::Dense(_) => AccumulatorKind::Dense(w),
            AccumulatorKind::Hash(_) => AccumulatorKind::Hash(w),
        };
        let config = s2_best
            .to_builder()
            .kernel_policy(s2_best.kernel.accumulator(accumulator))
            .build();
        let time = time_config::<S>(a, b, mask, &config, opts.reps)?;
        stage3.push(Measurement { config, time });
    }
    let Some(final_best) = stage3.iter().min_by_key(|m| m.time) else {
        return Err(SparseError::Internal {
            detail: "tuner: stage 3 swept a non-empty grid but measured nothing".to_string(),
        });
    };

    Ok(TuneReport {
        best: final_best.config,
        best_time: final_best.time,
        stage1,
        stage2,
        stage3,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mspgemm_sparse::{Coo, Csr, Dense, PlusTimes};

    fn lcg_matrix(n: usize, per_row: usize, seed: u64) -> Csr<f64> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            for _ in 0..per_row {
                coo.push(i, next() % n, 1.0);
            }
        }
        coo.to_csr_with(|a, _| a)
    }

    fn small_opts() -> TunerOptions {
        TunerOptions {
            n_threads: 2,
            tile_counts: vec![4, 16],
            kappas: vec![0.1, 1.0, 10.0],
            marker_widths: vec![MarkerWidth::W16, MarkerWidth::W32],
            reps: 1,
        }
    }

    #[test]
    fn tuner_runs_all_stages_and_returns_valid_config() {
        let a = lcg_matrix(120, 5, 1);
        let report = tune::<PlusTimes>(&a, &a, &a, &small_opts()).unwrap();
        // stage 1: 2 tiles × 2 strategies × 2 schedules × 2 families = 16
        assert_eq!(report.stage1.len(), 16);
        // stage 2: baseline + 3 kappas
        assert_eq!(report.stage2.len(), 4);
        // stage 3: 2 widths
        assert_eq!(report.stage3.len(), 2);
        // the chosen config must actually compute the right answer
        let want = Dense::masked_matmul::<PlusTimes, f64>(&a, &a, &a);
        let (got, _) = crate::spgemm::<PlusTimes>(&a, &a, &a, &report.best).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn best_time_is_minimum_of_stage3() {
        let a = lcg_matrix(80, 4, 2);
        let report = tune::<PlusTimes>(&a, &a, &a, &small_opts()).unwrap();
        let min3 = report.stage3.iter().map(|m| m.time).min().unwrap();
        assert_eq!(report.best_time, min3);
    }

    #[test]
    fn stage2_keeps_winner_tiling_fixed() {
        let a = lcg_matrix(80, 4, 3);
        let report = tune::<PlusTimes>(&a, &a, &a, &small_opts()).unwrap();
        let s1_best = report
            .stage1
            .iter()
            .min_by_key(|m| m.time)
            .unwrap()
            .config;
        for m in &report.stage2 {
            assert_eq!(m.config.n_tiles, s1_best.n_tiles);
            assert_eq!(m.config.tiling, s1_best.tiling);
            assert_eq!(m.config.schedule, s1_best.schedule);
        }
    }

    #[test]
    fn empty_grids_are_rejected_up_front() {
        let a = lcg_matrix(20, 3, 4);
        let no_tiles = TunerOptions { tile_counts: vec![], ..small_opts() };
        assert!(matches!(
            tune::<PlusTimes>(&a, &a, &a, &no_tiles),
            Err(SparseError::InvalidConfig { .. })
        ));
        let no_widths = TunerOptions { marker_widths: vec![], ..small_opts() };
        assert!(matches!(
            tune::<PlusTimes>(&a, &a, &a, &no_widths),
            Err(SparseError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn shape_errors_propagate_from_measurement() {
        let a = lcg_matrix(20, 3, 5);
        let wrong = lcg_matrix(21, 3, 6);
        assert!(matches!(
            tune::<PlusTimes>(&a, &wrong, &a, &small_opts()),
            Err(SparseError::ShapeMismatch { .. })
        ));
    }
}
