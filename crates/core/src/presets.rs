//! Policy presets reproducing the three systems the paper compares
//! (Fig. 1): SuiteSparse:GraphBLAS, GrB, and the authors' tuned
//! implementation.
//!
//! The original systems are large C codebases; what the paper measures,
//! however, is their masked-SpGEMM *policies*, which it reverse-engineers
//! precisely (§II-B, §II-C, §III). Each preset maps those policies onto
//! our common substrate, so Fig. 1's comparison becomes a comparison of
//! policies with everything else held equal — which is exactly the
//! methodological point of the paper.

use crate::config::{resolve_threads, Config, IterationSpace, KernelPolicy};
use mspgemm_accum::{AccumulatorKind, MarkerWidth};
use mspgemm_sched::{Schedule, TilingStrategy};
use mspgemm_sparse::{Csr, Semiring};

/// The three implementations compared in Fig. 1.
///
/// Marked `#[non_exhaustive]`: downstream `match`es need a wildcard arm,
/// so policy presets can be added without a breaking release.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum Preset {
    /// SuiteSparse:GraphBLAS-style policy: `2p` FLOP-balanced tiles with
    /// dynamic scheduling ("Based on our experience,
    /// SuiteSparse:GraphBLAS uses T = 2p balanced tiles this way",
    /// §III-A), the push–pull hybrid iteration (§III-B: "SuiteSparse
    /// GraphBLAS internally uses this approach"), 64-bit markers
    /// (§III-C), and a heuristic accumulator choice.
    SuiteSparseLike,
    /// GrB-style policy (Milaković et al.): exactly `p` FLOP-balanced
    /// tiles, fixed static assignment ("The tiling and parallelization
    /// scheme is hence fixed", §II-C), mask-preload accumulation with no
    /// co-iteration, hash accumulator.
    GrBLike,
    /// The paper's tuned implementation: FLOP-balanced tiling at an
    /// intermediate tile count, dynamic scheduling, hybrid κ = 1, 32-bit
    /// markers (the §V recommendations).
    Tuned,
}

impl Preset {
    /// The presets in Fig. 1's legend order.
    pub fn all() -> [Preset; 3] {
        [Preset::SuiteSparseLike, Preset::GrBLike, Preset::Tuned]
    }

    /// Display name used by the Fig. 1 harness.
    pub fn label(&self) -> &'static str {
        match self {
            Preset::SuiteSparseLike => "SuiteSparse:GraphBLAS (policy)",
            Preset::GrBLike => "GrB (policy)",
            Preset::Tuned => "Ours (tuned)",
        }
    }
}

/// Build the concrete [`Config`] a preset uses for the given operands.
///
/// `n_threads = 0` means all cores. The operands are consulted only by the
/// SuiteSparse-style accumulator heuristic; GrB and Tuned are
/// input-independent by design (that *is* the behavioural difference the
/// paper studies).
pub fn preset_config<S: Semiring>(
    preset: Preset,
    a: &Csr<S::T>,
    b: &Csr<S::T>,
    mask: &Csr<S::T>,
    n_threads: usize,
) -> Config {
    let p = resolve_threads(n_threads);
    match preset {
        Preset::GrBLike => Config {
            n_threads: p,
            n_tiles: p,
            tiling: TilingStrategy::FlopBalanced,
            schedule: Schedule::Static,
            kernel: KernelPolicy::new()
                .accumulator(AccumulatorKind::Hash(MarkerWidth::W64))
                .iteration(IterationSpace::MaskAccumulate),
        },
        Preset::SuiteSparseLike => Config {
            n_threads: p,
            n_tiles: 2 * p,
            tiling: TilingStrategy::FlopBalanced,
            schedule: Schedule::Dynamic,
            kernel: KernelPolicy::new()
                .accumulator(suitesparse_accumulator_heuristic::<S>(a, b, mask))
                .iteration(IterationSpace::Hybrid { kappa: 1.0 }),
        },
        Preset::Tuned => Config {
            n_threads: p,
            n_tiles: 2048,
            tiling: TilingStrategy::FlopBalanced,
            schedule: Schedule::Dynamic,
            kernel: KernelPolicy::new()
                .accumulator(AccumulatorKind::Hash(MarkerWidth::W32))
                .iteration(IterationSpace::Hybrid { kappa: 1.0 }),
        },
    }
}

/// Approximation of SuiteSparse:GraphBLAS's hash-vs-dense ("Gustavson")
/// choice: prefer the dense accumulator when the expected per-row write
/// set is a substantial fraction of the row width (dense state then has
/// spatial locality and fits cache lines well, §III-C), otherwise hash.
///
/// SuiteSparse's real heuristic compares the intermediate size against
/// `n`; we use mean mask density as the proxy, which reproduces the same
/// decisions on the Table I classes (dense for road/circuit-band rows,
/// hash for the wide social/web graphs).
fn suitesparse_accumulator_heuristic<S: Semiring>(
    a: &Csr<S::T>,
    b: &Csr<S::T>,
    mask: &Csr<S::T>,
) -> AccumulatorKind {
    let _ = a;
    let ncols = b.ncols().max(1);
    let mean_mask_row = mask.nnz() as f64 / mask.nrows().max(1) as f64;
    // dense pays O(ncols) memory; worthwhile when a row's expected writes
    // exceed ~1/256 of the row width
    if mean_mask_row * 256.0 >= ncols as f64 {
        AccumulatorKind::Dense(MarkerWidth::W64)
    } else {
        AccumulatorKind::Hash(MarkerWidth::W64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mspgemm_sparse::{Coo, PlusTimes};

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

    fn sparse_wide(n: usize) -> Csr<f64> {
        // ~2 entries per row over a very wide matrix → hash territory
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, (i * 7919) % n, 1.0);
            coo.push(i, (i * 104729) % n, 1.0);
        }
        coo.to_csr_with(|a, _| a)
    }

    #[test]
    fn grb_preset_matches_paper_description() {
        let a = banded(100, 2);
        let c = preset_config::<PlusTimes>(Preset::GrBLike, &a, &a, &a, 4);
        assert_eq!(c.n_tiles, 4); // exactly p tiles
        assert_eq!(c.schedule, Schedule::Static);
        assert_eq!(c.tiling, TilingStrategy::FlopBalanced);
        assert_eq!(c.kernel.iteration, IterationSpace::MaskAccumulate);
    }

    #[test]
    fn suitesparse_preset_uses_2p_dynamic_hybrid() {
        let a = banded(100, 2);
        let c = preset_config::<PlusTimes>(Preset::SuiteSparseLike, &a, &a, &a, 4);
        assert_eq!(c.n_tiles, 8);
        assert_eq!(c.schedule, Schedule::Dynamic);
        assert!(matches!(c.kernel.iteration, IterationSpace::Hybrid { kappa } if kappa == 1.0));
    }

    #[test]
    fn accumulator_heuristic_picks_dense_for_narrow_dense_rows() {
        let a = banded(512, 4); // mean row ≈ 8 of 512 → 8·256 ≥ 512 → dense
        let c = preset_config::<PlusTimes>(Preset::SuiteSparseLike, &a, &a, &a, 2);
        assert!(matches!(c.kernel.accumulator, AccumulatorKind::Dense(_)), "{:?}", c.kernel.accumulator);
    }

    #[test]
    fn accumulator_heuristic_picks_hash_for_wide_sparse_rows() {
        let a = sparse_wide(100_000); // 2 of 100k → hash
        let c = preset_config::<PlusTimes>(Preset::SuiteSparseLike, &a, &a, &a, 2);
        assert!(matches!(c.kernel.accumulator, AccumulatorKind::Hash(_)), "{:?}", c.kernel.accumulator);
    }

    #[test]
    fn tuned_preset_is_the_default_config_with_pinned_threads() {
        let a = banded(64, 2);
        let c = preset_config::<PlusTimes>(Preset::Tuned, &a, &a, &a, 3);
        assert_eq!(c.n_threads, 3);
        assert_eq!(c.n_tiles, 2048);
        assert_eq!(c.kernel.accumulator, AccumulatorKind::Hash(MarkerWidth::W32));
    }

    #[test]
    fn presets_enumerate_and_label() {
        assert_eq!(Preset::all().len(), 3, "Fig. 1's legend stays three-way");
        assert!(Preset::GrBLike.label().contains("GrB"));
        assert!(Preset::Tuned.label().contains("tuned"));
    }
}
