//! Adversarial fat-row suite for accumulator overbooking.
//!
//! Overbooking sizes the hash accumulator at a quantile of the per-row
//! bounds and recomputes overflowing rows at the hard bound. The whole
//! design rests on one invariant: **an overbooked run is bit-identical to
//! a max-bound run**, because every kernel folds a row's products in the
//! same `k` order regardless of accumulator capacity. This suite attacks
//! that invariant with the graphs most likely to break it — power-law
//! bulks with planted outliers far above any reasonable quantile — across
//! every iteration space and both overbooking quantiles.

use masked_spgemm_repro::gen::outlier::{planted_outliers, uniform_bulk, OutlierParams};
use masked_spgemm_repro::prelude::*;
use mspgemm_rt::rng::{ChaCha8Rng, Rng};

const ITERATIONS: [IterationSpace; 4] = [
    IterationSpace::Vanilla,
    IterationSpace::MaskAccumulate,
    IterationSpace::CoIterate,
    IterationSpace::Hybrid { kappa: 1.0 },
];

fn cfg(kernel: KernelPolicy) -> Config {
    Config::builder().n_threads(2).n_tiles(8).kernel_policy(kernel).build()
}

/// Draw adversarial generator parameters from a seeded stream: the bulk
/// exponent, outlier count and outlier width all vary per case.
fn adversarial_graph(rng: &mut ChaCha8Rng) -> Csr<u64> {
    let n = rng.gen_range(300..700usize);
    let p = OutlierParams {
        alpha: rng.gen_range(1.8..3.5f64),
        min_degree: 1,
        max_bulk_degree: rng.gen_range(4..10usize),
        n_outliers: rng.gen_range(1..6usize),
        outlier_degree: rng.gen_range(64..200usize),
        ..OutlierParams::default()
    };
    planted_outliers(n, p, rng.gen_range(0..u64::MAX / 2)).spones(1u64)
}

#[test]
fn overbooked_runs_are_bit_identical_across_adversarial_graphs() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x0b00_c0de);
    for case in 0..6 {
        let a = adversarial_graph(&mut rng);
        for iteration in ITERATIONS {
            let policy = KernelPolicy::new().iteration(iteration);
            let (want, base_stats) = spgemm::<PlusPair>(&a, &a, &a, &cfg(policy)).unwrap();
            assert_eq!(base_stats.overbook_spills, 0, "overbooking defaults off");
            for overbook in [Overbook::p90(), Overbook::p99()] {
                let (got, stats) =
                    spgemm::<PlusPair>(&a, &a, &a, &cfg(policy.overbook(overbook))).unwrap();
                assert_eq!(
                    got,
                    want,
                    "case {case}: {} + {overbook:?} diverged from the hard bound",
                    iteration.label()
                );
                // the planted rows sit far above p90 of a 4–10-wide bulk:
                // the preloading kernels must have taken the spill path
                if overbook == Overbook::p90()
                    && matches!(
                        iteration,
                        IterationSpace::MaskAccumulate | IterationSpace::Hybrid { .. }
                    )
                {
                    assert!(
                        stats.overbook_spills >= 1,
                        "case {case}: planted outliers never spilled under {}",
                        iteration.label()
                    );
                }
            }
        }
    }
}

#[test]
fn uniform_rows_never_spill() {
    // constant-degree control: every quantile equals the max bound, so
    // overbooking is a no-op and the spill counter must stay at zero
    let a = uniform_bulk(800, OutlierParams::default(), 0).spones(1u64);
    for overbook in [Overbook::p90(), Overbook::p99()] {
        let (_, stats) =
            spgemm::<PlusPair>(&a, &a, &a, &cfg(KernelPolicy::new().overbook(overbook))).unwrap();
        assert_eq!(stats.overbook_spills, 0, "{overbook:?} spilled on a uniform graph");
    }
}

#[test]
fn dense_accumulators_ignore_overbooking() {
    // only the hash accumulator can detect and recover from overflow;
    // the plan must keep the hard bound for the dense family
    let mut rng = ChaCha8Rng::seed_from_u64(0xdead_beef);
    let a = adversarial_graph(&mut rng);
    for width in [MarkerWidth::W8, MarkerWidth::W16, MarkerWidth::W32, MarkerWidth::W64] {
        let accumulator = AccumulatorKind::Dense(width);
        let policy = KernelPolicy::new().accumulator(accumulator).overbook(Overbook::p90());
        let (want, _) =
            spgemm::<PlusPair>(&a, &a, &a, &cfg(KernelPolicy::new().accumulator(accumulator)))
                .unwrap();
        let (got, stats) = spgemm::<PlusPair>(&a, &a, &a, &cfg(policy)).unwrap();
        assert_eq!(got, want);
        assert_eq!(stats.overbook_spills, 0, "{} must never spill", accumulator.label());
    }
}

#[test]
fn overbooked_plans_reuse_bit_identically() {
    // a reused plan must keep spilling (and keep matching) run after run
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let a = adversarial_graph(&mut rng);
    let policy = KernelPolicy::new().overbook(Overbook::p90());
    let (want, _) = spgemm::<PlusPair>(&a, &a, &a, &cfg(KernelPolicy::new())).unwrap();
    let c = cfg(policy);
    let mut plan = Executor::global().plan::<PlusPair>(&a, &a, &a, &c).unwrap();
    for rep in 0..3 {
        let (got, stats) = plan.execute(&a, &a, &a).unwrap();
        assert_eq!(got, want, "rep {rep}");
        assert!(stats.overbook_spills >= 1, "rep {rep} lost the spill path");
    }
}

/// The fused graph path honours overbooking exactly like a single
/// product: a planted-outlier input through one product node with fused
/// `select_ge` + `intersect` post-ops must spill — a spilled row restarts
/// its post-op chain on a fresh sink — and stay bit-identical to the
/// hard-bound run.
#[test]
fn overbooked_graphs_spill_and_stay_bit_identical() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x0b00_9a4f);
    for case in 0..3 {
        let a = adversarial_graph(&mut rng);
        // drop a third of the entries so the intersect really filters
        let pattern = a.select(|i, j, _| !(i + j as usize).is_multiple_of(3));
        let run = |policy: KernelPolicy| {
            let session = Session::<PlusPair>::new(cfg(policy));
            let mut gb = session.graph();
            let (x, p) = (gb.input(), gb.input());
            let n = gb.product(x, x, x);
            gb.select_ge(n, 1);
            gb.intersect(n, p);
            let mut g = gb.build(&[&a, &pattern]).unwrap();
            let (mut outs, stats) = g.execute(&[&a, &pattern]).unwrap();
            (outs.remove(0), stats)
        };
        for iteration in [IterationSpace::MaskAccumulate, IterationSpace::Hybrid { kappa: 1.0 }] {
            let policy = KernelPolicy::new().iteration(iteration);
            let (want, base) = run(policy.overbook(Overbook::Off));
            assert_eq!(base.overbook_spills, 0, "case {case}: hard bound never spills");
            assert!(want.nnz() > 0, "case {case}: the fused filters left nothing to compare");
            let (got, stats) = run(policy.overbook(Overbook::p90()));
            assert_eq!(
                got,
                want,
                "case {case}: {} + p90 diverged from the hard bound",
                iteration.label()
            );
            assert!(
                stats.overbook_spills >= 1,
                "case {case}: planted outliers never spilled under {}",
                iteration.label()
            );
        }
    }
}
