//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! 1. **fused vs two-step masking** — the paper's §III-B claim that the
//!    two-step (SpGEMM then mask) implementation is never worth it;
//! 2. **marker-based vs explicit accumulator reset** — the paper's §III-C
//!    modification of GrB (implicit epoch bump vs explicit slot clearing);
//! 3. **co-iteration factor κ at the extremes** — what pure push (κ=0)
//!    and pure pull (κ=∞) cost relative to the hybrid.

use mspgemm_bench::micro::{BenchmarkId, Micro};
use mspgemm_bench::{micro_group, micro_main};
use mspgemm_accum::{Accumulator, DenseAccumulator, DenseExplicitReset, VecSink};
use mspgemm_core::kernels::row_mask_accumulate;
use mspgemm_core::{spgemm, Config};
use mspgemm_gen::{suite_graph, suite_specs};
use mspgemm_graph::grb::two_step_masked;
use mspgemm_sparse::{Csr, PlusPair};
use std::time::Duration;

const SCALE: f64 = 0.08;

fn graph(name: &str) -> Csr<u64> {
    let spec = suite_specs().into_iter().find(|s| s.name == name).unwrap();
    suite_graph(&spec, SCALE).spones(1u64)
}

fn bench_fused_vs_two_step(c: &mut Micro) {
    let mut group = c.benchmark_group("fused_vs_two_step");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(900));
    for name in ["com-LiveJournal", "GAP-road"] {
        let a = graph(name);
        // one thread, like the serial two-step arm: §III-B is about the
        // materialised intermediate, not the thread count
        let cfg = Config::builder().n_threads(1).n_tiles(256).build();
        group.bench_with_input(BenchmarkId::new("fused", name), &a, |b, a| {
            b.iter(|| spgemm::<PlusPair>(a, a, a, &cfg).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("two_step", name), &a, |b, a| {
            b.iter(|| two_step_masked::<PlusPair>(a, a, a).unwrap());
        });
    }
    group.finish();
}

fn bench_reset_policy(c: &mut Micro) {
    // run the Fig. 5 kernel serially over all rows with the two dense
    // accumulator reset policies; the kernel code is identical, only the
    // accumulator differs — a pure reset-policy ablation
    let a = graph("europe_osm");
    let mut group = c.benchmark_group("reset_policy");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(900));

    fn run_rows<A: Accumulator<PlusPair>>(a: &Csr<u64>, acc: &mut A) -> usize {
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        for i in 0..a.nrows() {
            let (mask_cols, _) = a.row(i);
            row_mask_accumulate(i, a, a, mask_cols, acc, &mut VecSink { cols: &mut cols, vals: &mut vals });
        }
        cols.len()
    }

    group.bench_function("marker_u32", |b| {
        let mut acc: DenseAccumulator<PlusPair, u32> = DenseAccumulator::new(a.ncols());
        b.iter(|| run_rows(&a, &mut acc));
    });
    group.bench_function("marker_u8_with_overflow_resets", |b| {
        let mut acc: DenseAccumulator<PlusPair, u8> = DenseAccumulator::new(a.ncols());
        b.iter(|| run_rows(&a, &mut acc));
    });
    group.bench_function("explicit_reset_grb_style", |b| {
        let mut acc: DenseExplicitReset<PlusPair> = DenseExplicitReset::new(a.ncols());
        b.iter(|| run_rows(&a, &mut acc));
    });
    group.finish();
}

fn bench_kappa_extremes(c: &mut Micro) {
    let a = graph("circuit5M");
    let mut group = c.benchmark_group("kappa_extremes_circuit");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(1200));
    for (label, kappa) in [("push_only_k0", 0.0), ("hybrid_k1", 1.0), ("pull_heavy_k100", 100.0)]
    {
        let cfg = Config::builder()
            .n_tiles(256)
            .kernel_policy(mspgemm_core::KernelPolicy::new().hybrid(kappa))
            .build();
        group.bench_function(label, |b| {
            b.iter(|| spgemm::<PlusPair>(&a, &a, &a, &cfg).unwrap());
        });
    }
    group.finish();
}

micro_group!(benches, bench_fused_vs_two_step, bench_reset_policy, bench_kappa_extremes);
micro_main!(benches);
