//! Overbooked-accumulator ablation (the `KernelPolicy` overbook axis).
//!
//! Overbooking sizes the worker-persistent hash accumulator at a quantile
//! of the per-row mask bounds instead of the max. The overflow latch then
//! doubles as a cheap *outlier-row detector*: a row that outgrows the
//! quantile bound is recomputed through the mask-indexed dense spill path
//! — products binary-searched into the sorted mask row, no hard-bound
//! hash table, no `O(w)` preload, no `O(w)` gather probes. That recompute
//! is bit-identical to a hard-bound run (per-column folds stay in `k`
//! order), which this harness re-verifies for every measured
//! configuration before timing anything.
//!
//! Where the win lives: a hard-bound run pays `O(w)` hash *inserts* plus
//! `O(w)` gather *probes* for every fat mask row, while the row's actual
//! products are few — the fat tail makes the paper's sizing rule
//! expensive in time, not just memory. Four classes bracket it:
//!
//! * `planted-mask` — a directed mask with a thin bulk and 2.5 % planted
//!   ~n/4-wide rows over sparse random operands. The fat rows dominate
//!   the baseline's probe count; overbooking reroutes exactly those rows
//!   to the dense spill. The speedup class.
//! * `social-mask` — an R-MAT mask (continuous heavy tail, no planted
//!   separation) over the same operands: the honest middle ground, p99
//!   cuts into the tail but the tail is not as fat.
//! * `coiterate-rmat` — the co-iteration iteration space on the R-MAT
//!   mask: fat mask rows make the kernel's `w · log` searches expensive;
//!   the spill path flips them to `products · log w`.
//! * `uniform-bulk` — constant-degree circulant for mask and operands:
//!   every quantile equals the max, overbooking is a structural no-op,
//!   and the run must sit at 1.0x within noise (it shares the code path,
//!   not the benefit).
//!
//! Operands are *random* sparse graphs, not circulants: banded operands
//! probe near-identical column sets on consecutive rows and hide every
//! table-size effect behind temporal locality. Masks are *directed* where
//! planted: a symmetric planted graph smears each fat row's edges back
//! over the bulk, coupling the populations the bench needs separated.
//!
//! Baseline: hard bound. Treatment: quantile overbook. The two arms differ
//! in nothing else. Run: `cargo run --release -p mspgemm-bench --bin overbook`
//!
//! Emits `results/overbook.csv` (+ the `BENCH_overbook.json` twin).

use mspgemm_bench::{write_csv, HarnessOptions};
use mspgemm_core::{spgemm, Config, IterationSpace, KernelPolicy, Overbook};
use mspgemm_gen::outlier::{planted_outliers, uniform_bulk, OutlierParams};
use mspgemm_gen::rmat::{rmat, RmatParams};
use mspgemm_sched::{Schedule, TilingStrategy};
use mspgemm_sparse::{Csr, PlusPair};
use std::time::{Duration, Instant};

const TILE_COUNTS: [usize; 3] = [64, 512, 2048];

fn config(n_threads: usize, n_tiles: usize, kernel: KernelPolicy) -> Config {
    Config::builder()
        .n_threads(n_threads)
        .n_tiles(n_tiles)
        .tiling(TilingStrategy::FlopBalanced)
        .schedule(Schedule::Dynamic { chunk: 1 })
        .kernel_policy(kernel)
        .build()
}

/// The paper's timing protocol on an arbitrary triple: one warm-up, then
/// repeat until the budget or the cap; best-of is reported.
fn measure(
    a: &Csr<u64>,
    mask: &Csr<u64>,
    cfg: &Config,
    opts: &HarnessOptions,
) -> (f64, u64) {
    let _ = spgemm::<PlusPair>(a, a, mask, cfg).expect("bench triples are square");
    let start = Instant::now();
    let mut min = Duration::MAX;
    let mut spills = 0u64;
    let mut iters = 0usize;
    while iters < opts.max_iters.max(1) && (iters == 0 || start.elapsed() < opts.budget) {
        let (_, stats) = spgemm::<PlusPair>(a, a, mask, cfg).unwrap();
        min = min.min(stats.elapsed);
        spills = spills.max(stats.overbook_spills);
        iters += 1;
    }
    (min.as_secs_f64() * 1e3, spills)
}

fn main() {
    let opts = HarnessOptions::from_env();
    // HarnessOptions::scale defaults to 0.3 → ~18k vertices here
    let n = ((60_000.0 * opts.scale) as usize).max(2_000);

    // sparse random operands: ~8 neighbours per row after symmetrisation,
    // enough multiply traffic to be realistic, little enough that the
    // mask-side probe work stays visible
    let random_sparse = |n: usize, seed: u64| {
        let p = OutlierParams {
            min_degree: 4,
            max_bulk_degree: 4,
            n_outliers: 0,
            outlier_degree: 8,
            ..OutlierParams::default()
        };
        planted_outliers(n, p, seed).spones(1u64)
    };
    eprintln!("[gen] operands: random sparse (n = {n})");
    let bulk = random_sparse(n, 0x0b5e);
    // the planted mask: a thin directed bulk (2–4 wide) with 2.5 % of
    // rows planted at ~n/4 — far above p90, so exactly those rows spill
    eprintln!("[gen] planted-mask (n = {n})");
    let fat = OutlierParams {
        alpha: 2.5,
        min_degree: 2,
        max_bulk_degree: 4,
        n_outliers: (n / 40).max(1),
        outlier_degree: (n / 4).max(64),
        directed: true,
        ..OutlierParams::default()
    };
    let planted = planted_outliers(n, fat, 0xfa7).spones(1u64);
    let scale = ((n as f64).log2().floor() as u32).min(14);
    let n_social = 1usize << scale;
    eprintln!("[gen] social-mask (scale = {scale})");
    let social = rmat(scale, 8, RmatParams::default(), 0xfa7).spones(1u64);
    let bulk_social = random_sparse(n_social, 0x0b5e);

    // the control stays a constant-degree circulant end to end: every
    // row bound is identical, any quantile equals the max, and
    // overbooking must be a structural no-op
    eprintln!("[gen] uniform control: circulant (n = {n})");
    let circulant = uniform_bulk(n, OutlierParams::default(), 0).spones(1u64);

    let mask_acc = IterationSpace::MaskAccumulate;
    let coiter = IterationSpace::CoIterate;
    // (class, iteration space, overbook quantile, operand A = B, mask).
    // The quantile tracks the tail shape: the planted class separates its
    // populations at 2.5 %, so p90 catches exactly the planted rows;
    // R-MAT's tail is continuous, and p99 keeps the spill path to the
    // rows fat enough for the dense recompute to win.
    let classes: [(&str, IterationSpace, Overbook, &Csr<u64>, &Csr<u64>); 4] = [
        ("planted-mask", mask_acc, Overbook::p90(), &bulk, &planted),
        ("social-mask", mask_acc, Overbook::p99(), &bulk_social, &social),
        ("coiterate-rmat", coiter, Overbook::p99(), &bulk_social, &social),
        ("uniform-bulk", mask_acc, Overbook::p90(), &circulant, &circulant),
    ];

    println!("Overbooking: hard-bound baseline vs quantile overbook");
    println!(
        "{:<15} {:>7} {:>14} {:>14} {:>8} {:>7}",
        "class", "tiles", "baseline (ms)", "overbook (ms)", "speedup", "spills"
    );
    let mut rows = Vec::new();
    for (name, iteration, quantile, a, mask) in classes {
        let baseline_kernel = KernelPolicy::new().iteration(iteration).overbook(Overbook::Off);
        let treated_kernel = baseline_kernel.overbook(quantile);
        for &n_tiles in &TILE_COUNTS {
            let base_cfg = config(opts.threads, n_tiles, baseline_kernel);
            let over_cfg = config(opts.threads, n_tiles, treated_kernel);

            // the invariant first, the stopwatch second
            let (want, _) = spgemm::<PlusPair>(a, a, mask, &base_cfg).unwrap();
            let (got, _) = spgemm::<PlusPair>(a, a, mask, &over_cfg).unwrap();
            assert_eq!(
                got, want,
                "{name}/{n_tiles}: overbooked output diverged from the hard-bound baseline"
            );

            let (base_ms, _) = measure(a, mask, &base_cfg, &opts);
            let (over_ms, spills) = measure(a, mask, &over_cfg, &opts);
            let speedup = base_ms / over_ms;
            println!(
                "{name:<15} {n_tiles:>7} {base_ms:>14.3} {over_ms:>14.3} {speedup:>7.2}x {spills:>7}"
            );
            rows.push(format!(
                "{name},{n_tiles},{base_ms:.4},{over_ms:.4},{speedup:.4},{spills}"
            ));
        }
    }

    let path = write_csv(
        "overbook.csv",
        "class,n_tiles,baseline_ms,overbook_ms,speedup,overbook_spills",
        &rows,
    )
    .expect("write results/overbook.csv");
    println!("\nwrote {} (+ results/BENCH_overbook.json)", path.display());
}
