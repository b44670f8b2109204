//! Figure 14 (a–d) — runtime vs co-iteration factor κ.
//!
//! Fixes the paper's chosen operating point (FLOP-balanced tiles, dynamic
//! scheduling, 2048 tiles) and sweeps κ over 10⁻³…10³ for the four
//! representative graphs of the paper: GAP-road (road), hollywood-2009
//! (social), com-Orkut (social, the dense-accumulator 2× case) and
//! circuit5M (the rescue case). Dashed-line baselines = the
//! no-co-iteration kernel (Fig. 5).
//!
//! Shape claims to verify (§V-B):
//!  * GAP-road: κ has minimal effect;
//!  * com-Orkut: dense accumulator improves ≈2× near κ = 1;
//!  * circuit5M: co-iteration is dramatically faster than the baseline;
//!  * κ ≈ 1 is never much worse than the best κ.
//!
//! Run: `cargo run --release -p mspgemm-bench --bin fig14`

use mspgemm_accum::{AccumulatorKind, MarkerWidth};
use mspgemm_bench::{measure, write_csv, BenchGraph, HarnessOptions};
use mspgemm_core::{Config, IterationSpace};
use mspgemm_gen::suite_specs;
use mspgemm_sched::{Schedule, TilingStrategy};

const REPRESENTATIVES: [&str; 4] = ["GAP-road", "hollywood-2009", "com-Orkut", "circuit5M"];
const KAPPAS: [f64; 7] = [0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0];

fn main() {
    let opts = HarnessOptions::from_env();
    let graphs: Vec<BenchGraph> = suite_specs()
        .iter()
        .filter(|s| REPRESENTATIVES.contains(&s.name))
        .map(|s| {
            eprintln!("[gen] {}", s.name);
            BenchGraph::generate(s, &opts)
        })
        .collect();

    let base = |acc| {
        Config::builder()
            .n_threads(opts.threads)
            .n_tiles(2048)
            .tiling(TilingStrategy::FlopBalanced)
            .schedule(Schedule::Dynamic)
            .kernel_policy(
                mspgemm_core::KernelPolicy::new()
                    .accumulator(acc)
                    .iteration(IterationSpace::MaskAccumulate),
            )
            .build()
    };

    println!("Figure 14: runtime (ms) vs co-iteration factor (2048 balanced tiles, dynamic)");
    let mut rows = Vec::new();
    for g in &graphs {
        println!("\n== {} ==", g.spec.name);
        println!("{:>10} {:>12} {:>12}", "kappa", "dense (ms)", "hash (ms)");
        for (label, acc) in [
            ("dense", AccumulatorKind::Dense(MarkerWidth::W32)),
            ("hash", AccumulatorKind::Hash(MarkerWidth::W32)),
        ] {
            let baseline = measure(g, &base(acc), &opts);
            println!("{:>10} {:>25}", format!("none({label})"), format!("{:.1}", baseline.ms_reported()));
            rows.push(format!("{},{},baseline,{:.4}", g.spec.name, label, baseline.ms_reported()));
        }
        for &kappa in &KAPPAS {
            let mut times = Vec::new();
            for acc in [
                AccumulatorKind::Dense(MarkerWidth::W32),
                AccumulatorKind::Hash(MarkerWidth::W32),
            ] {
                let b = base(acc);
                let cfg = b.to_builder().kernel_policy(b.kernel.hybrid(kappa)).build();
                let s = measure(g, &cfg, &opts);
                times.push(s.ms_reported());
            }
            println!("{:>10} {:>12.1} {:>12.1}", kappa, times[0], times[1]);
            rows.push(format!("{},dense,{},{:.4}", g.spec.name, kappa, times[0]));
            rows.push(format!("{},hash,{},{:.4}", g.spec.name, kappa, times[1]));
        }
    }
    let path = write_csv("fig14.csv", "graph,accumulator,kappa,time_ms", &rows)
        .expect("write results/fig14.csv");
    println!("\nwrote {}", path.display());
}
