//! Figure 11 (a–i) — runtime vs tile count, per suite graph.
//!
//! For each graph, sweeps the number of tiles across the harness grid for
//! every combination of accumulator (dense / hash), tiling strategy
//! (FLOP-balanced / uniform) and schedule (static / dynamic), with the
//! no-co-iteration kernel (Fig. 5) — exactly the paper's §IV-C setup.
//!
//! The paper's shape claims to check (§V-A):
//!   1. balanced tiling performs no worse than uniform;
//!   2. uniform is poor at low tile counts, catching up only at high ones;
//!   3. both can suffer at very high tile counts;
//!   4. balanced + intermediate count + dynamic is a safe choice.
//!
//! The paper omits circuit5M here because the non-co-iterating kernel
//! times out; we include it but cap it with the per-config budget, so it
//! simply shows up as the slowest graph (set `MSPGEMM_SKIP_CIRCUIT=1` to
//! drop it like the paper does).
//!
//! Run: `cargo run --release -p mspgemm-bench --bin fig11`

use mspgemm_accum::{AccumulatorKind, MarkerWidth};
use mspgemm_bench::{measure, tile_grid, write_csv, BenchGraph, HarnessOptions};
use mspgemm_core::{Config, IterationSpace};
use mspgemm_sched::{Schedule, TilingStrategy};

fn main() {
    let opts = HarnessOptions::from_env();
    let skip_circuit = std::env::var("MSPGEMM_SKIP_CIRCUIT").is_ok();
    let graphs: Vec<BenchGraph> = BenchGraph::generate_suite(&opts)
        .into_iter()
        .filter(|g| !(skip_circuit && g.spec.name == "circuit5M"))
        .collect();

    let threads = Config::builder().n_threads(opts.threads).build().resolved_threads();
    let grid = tile_grid(threads);
    println!(
        "Figure 11: runtime (ms) vs tile count; {} threads, tiles {:?}",
        threads, grid
    );

    let mut rows = Vec::new();
    for g in &graphs {
        println!("\n== {} ({} rows, {} nnz) ==", g.spec.name, g.a.nrows(), g.a.nnz());
        println!(
            "{:>8} | {:>23} {:>23} {:>23} {:>23}",
            "tiles",
            "dense/balanced (st/dy)",
            "dense/uniform (st/dy)",
            "hash/balanced (st/dy)",
            "hash/uniform (st/dy)"
        );
        for &n_tiles in &grid {
            let mut line = format!("{:>8} |", n_tiles);
            for acc in [
                AccumulatorKind::Dense(MarkerWidth::W32),
                AccumulatorKind::Hash(MarkerWidth::W32),
            ] {
                for tiling in [TilingStrategy::FlopBalanced, TilingStrategy::Uniform] {
                    let mut pair = Vec::new();
                    for schedule in [Schedule::Static, Schedule::Dynamic] {
                        let cfg = Config::builder()
                            .n_threads(opts.threads)
                            .n_tiles(n_tiles)
                            .tiling(tiling)
                            .schedule(schedule)
                            .kernel_policy(
                                mspgemm_core::KernelPolicy::new()
                                    .accumulator(acc)
                                    .iteration(IterationSpace::MaskAccumulate),
                            )
                            .build();
                        let s = measure(g, &cfg, &opts);
                        pair.push(s.ms_reported());
                        rows.push(format!(
                            "{},{},{},{},{},{:.4}",
                            g.spec.name,
                            n_tiles,
                            acc.label(),
                            tiling.label(),
                            schedule.label(),
                            s.ms_reported()
                        ));
                    }
                    line += &format!(" {:>10.1}/{:<10.1}", pair[0], pair[1]);
                }
            }
            println!("{line}");
        }
    }
    let path = write_csv(
        "fig11.csv",
        "graph,n_tiles,accumulator,tiling,schedule,time_ms",
        &rows,
    )
    .expect("write results/fig11.csv");
    println!("\nwrote {}", path.display());
}
