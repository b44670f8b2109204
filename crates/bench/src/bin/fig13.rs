//! Figure 13 — relative performance of accumulator marker bit-widths.
//!
//! Fixes κ = 1 and the recommended tiling (2048 balanced tiles, dynamic),
//! sweeps the marker width over 8/16/32/64 bits for both accumulator
//! families across all suite graphs, and reports the Fig. 10-style
//! "% of graphs within 10 % of best" per (family, width).
//!
//! Shape claims to verify (§V-C): the hash accumulator is robust down to
//! 16 bits and degrades at 8; the dense accumulator suffers at 8 *and*
//! 64 bits with the sweet spot at 32.
//!
//! Run: `cargo run --release -p mspgemm-bench --bin fig13`

use mspgemm_accum::{AccumulatorKind, MarkerWidth};
use mspgemm_bench::{measure, pct_within_of_best, write_csv, BenchGraph, HarnessOptions};
use mspgemm_core::Config;
use mspgemm_sched::{Schedule, TilingStrategy};

fn main() {
    let opts = HarnessOptions::from_env();
    let graphs = BenchGraph::generate_suite(&opts);

    let mut kinds = Vec::new();
    for w in MarkerWidth::all() {
        kinds.push(AccumulatorKind::Dense(w));
        kinds.push(AccumulatorKind::Hash(w));
    }

    eprintln!("[fig13] measuring {} kinds x {} graphs...", kinds.len(), graphs.len());
    let times: Vec<Vec<f64>> = kinds
        .iter()
        .map(|&acc| {
            let cfg = Config::builder()
                .n_threads(opts.threads)
                .n_tiles(2048)
                .tiling(TilingStrategy::FlopBalanced)
                .schedule(Schedule::Dynamic)
                .kernel_policy(mspgemm_core::KernelPolicy::new().accumulator(acc).hybrid(1.0))
                .build();
            eprintln!("[fig13] {}", acc.label());
            graphs.iter().map(|g| measure(g, &cfg, &opts).ms_reported()).collect()
        })
        .collect();

    // Fig. 13 compares widths *within* the family (dense vs dense, hash vs
    // hash), so aggregate per family
    println!("Figure 13: % of graphs within 10% of each family's best width");
    println!("{:>6} {:>12} {:>12}", "width", "dense", "hash");
    let mut rows = Vec::new();
    let widths = MarkerWidth::all();
    for fam in 0..2 {
        let fam_rows: Vec<Vec<f64>> = (0..4).map(|wi| times[2 * wi + fam].clone()).collect();
        let pct = pct_within_of_best(&fam_rows, 0.10);
        for (wi, &w) in widths.iter().enumerate() {
            rows.push(format!(
                "{},{},{:.1}",
                if fam == 0 { "dense" } else { "hash" },
                w.bits(),
                pct[wi]
            ));
        }
    }
    // re-read rows for the aligned table
    for (wi, w) in widths.iter().enumerate() {
        let dense: f64 = rows[wi].rsplit(',').next().unwrap().parse().unwrap();
        let hash: f64 = rows[4 + wi].rsplit(',').next().unwrap().parse().unwrap();
        println!("{:>6} {:>11.0}% {:>11.0}%", w.bits(), dense, hash);
    }

    // also dump the raw per-graph times for plotting
    let mut raw = Vec::new();
    for (ki, kind) in kinds.iter().enumerate() {
        for (gi, g) in graphs.iter().enumerate() {
            raw.push(format!("{},{},{:.4}", g.spec.name, kind.label(), times[ki][gi]));
        }
    }
    let p1 = write_csv("fig13_pct.csv", "family,width_bits,pct_within_10", &rows).unwrap();
    let p2 = write_csv("fig13_raw.csv", "graph,accumulator,time_ms", &raw).unwrap();
    println!("\nwrote {} and {}", p1.display(), p2.display());
}
