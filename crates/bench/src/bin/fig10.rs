//! Figure 10 — relative performance of tiling and scheduling strategies.
//!
//! The paper's Fig. 10 aggregates the Fig. 11 sweep: "For each matrix,
//! each configuration (split by accumulator) is compared to the lowest
//! runtime for that matrix. The percentage corresponds how often each
//! configuration was within 10% of the best configuration, across all
//! matrices." We follow the figure's panel structure: the comparison is
//! *within* each accumulator family (the figure colours dense and hash
//! separately), over the tile-count × strategy × schedule grid.
//!
//! If `results/fig11.csv` exists (produced by the `fig11` binary), its
//! measurements are reused — Fig. 10 and Fig. 11 are the same experiment.
//! Otherwise the sweep is measured from scratch.
//!
//! Run: `cargo run --release -p mspgemm-bench --bin fig10`

use mspgemm_accum::{AccumulatorKind, MarkerWidth};
use mspgemm_bench::{
    measure, pct_within_of_best, tile_grid, write_csv, BenchGraph, HarnessOptions,
};
use mspgemm_core::{Config, IterationSpace};
use mspgemm_sched::{Schedule, TilingStrategy};
use std::collections::BTreeMap;

/// `(tiling, schedule, accumulator, tiles) -> per-graph times`
type SweepData = BTreeMap<(String, String, String, usize), BTreeMap<String, f64>>;

fn load_fig11_csv() -> Option<SweepData> {
    let text = std::fs::read_to_string("results/fig11.csv").ok()?;
    let mut lines = text.lines();
    let header = lines.next()?;
    if header != "graph,n_tiles,accumulator,tiling,schedule,time_ms" {
        return None;
    }
    let mut data: SweepData = BTreeMap::new();
    for line in lines {
        let f: Vec<&str> = line.split(',').collect();
        if f.len() != 6 {
            continue;
        }
        let key = (f[3].to_string(), f[4].to_string(), f[2].to_string(), f[1].parse().ok()?);
        data.entry(key).or_default().insert(f[0].to_string(), f[5].parse().ok()?);
    }
    Some(data)
}

fn measure_sweep(opts: &HarnessOptions) -> SweepData {
    let skip_circuit = std::env::var("MSPGEMM_SKIP_CIRCUIT").is_ok();
    let graphs: Vec<BenchGraph> = BenchGraph::generate_suite(opts)
        .into_iter()
        .filter(|g| !(skip_circuit && g.spec.name == "circuit5M"))
        .collect();
    let threads = Config::builder().n_threads(opts.threads).build().resolved_threads();
    let grid = tile_grid(threads);
    let mut data: SweepData = BTreeMap::new();
    for tiling in [TilingStrategy::FlopBalanced, TilingStrategy::Uniform] {
        for schedule in [Schedule::Dynamic, Schedule::Static] {
            for acc in [
                AccumulatorKind::Dense(MarkerWidth::W32),
                AccumulatorKind::Hash(MarkerWidth::W32),
            ] {
                for &n_tiles in &grid {
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
                    eprintln!("[fig10] measuring {}", cfg.label());
                    let times: BTreeMap<String, f64> = graphs
                        .iter()
                        .map(|g| (g.spec.name.to_string(), measure(g, &cfg, opts).ms_reported()))
                        .collect();
                    data.insert(
                        (
                            tiling.label().to_string(),
                            schedule.label().to_string(),
                            acc.label(),
                            n_tiles,
                        ),
                        times,
                    );
                }
            }
        }
    }
    data
}

fn main() {
    let opts = HarnessOptions::from_env();
    let data = match load_fig11_csv() {
        Some(d) => {
            eprintln!("[fig10] aggregating existing results/fig11.csv (run fig11 first to refresh)");
            d
        }
        None => measure_sweep(&opts),
    };

    // group configs by accumulator family; within each family compute the
    // % of graphs where the config is within 10% of the family's best
    let families: Vec<String> = {
        let mut f: Vec<String> =
            data.keys().map(|k| k.2.clone()).collect::<std::collections::BTreeSet<_>>().into_iter().collect();
        f.sort();
        f
    };

    println!("Figure 10: % of graphs within 10% of the best configuration (per accumulator family)");
    println!(
        "{:<14} {:<8} {:<8} {:>8} {:>11}",
        "tiling", "sched", "accum", "tiles", "% <10% off"
    );
    println!("{}", "-".repeat(55));
    let mut rows = Vec::new();
    let mut best_recommended: Option<(String, f64)> = None;

    for family in &families {
        let keys: Vec<_> = data.keys().filter(|k| &k.2 == family).cloned().collect();
        // consistent graph list = intersection across configs
        let graphs: Vec<String> = {
            let first = &data[&keys[0]];
            first
                .keys()
                .filter(|g| keys.iter().all(|k| data[k].contains_key(*g)))
                .cloned()
                .collect()
        };
        let times: Vec<Vec<f64>> = keys
            .iter()
            .map(|k| graphs.iter().map(|g| data[k][g]).collect())
            .collect();
        let pct = pct_within_of_best(&times, 0.10);
        for (k, p) in keys.iter().zip(&pct) {
            println!("{:<14} {:<8} {:<8} {:>8} {:>10.0}%", k.0, k.1, k.2, k.3, p);
            rows.push(format!("{},{},{},{},{:.1}", k.0, k.1, k.2, k.3, p));
            // the paper's recommendation: balanced, dynamic, intermediate count
            if k.0 == "FlopBalanced" && k.1 == "Dynamic" && k.3 >= 32 && k.3 <= 4096 {
                let label = format!("{}/{}/{}/{}", k.0, k.1, k.3, k.2);
                if best_recommended.as_ref().map_or(true, |(_, bp)| p > bp) {
                    best_recommended = Some((label, *p));
                }
            }
        }
    }

    if let Some((label, p)) = best_recommended {
        println!(
            "\nbest recommended-region configuration ({label}): {p:.0}% of graphs within 10% \
             (paper: 80-90% at 64 threads)"
        );
    }

    let path = write_csv("fig10.csv", "tiling,schedule,accumulator,n_tiles,pct_within_10", &rows)
        .expect("write results/fig10.csv");
    println!("wrote {}", path.display());
}
