//! Fused multi-op graph vs unfused pipeline — the `PlanGraph` headline
//! benchmark.
//!
//! Three workloads, each fused-vs-unfused on several structural classes:
//!
//! * **k-truss peeling** — per round, the fused path runs the masked
//!   product with the support filter (`select v ≥ k−2`) and the spones
//!   re-canonicalisation folded into the row sink, so the support matrix
//!   never materialises; the unfused path is the Session loop with
//!   separate `select` and `spones` passes.
//! * **BC forward sweep** — the whole Brandes wave chain
//!   `σ_{d+1} = W_{d+1} ⊙ (σ_d × A)` as ONE graph (one worker-pool
//!   dispatch, depth `d+1` consuming depth `d`'s rows cache-hot) vs one
//!   Session execute — and one materialised `σ_d` — per BFS level.
//! * **single product** — a one-node graph with nothing to fuse must sit
//!   within noise of the plain planned product; the fusion machinery may
//!   not tax the case the paper actually benchmarks.
//!
//! Timing runs first, unarmed; a final armed pass collects the
//! `fusion.*` counters. Run:
//! `cargo run --release -p mspgemm-bench --bin fusion`

use mspgemm_bench::{write_csv, BenchGraph, HarnessOptions};
use mspgemm_core::{Config, Executor, GraphBuilder, Session};
use mspgemm_gen::suite_specs;
use mspgemm_graph::{
    bc_forward_fused_from_levels, bc_forward_unfused_from_levels, bfs_levels_multi, ktruss,
    ktruss_unfused,
};
use mspgemm_rt::obs;
use mspgemm_sparse::PlusPair;
use std::time::Instant;

/// One graph per structural class, matching the kernel-equivalence picks.
const PICKS: [&str; 3] = ["GAP-road", "com-Orkut", "uk-2002"];

const KTRUSS_K: usize = 4;
const BC_SOURCES: usize = 8;

/// Best-of-budget wall time of a whole-algorithm closure, in ms.
fn measure_ms(opts: &HarnessOptions, mut f: impl FnMut()) -> f64 {
    f(); // warm-up (spawns the pool, faults pages)
    let start = Instant::now();
    let mut min = f64::INFINITY;
    let mut iters = 0usize;
    while iters < opts.max_iters.max(1) && (iters == 0 || start.elapsed() < opts.budget) {
        let t0 = Instant::now();
        f();
        min = min.min(t0.elapsed().as_secs_f64() * 1e3);
        iters += 1;
    }
    min
}

fn spread_sources(n: usize, k: usize) -> Vec<usize> {
    (0..k).map(|i| i * n / k).collect()
}

fn main() {
    let opts = HarnessOptions::from_env();
    let cfg = Config::builder().n_threads(opts.threads).build();
    let graphs: Vec<BenchGraph> = suite_specs()
        .iter()
        .filter(|s| PICKS.contains(&s.name))
        .map(|s| {
            eprintln!("[gen] {} (scale {})", s.name, opts.scale);
            BenchGraph::generate(s, &opts)
        })
        .collect();

    println!("Fused PlanGraph vs unfused pipeline (ms, best-of-budget)");
    println!(
        "{:<10} {:<16} {:>12} {:>12} {:>8}",
        "workload", "graph", "unfused", "fused", "speedup"
    );
    let mut rows = Vec::new();
    let mut report = |workload: &str, name: &str, kind: char, unfused: f64, fused: f64| {
        println!(
            "{:<10} {:<16} {:>12.2} {:>12.2} {:>7.2}x",
            workload,
            name,
            unfused,
            fused,
            unfused / fused
        );
        rows.push(format!(
            "{workload},{name},{kind},{unfused:.4},{fused:.4},{:.4}",
            unfused / fused
        ));
    };

    for g in &graphs {
        let a = &g.a;
        let kind = g.spec.kind.letter();

        let unfused = measure_ms(&opts, || {
            let r = ktruss_unfused(a, KTRUSS_K, &cfg).expect("suite graphs are symmetric");
            std::hint::black_box(r.truss.nnz());
        });
        let fused = measure_ms(&opts, || {
            let r = ktruss(a, KTRUSS_K, &cfg).expect("suite graphs are symmetric");
            std::hint::black_box(r.truss.nnz());
        });
        report("ktruss", g.spec.name, kind, unfused, fused);

        // the BFS level discovery is identical in both pipelines; time
        // the sweep itself — the part fusion changes
        let sources = spread_sources(a.nrows(), BC_SOURCES);
        let levels = bfs_levels_multi(a, &sources).expect("sources in range");
        let unfused = measure_ms(&opts, || {
            let s = bc_forward_unfused_from_levels(a, &levels, &cfg).expect("level-consistent");
            std::hint::black_box(s.len());
        });
        let fused = measure_ms(&opts, || {
            let s = bc_forward_fused_from_levels(a, &levels, &cfg).expect("level-consistent");
            std::hint::black_box(s.len());
        });
        report("bc-fwd", g.spec.name, kind, unfused, fused);

        // single product: reusable Plan vs reusable one-node PlanGraph
        let mut session = Session::<PlusPair>::new(cfg);
        let unfused = measure_ms(&opts, || {
            let (c, _) = session.execute(a, a, a).expect("square self-masked");
            std::hint::black_box(c.nnz());
        });
        let mut gb = GraphBuilder::<PlusPair>::on(Executor::global(), cfg);
        let x = gb.input();
        let node = gb.product(x, x, x);
        gb.mark_output(node);
        let mut pg = gb.build(&[a]).expect("square self-masked");
        let fused = measure_ms(&opts, || {
            let (outs, _) = pg.execute(&[a]).expect("structure is fixed");
            std::hint::black_box(outs[0].nnz());
        });
        report("single-op", g.spec.name, kind, unfused, fused);
    }

    // ---- armed pass: fusion counters (sticky from here) ----
    obs::arm_metrics();
    let before = obs::snapshot();
    for g in &graphs {
        let _ = ktruss(&g.a, KTRUSS_K, &cfg).expect("suite graphs are symmetric");
        let sources = spread_sources(g.a.nrows(), BC_SOURCES);
        let levels = bfs_levels_multi(&g.a, &sources).expect("in range");
        let _ = bc_forward_fused_from_levels(&g.a, &levels, &cfg).expect("level-consistent");
    }
    let m = obs::snapshot().delta_since(&before);
    println!(
        "fusion counters (one armed pass): ops_fused {}, tiles_chained {}, sink_fused_elements {}",
        m.counter("fusion.ops_fused"),
        m.counter("fusion.tiles_chained"),
        m.counter("fusion.sink_fused_elements"),
    );

    match write_csv("fusion.csv", "workload,graph,kind,unfused_ms,fused_ms,speedup", &rows) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("failed to write results: {e}");
            std::process::exit(1);
        }
    }
}
