//! Bit-identity of the fused multi-op graph against the unfused pipeline.
//!
//! The `PlanGraph` executes a chain of masked products with element-wise
//! consumers folded into the row sink; the unfused path materialises
//! every intermediate and runs the consumers as separate passes. Both
//! must produce *bit-identical* matrices — same structure, same values —
//! on every policy preset and every structural graph class, because both
//! fold each row's products in the same order. The suite must also pass
//! identically with `MSPGEMM_FAILPOINTS` armed: a failed tile degrades to
//! the serial whole-chain retry, which replays the same fold order.

use masked_spgemm_repro::prelude::*;
/// Small structural-class grid: one scale-free, one mesh-like, one
/// uniform-random graph. The k-truss / BC behaviour differs meaningfully
/// across these (dense cores vs long diameters vs thin uniform support).
fn graph_grid() -> Vec<(&'static str, Csr<f64>)> {
    vec![
        ("rmat", rmat::rmat(8, 6, Default::default(), 42)),
        (
            "road",
            road::road(
                16,
                10,
                road::RoadParams { keep_prob: 0.95, shortcut_rate: 0.05, shortcut_radius: 4 },
                7,
            ),
        ),
        ("er", er::erdos_renyi(220, 900, 11)),
    ]
}

/// The three preset operating points (Fig. 1's legend), pinned to a
/// test-friendly thread/tile count so the grid exercises the per-preset
/// accumulator and iteration-space choices rather than the machine's core
/// count. `preset_config` resolves tile counts from `available_parallelism`,
/// so the axes are restated here with fixed small values.
fn preset_grid() -> Vec<(&'static str, Config)> {
    let base = Config::builder().n_threads(2).n_tiles(16);
    vec![
        (
            "grb-like",
            base.schedule(Schedule::Static)
                .kernel_policy(
                    KernelPolicy::new()
                        .accumulator(AccumulatorKind::Hash(MarkerWidth::W64))
                        .iteration(IterationSpace::MaskAccumulate),
                )
                .build(),
        ),
        (
            "suitesparse-like",
            base.schedule(Schedule::Dynamic)
                .kernel_policy(
                    KernelPolicy::new()
                        .accumulator(AccumulatorKind::Dense(MarkerWidth::W64))
                        .hybrid(1.0),
                )
                .build(),
        ),
        (
            "tuned",
            base.schedule(Schedule::Dynamic)
                .kernel_policy(
                    KernelPolicy::new()
                        .accumulator(AccumulatorKind::Hash(MarkerWidth::W32))
                        .hybrid(1.0),
                )
                .build(),
        ),
    ]
}

#[test]
fn ktruss_fused_matches_unfused_on_every_preset_and_class() {
    for (gname, g) in graph_grid() {
        for (pname, cfg) in preset_grid() {
            for k in [3, 4] {
                let fused = ktruss(&g, k, &cfg).unwrap();
                let unfused = ktruss_unfused(&g, k, &cfg).unwrap();
                assert_eq!(
                    fused.truss, unfused.truss,
                    "{gname} / {pname} / k = {k}: fused truss differs"
                );
                assert_eq!(fused.rounds, unfused.rounds, "{gname} / {pname} / k = {k}");
            }
        }
    }
}

#[test]
fn bc_forward_fused_matches_unfused_on_every_preset_and_class() {
    for (gname, g) in graph_grid() {
        let n = g.nrows();
        let sources = [0, n / 3, n / 2, n - 1];
        for (pname, cfg) in preset_grid() {
            let fused = bc_forward_fused(&g, &sources, &cfg).unwrap();
            let unfused = bc_forward_unfused(&g, &sources, &cfg).unwrap();
            assert_eq!(fused.len(), unfused.len(), "{gname} / {pname}: depth count");
            for (d, (f, u)) in fused.iter().zip(&unfused).enumerate() {
                assert_eq!(f, u, "{gname} / {pname}: sigma at depth {d} differs");
            }
        }
    }
}

#[test]
fn single_product_graph_is_within_noise_of_spgemm() {
    // a one-node graph with no fused ops must be *exactly* the one-shot
    // masked product — the fusion machinery may add no structure or
    // value drift when there is nothing to fuse
    for (gname, gf) in graph_grid() {
        let g = gf.spones(1u64);
        for (pname, cfg) in preset_grid() {
            let want = spgemm::<PlusPair>(&g, &g, &g, &cfg).unwrap().0;
            let exec = Executor::global();
            let mut gb = GraphBuilder::<PlusPair>::on(exec, cfg);
            let x = gb.input();
            let node = gb.product(x, x, x);
            gb.mark_output(node);
            let mut pg = gb.build(&[&g]).unwrap();
            let (outs, _) = pg.execute(&[&g]).unwrap();
            assert_eq!(outs.len(), 1);
            assert_eq!(outs[0], want, "{gname} / {pname}: single-node graph drifted");
        }
    }
}
