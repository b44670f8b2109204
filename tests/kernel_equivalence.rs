//! Cross-crate equivalence: every (iteration space × accumulator × tiling
//! × schedule) configuration must produce the identical masked product on
//! every structural class of the synthetic suite, matching the dense
//! oracle. This is the repo's master correctness test — any kernel,
//! accumulator or scheduler bug lands here.

use masked_spgemm_repro::prelude::*;

const SCALE: f64 = 0.04;

fn suite_small() -> Vec<(String, Csr<u64>)> {
    suite_specs()
        .iter()
        .map(|s| (s.name.to_string(), suite_graph(s, SCALE).spones(1u64)))
        .collect()
}

fn oracle(a: &Csr<u64>) -> Csr<u64> {
    Dense::masked_matmul::<PlusPair, u64>(a, a, a)
}

#[test]
fn all_iteration_spaces_match_oracle_on_every_class() {
    for (name, a) in suite_small() {
        let want = oracle(&a);
        for iteration in [
            IterationSpace::Vanilla,
            IterationSpace::MaskAccumulate,
            IterationSpace::CoIterate,
            IterationSpace::Hybrid { kappa: 1.0 },
        ] {
            let cfg = Config::builder()
                .kernel_policy(KernelPolicy::new().iteration(iteration))
                .n_threads(2)
                .n_tiles(32)
                .build();
            let got = spgemm::<PlusPair>(&a, &a, &a, &cfg).unwrap().0;
            assert_eq!(got, want, "{name} / {}", iteration.label());
        }
    }
}

#[test]
fn all_accumulators_match_oracle_on_every_class() {
    for (name, a) in suite_small() {
        let want = oracle(&a);
        for accumulator in AccumulatorKind::all() {
            let cfg = Config::builder()
                .kernel_policy(KernelPolicy::new().accumulator(accumulator))
                .n_threads(2)
                .n_tiles(16)
                .build();
            let got = spgemm::<PlusPair>(&a, &a, &a, &cfg).unwrap().0;
            assert_eq!(got, want, "{name} / {}", accumulator.label());
        }
    }
}

#[test]
fn all_tiling_schedules_match_oracle() {
    // one graph per class is enough here; the cross product is the point
    let picks = ["GAP-road", "com-Orkut", "circuit5M", "uk-2002"];
    for (name, a) in suite_small() {
        if !picks.contains(&name.as_str()) {
            continue;
        }
        let want = oracle(&a);
        for tiling in TilingStrategy::all() {
            for schedule in Schedule::all() {
                for n_tiles in [1, 2, 7, 64, 100_000] {
                    let cfg = Config::builder().tiling(tiling).schedule(schedule).n_tiles(n_tiles).n_threads(2).build();
                    let got = spgemm::<PlusPair>(&a, &a, &a, &cfg).unwrap().0;
                    assert_eq!(
                        got, want,
                        "{name} / {} / {} / {n_tiles} tiles",
                        tiling.label(),
                        schedule.label()
                    );
                }
            }
        }
    }
}

#[test]
fn masked_product_commutes_with_symmetric_permutation() {
    // P(M ⊙ (A×A))Pᵀ == (PMPᵀ) ⊙ (PAPᵀ × PAPᵀ): relabelling vertices
    // relabels the result — validates permute + driver together
    use masked_spgemm_repro::sparse::permute::permute_symmetric;
    let spec = suite_specs().into_iter().find(|s| s.name == "europe_osm").unwrap();
    let a = suite_graph(&spec, SCALE).spones(1u64);
    // a fixed stride relabel, a permutation because the stride is prime
    // and does not divide the vertex count
    let n = a.nrows();
    assert_ne!(n % 97, 0);
    let perm: Vec<u32> = (0..n).map(|v| ((v * 97) % n) as u32).collect();
    let pa = permute_symmetric(&a, &perm);
    let cfg = Config::builder().n_threads(2).build();
    let c = spgemm::<PlusPair>(&a, &a, &a, &cfg).unwrap().0;
    let pc = spgemm::<PlusPair>(&pa, &pa, &pa, &cfg).unwrap().0;
    assert_eq!(permute_symmetric(&c, &perm), pc);
}

#[test]
fn model_prediction_is_correct_on_every_class() {
    for (name, a) in suite_small() {
        let pred = predict_config::<PlusPair>(&a, &a, &a, 2);
        let got = spgemm::<PlusPair>(&a, &a, &a, &pred.config).unwrap().0;
        assert_eq!(got, oracle(&a), "{name}: predicted {}", pred.config.label());
    }
}

#[test]
fn presets_agree_with_each_other() {
    for (name, a) in suite_small() {
        let mut results = Vec::new();
        for preset in Preset::all() {
            let cfg = preset_config::<PlusPair>(preset, &a, &a, &a, 2);
            results.push(spgemm::<PlusPair>(&a, &a, &a, &cfg).unwrap().0);
        }
        assert_eq!(results[0], results[1], "{name}: ss:gb vs grb");
        assert_eq!(results[1], results[2], "{name}: grb vs tuned");
    }
}

#[test]
fn kappa_extremes_are_still_exact() {
    let spec = suite_specs().into_iter().find(|s| s.name == "circuit5M").unwrap();
    let a = suite_graph(&spec, SCALE).spones(1u64);
    let want = oracle(&a);
    for kappa in [0.0, 1e-3, 1e3, f64::INFINITY] {
        let cfg = Config::builder()
            .kernel_policy(KernelPolicy::new().iteration(IterationSpace::Hybrid { kappa }))
            .n_threads(2)
            .build();
        let got = spgemm::<PlusPair>(&a, &a, &a, &cfg).unwrap().0;
        assert_eq!(got, want, "kappa = {kappa}");
    }
}

#[test]
fn works_over_multiple_semirings_end_to_end() {
    let spec = suite_specs().into_iter().find(|s| s.name == "as-Skitter").unwrap();
    let af = suite_graph(&spec, SCALE);
    let cfg = Config::builder().n_threads(2).n_tiles(16).build();

    // plus_times over f64
    let want = Dense::masked_matmul::<PlusTimes, f64>(&af, &af, &af);
    let got = spgemm::<PlusTimes>(&af, &af, &af, &cfg).unwrap().0;
    assert_eq!(got, want);

    // boolean
    let ab = af.spones(true);
    let want = Dense::masked_matmul::<BoolOrAnd, bool>(&ab, &ab, &ab);
    let got = spgemm::<BoolOrAnd>(&ab, &ab, &ab, &cfg).unwrap().0;
    assert_eq!(got, want);

    // tropical: masked min-plus relaxation step
    let aw = af.map_values(|v| (v as u64) + 3);
    let want = Dense::masked_matmul::<MinPlus, u64>(&aw, &aw, &aw);
    let got = spgemm::<MinPlus>(&aw, &aw, &aw, &cfg).unwrap().0;
    assert_eq!(got, want);
}

#[test]
fn symmetric_input_gives_symmetric_masked_square() {
    // A symmetric ⇒ A ⊙ (A×A) symmetric (both the product and the mask are)
    for (name, a) in suite_small() {
        let cfg = Config::builder().n_threads(2).build();
        let c = spgemm::<PlusPair>(&a, &a, &a, &cfg).unwrap().0;
        assert!(c.is_structurally_symmetric(), "{name}");
        // and value-symmetric: wedge counts are direction-independent
        let ct = c.transpose();
        assert_eq!(c, ct, "{name}: values must be symmetric too");
    }
}
