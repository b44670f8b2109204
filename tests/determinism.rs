//! Determinism and reproducibility guarantees.
//!
//! The paper's motivation is *predictable* performance; this repo also
//! guarantees predictable *results*: the masked product is bit-identical
//! across thread counts, schedules, tile counts and repeated runs, and
//! the synthetic suite is bit-identical across generations.

use masked_spgemm_repro::prelude::*;

#[test]
fn output_independent_of_thread_count() {
    let spec = suite_specs().into_iter().find(|s| s.name == "com-LiveJournal").unwrap();
    let a = suite_graph(&spec, 0.05).spones(1u64);
    let reference = spgemm::<PlusPair>(
        &a,
        &a,
        &a,
        &Config::builder().n_threads(1).build(),
    )
    .unwrap().0;
    for n_threads in [2, 3, 4, 8] {
        let got = spgemm::<PlusPair>(
            &a,
            &a,
            &a,
            &Config::builder().n_threads(n_threads).build(),
        )
        .unwrap().0;
        assert_eq!(got, reference, "{n_threads} threads");
    }
}

#[test]
fn output_independent_of_schedule() {
    let spec = suite_specs().into_iter().find(|s| s.name == "stokes").unwrap();
    let a = suite_graph(&spec, 0.04).spones(1u64);
    let reference =
        spgemm::<PlusPair>(&a, &a, &a, &Config::builder().n_threads(2).build())
            .unwrap().0;
    for schedule in Schedule::all() {
        let got = spgemm::<PlusPair>(
            &a,
            &a,
            &a,
            &Config::builder().schedule(schedule).n_threads(2).build(),
        )
        .unwrap().0;
        assert_eq!(got, reference, "{schedule:?}");
    }
}

#[test]
fn repeated_runs_are_identical() {
    let spec = suite_specs().into_iter().find(|s| s.name == "europe_osm").unwrap();
    let a = suite_graph(&spec, 0.05).spones(1u64);
    let cfg = Config::builder().n_threads(2).build();
    let first = spgemm::<PlusPair>(&a, &a, &a, &cfg).unwrap().0;
    for _ in 0..5 {
        assert_eq!(spgemm::<PlusPair>(&a, &a, &a, &cfg).unwrap().0, first);
    }
}

#[test]
fn suite_generation_is_reproducible() {
    for spec in suite_specs() {
        let a = suite_graph(&spec, 0.03);
        let b = suite_graph(&spec, 0.03);
        assert_eq!(a, b, "{}", spec.name);
    }
}

#[test]
fn stats_are_consistent_with_output() {
    let spec = suite_specs().into_iter().find(|s| s.name == "as-Skitter").unwrap();
    let a = suite_graph(&spec, 0.05).spones(1u64);
    let cfg = Config::builder().n_threads(2).n_tiles(64).build();
    let (c, stats) = spgemm::<PlusPair>(&a, &a, &a, &cfg).unwrap();
    assert_eq!(stats.output_nnz, c.nnz());
    assert_eq!(stats.n_tiles, 64.min(a.nrows()));
    assert_eq!(
        stats.thread_reports.iter().map(|r| r.tiles_run).sum::<usize>(),
        stats.n_tiles
    );
    // Eq. 2 lower bound: work ≥ nnz(M) since every row counts its mask
    assert!(stats.estimated_work >= a.nnz() as u64);
}
