//! I/O round-trips and the "bring your own SuiteSparse matrix" path:
//! users with the real collection load Matrix Market files and run the
//! same experiments; this test drives that path end-to-end with generated
//! data standing in for a downloaded file.

use masked_spgemm_repro::prelude::*;
use mspgemm_sparse::io::{read_matrix_market, write_matrix_market};

#[test]
fn matrix_market_roundtrip_preserves_suite_graphs() {
    let dir = std::env::temp_dir().join("mspgemm_io_test");
    std::fs::create_dir_all(&dir).unwrap();
    for spec in suite_specs().iter().take(4) {
        let a = suite_graph(spec, 0.03);
        let path = dir.join(format!("{}.mtx", spec.name));
        write_matrix_market(&path, &a).unwrap();
        let back = read_matrix_market(&path).unwrap();
        assert_eq!(back, a, "{}", spec.name);
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn loaded_matrix_runs_the_full_experiment_path() {
    // simulate the user flow: write a file, read it, symmetrize, run the
    // paper's kernel and the tuner on it
    let spec = suite_specs().into_iter().find(|s| s.name == "as-Skitter").unwrap();
    let a = suite_graph(&spec, 0.03);
    let dir = std::env::temp_dir().join("mspgemm_io_test2");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("input.mtx");
    write_matrix_market(&path, &a).unwrap();

    let loaded = read_matrix_market(&path).unwrap();
    let adj = mspgemm_gen::symmetrize_boolean(&loaded).unwrap().spones(1u64);
    assert!(adj.is_structurally_symmetric());

    let want = Dense::masked_matmul::<PlusPair, u64>(&adj, &adj, &adj);
    let cfg = Config::builder().n_threads(2).build();
    let got = spgemm::<PlusPair>(&adj, &adj, &adj, &cfg).unwrap().0;
    assert_eq!(got, want);

    let opts = TunerOptions {
        n_threads: 2,
        tile_counts: vec![4, 32],
        kappas: vec![0.1, 1.0],
        ..TunerOptions::default()
    };
    let report = tune::<PlusPair>(&adj, &adj, &adj, &opts).expect("square operands");
    let tuned = spgemm::<PlusPair>(&adj, &adj, &adj, &report.best).unwrap().0;
    assert_eq!(tuned, want);

    std::fs::remove_file(&path).unwrap();
}

#[test]
fn csc_view_is_consistent_with_masked_product() {
    // the paper notes the column-wise saxpy over CSC is symmetric to the
    // row-wise case: C = M ⊙ (A×B) computed row-wise equals the transpose
    // of Cᵗ = Mᵗ ⊙ (Bᵗ×Aᵗ) computed row-wise on the transposes
    let spec = suite_specs().into_iter().find(|s| s.name == "GAP-road").unwrap();
    let a = suite_graph(&spec, 0.04).spones(1u64);
    let b = {
        // make B ≠ A to exercise the general case: drop some entries
        a.select(|i, j, _| (i + j as usize) % 7 != 0)
    };
    let m = a.select(|i, j, _| (i * 3 + j as usize) % 5 != 0);

    let cfg = Config::builder().n_threads(2).build();
    let c = spgemm::<PlusPair>(&a, &b, &m, &cfg).unwrap().0;

    let ct = spgemm::<PlusPair>(&b.transpose(), &a.transpose(), &m.transpose(), &cfg)
        .unwrap().0;
    assert_eq!(c, ct.transpose());
}
