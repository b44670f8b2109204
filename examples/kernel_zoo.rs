//! The kernel zoo: the paper's four row-wise saxpy iteration spaces
//! (Figs. 3/5/7/9) on one workload, timed and cross-checked.
//!
//! Run: `cargo run --release --example kernel_zoo [scale]`

use masked_spgemm_repro::prelude::*;
use std::time::Instant;

fn main() {
    let scale: f64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0.2);
    let spec = *suite_specs().iter().find(|s| s.name == "com-LiveJournal").unwrap();
    let a = suite_graph(&spec, scale).spones(1u64);
    println!(
        "workload: C = A ⊙ (A×A), {} stand-in ({} rows, {} nnz)\n",
        spec.name,
        a.nrows(),
        a.nnz()
    );

    let cfg = Config::default();
    let mut reference: Option<Csr<u64>> = None;
    let mut check = |name: &str, c: Csr<u64>, ms: f64| {
        match &reference {
            None => reference = Some(c),
            Some(want) => assert_eq!(&c, want, "{name} disagrees"),
        }
        println!("{name:<42} {ms:>9.2} ms");
    };

    // --- the four saxpy iteration spaces -------------------------------
    for (name, iteration) in [
        ("saxpy / vanilla (Fig. 3)", IterationSpace::Vanilla),
        ("saxpy / mask-accumulate (Fig. 5, GrB)", IterationSpace::MaskAccumulate),
        ("saxpy / co-iteration (Fig. 7)", IterationSpace::CoIterate),
        ("saxpy / hybrid κ=1 (Fig. 9, push-pull)", IterationSpace::Hybrid { kappa: 1.0 }),
    ] {
        let c = cfg.to_builder().kernel_policy(cfg.kernel.iteration(iteration)).build();
        let t0 = Instant::now();
        let (out, _) = spgemm::<PlusPair>(&a, &a, &a, &c).unwrap();
        check(name, out, t0.elapsed().as_secs_f64() * 1e3);
    }

    println!("\nall {} formulations produced identical results ✓", 4);
}
