//! Equivalence suite for output assembly.
//!
//! Mask-bounded slots + compaction (or zero-copy adoption) must be
//! **bit-identical** to the dense `Dense::masked_matmul` oracle for every
//! point of the configuration grid — same column order, same values, same
//! `row_ptr`. The oracle folds products in the same k-order per row, so
//! equality is exact, not approximate.
//!
//! Every test first makes the failpoint registry armable: the registry
//! freezes on the engine's first read, and the fault tests below arm it
//! per test.

use mspgemm_core::{spgemm, Config, IterationSpace, KernelPolicy};
use mspgemm_rt::failpoint;
use mspgemm_rt::testkit::{check, vec_of};
use mspgemm_sched::{Schedule, TilingStrategy};
use mspgemm_sparse::{Coo, Csr, Dense, PlusTimes};
use std::sync::{Mutex, Once};

/// Make sure the failpoint registry is armable whichever test touches the
/// driver first (without `MSPGEMM_FAILPOINTS` it would otherwise freeze
/// unarmed and the fault tests could not arm it). Must win the race
/// against the engine's one-shot read, so every test calls it first.
fn arm_failpoint_registry() {
    static PIN: Once = Once::new();
    PIN.call_once(|| {
        if std::env::var_os(failpoint::ENV_VAR).is_none() {
            failpoint::arm(ALL_OFF).expect("registry must be armable before first use");
        }
    });
}

fn lcg_matrix(nrows: usize, ncols: usize, per_row: usize, seed: u64) -> Csr<f64> {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    let mut next = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let mut coo = Coo::new(nrows, ncols);
    for i in 0..nrows {
        for _ in 0..per_row {
            let j = next() % ncols;
            coo.push(i, j, ((next() % 9) + 1) as f64);
        }
    }
    coo.to_csr_with(|a, _| a)
}

/// Assert the assembled product equals the dense oracle exactly (pattern
/// *and* storage): `Csr` equality compares `row_ptr`, `cols` and `vals`
/// verbatim.
fn assert_matches_oracle(a: &Csr<f64>, b: &Csr<f64>, m: &Csr<f64>, base: &Config) {
    let want = Dense::masked_matmul::<PlusTimes, f64>(a, b, m);
    let (got, _) = spgemm::<PlusTimes>(a, b, m, base).unwrap();
    assert_eq!(got, want, "assembly diverges from the oracle under {}", base.label());
}

#[test]
fn assembly_matches_oracle_across_full_config_grid() {
    arm_failpoint_registry();
    let a = lcg_matrix(64, 64, 5, 1);
    let b = lcg_matrix(64, 64, 4, 2);
    let m = lcg_matrix(64, 64, 6, 3);
    for tiling in TilingStrategy::all() {
        for schedule in Schedule::all() {
            for iteration in [
                IterationSpace::Vanilla,
                IterationSpace::MaskAccumulate,
                IterationSpace::CoIterate,
                IterationSpace::Hybrid { kappa: 1.0 },
            ] {
                for accumulator in mspgemm_accum::AccumulatorKind::all() {
                    let base = Config::builder()
                        .n_threads(2)
                        .n_tiles(7)
                        .tiling(tiling)
                        .schedule(schedule)
                        .kernel_policy(
                            KernelPolicy::new().iteration(iteration).accumulator(accumulator),
                        )
                        .build();
                    assert_matches_oracle(&a, &b, &m, &base);
                }
            }
        }
    }
}

#[test]
fn assembly_matches_oracle_on_random_operands() {
    arm_failpoint_registry();
    const CASES: usize = 64;
    let s = (
        vec_of((0..24usize, 0..24usize, 1..100i32), 0..=120usize),
        vec_of((0..24usize, 0..24usize, 1..100i32), 0..=120usize),
        vec_of((0..24usize, 0..24usize, 1..100i32), 0..=120usize),
    );
    let csr = |triples: &[(usize, usize, i32)]| {
        let mut coo = Coo::new(24, 24);
        for &(i, j, v) in triples {
            coo.push(i, j, v as f64);
        }
        coo.to_csr_last()
    };
    check("assembly_matches_oracle_on_random_operands", CASES, s, |(ta, tb, tm)| {
        let (a, b, m) = (csr(&ta), csr(&tb), csr(&tm));
        let base = Config::builder().n_threads(2).n_tiles(5).build();
        assert_matches_oracle(&a, &b, &m, &base);
    });
}

#[test]
fn zero_slack_run_adopts_slot_buffers() {
    arm_failpoint_registry();
    // mask = the product's own pattern ⇒ every mask entry is filled,
    // slack is zero and the engine adopts the slot buffers without
    // copying (driver.compaction_bytes == 0 is asserted in metrics.rs;
    // here we check the result is still right on the adoption branch)
    let a = lcg_matrix(48, 48, 5, 9);
    let full = Dense::masked_matmul::<PlusTimes, f64>(&a, &a, &a.spones(1.0));
    if full.nnz() == 0 {
        return;
    }
    let mask = full.spones(1.0);
    let base = Config::builder().n_threads(2).n_tiles(6).build();
    let want = Dense::masked_matmul::<PlusTimes, f64>(&a, &a, &mask);
    assert_eq!(want.nnz(), mask.nnz(), "test premise: zero slack");
    assert_matches_oracle(&a, &a, &mask, &base);
}

// ---------------------------------------------------------------------
// fault injection: the registry is process-global, so the fault tests
// below serialize on a mutex and disarm on the way out (same discipline
// as fault_injection.rs)
// ---------------------------------------------------------------------

static REGISTRY_LOCK: Mutex<()> = Mutex::new(());

const ALL_OFF: &str =
    "tile-kernel=off;accum-reset=off;fragment-stitch=off;work-estimate=off";

fn with_failpoints<R>(spec: &str, f: impl FnOnce() -> R) -> R {
    let _guard = REGISTRY_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    failpoint::arm(ALL_OFF).expect("registry must be armable in this binary");
    if !spec.is_empty() {
        failpoint::arm(spec).expect("test spec must parse");
    }
    let out = f();
    failpoint::arm(ALL_OFF).expect("disarm");
    out
}

#[test]
fn fault_retried_tile_lands_in_its_slots_bit_identically() {
    arm_failpoint_registry();
    let a = lcg_matrix(64, 64, 5, 4);
    let b = lcg_matrix(64, 64, 4, 5);
    let m = lcg_matrix(64, 64, 6, 6);
    let base = Config::builder()
        .n_threads(2)
        .n_tiles(8)
        .schedule(Schedule::Dynamic)
        .build();
    with_failpoints("", || {
        let (want, _) = spgemm::<PlusTimes>(&a, &b, &m, &base).unwrap();
        // pin tile 3: its parallel kernel panics, the degraded serial
        // retry recomputes it into the *same* mask-bounded slot range,
        // and compaction must not be able to tell the difference
        failpoint::arm("tile-kernel=panic@p:1.0,key:3,seed:42").unwrap();
        let (got, stats) = spgemm::<PlusTimes>(&a, &b, &m, &base)
            .expect("degraded retry must recover the pinned tile in place");
        assert_eq!(got, want, "retried tile must land bit-identically in its slots");
        assert_eq!(stats.failed_tiles, 1);
        assert_eq!(stats.retried_tiles, 1);
    });
}

#[test]
fn fault_all_tiles_retried_still_assemble_in_place() {
    arm_failpoint_registry();
    let a = lcg_matrix(50, 50, 5, 7);
    let base = Config::builder()
        .n_threads(2)
        .n_tiles(8)
        .build();
    with_failpoints("", || {
        let (want, _) = spgemm::<PlusTimes>(&a, &a, &a, &base).unwrap();
        failpoint::arm("tile-kernel=panic@p:1.0").unwrap();
        let (got, stats) = spgemm::<PlusTimes>(&a, &a, &a, &base)
            .expect("serial retry must recover every tile");
        assert_eq!(got, want);
        assert_eq!(stats.failed_tiles, base.n_tiles);
        assert_eq!(stats.retried_tiles, base.n_tiles);
    });
}
