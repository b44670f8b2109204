//! Consistency tests for the armed observability pipeline.
//!
//! The `obs` registry is process-global, so this binary arms metrics once
//! and every test (a) serializes on a mutex and (b) asserts on
//! **snapshot deltas**, never absolute counter values. The unarmed
//! zero-cost guarantee is asserted in `metrics_unarmed.rs` — it must live
//! in a separate test binary because arming is irreversible per process.

use mspgemm_core::{
    spgemm, Config, Executor, IterationSpace, KernelPolicy, Service, ServiceOptions,
    SubmitOptions,
};
use mspgemm_rt::obs;
use mspgemm_sched::Schedule;
use mspgemm_sparse::{Coo, Csr, PlusTimes};
use std::sync::{Arc, Mutex};

static METRICS_LOCK: Mutex<()> = Mutex::new(());

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

/// Arm metrics + trace, serialize, and hand `f` a clean trace buffer.
fn with_armed_metrics<R>(f: impl FnOnce() -> R) -> R {
    let _guard = METRICS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    obs::arm_metrics();
    obs::arm_trace();
    let _ = obs::take_trace();
    f()
}

#[test]
fn tile_output_nnz_counters_sum_to_run_output_nnz() {
    let a = lcg_matrix(80, 80, 5, 1);
    let cfg = Config::builder().n_threads(2).n_tiles(8).build();
    with_armed_metrics(|| {
        let (c, stats) = spgemm::<PlusTimes>(&a, &a, &a, &cfg).unwrap();
        let m = stats.metrics.expect("armed run must attach a snapshot delta");
        assert_eq!(
            m.counter("driver.tile_output_nnz"),
            c.nnz() as u64,
            "per-tile output-nnz counters must sum to RunStats::output_nnz"
        );
        assert_eq!(m.counter("sched.tiles_completed"), cfg.n_tiles as u64);
        assert_eq!(m.counter("sched.tiles_started"), cfg.n_tiles as u64);
        assert_eq!(m.counter("sched.tiles_failed"), 0);
        assert_eq!(m.counter("driver.runs"), 1);
        // slack = mask entries the product never filled; the driver records
        // it once per run
        let slack = (a.nnz() - c.nnz()) as u64;
        assert_eq!(m.counter("driver.slack_nnz"), slack);
        // zero-copy adoption when slack == 0, otherwise compaction moves
        // every surviving entry once (4-byte col + 8-byte val)
        let expect_bytes = if slack == 0 { 0 } else { c.nnz() as u64 * 12 };
        assert_eq!(m.counter("driver.compaction_bytes"), expect_bytes);
    });
}

#[test]
fn hybrid_decision_counts_sum_to_nonempty_ik_pairs() {
    let a = lcg_matrix(60, 60, 4, 2);
    let b = lcg_matrix(60, 60, 3, 3);
    let mask = lcg_matrix(60, 60, 5, 4);
    let expected: u64 = (0..60)
        .map(|i| a.row(i).0.iter().filter(|&&k| b.row_nnz(k as usize) > 0).count() as u64)
        .sum();
    for kappa in [0.0, 1.0, f64::INFINITY] {
        let cfg = Config::builder()
            .n_threads(2)
            .n_tiles(6)
            .kernel_policy(KernelPolicy::new().iteration(IterationSpace::Hybrid { kappa }))
            .build();
        with_armed_metrics(|| {
            let (_, stats) = spgemm::<PlusTimes>(&a, &b, &mask, &cfg).unwrap();
            let m = stats.metrics.unwrap();
            let decisions = m.counter("kernel.hybrid.coiterate") + m.counter("kernel.hybrid.saxpy");
            assert_eq!(
                decisions, expected,
                "one Eq. 3 decision per (i,k) pair with non-empty B[k,:], kappa={kappa}"
            );
            if kappa == 0.0 {
                assert_eq!(m.counter("kernel.hybrid.coiterate"), 0);
                assert_eq!(m.counter("kernel.binary_search_steps"), 0);
            }
            if kappa == f64::INFINITY {
                assert_eq!(m.counter("kernel.hybrid.saxpy"), 0);
                assert!(m.counter("kernel.binary_search_steps") > 0);
            }
        });
    }
}

#[test]
fn accumulator_counters_flow_through_the_driver() {
    use mspgemm_accum::{AccumulatorKind, MarkerWidth};
    let a = lcg_matrix(70, 70, 5, 5);
    // hash + narrow markers: probes, probe-length histogram and full
    // resets must all reach the registry via the per-tile flush
    let cfg = Config::builder()
        .n_threads(2)
        .n_tiles(4)
        .kernel_policy(
            KernelPolicy::new()
                .accumulator(AccumulatorKind::Hash(MarkerWidth::W8))
                .iteration(IterationSpace::MaskAccumulate),
        )
        .build();
    with_armed_metrics(|| {
        let (_, stats) = spgemm::<PlusTimes>(&a, &a, &a, &cfg).unwrap();
        let m = stats.metrics.unwrap();
        assert!(m.counter("accum.hash.probes") > 0);
        assert!(m.counter("accum.hash.probe_steps") >= m.counter("accum.hash.probes"));
        assert!(m.counter("accum.mask_preload.hits") > 0);
        let probe_hist = m.hist("accum.hash.probe_len").expect("histogram recorded");
        let hist_total: u64 = probe_hist.iter().sum();
        assert_eq!(
            hist_total,
            m.counter("accum.hash.probes"),
            "every probe lands in exactly one histogram bucket"
        );
    });
}

#[test]
fn trace_spans_cover_every_tile() {
    let a = lcg_matrix(50, 50, 4, 6);
    let cfg = Config::builder()
        .n_threads(2)
        .n_tiles(5)
        .schedule(Schedule::Dynamic)
        .build();
    with_armed_metrics(|| {
        let _ = spgemm::<PlusTimes>(&a, &a, &a, &cfg).unwrap();
        let events = obs::take_trace();
        let tile_spans: Vec<_> = events.iter().filter(|e| e.name == "tile").collect();
        assert_eq!(tile_spans.len(), cfg.n_tiles, "one span per tile");
        let mut keys: Vec<u64> = tile_spans.iter().map(|e| e.key).collect();
        keys.sort_unstable();
        assert_eq!(keys, (0..cfg.n_tiles as u64).collect::<Vec<_>>());
        // the sink emits the bare-array flavour of the chrome format
        let json = obs::trace_to_chrome_json(&events);
        let doc = mspgemm_rt::json::parse(&json).expect("chrome trace JSON parses");
        let arr = doc.as_arr().unwrap();
        assert_eq!(arr.len(), events.len());
        assert_eq!(arr[0].get("ph").unwrap().as_str(), Some("X"));
    });
}

#[test]
fn thread_busy_histogram_counts_every_worker() {
    let a = lcg_matrix(50, 50, 4, 7);
    let cfg = Config::builder().n_threads(3).n_tiles(9).build();
    with_armed_metrics(|| {
        let before = obs::snapshot();
        let _ = spgemm::<PlusTimes>(&a, &a, &a, &cfg).unwrap();
        let delta = obs::snapshot().delta_since(&before);
        let busy = delta.hist("sched.thread_busy_us").unwrap();
        assert_eq!(
            busy.iter().sum::<u64>(),
            cfg.n_threads as u64,
            "one busy-time sample per worker thread"
        );
    });
}

#[test]
fn plan_cache_separates_configs_that_share_a_fingerprint() {
    // Two configs that differ only in the tile count pin the operands
    // identically, so their cached plans share one fingerprint bucket.
    // Alternating submissions must still lease the plan frozen under the
    // job's own config, and the repeats must hit the cache.
    let a = Arc::new(lcg_matrix(96, 96, 5, 21));
    let mask = Arc::new(lcg_matrix(96, 96, 6, 22));
    let configs = [4usize, 16].map(|n| Config::builder().n_threads(2).n_tiles(n).build());
    with_armed_metrics(|| {
        // serial references under the lock too: the armed registry is
        // process-global, and an unlocked run would leak into the deltas
        // other tests assert on
        let exec = Executor::new();
        let want: Vec<Csr<f64>> = configs
            .iter()
            .map(|cfg| exec.execute::<PlusTimes>(&a, &a, &mask, cfg).unwrap().0)
            .collect();
        let svc = Service::<PlusTimes>::on(&exec, ServiceOptions::default());
        let before = obs::snapshot();
        for round in 0..3 {
            for (cfg, want) in configs.iter().zip(&want) {
                let reply = svc
                    .submit(a.clone(), a.clone(), mask.clone(), *cfg, SubmitOptions::default())
                    .unwrap()
                    .wait()
                    .unwrap();
                assert_eq!(&reply.c, want, "round {round}, {} tiles", cfg.n_tiles);
                assert_eq!(reply.stats.n_tiles, cfg.n_tiles, "round {round}: leased another plan");
            }
        }
        let delta = obs::snapshot().delta_since(&before);
        assert!(
            delta.counter("svc.plan_cache_hits") >= 1,
            "repeated shapes never hit the plan cache"
        );
    });
}

#[test]
fn eq2_estimate_runs_on_the_executor_pool_at_the_config_width() {
    // Above the pooled-estimate cutoff (2^17 stored entries in A), a plan
    // build runs Eq. 2 on the executor's own workers: 8 row blocks per
    // worker under the default dynamic schedule, one per worker under
    // static. At one thread it runs on the calling thread and spawns no
    // worker at all.
    let a = lcg_matrix(40_000, 40_000, 4, 31);
    assert!(a.nnz() >= 1 << 17, "input must sit above the cutoff");
    let two = Config::builder().n_threads(2).build();
    with_armed_metrics(|| {
        let blocks_for = |exec: &Executor, cfg: &Config| {
            let before = obs::snapshot();
            exec.plan::<PlusTimes>(&a, &a, &a, cfg).unwrap();
            obs::snapshot().delta_since(&before).counter("sched.tiles_completed")
        };
        let wide = Executor::new();
        assert_eq!(blocks_for(&wide, &two), 16, "8 blocks per worker");
        assert_eq!(wide.spawned_workers(), 2, "the build grew the pool to the config's width");
        let static_two = two.to_builder().schedule(Schedule::Static).build();
        assert_eq!(blocks_for(&wide, &static_two), 2, "one block per worker");

        let narrow = Executor::new();
        let one = two.to_builder().n_threads(1).build();
        assert_eq!(blocks_for(&narrow, &one), 0, "no pool run at one thread");
        assert_eq!(narrow.spawned_workers(), 0, "Eq. 2 ran on the calling thread");
    });
}
