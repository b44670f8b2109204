//! Liveness under injected stalls and mid-run cancellation: a tile that
//! runs far past its siblings is waited out under every schedule, with no
//! failure, retry or extra worker, and the executor keeps serving; a
//! cancel that lands after dispatch stops the remaining tiles at the next
//! claim boundary, observably.
//!
//! These tests share the process-global failpoint registry and metric
//! counters, so they serialize on one lock and disarm their sites on the
//! way out. The whole file is its own test binary — arming here never
//! leaks into the other integration suites.

use masked_spgemm_repro::prelude::*;
use masked_spgemm_repro::rt::{failpoint, obs};
use masked_spgemm_repro::sparse::SparseError;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Serializes the tests in this binary: they share the failpoint
/// registry (one `tile-kernel` site) and the global metric counters.
static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn graph(name: &str, scale: f64) -> Csr<u64> {
    let spec = suite_specs().into_iter().find(|s| s.name == name).expect("unknown suite graph");
    suite_graph(&spec, scale).spones(1u64)
}

/// Every `stride`-th row of the identity pattern.
fn frontier_mask(a: &Csr<u64>, stride: usize) -> Csr<u64> {
    let mut coo = Coo::new(a.nrows(), a.ncols());
    for i in (0..a.nrows()).step_by(stride.max(1)) {
        coo.push(i, i % a.ncols(), 1u64);
    }
    coo.to_csr_with(|v, _| v)
}

/// A stalled tile is waited out: tile 1 pinned to sleep 300 ms runs to
/// completion under every schedule. The product equals an unarmed
/// reference, no tile fails or is retried, and the same executor serves
/// the next call on the two workers it started with.
#[test]
fn a_stalled_tile_is_waited_out_under_every_schedule() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());

    let a = graph("stokes", 0.05);
    let mask = frontier_mask(&a, 2);
    failpoint::arm("tile-kernel=off").expect("disarm failpoint");
    let reference = Config::builder().n_threads(2).n_tiles(8).build();
    let (want, _) =
        Executor::new().execute::<PlusPair>(&a, &a, &mask, &reference).expect("reference run");

    for schedule in Schedule::all() {
        let cfg = Config::builder().n_threads(2).n_tiles(8).schedule(schedule).build();
        let exec = Executor::new();
        // pinned to tile 1, so exactly one claim sleeps, deterministically
        failpoint::arm("tile-kernel=delay@ms:300,key:1").expect("arm delay failpoint");
        let armed = exec.execute::<PlusPair>(&a, &a, &mask, &cfg);
        failpoint::arm("tile-kernel=off").expect("disarm delay failpoint");
        let (got, stats) = armed.unwrap_or_else(|e| panic!("{schedule:?}: armed run: {e:?}"));

        assert_eq!(got, want, "{schedule:?}: the stalled run diverged from the reference");
        assert_eq!(stats.retried_tiles, 0, "{schedule:?}: {stats:?}");
        assert_eq!(stats.failed_tiles, 0, "{schedule:?}: {stats:?}");
        assert!(
            stats.total() >= Duration::from_millis(300),
            "{schedule:?}: the delay did not fire: {:?}",
            stats.total()
        );

        let (again, _) = exec
            .execute::<PlusPair>(&a, &a, &mask, &cfg)
            .unwrap_or_else(|e| panic!("{schedule:?}: next unarmed call: {e:?}"));
        assert_eq!(again, want, "{schedule:?}: the next call diverged from the reference");
        assert_eq!(exec.spawned_workers(), 2, "{schedule:?}");
    }
}

/// An in-flight cancel: with every tile slowed enough that the run is
/// mid-flight when the cancel lands, `JobTicket::cancel` reports
/// `CancelRequested`, the wait resolves `Cancelled`, and both the service
/// and scheduler layers record the event.
#[test]
fn in_flight_cancel_stops_tiles_and_is_observable() {
    let _guard = FAULT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    obs::arm_metrics();

    let a = Arc::new(graph("stokes", 0.05));
    let mask = Arc::new(frontier_mask(&a, 2));
    // 2 workers × 8 tiles × 40 ms: the run holds the pool ~160 ms, so a
    // cancel ~20 ms in lands mid-flight with most tiles still unclaimed
    let cfg = Config::builder().n_threads(2).n_tiles(8).build();
    failpoint::arm("tile-kernel=delay@ms:40").expect("arm delay failpoint");

    let exec = Executor::new();
    let service: Service<PlusPair> = Service::on(&exec, ServiceOptions::default());
    let before = obs::snapshot();

    // timing-dependent only in the benign direction: if a cancel ever
    // lands too early (Withdrawn) or too late (Settled), retry the
    // schedule rather than fail the test on scheduler jitter
    let mut observed_in_flight = false;
    for _attempt in 0..5 {
        let ticket = service
            .submit(
                Arc::clone(&a),
                Arc::clone(&a),
                Arc::clone(&mask),
                cfg,
                SubmitOptions::default(),
            )
            .expect("submit");
        std::thread::sleep(Duration::from_millis(20));
        let status = ticket.cancel();
        match ticket.wait() {
            Ok(_) | Err(SparseError::Cancelled) => {}
            other => panic!("cancelled job must resolve Ok or Cancelled, got {other:?}"),
        }
        if status == CancelStatus::CancelRequested {
            observed_in_flight = true;
            break;
        }
    }
    failpoint::arm("tile-kernel=off").expect("disarm delay failpoint");
    assert!(observed_in_flight, "no schedule produced an in-flight cancel in 5 attempts");

    let delta = obs::snapshot().delta_since(&before);
    assert!(
        delta.counter("svc.cancelled_in_flight") >= 1,
        "the service must record the in-flight cancel: {c:?}",
        c = delta.counters
    );
    assert!(
        delta.counter("sched.tiles_cancelled") >= 1,
        "unclaimed tiles must be released at the claim boundary: {c:?}",
        c = delta.counters
    );
}
