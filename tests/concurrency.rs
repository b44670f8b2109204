//! Concurrent execution guarantees: many sessions and many service
//! tenants multiplexed onto one executor stay bit-identical to serial
//! execution, tile faults stay confined to the run that hit them, and
//! pool-structural loss surfaces as a clean, terminal refusal — never a
//! hang, never a corrupted sibling.
//!
//! This suite is the tier-1 face of the adversarial harness in
//! `mspgemm_core::stress`; the seeded schedules make every failure
//! replayable. It must pass identically with `MSPGEMM_FAILPOINTS`
//! armed (the CI concurrency step runs it both ways).

use masked_spgemm_repro::prelude::*;
use masked_spgemm_repro::sparse::SparseError;
use std::sync::Arc;
use std::time::Instant;

/// The stress-report identity that must close exactly for every schedule:
/// each admitted submission resolves as exactly one of completed,
/// cancelled, deadline-exceeded, dropped-unwaited, or tile-failed.
/// (`cancel_requested` is an overlay, not a terminal state — an in-flight
/// cancel still resolves as `cancelled` or `completed`.)
fn assert_accounting_closes(report: &StressReport) {
    assert_eq!(
        report.submitted,
        report.completed
            + report.cancelled
            + report.deadline_exceeded
            + report.dropped
            + report.failed,
        "accounting does not close: {report:?}"
    );
}

/// Deterministic suite operand: adjacency structure over `PlusPair`
/// (pattern semiring), the shape every graph-algorithm caller uses.
fn graph(name: &str, scale: f64) -> Csr<u64> {
    let spec = suite_specs().into_iter().find(|s| s.name == name).expect("unknown suite graph");
    suite_graph(&spec, scale).spones(1u64)
}

/// Every `stride`-th row of the identity pattern — the frontier-style
/// mask that makes masked products small relative to their operands.
fn frontier_mask(a: &Csr<u64>, stride: usize) -> Csr<u64> {
    let mut coo = Coo::new(a.nrows(), a.ncols());
    for i in (0..a.nrows()).step_by(stride.max(1)) {
        coo.push(i, i % a.ncols(), 1u64);
    }
    coo.to_csr_with(|v, _| v)
}

fn stress_cases(a: &Arc<Csr<u64>>) -> Vec<StressCase<PlusPair>> {
    [1usize, 4, 16]
        .into_iter()
        .map(|stride| StressCase {
            a: Arc::clone(a),
            b: Arc::clone(a),
            mask: Arc::new(frontier_mask(a, stride)),
            config: Config::default(),
        })
        .chain(std::iter::once(StressCase {
            // one different-kernel case (dense 64-bit markers, vanilla
            // iteration), so every batch multiplexes heterogeneous plans
            a: Arc::clone(a),
            b: Arc::clone(a),
            mask: Arc::new(frontier_mask(a, 8)),
            config: Config::builder()
                .kernel_policy(
                    KernelPolicy::new()
                        .accumulator(AccumulatorKind::Dense(MarkerWidth::W64))
                        .iteration(IterationSpace::Vanilla),
                )
                .build(),
        }))
        .collect()
}

/// N threads × M sessions on one executor: every concurrent reply is
/// bit-identical to the serial one-shot reference, across the whole
/// preset grid.
#[test]
fn concurrent_sessions_match_serial_across_presets() {
    let a = graph("GAP-road", 0.06);
    let exec = Executor::new();
    for preset in Preset::all() {
        let cfg = preset_config::<PlusPair>(preset, &a, &a, &a, 2);
        let (want, _) = exec.execute::<PlusPair>(&a, &a, &a, &cfg).expect("serial reference");
        std::thread::scope(|scope| {
            for worker in 0..4 {
                let (a, want, exec, cfg) = (&a, &want, &exec, &cfg);
                scope.spawn(move || {
                    let mut session = Session::<PlusPair>::on(exec, *cfg);
                    for rep in 0..3 {
                        let (got, _) = session.execute(a, a, a).expect("session execute");
                        assert_eq!(
                            &got, want,
                            "{}: thread {worker} rep {rep} diverged from serial",
                            cfg.label()
                        );
                    }
                    assert_eq!(session.rebuilds(), 0, "structure never drifted");
                });
            }
        });
    }
}

/// The adversarial schedule: concurrent tenants submitting, cancelling
/// and abandoning jobs against one service. Every reply must be
/// bit-identical to the serial reference, the queue must drain to zero,
/// and the accounting must close exactly.
#[test]
fn stress_replies_are_bit_identical_and_queue_drains() {
    let a = Arc::new(graph("stokes", 0.05));
    let exec = Executor::new();
    let spec = StressSpec {
        tenants: 6,
        runs_per_tenant: 15,
        queue_capacity: 32,
        batch_max: 8,
        ..StressSpec::default()
    };
    let report = run_stress::<PlusPair>(&exec, spec, &stress_cases(&a)).expect("stress run");
    assert_eq!(report.mismatches, 0, "a concurrent reply diverged from serial: {report:?}");
    assert_eq!(report.queue_depth_end, 0, "queue slots leaked: {report:?}");
    assert_accounting_closes(&report);
}

/// A cancellation storm: nearly half of every tenant's submissions are
/// cancelled (withdrawn or in-flight) and another slice dropped unwaited.
/// Surviving replies must still be bit-identical, the queue must drain,
/// and the accounting must close.
#[test]
fn cancellation_storm_keeps_survivors_bit_identical() {
    let a = Arc::new(graph("stokes", 0.05));
    let exec = Executor::new();
    let spec = StressSpec {
        tenants: 6,
        runs_per_tenant: 15,
        queue_capacity: 16,
        batch_max: 4,
        cancel_permille: 450,
        drop_permille: 150,
        ..StressSpec::default()
    };
    let report = run_stress::<PlusPair>(&exec, spec, &stress_cases(&a)).expect("stress run");
    assert_eq!(report.mismatches, 0, "a surviving reply diverged from serial: {report:?}");
    assert_eq!(report.queue_depth_end, 0, "queue slots leaked under cancellation: {report:?}");
    assert_accounting_closes(&report);
    assert!(report.cancelled > 0, "the seeded schedule must exercise cancellation: {report:?}");
}

/// A deadline storm: many submissions carry enforced deadlines 0–500 µs
/// out, tight enough that jobs are shed while queued or abandoned at a
/// tile boundary. Every job still resolves (no hangs), replies that beat
/// their deadline are bit-identical, and the queue drains to zero.
#[test]
fn deadline_storm_sheds_cleanly_and_queue_drains() {
    let a = Arc::new(graph("stokes", 0.05));
    let exec = Executor::new();
    let spec = StressSpec {
        tenants: 6,
        runs_per_tenant: 15,
        queue_capacity: 16,
        batch_max: 4,
        cancel_permille: 100,
        drop_permille: 50,
        deadline_permille: 500,
        ..StressSpec::default()
    };
    let report = run_stress::<PlusPair>(&exec, spec, &stress_cases(&a)).expect("stress run");
    assert_eq!(report.mismatches, 0, "an in-deadline reply diverged from serial: {report:?}");
    assert_eq!(report.queue_depth_end, 0, "queue slots leaked under deadlines: {report:?}");
    assert_accounting_closes(&report);
}

/// An already-expired deadline is shed by the dispatcher before any tile
/// runs: the ticket resolves `DeadlineExceeded` deterministically, and
/// the service keeps serving afterwards.
#[test]
fn expired_deadline_is_shed_before_dispatch() {
    let a = Arc::new(graph("stokes", 0.04));
    let mask = Arc::new(frontier_mask(&a, 4));
    let exec = Executor::new();
    let service: Service<PlusPair> = Service::on(&exec, ServiceOptions::default());

    let ticket = service
        .submit(
            Arc::clone(&a),
            Arc::clone(&a),
            Arc::clone(&mask),
            Config::default(),
            SubmitOptions { deadline: Some(Instant::now()), ..SubmitOptions::default() },
        )
        .expect("expired-deadline job is still admitted");
    match ticket.wait() {
        Err(SparseError::DeadlineExceeded) => {}
        other => panic!("expired deadline must shed the job, got {other:?}"),
    }

    // the shed is per-job: the service keeps serving deadline-free work
    let reply = service
        .submit(
            Arc::clone(&a),
            Arc::clone(&a),
            Arc::clone(&mask),
            Config::default(),
            SubmitOptions::default(),
        )
        .expect("post-shed submit")
        .wait()
        .expect("post-shed job completes");
    let (want, _) =
        exec.execute::<PlusPair>(&a, &a, &mask, &Config::default()).expect("serial reference");
    assert_eq!(reply.c, want, "post-shed reply diverged from serial");
}

/// A pre-cancelled token aborts a planned run before any tile is claimed
/// — and the plan (and its pool) survive to run again bit-identically.
#[test]
fn pre_cancelled_token_aborts_run_and_plan_survives() {
    let a = graph("stokes", 0.04);
    let exec = Executor::new();
    let mut plan = exec.plan::<PlusPair>(&a, &a, &a, &Config::default()).expect("plan");

    let token = CancelToken::new();
    token.cancel();
    match plan.execute_cancellable(&a, &a, &a, &token) {
        Err(SparseError::Cancelled) => {}
        other => panic!("pre-cancelled run must abort with Cancelled, got {other:?}"),
    }

    let (got, _) = plan.execute(&a, &a, &a).expect("plan survives a cancelled run");
    let (want, _) =
        exec.execute::<PlusPair>(&a, &a, &a, &Config::default()).expect("serial reference");
    assert_eq!(got, want, "post-cancel reply diverged from serial");

    // a token whose deadline has passed reports DeadlineExceeded instead
    let expired = CancelToken::with_deadline(Instant::now());
    match plan.execute_cancellable(&a, &a, &a, &expired) {
        Err(SparseError::DeadlineExceeded) => {}
        other => panic!("expired token must abort with DeadlineExceeded, got {other:?}"),
    }
}

/// Pool-structural loss is terminal and clean: every queued tenant gets
/// `ExecutorPoisoned`, the queue drains to zero, and later submissions
/// are refused with the same error — no hang, no partial state.
#[test]
fn poison_surfaces_to_every_tenant_and_queue_drains() {
    let a = Arc::new(graph("GAP-road", 0.04));
    let mask = Arc::new(frontier_mask(&a, 4));
    let exec = Executor::new();
    exec.debug_poison("synthetic pool-structural failure");

    let service: Service<PlusPair> =
        Service::on(&exec, ServiceOptions { queue_capacity: 64, ..ServiceOptions::default() });
    let mut tickets = Vec::new();
    let mut refused = 0usize;
    for tenant in 0..12u32 {
        match service.submit(
            Arc::clone(&a),
            Arc::clone(&a),
            Arc::clone(&mask),
            Config::default(),
            SubmitOptions { tenant, ..SubmitOptions::default() },
        ) {
            Ok(ticket) => tickets.push(ticket),
            // the dispatcher may already have latched the poison and
            // closed the queue — then the refusal itself is the poison
            Err(SparseError::ExecutorPoisoned { .. }) => refused += 1,
            Err(other) => panic!("unexpected submit refusal: {other:?}"),
        }
    }
    assert!(!tickets.is_empty() || refused > 0, "nothing was submitted");

    for ticket in tickets {
        match ticket.wait() {
            Err(SparseError::ExecutorPoisoned { detail }) => {
                assert!(detail.contains("synthetic"), "poison detail lost: {detail}");
            }
            other => panic!("queued tenant must see the poison, got {other:?}"),
        }
    }
    assert_eq!(service.depth(), 0, "poisoned queue did not drain");

    // the refusal is sticky: later submissions fail the same way
    match service.submit(
        Arc::clone(&a),
        Arc::clone(&a),
        Arc::clone(&mask),
        Config::default(),
        SubmitOptions::default(),
    ) {
        Err(SparseError::ExecutorPoisoned { .. }) => {}
        Err(other) => panic!("post-poison submit must be refused as poisoned, got {other:?}"),
        Ok(_) => panic!("post-poison submit must be refused, was admitted"),
    }
}

/// The PR-5 flat-worker-count invariant, extended to the concurrent
/// case: running the whole multi-tenant stress harness repeatedly on the
/// process-wide executor spawns workers for the first run only — later
/// runs (and their service dispatchers, which come and go per run) reuse
/// the parked pool.
#[test]
fn repeated_stress_runs_keep_worker_count_flat() {
    let a = Arc::new(graph("europe_osm", 0.04));
    let exec = Executor::global();
    let spec = StressSpec {
        tenants: 4,
        runs_per_tenant: 8,
        queue_capacity: 32,
        batch_max: 8,
        ..StressSpec::default()
    };
    let cases = stress_cases(&a);

    let first = run_stress::<PlusPair>(exec, spec, &cases).expect("first stress run");
    assert_eq!(first.mismatches, 0, "{first:?}");
    let after_first = exec.spawned_workers();
    assert!(after_first > 0, "first run must have spawned the pool");

    for round in 0..2 {
        let report = run_stress::<PlusPair>(exec, spec, &cases).expect("repeat stress run");
        assert_eq!(report.mismatches, 0, "round {round}: {report:?}");
        assert_eq!(report.queue_depth_end, 0, "round {round}: {report:?}");
        assert_eq!(
            exec.spawned_workers(),
            after_first,
            "round {round} spawned extra workers"
        );
    }
}
