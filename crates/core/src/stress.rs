//! Deterministic multi-tenant stress harness for the [`Service`]
//! (crate::service): many tenant threads, seeded adversarial schedules,
//! and a bit-identity oracle against serial execution.
//!
//! The harness is the *test* half of the concurrent-service design: the
//! service promises that (a) every reply is bit-identical to what a
//! serial [`Executor::execute`] of the same job would produce, under
//! every interleaving of tenants, batches and tile multiplexing — even
//! with `MSPGEMM_FAILPOINTS` armed, where one tenant's tile panics are
//! recovered inside that tenant's run alone; and (b) no schedule of
//! submit / cancel / drop leaks queue slots or deadlocks. [`run_stress`]
//! generates schedules from a [`ChaCha8Rng`] seed (per-tenant streams
//! `seed ^ tenant`), so every reported failure is replayable from its
//! spec alone.
//!
//! The operand cases come from the caller — this crate deliberately does
//! not depend on the generator crate, and the CLI / tests feed it
//! whatever workload they already have.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::config::Config;
use crate::executor::Executor;
use crate::service::{CancelStatus, Service, ServiceOptions, SubmitOptions};
use mspgemm_rt::{ChaCha8Rng, Rng};
use mspgemm_sparse::{Csr, Semiring, SparseError};

/// One reusable workload: an operand triple plus the configuration to
/// run it under. Tenants pick cases (seeded-)randomly per submission.
#[derive(Clone)]
pub struct StressCase<S: Semiring> {
    pub a: Arc<Csr<S::T>>,
    pub b: Arc<Csr<S::T>>,
    pub mask: Arc<Csr<S::T>>,
    pub config: Config,
}

/// A deterministic stress schedule: everything [`run_stress`] does is a
/// pure function of this spec and the case list.
#[derive(Clone, Copy, Debug)]
pub struct StressSpec {
    /// Concurrent tenant threads.
    pub tenants: usize,
    /// Submissions each tenant attempts.
    pub runs_per_tenant: usize,
    /// Root seed; tenant `t` draws from `ChaCha8Rng::seed_from_u64(seed ^ t)`.
    pub seed: u64,
    /// Service admission queue capacity.
    pub queue_capacity: usize,
    /// Service dispatch batch bound.
    pub batch_max: usize,
    /// Per-mille of submissions the tenant immediately tries to cancel.
    /// A cancel that lands while the job is still queued withdraws it; one
    /// that lands after dispatch exercises the in-flight cancellation path
    /// (token fired, tiles stop at the next claim boundary).
    pub cancel_permille: u32,
    /// Per-mille of submissions whose ticket the tenant drops unwaited —
    /// which now best-effort cancels the job (abandoned replies must not
    /// keep burning pool time) and must still release the queue slot.
    pub drop_permille: u32,
    /// Per-mille of submissions carrying a tight *enforced* deadline
    /// (0–500 µs out): a deadline storm. Each such job must resolve as a
    /// normal reply, `DeadlineExceeded` (shed before dispatch or abandoned
    /// at a tile boundary), or `Cancelled` — never a hang or a leak.
    pub deadline_permille: u32,
}

impl Default for StressSpec {
    fn default() -> Self {
        StressSpec {
            tenants: 8,
            runs_per_tenant: 25,
            seed: 0x5eed,
            queue_capacity: 256,
            batch_max: 16,
            cancel_permille: 100,
            drop_permille: 50,
            deadline_permille: 0,
        }
    }
}

/// What a stress run observed, for assertions and CLI reporting.
#[derive(Clone, Copy, Debug, Default)]
pub struct StressReport {
    /// Submissions admitted to the queue.
    pub submitted: u64,
    /// Replies received and checked against the serial reference.
    pub completed: u64,
    /// Jobs the schedule cancelled (withdrawn before dispatch, or an
    /// in-flight cancel that the run observed in time).
    pub cancelled: u64,
    /// Cancels that landed after dispatch (token fired mid-run). The
    /// eventual reply is counted elsewhere too: either `cancelled` (the
    /// run observed the token) or `completed` (every tile finished first —
    /// the reply must then still be bit-identical).
    pub cancel_requested: u64,
    /// Jobs that resolved `DeadlineExceeded` — shed from the queue or
    /// abandoned at a tile boundary. Only possible with
    /// [`StressSpec::deadline_permille`] > 0.
    pub deadline_exceeded: u64,
    /// Submissions refused with `QueueFull` (each job was resubmitted
    /// until admitted).
    pub rejected: u64,
    /// Tickets the schedule dropped without waiting.
    pub dropped: u64,
    /// Jobs that failed with `TileFailed` — possible under aggressive
    /// failpoint configs when the degraded retry is also hit; isolation
    /// holds (the error names one job), so these are counted, not fatal.
    pub failed: u64,
    /// Replies that were **not** bit-identical to the serial reference —
    /// any nonzero value is a correctness bug.
    pub mismatches: u64,
    /// Queue depth after every tenant finished — must be zero.
    pub queue_depth_end: usize,
    /// Workers the executor had spawned when the run ended.
    pub spawned_workers: usize,
}

/// Drive a [`Service`] with `spec.tenants` concurrent threads submitting
/// seeded-random cases, verifying every reply bit-identical to a serial
/// reference computed up front on the same executor. See the module docs
/// for what this proves; see the `stress` CLI subcommand and
/// `tests/concurrency.rs` for the callers.
pub fn run_stress<S: Semiring>(
    exec: &Executor,
    spec: StressSpec,
    cases: &[StressCase<S>],
) -> Result<StressReport, SparseError> {
    if cases.is_empty() {
        return Ok(StressReport::default());
    }

    // serial references, computed before any concurrency exists — the
    // oracle every concurrent reply must match bit for bit
    let mut refs: Vec<Csr<S::T>> = Vec::with_capacity(cases.len());
    for case in cases {
        let (c, _) = exec.execute::<S>(&case.a, &case.b, &case.mask, &case.config)?;
        refs.push(c);
    }

    let service: Service<S> = Service::on(
        exec,
        ServiceOptions {
            queue_capacity: spec.queue_capacity.max(1),
            batch_max: spec.batch_max.max(1),
            ..ServiceOptions::default()
        },
    );

    let submitted = AtomicU64::new(0);
    let completed = AtomicU64::new(0);
    let cancelled = AtomicU64::new(0);
    let cancel_requested = AtomicU64::new(0);
    let deadline_exceeded = AtomicU64::new(0);
    let rejected = AtomicU64::new(0);
    let dropped = AtomicU64::new(0);
    let failed = AtomicU64::new(0);
    let mismatches = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for tenant in 0..spec.tenants {
            let service = &service;
            let refs = &refs;
            let (submitted, completed, cancelled, rejected, dropped, failed, mismatches) = (
                &submitted,
                &completed,
                &cancelled,
                &rejected,
                &dropped,
                &failed,
                &mismatches,
            );
            let (cancel_requested, deadline_exceeded) = (&cancel_requested, &deadline_exceeded);
            scope.spawn(move || {
                let mut rng = ChaCha8Rng::seed_from_u64(spec.seed ^ tenant as u64);
                for _ in 0..spec.runs_per_tenant {
                    let idx = rng.gen_range(0..cases.len());
                    let case = &cases[idx];
                    // a deadline storm hands out enforced deadlines tight
                    // enough that some jobs are shed while queued and some
                    // are abandoned mid-run — both must resolve cleanly
                    let deadline = (rng.gen_range(0..1000u32) < spec.deadline_permille).then(|| {
                        Instant::now() + Duration::from_micros(rng.gen_range(0..500u32) as u64)
                    });
                    let opts = SubmitOptions { tenant: tenant as u32, deadline };
                    // admission with backpressure: a `QueueFull` refusal
                    // yields and resubmits, so the schedule never sheds a
                    // planned submission
                    let ticket = loop {
                        match service.submit(
                            Arc::clone(&case.a),
                            Arc::clone(&case.b),
                            Arc::clone(&case.mask),
                            case.config,
                            opts,
                        ) {
                            Ok(t) => break Some(t),
                            Err(SparseError::QueueFull { .. }) => {
                                rejected.fetch_add(1, Ordering::Relaxed);
                                std::thread::yield_now();
                            }
                            Err(_) => break None, // poisoned/closed: stop this tenant
                        }
                    };
                    let Some(ticket) = ticket else { return };
                    submitted.fetch_add(1, Ordering::Relaxed);

                    let action = rng.gen_range(0..1000u32);
                    if action < spec.cancel_permille {
                        match ticket.cancel() {
                            CancelStatus::Withdrawn => {
                                cancelled.fetch_add(1, Ordering::Relaxed);
                                continue;
                            }
                            CancelStatus::CancelRequested => {
                                // in-flight: the token is fired; the wait
                                // below observes either the cancellation
                                // or a completed (bit-identical) reply
                                cancel_requested.fetch_add(1, Ordering::Relaxed);
                            }
                            CancelStatus::Settled => {}
                        }
                    } else if action < spec.cancel_permille + spec.drop_permille {
                        // drop the ticket unwaited: best-effort cancel —
                        // the job is withdrawn or its token fired, and the
                        // queue slot must be reclaimed either way
                        dropped.fetch_add(1, Ordering::Relaxed);
                        drop(ticket);
                        continue;
                    }
                    match ticket.wait() {
                        Ok(reply) => {
                            completed.fetch_add(1, Ordering::Relaxed);
                            if reply.c != refs[idx] {
                                mismatches.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        Err(SparseError::Cancelled) => {
                            cancelled.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(SparseError::DeadlineExceeded) => {
                            deadline_exceeded.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(SparseError::TileFailed { .. }) => {
                            failed.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => return, // poisoned: stop this tenant
                    }
                }
            });
        }
    });

    // dropped-ticket jobs may still be queued when the last tenant
    // returns; the dispatcher must drain them on its own (slot-leak
    // check), so give it a bounded window before reading the depth
    let drain_deadline = Instant::now() + Duration::from_secs(30);
    while service.depth() > 0 && Instant::now() < drain_deadline {
        std::thread::yield_now();
    }
    let report = StressReport {
        submitted: submitted.into_inner(),
        completed: completed.into_inner(),
        cancelled: cancelled.into_inner(),
        cancel_requested: cancel_requested.into_inner(),
        deadline_exceeded: deadline_exceeded.into_inner(),
        rejected: rejected.into_inner(),
        dropped: dropped.into_inner(),
        failed: failed.into_inner(),
        mismatches: mismatches.into_inner(),
        queue_depth_end: service.depth(),
        spawned_workers: exec.spawned_workers(),
    };
    drop(service); // joins the dispatcher; every ticket is settled
    Ok(report)
}
