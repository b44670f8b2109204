//! Concurrent submission service: an async front-end over one
//! [`Executor`].
//!
//! [`Executor`] and [`crate::Session`] are synchronous — each caller
//! blocks for the whole run, and concurrent callers serialize on the
//! executor's run lock, each paying a full pool synchronisation for what
//! is often a tiny masked product. The [`Service`] inverts that shape:
//!
//! * [`Service::submit`] is **non-blocking** — it enqueues the job on a
//!   bounded admission queue and returns a [`JobTicket`] immediately.
//!   A full queue is a structured refusal ([`SparseError::QueueFull`]),
//!   never a block-forever: backpressure is the *caller's* decision.
//! * A single dispatcher thread pops jobs in **fair batches**
//!   (per-tenant deficit round-robin with deadline tie-breaks — see
//!   [`mspgemm_sched::SubmitQueue`]) and coalesces each batch into one
//!   tiled run on the same tile engine every other caller uses: every
//!   job's tiles are multiplexed onto a single pool synchronisation
//!   ([`mspgemm_sched::WorkerPool::run_tiles_multi`]), so the fork/join
//!   cost is paid once per *batch*, not once per product.
//! * Results are bit-identical to serial execution: each job writes its
//!   rows into its own mask-bound slot buffers, and every kernel folds
//!   each row's products in the same `k` order no matter how tiles
//!   interleave. Tile panics in one tenant's run are charged to that run
//!   alone and recovered (or surfaced) per job — they never corrupt or
//!   poison a sibling's product.
//!
//! The dispatcher keeps a small structural **plan cache** keyed by the
//! operands' fingerprint (a lease matches the exact configuration), so a
//! tenant resubmitting the same shape gets plan reuse (no re-tiling,
//! recycled slot buffers and per-worker accumulators) without holding a
//! [`crate::plan::Plan`] of its own.
//!
//! Every submission carries a [`CancelToken`]: [`JobTicket::cancel`]
//! withdraws a still-queued job outright and fires the token of a job the
//! dispatcher already picked up, so its remaining tiles stop at the next
//! claim boundary ([`SparseError::Cancelled`]); dropping an unresolved
//! ticket does the same best-effort cancel. A [`SubmitOptions::deadline`]
//! is *enforced* through the same token — an expired job is shed from the
//! queue before dispatch and an in-flight run past its deadline is
//! abandoned at the next tile boundary, both surfacing
//! [`SparseError::DeadlineExceeded`].
//!
//! Shutdown is deterministic: dropping the service closes the queue,
//! cancels everything still queued ([`SparseError::Cancelled`]) and joins
//! the dispatcher thread, so repeated construction in one process leaks
//! neither threads nor queue slots. Pool-structural failure
//! ([`SparseError::ExecutorPoisoned`]) is terminal: every queued job is
//! completed with the poison error, the queue drains and closes, and
//! later submissions are refused with the same error.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::config::Config;
use crate::driver::{only_output, run_jobs, Job, RunStats};
use crate::executor::Executor;
use crate::graph::{single_product, GraphCore};
use crate::plan::{self, Fingerprint, PlanScratch};
use mspgemm_rt::obs;
use mspgemm_sched::{
    ticket, CancelOutcome, CancelToken, Entry, QueueTag, RefusalReason, SubmitQueue, Ticket,
    TicketWriter,
};
use mspgemm_sparse::{Csr, Semiring, SparseError};

/// Sizing knobs for a [`Service`].
#[derive(Clone, Copy, Debug)]
pub struct ServiceOptions {
    /// Admission queue capacity; a submit beyond it is refused with
    /// [`SparseError::QueueFull`].
    pub queue_capacity: usize,
    /// Most jobs one dispatch batch may coalesce into a single tiled run.
    pub batch_max: usize,
    /// Cached symbolic plans kept by the dispatcher before it discards
    /// the lot (simple full-clear eviction — the cache is a reuse
    /// accelerator, not a correctness surface).
    pub plan_cache_max: usize,
}

impl Default for ServiceOptions {
    fn default() -> Self {
        ServiceOptions { queue_capacity: 256, batch_max: 16, plan_cache_max: 128 }
    }
}

/// Per-submission scheduling hints.
#[derive(Clone, Copy, Debug, Default)]
pub struct SubmitOptions {
    /// Fairness domain: the queue's deficit round-robin balances dispatch
    /// slots across distinct tenant ids.
    pub tenant: u32,
    /// Enforced deadline. It orders the queue (among jobs of equal
    /// fairness standing, earlier deadlines dispatch first); a job whose
    /// deadline passes while queued is shed before dispatch, and an
    /// in-flight run past its deadline is abandoned at the next tile
    /// boundary — both complete the ticket with
    /// [`SparseError::DeadlineExceeded`]. Admission itself never rejects
    /// on deadline.
    pub deadline: Option<Instant>,
}

/// A completed service call: the product plus queue-side measurements.
#[derive(Debug)]
pub struct ServiceReply<S: Semiring> {
    /// `C = M ⊙ (A × B)` — bit-identical to a serial
    /// [`Executor::execute`] with the same configuration.
    pub c: Csr<S::T>,
    /// Driver measurements (see [`RunStats`] for the batched-run caveats).
    pub stats: RunStats,
    /// Admission-to-dispatch latency.
    pub queue_delay: Duration,
    /// Jobs coalesced into the run that produced this reply.
    pub batch_size: usize,
}

/// What travels through the queue: the operand triple (shared, so queued
/// jobs never copy matrices), the configuration, and the one-shot
/// completion channel back to the submitter.
struct JobPayload<S: Semiring> {
    a: Arc<Csr<S::T>>,
    b: Arc<Csr<S::T>>,
    mask: Arc<Csr<S::T>>,
    config: Config,
    /// The job's cooperative cancellation token — fired by
    /// [`JobTicket::cancel`] (or ticket drop) once the job is in flight,
    /// and carrying the enforced deadline when one was set. The dispatcher
    /// threads it down to the per-tile claim loop.
    cancel: CancelToken,
    writer: TicketWriter<Result<ServiceReply<S>, SparseError>>,
}

/// What [`JobTicket::cancel`] achieved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CancelStatus {
    /// The job was still queued: it was withdrawn, its slot released, and
    /// its ticket completes with [`SparseError::Cancelled`]. Nothing ran.
    Withdrawn,
    /// The dispatcher had already picked the job up: its token was fired
    /// and the run stops claiming tiles at the next boundary, completing
    /// the ticket with [`SparseError::Cancelled`] (partial output
    /// discarded). A run whose every tile finished before observing the
    /// cancel still delivers its reply.
    CancelRequested,
    /// The job already settled — its reply (or error) is on the ticket;
    /// there was nothing left to cancel.
    Settled,
}

/// The submitter's half of one queued job.
///
/// Dropping an unresolved ticket performs the same best-effort
/// cancellation as [`cancel`](Self::cancel): an abandoned reply should not
/// keep burning pool time.
pub struct JobTicket<S: Semiring> {
    /// `Some` until the ticket is consumed by [`wait`](Self::wait) /
    /// [`wait_timeout`](Self::wait_timeout) (`Option` so those can move it
    /// out from under the `Drop` impl).
    ticket: Option<Ticket<Result<ServiceReply<S>, SparseError>>>,
    id: u64,
    queue: SubmitQueue<JobPayload<S>>,
    cancel: CancelToken,
}

impl<S: Semiring> JobTicket<S> {
    /// The queue id of this submission (stable across its lifetime).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Whether the reply is already available (non-blocking).
    pub fn is_resolved(&self) -> bool {
        self.ticket.as_ref().is_some_and(|t| t.is_resolved())
    }

    /// Block until the job completes. A ticket whose writer disappeared
    /// without completing (service dropped mid-flight) reads as
    /// [`SparseError::Cancelled`].
    pub fn wait(mut self) -> Result<ServiceReply<S>, SparseError> {
        match self.ticket.take() {
            Some(t) => match t.wait() {
                Ok(reply) => reply,
                Err(_lost) => Err(SparseError::Cancelled),
            },
            // unreachable: every public constructor stores `Some`
            None => Err(SparseError::Cancelled),
        }
    }

    /// Like [`wait`](Self::wait) with a bound; returns the ticket back on
    /// expiry so the caller can keep waiting.
    pub fn wait_timeout(
        mut self,
        timeout: Duration,
    ) -> Result<Result<ServiceReply<S>, SparseError>, Self> {
        match self.ticket.take() {
            Some(t) => match t.wait_timeout(timeout) {
                Ok(Ok(reply)) => Ok(reply),
                Ok(Err(_lost)) => Ok(Err(SparseError::Cancelled)),
                Err(ticket) => Err(JobTicket {
                    ticket: Some(ticket),
                    id: self.id,
                    queue: self.queue.clone(),
                    cancel: self.cancel.clone(),
                }),
            },
            None => Ok(Err(SparseError::Cancelled)),
        }
    }

    /// Cancel the job, wherever it is in its lifecycle:
    ///
    /// * still queued — withdrawn outright ([`CancelStatus::Withdrawn`]):
    ///   the slot is released and the ticket completes with
    ///   [`SparseError::Cancelled`] without anything running;
    /// * already dispatched — the job's [`CancelToken`] is fired
    ///   ([`CancelStatus::CancelRequested`]) and the in-flight run stops
    ///   claiming its tiles at the next boundary, discarding partial
    ///   output; sibling jobs in the same batch are untouched;
    /// * already settled — nothing to do ([`CancelStatus::Settled`]).
    ///
    /// Idempotent: repeated calls (or a later drop) degrade to
    /// [`CancelStatus::Settled`] / repeated token fires, never an error.
    pub fn cancel(&self) -> CancelStatus {
        match self.queue.cancel(self.id) {
            CancelOutcome::Removed(entry) => {
                obs::incr(obs::Counter::SvcCancelled);
                entry.job.writer.complete(Err(SparseError::Cancelled));
                CancelStatus::Withdrawn
            }
            CancelOutcome::InFlight => {
                obs::incr(obs::Counter::SvcCancelledInFlight);
                self.cancel.cancel();
                CancelStatus::CancelRequested
            }
            CancelOutcome::Unknown => CancelStatus::Settled,
        }
    }
}

impl<S: Semiring> Drop for JobTicket<S> {
    /// Best-effort cancel on abandonment: a ticket dropped before its
    /// reply resolved withdraws the queued job or fires the in-flight
    /// token, exactly like [`cancel`](Self::cancel). A consumed or
    /// resolved ticket drops inert.
    fn drop(&mut self) {
        if self.ticket.as_ref().is_some_and(|t| !t.is_resolved()) {
            let _ = self.cancel();
        }
    }
}

/// One cached symbolic plan: a core frozen under `config` + its cross-run
/// scratch, leased out to at most one batch job at a time.
struct CachedPlan<S: Semiring> {
    config: Config,
    core: GraphCore<S::T>,
    scratch: PlanScratch<S::T>,
}

/// A concurrent multi-tenant submission front-end over one [`Executor`].
/// See the module docs for the architecture; see
/// [`crate::stress::run_stress`] for the adversarial harness that checks
/// its isolation and bit-identity guarantees.
pub struct Service<S: Semiring> {
    exec: Executor,
    queue: SubmitQueue<JobPayload<S>>,
    shutdown: Arc<AtomicBool>,
    poisoned: Arc<OnceLock<String>>,
    batch_max: usize,
    dispatcher: Option<JoinHandle<()>>,
}

impl<S: Semiring> Service<S> {
    /// A service over the process-wide [`Executor::global`] pool.
    pub fn new(options: ServiceOptions) -> Self {
        Service::on(Executor::global(), options)
    }

    /// A service over a specific executor. Several services may share one
    /// executor; their dispatchers serialize on its run lock.
    pub fn on(exec: &Executor, options: ServiceOptions) -> Self {
        let queue: SubmitQueue<JobPayload<S>> = SubmitQueue::new(options.queue_capacity);
        let shutdown = Arc::new(AtomicBool::new(false));
        let poisoned: Arc<OnceLock<String>> = Arc::new(OnceLock::new());
        let dispatcher = {
            let exec = exec.clone();
            let queue = queue.clone();
            let shutdown = Arc::clone(&shutdown);
            let poisoned = Arc::clone(&poisoned);
            let batch_max = options.batch_max.max(1);
            let cache_max = options.plan_cache_max.max(1);
            std::thread::Builder::new()
                .name("mspgemm-svc".into())
                .spawn(move || {
                    dispatch_loop::<S>(exec, queue, batch_max, cache_max, shutdown, poisoned)
                })
                .ok()
        };
        Service {
            exec: exec.clone(),
            queue,
            shutdown,
            poisoned,
            batch_max: options.batch_max.max(1),
            dispatcher,
        }
    }

    /// The executor this service dispatches onto.
    pub fn executor(&self) -> &Executor {
        &self.exec
    }

    /// Jobs currently queued (admitted, not yet dispatched).
    pub fn depth(&self) -> usize {
        self.queue.depth()
    }

    /// The admission queue capacity.
    pub fn capacity(&self) -> usize {
        self.queue.capacity()
    }

    /// Most jobs one dispatch batch coalesces.
    pub fn batch_max(&self) -> usize {
        self.batch_max
    }

    /// Enqueue `C = M ⊙ (A × B)` and return immediately with a
    /// [`JobTicket`]. Never blocks and never computes inline:
    ///
    /// * a full queue refuses with [`SparseError::QueueFull`] — nothing
    ///   was enqueued, the caller decides whether to retry, shed, or wait;
    /// * a poisoned executor refuses with
    ///   [`SparseError::ExecutorPoisoned`];
    /// * shape validation happens at dispatch, surfacing through the
    ///   ticket like any other per-job error.
    pub fn submit(
        &self,
        a: Arc<Csr<S::T>>,
        b: Arc<Csr<S::T>>,
        mask: Arc<Csr<S::T>>,
        config: Config,
        opts: SubmitOptions,
    ) -> Result<JobTicket<S>, SparseError> {
        let (writer, ticket) = ticket();
        let cancel = match opts.deadline {
            Some(d) => CancelToken::with_deadline(d),
            None => CancelToken::new(),
        };
        let payload = JobPayload { a, b, mask, config, cancel: cancel.clone(), writer };
        let tag = QueueTag { tenant: opts.tenant, deadline: opts.deadline };
        match self.queue.try_push(payload, tag) {
            Ok(id) => {
                obs::incr(obs::Counter::SvcSubmitted);
                Ok(JobTicket { ticket: Some(ticket), id, queue: self.queue.clone(), cancel })
            }
            Err(refused) => {
                obs::incr(obs::Counter::SvcRejected);
                // the refused payload (and its writer) drop here; the
                // returned error is the caller's signal, not the ticket's
                match refused.reason {
                    RefusalReason::Full { capacity } => Err(SparseError::QueueFull { capacity }),
                    RefusalReason::Closed => Err(self.poison_error()),
                }
            }
        }
    }

    /// The terminal error a closed service surfaces: the recorded poison
    /// if the pool died, otherwise plain cancellation (service dropped).
    fn poison_error(&self) -> SparseError {
        match self.poisoned.get() {
            Some(detail) => SparseError::ExecutorPoisoned { detail: detail.clone() },
            None => SparseError::Cancelled,
        }
    }
}

impl<S: Semiring> Drop for Service<S> {
    /// Deterministic teardown: close the queue, let the dispatcher cancel
    /// whatever is still queued, and join it. After this no thread of the
    /// service survives — the executor (and its workers) are untouched.
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue.close();
        if let Some(handle) = self.dispatcher.take() {
            let _ = handle.join();
        }
    }
}

/// A popped entry carried through planning to execution.
struct PreparedJob<S: Semiring> {
    entry: Entry<JobPayload<S>>,
    fp: Fingerprint,
    core: GraphCore<S::T>,
    scratch: PlanScratch<S::T>,
    setup: Duration,
    queue_delay: Duration,
}

/// The dispatcher: pop fair batches, plan (or reuse) each job, coalesce
/// the batch into one run, complete the tickets. Runs until the queue is
/// closed *and* drained, so `Service::drop` observes every job settled.
fn dispatch_loop<S: Semiring>(
    exec: Executor,
    queue: SubmitQueue<JobPayload<S>>,
    batch_max: usize,
    cache_max: usize,
    shutdown: Arc<AtomicBool>,
    poisoned: Arc<OnceLock<String>>,
) {
    let mut batch: Vec<Entry<JobPayload<S>>> = Vec::new();
    // Multi-lease plan cache: each fingerprint holds a *stack* of plans,
    // because one batch routinely carries many same-shape jobs and every
    // job in a run needs its own plan (slot buffers cannot be shared
    // within a run). A single-plan cache would hit once per batch and
    // re-run the full symbolic phase for every sibling — the stack warms
    // up to the observed batch width instead. A lease takes the first
    // plan frozen under the job's exact configuration. `cached_plans`
    // counts plans (not fingerprints) against `cache_max`.
    let mut cache: HashMap<Fingerprint, Vec<CachedPlan<S>>> = HashMap::new();
    let mut cached_plans = 0usize;
    // One-entry fingerprint memo keyed by operand *identity*: closed-loop
    // clients resubmit the same `Arc`'d operands job after job, and
    // re-hashing the mask's row pointers would be the largest remaining
    // per-job symbolic cost. Holding the `Arc`s (not raw pointers) makes
    // the identity check sound — the memoized operands cannot be freed
    // and their addresses reused while the memo is alive. `Csr` is
    // immutable, so same allocation ⇒ same structure ⇒ same fingerprint.
    let mut fp_memo: Option<(Arc<Csr<S::T>>, Arc<Csr<S::T>>, Arc<Csr<S::T>>, Config, Fingerprint)> =
        None;
    while queue.pop_batch(batch_max, &mut batch) {
        if shutdown.load(Ordering::SeqCst) {
            for entry in batch.drain(..) {
                obs::incr(obs::Counter::SvcCancelled);
                entry.job.writer.complete(Err(SparseError::Cancelled));
                queue.settle(entry.id);
            }
            continue;
        }
        let popped = Instant::now();
        obs::incr(obs::Counter::SvcBatches);
        obs::add(obs::Counter::SvcBatchedJobs, batch.len() as u64);
        obs::record(obs::Hist::SvcBatchSize, batch.len() as u64);

        // --- symbolic phase: lease a cached plan per job or prepare a
        // fresh one. A lease removes the cache slot, so two same-shape
        // jobs in one batch get independent plans (their slot buffers
        // cannot be shared within a run). ---
        let mut prepared: Vec<PreparedJob<S>> = Vec::with_capacity(batch.len());
        for entry in batch.drain(..) {
            let setup_start = Instant::now();
            let queue_delay = popped.saturating_duration_since(entry.enqueued);
            obs::record(obs::Hist::SvcQueueDelayUs, queue_delay.as_micros() as u64);
            // --- deadline shedding: a job whose enforced deadline passed
            // while it queued is not worth planning, let alone running.
            // (The deadline also fires the job's token, so even a job shed
            // here *and* somehow dispatched would abandon at the first
            // tile boundary — this check just refuses to pay the symbolic
            // phase for it.) ---
            if entry.tag.deadline.is_some_and(|d| Instant::now() >= d) {
                obs::incr(obs::Counter::SvcDeadlineShed);
                obs::incr(obs::Counter::SvcCompleted);
                entry.job.writer.complete(Err(SparseError::DeadlineExceeded));
                queue.settle(entry.id);
                continue;
            }
            let fp = match &fp_memo {
                Some((ma, mb, mm, mc, f))
                    if Arc::ptr_eq(ma, &entry.job.a)
                        && Arc::ptr_eq(mb, &entry.job.b)
                        && Arc::ptr_eq(mm, &entry.job.mask)
                        && *mc == entry.job.config =>
                {
                    *f
                }
                _ => {
                    let f = plan::fingerprint(
                        &entry.job.a,
                        &entry.job.b,
                        &entry.job.mask,
                        &entry.job.config,
                    );
                    fp_memo = Some((
                        Arc::clone(&entry.job.a),
                        Arc::clone(&entry.job.b),
                        Arc::clone(&entry.job.mask),
                        entry.job.config,
                        f,
                    ));
                    f
                }
            };
            let leased = cache.get_mut(&fp).and_then(|stack| {
                // plans frozen under another configuration stay put
                let pos = stack.iter().position(|c| c.config == entry.job.config)?;
                Some(stack.swap_remove(pos))
            });
            let leased = match leased {
                Some(c) => {
                    cached_plans -= 1;
                    obs::incr(obs::Counter::SvcPlanCacheHits);
                    Some((c.core, c.scratch))
                }
                None => None,
            };
            let (core, scratch) = match leased {
                Some(hit) => hit,
                None => {
                    obs::incr(obs::Counter::SvcPlanCacheMisses);
                    let job = &entry.job;
                    match single_product(exec.shared(), &job.config, &job.a, &job.b, &job.mask) {
                        Ok(core) => (core, PlanScratch::default()),
                        Err(e) => {
                            obs::incr(obs::Counter::SvcCompleted);
                            entry.job.writer.complete(Err(e));
                            queue.settle(entry.id);
                            continue;
                        }
                    }
                }
            };
            let setup = setup_start.elapsed();
            prepared.push(PreparedJob { entry, fp, core, scratch, setup, queue_delay });
        }

        // --- numeric phase: one coalesced run ---
        let batch_size = prepared.len();
        let outcomes: Vec<Result<(Csr<S::T>, RunStats), SparseError>> = {
            let mut operands: Vec<[&Csr<S::T>; 3]> = Vec::with_capacity(batch_size);
            let mut parts = Vec::with_capacity(batch_size);
            for p in prepared.iter_mut() {
                let PreparedJob { entry, core, scratch, setup, .. } = p;
                operands.push([&*entry.job.a, &*entry.job.b, &*entry.job.mask]);
                parts.push((&*core, scratch, &entry.job.cancel, *setup));
            }
            let jobs: Vec<Job<'_, S>> = parts
                .into_iter()
                .zip(&operands)
                .map(|((core, scratch, cancel, setup), inputs)| Job {
                    core,
                    inputs,
                    scratch,
                    cancel: Some(cancel),
                    setup,
                    fused_ops: 0,
                })
                .collect();
            run_jobs::<S>(exec.shared(), jobs).into_iter().map(only_output).collect()
        };

        // --- completion: hand every ticket its reply, re-park the plan
        // leases, and latch on poison. The latch (record + close) happens
        // *before* any poisoned ticket is completed: the moment a waiter
        // can observe the poison, new submissions are already refused —
        // otherwise a submit racing the close could be admitted into a
        // dead service and hang until drop. ---
        let poison_hit: Option<String> = outcomes.iter().find_map(|o| match o {
            Err(SparseError::ExecutorPoisoned { detail }) => Some(detail.clone()),
            _ => None,
        });
        if let Some(detail) = &poison_hit {
            let _ = poisoned.set(detail.clone());
            queue.close();
        }
        for (p, outcome) in prepared.into_iter().zip(outcomes) {
            let reply = outcome.map(|(c, stats)| ServiceReply {
                c,
                stats,
                queue_delay: p.queue_delay,
                batch_size,
            });
            obs::incr(obs::Counter::SvcCompleted);
            p.entry.job.writer.complete(reply);
            queue.settle(p.entry.id);
            if cached_plans >= cache_max {
                cache.clear();
                cached_plans = 0;
            }
            cache.entry(p.fp).or_default().push(CachedPlan {
                config: p.entry.job.config,
                core: p.core,
                scratch: p.scratch,
            });
            cached_plans += 1;
        }

        if let Some(detail) = poison_hit {
            // pool-structural loss is terminal: the queue is already
            // closed (above), so fail whatever is still queued and stop.
            // Every waiting tenant sees `ExecutorPoisoned`, and the queue
            // ends closed *and* empty.
            let mut rest: Vec<Entry<JobPayload<S>>> = Vec::new();
            queue.drain(&mut rest);
            for entry in rest {
                obs::incr(obs::Counter::SvcCompleted);
                entry
                    .job
                    .writer
                    .complete(Err(SparseError::ExecutorPoisoned { detail: detail.clone() }));
            }
            break;
        }
    }
}
