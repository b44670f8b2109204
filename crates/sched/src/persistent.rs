//! A persistent worker pool — threads spawned once, parked between runs.
//!
//! The iterated workloads the paper motivates masked SpGEMM with (triangle
//! counting, k-truss, BFS) all call `C = M ⊙ (A × B)` in a loop, so the
//! pool keeps its workers alive:
//!
//! * threads are spawned lazily on first use and then *parked* on a
//!   condvar between runs — a run costs one lock + broadcast, not `p`
//!   `clone(2)` calls;
//! * one claim loop ([`WorkerPool::run_tiles_multi`]) serves every caller:
//!   a single run claims its tiles under the configured [`Schedule`], a
//!   batch of runs interleaves their tile queues into one claim order;
//! * the tile-level fault model is exact: a panicking tile is caught and
//!   recorded as a [`TileFailure`] while siblings keep draining. Per-run
//!   state that may be mid-update belongs to the caller (the driver keeps
//!   its accumulators in plan-owned cells that a panic poisons). A panic
//!   that escapes tile isolation (scheduler-infrastructure failure)
//!   *poisons* the pool: the in-flight run fails with
//!   [`PoolError::Poisoned`] and all future runs are refused, but the
//!   process — and the caller — live.
//!
//! # Protocol
//!
//! All coordination lives in one mutex-guarded `PoolState` plus two
//! condvars. A run bumps `epoch`, publishes the job, sets
//! `active = n_workers` and broadcasts `work_cv`; each participating
//! worker executes the job body once, then decrements `active`; the last
//! one clears the job and broadcasts `done_cv`, on which the submitter
//! blocks. The job body reference is lifetime-erased to `'static`, which
//! is sound because the submitter does not return before `active == 0` —
//! no worker can observe the body after the submitting frame unwinds its
//! stack (a stored job is always mid-run, hence always valid).
//!
//! # Slow tiles
//!
//! Every tile runs to completion, as under the paper's OpenMP schedules.
//! The pool cannot abandon a slow tile: the submitter must wait for every
//! thread that entered the body, because that wait is what makes the
//! lifetime erasure above sound. A tile that never returns therefore hangs
//! its run. Cancellation and deadlines act only at tile boundaries; a slow
//! tile shows in `sched.tile_elapsed_us` and in the per-tile trace spans.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::cancel::CancelToken;

use mspgemm_rt::obs;

use crate::pool::{catch_tile_panic, next_range, ObsScratch, Schedule, ThreadReport, TileFailure};

/// Pool-infrastructure failure: the run never reached (or never finished)
/// tile execution. Tile-level failures are *not* reported here — they are
/// listed per run in [`MultiOutcome::failures`].
#[derive(Clone, Debug)]
pub enum PoolError {
    /// A panic escaped tile isolation inside a worker. The pool refuses
    /// all further runs; build a fresh one.
    Poisoned {
        /// Stringified payload of the escaping panic.
        detail: String,
    },
    /// The OS refused to spawn a worker thread.
    Spawn {
        /// The underlying I/O error, stringified.
        detail: String,
    },
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::Poisoned { detail } => {
                write!(f, "worker pool poisoned: {detail}")
            }
            PoolError::Spawn { detail } => {
                write!(f, "failed to spawn worker thread: {detail}")
            }
        }
    }
}

impl std::error::Error for PoolError {}

/// One published run. `body` is lifetime-erased (see module docs for the
/// soundness argument); `n_workers` caps which worker indices participate.
#[derive(Clone, Copy)]
struct Job {
    n_workers: usize,
    body: &'static (dyn Fn(usize) + Sync),
}

/// All mutable pool state, guarded by one mutex.
struct PoolState {
    /// Bumped once per run; workers use it to detect new work.
    epoch: u64,
    /// The in-flight job, `Some` exactly while `active > 0`.
    job: Option<Job>,
    /// Participants that have not finished the current job yet.
    active: usize,
    /// Set by `Drop`; workers exit their loop when they see it.
    shutdown: bool,
    /// First panic that escaped tile isolation; permanent.
    poison: Option<String>,
    /// Worker threads spawned (the pool's width); flat across same-width
    /// runs.
    workers: usize,
}

struct Inner {
    state: Mutex<PoolState>,
    /// Workers park here between runs.
    work_cv: Condvar,
    /// Submitters park here while a run is in flight.
    done_cv: Condvar,
}

/// A long-lived worker pool. Threads are spawned lazily (growing to the
/// largest `n_workers` ever requested) and parked between runs; dropping
/// the pool shuts them down and joins them.
pub struct WorkerPool {
    inner: Arc<Inner>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Default for WorkerPool {
    fn default() -> Self {
        Self::new()
    }
}

impl WorkerPool {
    /// Create an empty pool; no threads are spawned until the first run.
    pub fn new() -> Self {
        WorkerPool {
            inner: Arc::new(Inner {
                state: Mutex::new(PoolState {
                    epoch: 0,
                    job: None,
                    active: 0,
                    shutdown: false,
                    poison: None,
                    workers: 0,
                }),
                work_cv: Condvar::new(),
                done_cv: Condvar::new(),
            }),
            handles: Mutex::new(Vec::new()),
        }
    }

    /// Number of worker threads spawned (the pool's width). Flat across
    /// same-width runs — the property the CI executor-reuse smoke step
    /// asserts through the obs snapshot.
    pub fn spawned_workers(&self) -> usize {
        self.inner.state.lock().unwrap_or_else(|e| e.into_inner()).workers
    }

    /// Poison the pool as if a panic had escaped tile isolation. Test/CI
    /// hook for exercising the refusal path without an actual unwind.
    #[doc(hidden)]
    pub fn debug_poison(&self, detail: &str) {
        let mut st = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.poison.is_none() {
            st.poison = Some(detail.to_string());
        }
    }

    /// Execute `body(worker_index)` once on each of `n_workers` pool
    /// workers, blocking until all complete.
    ///
    /// Errors with [`PoolError::Poisoned`] if the pool is (or becomes)
    /// poisoned, and [`PoolError::Spawn`] if the pool cannot grow to
    /// `n_workers` threads.
    fn run(&self, n_workers: usize, body: &(dyn Fn(usize) + Sync)) -> Result<(), PoolError> {
        let n_workers = n_workers.max(1);
        let mut st = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(detail) = &st.poison {
            return Err(PoolError::Poisoned { detail: detail.clone() });
        }
        // Serialize submitters: wait until no run is in flight. (The core
        // Executor additionally serializes at its own level; this guard
        // makes the pool safe regardless of the caller.)
        while st.active > 0 || st.job.is_some() {
            st = self.inner.done_cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        if let Some(detail) = &st.poison {
            return Err(PoolError::Poisoned { detail: detail.clone() });
        }
        // Grow the pool under the state lock, so the new workers' first
        // sight of the state already includes the job published below.
        while st.workers < n_workers {
            let idx = st.workers;
            let inner = Arc::clone(&self.inner);
            let spawned = std::thread::Builder::new()
                .name(format!("mspgemm-worker-{idx}"))
                .spawn(move || worker_loop(idx, inner));
            match spawned {
                Ok(handle) => {
                    st.workers += 1;
                    if obs::armed() {
                        obs::add(obs::Counter::SchedWorkersSpawned, 1);
                    }
                    self.handles.lock().unwrap_or_else(|e| e.into_inner()).push(handle);
                }
                Err(e) => return Err(PoolError::Spawn { detail: e.to_string() }),
            }
        }
        // SAFETY: the erased reference is only ever *called* by workers
        // counted in `active`, and this frame does not return before
        // `active == 0` (the wait below); the last participant clears the
        // job before broadcasting, so a stored job is always mid-run and
        // its body reference always outlives every use.
        let body: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(body) };
        st.job = Some(Job { n_workers, body });
        st.epoch = st.epoch.wrapping_add(1);
        let my_epoch = st.epoch;
        st.active = n_workers;
        self.inner.work_cv.notify_all();
        while st.active > 0 && st.epoch == my_epoch {
            st = self.inner.done_cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        if let Some(detail) = &st.poison {
            return Err(PoolError::Poisoned { detail: detail.clone() });
        }
        Ok(())
    }

    /// Execute `n_tiles` tiles on `n_threads` pool workers under
    /// `schedule` — the one-run form of
    /// [`run_tiles_multi`](Self::run_tiles_multi), with the same claim
    /// loop, fault isolation, claim metering and tracing.
    ///
    /// `body(worker, tile)` runs once per tile; an unwinding tile
    /// is recorded as a [`TileFailure`] in `failures[0]` (sorted by tile)
    /// while siblings keep draining. As for a batch, only a panic escaping
    /// the infrastructure itself is an `Err`: it poisons the pool and
    /// surfaces as [`PoolError::Poisoned`].
    pub fn run_tiles<F>(
        &self,
        n_threads: usize,
        n_tiles: usize,
        schedule: Schedule,
        body: F,
    ) -> Result<MultiOutcome, PoolError>
    where
        F: Fn(usize, usize) + Sync,
    {
        let run = MultiRun { n_tiles, cancel: None, body: &body };
        self.run_tiles_multi(n_threads, schedule, &[run])
    }

    /// Execute one or more independent tile runs on one worker team — the
    /// pool's single claim loop. Workers claim *positions* of one claim
    /// order under `schedule` (static blocks or single dynamic claims,
    /// exactly as for a lone run): a single run's order is its own tile
    /// sequence, so the schedule applies to it verbatim; several runs are
    /// interleaved first, so a batch of small products costs one pool
    /// synchronisation instead of one per product.
    ///
    /// The interleave is round-robin: each round, every run with tiles
    /// left contributes its next one, in slice order. The order is a pure
    /// function of the runs' `n_tiles` — scheduling is deterministic even
    /// though which *worker* executes a given tile is not.
    ///
    /// A run whose [`MultiRun::cancel`] token has fired has its remaining
    /// tiles skipped at claim time (counted in [`MultiOutcome::skipped`]
    /// and `sched.tiles_cancelled`), never failed. Fault isolation is per
    /// tile *and* per run: an unwinding tile is recorded under its own run
    /// in
    /// [`MultiOutcome::failures`] while every other tile keeps draining.
    /// Tile failures therefore never surface as an `Err` here — only
    /// pool-infrastructure failures do — because one tenant's failure must
    /// not fail a sibling's run; callers settle each run from its own list.
    pub fn run_tiles_multi(
        &self,
        n_threads: usize,
        schedule: Schedule,
        runs: &[MultiRun<'_>],
    ) -> Result<MultiOutcome, PoolError> {
        let n_threads = n_threads.max(1);
        let total: usize = runs.iter().map(|r| r.n_tiles).sum();
        if total == 0 {
            return Ok(MultiOutcome {
                reports: vec![ThreadReport::default(); n_threads],
                completed: runs.iter().map(|_| 0).collect(),
                skipped: runs.iter().map(|_| 0).collect(),
                failures: runs.iter().map(|_| Vec::new()).collect(),
            });
        }
        // The claim order: identity for a lone run (no table needed), the
        // deterministic round-robin interleave for a batch.
        let mut order: Vec<(usize, usize)> = Vec::new();
        if runs.len() > 1 {
            order.reserve(total);
            let rounds = runs.iter().map(|run| run.n_tiles).max().unwrap_or(0);
            for tile in 0..rounds {
                for (r, run) in runs.iter().enumerate() {
                    if tile < run.n_tiles {
                        order.push((r, tile));
                    }
                }
            }
        }
        let at = |pos: usize| if order.is_empty() { (0, pos) } else { order[pos] };
        let queue = AtomicUsize::new(0);
        let skipped: Vec<AtomicUsize> = runs.iter().map(|_| AtomicUsize::new(0)).collect();
        let failures: Mutex<Vec<(usize, TileFailure)>> = Mutex::new(Vec::new());
        let reports: Vec<Mutex<ThreadReport>> =
            (0..n_threads).map(|_| Mutex::new(ThreadReport::default())).collect();
        // armed state sampled once per run: per-tile observability costs
        // one branch on a local bool
        let metrics_on = obs::armed();
        let trace_on = obs::trace_armed();
        // static's single offline block per worker has no queue operation
        // to measure; dynamic meters every claim, including the final
        // failed one that drains a worker
        let meter_claims = metrics_on && !matches!(schedule, Schedule::Static);

        let job = |t: usize| {
            let mut report = ThreadReport::default();
            let mut scratch = ObsScratch::default();
            let mut static_done = false;
            loop {
                let claim_start = if meter_claims { Some(Instant::now()) } else { None };
                let claimed = next_range(schedule, t, n_threads, total, &queue, &mut static_done);
                if let Some(s) = claim_start {
                    scratch.claims += 1;
                    scratch.claim_ns.record(s.elapsed().as_nanos() as u64);
                }
                let Some((lo, hi)) = claimed else { break };
                for pos in lo..hi {
                    let (r, tile) = at(pos);
                    // cooperative cancellation: a cancelled run's remaining
                    // tiles are skipped (not failed) — siblings untouched
                    if runs[r].cancel.is_some_and(|c| c.is_cancelled()) {
                        skipped[r].fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    let ts_us = if trace_on { obs::now_us() } else { 0 };
                    let start = Instant::now();
                    if metrics_on {
                        scratch.started += 1;
                    }
                    match catch_tile_panic(|| (runs[r].body)(t, tile)) {
                        Ok(()) => {
                            let elapsed = start.elapsed();
                            report.busy += elapsed;
                            report.tiles_run += 1;
                            if metrics_on {
                                scratch.completed += 1;
                                scratch.tile_us.record(elapsed.as_micros() as u64);
                            }
                            if trace_on {
                                obs::complete_event(
                                    "tile",
                                    tile as u64,
                                    t as u64,
                                    ts_us,
                                    elapsed.as_micros() as u64,
                                );
                            }
                        }
                        Err(msg) => {
                            report.tiles_failed += 1;
                            scratch.failed += 1;
                            let mut guard = failures.lock().unwrap_or_else(|e| e.into_inner());
                            guard.push((
                                r,
                                TileFailure { tile, payload: msg, elapsed: start.elapsed() },
                            ));
                        }
                    }
                }
            }
            // flushed here — before the worker decrements `active` — so a
            // snapshot delta taken around the run sees every sample
            if metrics_on {
                scratch.flush(report.busy);
            }
            *reports[t].lock().unwrap_or_else(|e| e.into_inner()) = report;
        };

        self.run(n_threads, &job)?;

        let mut per_run: Vec<Vec<TileFailure>> = runs.iter().map(|_| Vec::new()).collect();
        for (r, f) in failures.into_inner().unwrap_or_else(|e| e.into_inner()) {
            per_run[r].push(f);
        }
        for v in &mut per_run {
            v.sort_by_key(|f| f.tile);
        }
        let skipped: Vec<usize> = skipped.iter().map(|c| c.load(Ordering::Relaxed)).collect();
        if metrics_on {
            let total_skipped: usize = skipped.iter().sum();
            if total_skipped > 0 {
                obs::add(obs::Counter::SchedTilesCancelled, total_skipped as u64);
            }
        }
        Ok(MultiOutcome {
            reports: reports
                .into_iter()
                .map(|m| m.into_inner().unwrap_or_else(|e| e.into_inner()))
                .collect(),
            // every tile of a run either completed, was skipped, or failed
            completed: runs
                .iter()
                .zip(&skipped)
                .zip(&per_run)
                .map(|((run, s), f)| run.n_tiles - s - f.len())
                .collect(),
            skipped,
            failures: per_run,
        })
    }
}

/// One run's tile queue, as claimed by [`WorkerPool::run_tiles_multi`].
pub struct MultiRun<'a> {
    /// Number of tiles this run contributes; the body sees `0..n_tiles`.
    pub n_tiles: usize,
    /// Cooperative cancellation for *this run only*: once the token
    /// reports cancelled, the run's not-yet-started tiles are skipped at
    /// claim time while sibling runs keep draining untouched. `None`
    /// means the run is not cancellable.
    pub cancel: Option<&'a CancelToken>,
    /// Per-tile body, `body(worker, tile)` — same contract as the body of
    /// [`WorkerPool::run_tiles`].
    pub body: &'a (dyn Fn(usize, usize) + Sync),
}

/// Per-run accounting from [`WorkerPool::run_tiles_multi`]. Indices into
/// `completed`/`skipped`/`failures` match the input `runs` slice.
pub struct MultiOutcome {
    /// One report per worker, across all runs (workers interleave tiles
    /// from different runs, so busy time cannot be split per run).
    pub reports: Vec<ThreadReport>,
    /// Tiles completed per run.
    pub completed: Vec<usize>,
    /// Tiles skipped per run because the run's cancel token was set when
    /// they came up for claim. `completed + skipped + failures` accounts
    /// for every tile of every run.
    pub skipped: Vec<usize>,
    /// Failures per run, each sorted by tile index. A run succeeded iff
    /// its list is empty.
    pub failures: Vec<Vec<TileFailure>>,
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.inner.state.lock().unwrap_or_else(|e| e.into_inner());
            st.shutdown = true;
            self.inner.work_cv.notify_all();
        }
        let handles =
            std::mem::take(&mut *self.handles.lock().unwrap_or_else(|e| e.into_inner()));
        for h in handles {
            let _ = h.join();
        }
    }
}

/// The parked-worker loop: wait for an epoch bump, run the job if this
/// worker participates, decrement the latch, repeat until shutdown.
fn worker_loop(idx: usize, inner: Arc<Inner>) {
    let mut seen_epoch = 0u64;
    loop {
        let mut st = inner.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if st.shutdown {
                return;
            }
            if st.epoch != seen_epoch {
                if st.job.is_some() {
                    break;
                }
                // the run we missed already completed; catch up and park
                seen_epoch = st.epoch;
            }
            st = inner.work_cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        seen_epoch = st.epoch;
        // a stored job is always mid-run (`active > 0`), so the erased
        // body reference is valid for the duration of this call
        let job = match st.job {
            Some(job) => job,
            None => continue,
        };
        drop(st);
        if idx >= job.n_workers {
            continue;
        }
        let outcome = catch_tile_panic(|| (job.body)(idx));
        let mut st = inner.state.lock().unwrap_or_else(|e| e.into_inner());
        if let Err(msg) = outcome {
            // a panic past tile isolation means scheduler state is
            // suspect: fail this run and refuse all future ones
            if st.poison.is_none() {
                st.poison = Some(format!("worker {idx}: {msg}"));
            }
        }
        st.active -= 1;
        if st.active == 0 {
            st.job = None;
            inner.done_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    #[test]
    fn workers_are_spawned_once_and_reused() {
        let pool = WorkerPool::new();
        for _ in 0..10 {
            pool.run_tiles(3, 32, Schedule::Dynamic, |_, _| {}).unwrap();
        }
        assert_eq!(pool.spawned_workers(), 3, "thread count stays flat across runs");
        // a wider run grows the pool once; narrower runs after that reuse it
        pool.run_tiles(5, 32, Schedule::Static, |_, _| {}).unwrap();
        pool.run_tiles(2, 32, Schedule::Static, |_, _| {}).unwrap();
        assert_eq!(pool.spawned_workers(), 5);
    }

    #[test]
    fn tile_panic_is_isolated_and_does_not_poison_the_pool() {
        let pool = WorkerPool::new();
        let out = pool
            .run_tiles(4, 40, Schedule::Dynamic, |_, tile| {
                if tile == 13 {
                    panic!("kernel died on tile {tile}");
                }
            })
            .expect("tile failure must not be a pool failure");
        let failures = &out.failures[0];
        assert_eq!(failures.len(), 1, "tile 13 must be reported");
        assert_eq!(failures[0].tile, 13);
        assert!(failures[0].payload.contains("kernel died on tile 13"));
        assert_eq!(
            out.reports.iter().map(|r| r.tiles_run).sum::<usize>(),
            39,
            "survivors drain the queue"
        );
        // the pool is still healthy: a follow-up run succeeds
        let out = pool.run_tiles(4, 40, Schedule::Dynamic, |_, _| {}).unwrap();
        assert_eq!(out.reports.iter().map(|r| r.tiles_run).sum::<usize>(), 40);
    }

    #[test]
    fn job_level_panic_poisons_the_pool() {
        let pool = WorkerPool::new();
        let err = pool
            .run(2, &|t| {
                if t == 1 {
                    panic!("infrastructure failure");
                }
            })
            .expect_err("the escaping panic must fail the run");
        assert!(matches!(err, PoolError::Poisoned { ref detail } if detail.contains("infrastructure failure")));
        // all future runs are refused
        let err = pool.run(2, &|_| {}).expect_err("poison is permanent");
        assert!(matches!(err, PoolError::Poisoned { .. }));
        let Err(err) = pool.run_tiles(2, 8, Schedule::Static, |_, _| {}) else {
            panic!("run_tiles is refused too");
        };
        assert!(matches!(err, PoolError::Poisoned { .. }));
    }

    #[test]
    fn debug_poison_refuses_future_runs() {
        let pool = WorkerPool::new();
        pool.run_tiles(2, 8, Schedule::Static, |_, _| {}).unwrap();
        pool.debug_poison("injected for test");
        let Err(err) = pool.run_tiles(2, 8, Schedule::Static, |_, _| {}) else {
            panic!("poisoned pool refuses");
        };
        assert!(matches!(err, PoolError::Poisoned { ref detail } if detail.contains("injected")));
    }

    #[test]
    fn zero_tiles_is_a_noop() {
        let pool = WorkerPool::new();
        let out =
            pool.run_tiles(4, 0, Schedule::Static, |_, _: usize| panic!("no tiles")).unwrap();
        assert!(out.failures[0].is_empty());
        assert_eq!(out.reports.len(), 4);
        assert_eq!(pool.spawned_workers(), 0, "no work, no threads");
    }

    #[test]
    fn drop_joins_all_workers() {
        let pool = WorkerPool::new();
        pool.run_tiles(4, 16, Schedule::Dynamic, |_, _| {}).unwrap();
        drop(pool); // must not hang or leak threads
    }

    #[test]
    fn multi_run_executes_every_tile_of_every_run_exactly_once() {
        let pool = WorkerPool::new();
        let sizes = [17usize, 1, 0, 40, 8];
        let counts: Vec<Vec<AtomicU64>> = sizes
            .iter()
            .map(|&n| (0..n).map(|_| AtomicU64::new(0)).collect())
            .collect();
        let bodies: Vec<Box<dyn Fn(usize, usize) + Sync>> = counts
            .iter()
            .map(|c| {
                let c = c;
                Box::new(move |_: usize, tile: usize| {
                    c[tile].fetch_add(1, Ordering::Relaxed);
                }) as Box<dyn Fn(usize, usize) + Sync>
            })
            .collect();
        let runs: Vec<MultiRun<'_>> = sizes
            .iter()
            .zip(&bodies)
            .map(|(&n_tiles, body)| MultiRun { n_tiles, cancel: None, body: body.as_ref() })
            .collect();
        let out = pool.run_tiles_multi(4, Schedule::Dynamic, &runs).unwrap();
        for (r, c) in counts.iter().enumerate() {
            for (i, n) in c.iter().enumerate() {
                assert_eq!(n.load(Ordering::Relaxed), 1, "run {r} tile {i}");
            }
            assert_eq!(out.completed[r], sizes[r]);
            assert!(out.failures[r].is_empty());
        }
        assert_eq!(
            out.reports.iter().map(|x| x.tiles_run).sum::<usize>(),
            sizes.iter().sum::<usize>()
        );
    }

    #[test]
    fn multi_run_interleave_is_round_robin_and_deterministic() {
        // One worker drains the claim order sequentially, exposing the
        // interleave: each round takes the next tile of every run that
        // still has one, in slice order, until the longest run drains.
        let pool = WorkerPool::new();
        let seen: Mutex<Vec<(usize, usize)>> = Mutex::new(Vec::new());
        let body = |r: usize| {
            let seen = &seen;
            move |_: usize, tile: usize| seen.lock().unwrap().push((r, tile))
        };
        let (body0, body1, body2) = (body(0), body(1), body(2));
        let runs = [
            MultiRun { n_tiles: 3, cancel: None, body: &body0 },
            MultiRun { n_tiles: 1, cancel: None, body: &body1 },
            MultiRun { n_tiles: 2, cancel: None, body: &body2 },
        ];
        pool.run_tiles_multi(1, Schedule::Dynamic, &runs).unwrap();
        let seen = seen.into_inner().unwrap();
        assert_eq!(
            seen,
            vec![(0, 0), (1, 0), (2, 0), (0, 1), (2, 1), (0, 2)],
            "round-robin order"
        );
    }

    #[test]
    fn multi_run_panic_is_charged_to_its_own_run_only() {
        let pool = WorkerPool::new();
        let body_ok = |_: usize, _: usize| {};
        let body_bad = |_: usize, tile: usize| {
            if tile == 3 {
                panic!("tenant-local failure on tile {tile}");
            }
        };
        let runs = [
            MultiRun { n_tiles: 20, cancel: None, body: &body_ok },
            MultiRun { n_tiles: 10, cancel: None, body: &body_bad },
            MultiRun { n_tiles: 20, cancel: None, body: &body_ok },
        ];
        let out = pool.run_tiles_multi(4, Schedule::Dynamic, &runs).unwrap();
        assert!(out.failures[0].is_empty(), "healthy run 0 sees no failures");
        assert!(out.failures[2].is_empty(), "healthy run 2 sees no failures");
        assert_eq!(out.failures[1].len(), 1);
        assert_eq!(out.failures[1][0].tile, 3);
        assert!(out.failures[1][0].payload.contains("tenant-local failure"));
        assert_eq!(out.completed[0], 20, "siblings drain fully");
        assert_eq!(out.completed[1], 9);
        assert_eq!(out.completed[2], 20);
        // the pool itself stays healthy
        pool.run_tiles(2, 8, Schedule::Static, |_, _| {}).unwrap();
    }

    #[test]
    fn multi_run_empty_batch_is_a_noop() {
        let pool = WorkerPool::new();
        let out = pool.run_tiles_multi(4, Schedule::Dynamic, &[]).unwrap();
        assert!(out.completed.is_empty());
        assert_eq!(pool.spawned_workers(), 0, "no work, no threads");
    }

    #[test]
    fn reports_account_for_busy_time() {
        let pool = WorkerPool::new();
        let out = pool
            .run_tiles(2, 8, Schedule::Dynamic, |_, _| {
                std::thread::sleep(std::time::Duration::from_millis(2));
            })
            .unwrap();
        assert!(out.reports.iter().any(|r| r.busy.as_micros() > 0));
        assert_eq!(out.reports.iter().map(|r| r.tiles_run).sum::<usize>(), 8);
    }

    #[test]
    fn slow_tile_runs_once_to_completion_under_every_schedule() {
        let pool = WorkerPool::new();
        for schedule in Schedule::all() {
            let counts: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
            let out = pool
                .run_tiles(2, 4, schedule, |_, tile| {
                    if tile == 0 {
                        std::thread::sleep(Duration::from_millis(40));
                    }
                    counts[tile].fetch_add(1, Ordering::Relaxed);
                })
                .unwrap();
            for (i, c) in counts.iter().enumerate() {
                assert_eq!(c.load(Ordering::Relaxed), 1, "tile {i} {schedule:?}");
            }
            assert!(out.failures[0].is_empty(), "{schedule:?}");
            assert_eq!(out.reports.iter().map(|r| r.tiles_run).sum::<usize>(), 4);
        }
    }

    #[test]
    fn multi_run_cancel_skips_remaining_tiles_of_that_run_only() {
        let pool = WorkerPool::new();
        let token = CancelToken::new();
        let tok = &token;
        // One worker drains the deterministic interleave A0 B0 A1 B1 …;
        // A cancels itself while executing its third tile, so A3..A5 are
        // skipped while B drains completely.
        let body_a = move |_: usize, tile: usize| {
            if tile == 2 {
                tok.cancel();
            }
        };
        let body_b = |_: usize, _: usize| {};
        let runs = [
            MultiRun { n_tiles: 6, cancel: Some(&token), body: &body_a },
            MultiRun { n_tiles: 6, cancel: None, body: &body_b },
        ];
        let out = pool.run_tiles_multi(1, Schedule::Dynamic, &runs).unwrap();
        assert_eq!(out.completed[0], 3, "A ran tiles 0..=2 then stopped");
        assert_eq!(out.skipped[0], 3, "A3..A5 skipped at claim time");
        assert!(out.failures[0].is_empty(), "cancelled tiles are skipped, not failed");
        assert_eq!(out.completed[1], 6, "sibling B is untouched");
        assert_eq!(out.skipped[1], 0);
        // the pool stays healthy for follow-up work
        let out = pool.run_tiles(1, 4, Schedule::Static, |_, _| {}).unwrap();
        assert_eq!(out.reports.iter().map(|r| r.tiles_run).sum::<usize>(), 4);
    }

    #[test]
    fn single_run_stops_starting_tiles_after_cancel() {
        let pool = WorkerPool::new();
        let token = CancelToken::new();
        let tok = &token;
        let ran = AtomicU64::new(0);
        let body = |_: usize, tile: usize| {
            ran.fetch_add(1, Ordering::Relaxed);
            if tile == 4 {
                tok.cancel();
            }
        };
        let run = MultiRun { n_tiles: 100, cancel: Some(&token), body: &body };
        let out = pool.run_tiles_multi(1, Schedule::Dynamic, &[run]).unwrap();
        let n = ran.load(Ordering::Relaxed) as usize;
        assert_eq!(n, 5, "tiles after the cancelling one are never started");
        assert_eq!(out.reports.iter().map(|r| r.tiles_run).sum::<usize>(), n);
        assert_eq!(out.completed[0], 5);
        assert_eq!(out.skipped[0], 95, "the rest is skipped, not failed");
        assert!(out.failures[0].is_empty());
    }

    #[test]
    fn deadline_token_abandons_a_single_run_at_a_tile_boundary() {
        let pool = WorkerPool::new();
        let token = CancelToken::with_deadline(Instant::now() + Duration::from_millis(25));
        let ran = AtomicU64::new(0);
        let body = |_: usize, _: usize| {
            ran.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(4));
        };
        let run = MultiRun { n_tiles: 50, cancel: Some(&token), body: &body };
        let out = pool.run_tiles_multi(1, Schedule::Dynamic, &[run]).unwrap();
        let n = ran.load(Ordering::Relaxed) as usize;
        assert!(n < 50, "the deadline must cut the run short");
        assert!(token.deadline_expired());
        assert_eq!(out.reports.iter().map(|r| r.tiles_run).sum::<usize>(), n);
    }

    // --- claim-discipline coverage (one claim loop serves every caller) ---

    #[test]
    fn every_variant_visits_each_tile_exactly_once_across_the_count_matrix() {
        // every schedule variant × tile counts around the thread count
        // (1, p−1, p, 64·p) plus the more-threads-than-tiles regime
        let pool = WorkerPool::new();
        let p = 4usize;
        let cases = [(p, 1usize), (p, p - 1), (p, p), (p, 64 * p), (4 * p, p / 2), (3, 97)];
        for schedule in Schedule::all() {
            for (n_threads, n_tiles) in cases {
                let counts: Vec<AtomicU64> = (0..n_tiles).map(|_| AtomicU64::new(0)).collect();
                let out = pool
                    .run_tiles(n_threads, n_tiles, schedule, |_, tile| {
                        counts[tile].fetch_add(1, Ordering::Relaxed);
                    })
                    .unwrap();
                let reports = &out.reports;
                let ctx = format!("{schedule:?} p={n_threads} n={n_tiles}");
                assert_eq!(reports.len(), n_threads, "{ctx}");
                for (i, c) in counts.iter().enumerate() {
                    assert_eq!(c.load(Ordering::Relaxed), 1, "tile {i} under {ctx}");
                }
                assert_eq!(reports.iter().map(|r| r.tiles_run).sum::<usize>(), n_tiles, "{ctx}");
                if matches!(schedule, Schedule::Static) {
                    // static: offline blocks differ by at most one tile
                    let max = reports.iter().map(|r| r.tiles_run).max().unwrap();
                    let min = reports.iter().map(|r| r.tiles_run).min().unwrap();
                    assert!(max - min <= 1, "{ctx}");
                }
            }
        }
    }

    /// Spin for `n` iterations (a CPU-bound tile the optimiser keeps).
    fn spin(n: u64) {
        let mut x = 0u64;
        for i in 0..n {
            x = x.wrapping_add(i);
        }
        std::hint::black_box(x);
    }

    #[test]
    fn dynamic_shifts_tiles_away_from_a_slow_worker() {
        // tile 0 is far slower than the rest: the queue discipline must
        // let the other worker absorb the remaining tiles
        let pool = WorkerPool::new();
        let reports = pool
            .run_tiles(2, 64, Schedule::Dynamic, |_, tile| {
                spin(if tile == 0 { 6_000_000 } else { 5_000 });
            })
            .unwrap()
            .reports;
        assert_eq!(reports.iter().map(|r| r.tiles_run).sum::<usize>(), 64);
        let max_tiles = reports.iter().map(|r| r.tiles_run).max().unwrap();
        assert!(
            max_tiles > 32,
            "the unblocked worker should take most tiles: {:?}",
            reports.iter().map(|r| r.tiles_run).collect::<Vec<_>>()
        );
    }

    #[test]
    fn panicking_tile_is_isolated_under_every_schedule() {
        let pool = WorkerPool::new();
        for schedule in Schedule::all() {
            let counts: Vec<AtomicU64> = (0..40).map(|_| AtomicU64::new(0)).collect();
            let out = pool
                .run_tiles(4, 40, schedule, |_, tile| {
                    if tile == 13 {
                        panic!("kernel died on tile {tile}");
                    }
                    counts[tile].fetch_add(1, Ordering::Relaxed);
                })
                .expect("tile failure is not a pool failure");
            let failures = &out.failures[0];
            assert_eq!(failures.len(), 1, "{schedule:?}");
            assert_eq!(failures[0].tile, 13);
            for (i, c) in counts.iter().enumerate() {
                assert_eq!(c.load(Ordering::Relaxed), u64::from(i != 13), "tile {i} {schedule:?}");
            }
            assert_eq!(out.reports.iter().map(|r| r.tiles_failed).sum::<usize>(), 1);
        }
    }

    #[test]
    fn multiple_failures_are_sorted_by_tile() {
        let pool = WorkerPool::new();
        let out = pool
            .run_tiles(3, 30, Schedule::Dynamic, |_, tile| {
                if tile % 7 == 0 {
                    panic!("bad tile");
                }
            })
            .expect("tile failure is not a pool failure");
        let failed: Vec<usize> = out.failures[0].iter().map(|f| f.tile).collect();
        assert_eq!(failed, vec![0, 7, 14, 21, 28]);
    }

    #[test]
    fn batch_runs_honour_the_schedule() {
        // a static batch hands each worker one contiguous block of the
        // interleaved claim order; every tile still runs exactly once
        let pool = WorkerPool::new();
        let sizes = [5usize, 9, 3];
        let counts: Vec<Vec<AtomicU64>> =
            sizes.iter().map(|&n| (0..n).map(|_| AtomicU64::new(0)).collect()).collect();
        type Body<'b> = Box<dyn Fn(usize, usize) + Sync + 'b>;
        let bodies: Vec<Body<'_>> = counts
            .iter()
            .map(|c| {
                Box::new(move |_: usize, tile: usize| {
                    c[tile].fetch_add(1, Ordering::Relaxed);
                }) as Body<'_>
            })
            .collect();
        let runs: Vec<MultiRun<'_>> = sizes
            .iter()
            .zip(&bodies)
            .map(|(&n_tiles, body)| {
                MultiRun { n_tiles, cancel: None, body: body.as_ref() }
            })
            .collect();
        for schedule in Schedule::all() {
            for c in counts.iter().flatten() {
                c.store(0, Ordering::Relaxed);
            }
            let out = pool.run_tiles_multi(3, schedule, &runs).unwrap();
            let once = counts.iter().flatten().all(|c| c.load(Ordering::Relaxed) == 1);
            assert!(once, "{schedule:?}");
            assert_eq!(out.completed, sizes.to_vec(), "{schedule:?}");
        }
    }
}
