//! The tile engine: one execution path for every masked product.
//!
//! A one-shot [`spgemm`], a reused [`crate::Plan`], a fused
//! [`crate::PlanGraph`] and a service batch all reach `run_jobs` as
//! *jobs*: a frozen chain of one or more masked products (a single product
//! is a one-node chain with inputs `[A, B, M]`), its concrete inputs, and
//! its cross-run scratch. Pipeline per job (all passes `O(nnz)` or
//! better):
//!
//! 1. the symbolic prologue — shape validation, Eq. 2 work estimation,
//!    tiling, accumulator bounds and per-node slot layout — frozen by
//!    `crate::graph::freeze` (per call for [`spgemm`], once per
//!    [`crate::Plan`] / [`crate::PlanGraph`], once per cached service plan);
//! 2. one pool dispatch ([`mspgemm_sched::WorkerPool::run_tiles_multi`])
//!    that runs the *whole chain per tile*: the worker that finishes node
//!    `j`'s rows `[lo, hi)` immediately runs node `j+1` on the same rows,
//!    reading its predecessor's output straight out of the slot window it
//!    just wrote. A batch multiplexes every job's tiles onto the same
//!    dispatch;
//! 3. one settle routine per job: cancellation, the degraded serial retry,
//!    and output assembly.
//!
//! # Output assembly
//!
//! The engine exploits the mask's hard bound `nnz(C[i,:]) ≤ nnz(M[i,:])`:
//! every node owns slot buffers sized at `nnz(M)`, each tile claims its
//! disjoint slot windows through [`mspgemm_sched::DisjointSlots`] and the
//! kernels write rows straight into their slots (zero steady-state
//! allocation); a compaction pass then squeezes out the per-row slack and
//! builds the final `row_ptr` — and when there is no slack the slot
//! buffers *are* the output, with nothing copied at all. The slot buffers
//! and the per-worker accumulator cells live in the job's
//! `PlanScratch`, so a reused plan re-executes without allocating them
//! (reused buffers are resized without clearing: every surviving row slot
//! is rewritten before compaction reads it).
//!
//! # Fault tolerance
//!
//! Tile execution is panic-isolated (see `mspgemm_sched`): a kernel that
//! unwinds loses only its own tile, and the settle routine retries each
//! lost tile **once, serially, with the conservative configuration** — the
//! vanilla saxpy kernel over a dense `u64`-marker accumulator, every node
//! of the chain in order — before giving up. All kernels accumulate each
//! output row's products in the same `k` order, so a successful retry is
//! bit-identical to what the original configuration would have produced.
//! A worker table that overflows (it cannot at the plan's hard bound, but
//! the hash accumulator still latches it) leaves its tile uncompleted, and
//! the same retry recomputes it. Only if the degraded retry *also* fails
//! does the call surface
//! [`SparseError::TileFailed`], naming the tile and its row range; internal
//! invariant breaks surface as [`SparseError::Internal`]. A panic that
//! escapes tile isolation inside the pool infrastructure poisons the
//! executor — [`SparseError::ExecutorPoisoned`] — but never the process.
//! Either way [`RunStats::retried_tiles`] / [`RunStats::failed_tiles`] make
//! any degradation observable.

use crate::config::{Config, IterationSpace};
use crate::executor::{Executor, ExecutorShared};
use crate::graph::{GraphCore, NodePlan, OperandRef};
use crate::kernels::{
    row_coiterate, row_hybrid, row_mask_accumulate, row_vanilla, tally_row_hybrid, HybridStats,
    RowRead,
};
use crate::plan::{AccCell, AccSlot, PlanScratch, SlotBufs};
use mspgemm_accum::{
    Accumulator, AccumulatorKind, DenseAccumulator, FusedOp, FusedSink, HashAccumulator,
    MarkerWidth, RowSink, SlotSink,
};
use mspgemm_rt::{failpoint, obs};
use mspgemm_sched::{
    catch_tile_panic, CancelToken, DisjointSlots, MultiRun, PoolError, Schedule, ThreadReport,
    Tile, TileFailure,
};
use mspgemm_sparse::{Csr, Idx, Semiring, SparseError};
use std::any::Any;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Measurements from one driver invocation.
#[derive(Clone, Debug)]
pub struct RunStats {
    /// Wall time of the parallel section + assembly, **excluding** the
    /// degraded serial retries (matching how the paper times the kernel:
    /// a fault-recovery pass is not part of the measured configuration).
    /// The retry window is reported separately in
    /// [`retry_elapsed`](Self::retry_elapsed); end-to-end wall time is
    /// [`total`](Self::total).
    pub elapsed: Duration,
    /// Wall time of the symbolic phase: the work-estimation + tiling
    /// prologue for a one-shot call, or the (much cheaper) structural
    /// revalidation for [`crate::plan::Plan::execute`].
    pub setup: Duration,
    /// Wall time of the degraded serial retry pass (zero when no tile
    /// failed), reported apart from [`elapsed`](Self::elapsed) so a run
    /// that recovered from faults does not look slower than the
    /// configuration it was measuring.
    pub retry_elapsed: Duration,
    /// Per-thread execution reports (tiles run, busy time).
    pub thread_reports: Vec<ThreadReport>,
    /// Total Eq. 2 work estimate.
    pub estimated_work: u64,
    /// Entries in the output (summed over a graph's output nodes).
    pub output_nnz: usize,
    /// Tiles actually used (after resolution/clamping).
    pub n_tiles: usize,
    /// Threads actually used.
    pub n_threads: usize,
    /// Tiles that failed in the parallel phase and were recovered by the
    /// degraded serial retry (vanilla kernel + dense `u64` accumulator).
    pub retried_tiles: usize,
    /// Tiles that failed in the parallel phase (each was then retried; a
    /// retry failure aborts the whole call with
    /// [`SparseError::TileFailed`], so on the `Ok` path this always equals
    /// [`retried_tiles`](Self::retried_tiles)).
    pub failed_tiles: usize,
    /// Counter/histogram deltas attributable to this run, present iff
    /// metrics were armed (`MSPGEMM_METRICS` or [`obs::arm_metrics`]) and
    /// the run was not multiplexed with other jobs.
    pub metrics: Option<obs::MetricsSnapshot>,
}

impl RunStats {
    /// `max(busy) / mean(busy)` over threads; 1.0 is perfect balance.
    pub fn imbalance(&self) -> f64 {
        mspgemm_sched::pool::imbalance(&self.thread_reports)
    }

    /// End-to-end wall time of the call:
    /// `setup + elapsed + retry_elapsed`.
    pub fn total(&self) -> Duration {
        self.setup + self.elapsed + self.retry_elapsed
    }
}

/// Compute `C = M ⊙ (A × B)` with the given configuration, on the
/// process-wide persistent executor ([`crate::Executor::global`]).
///
/// The mask is interpreted **structurally**: any stored entry of `M`
/// admits the corresponding output position, regardless of its value
/// (§IV-A: "the mask is treated as Boolean (i.e., its values are not
/// used)").
///
/// For iterated workloads (the same operand structure multiplied many
/// times), prefer [`crate::Session`] or [`crate::Executor::plan`], which
/// additionally reuse the symbolic phase and the output slot buffers
/// across calls.
pub fn spgemm<S: Semiring>(
    a: &Csr<S::T>,
    b: &Csr<S::T>,
    mask: &Csr<S::T>,
    config: &Config,
) -> Result<(Csr<S::T>, RunStats), SparseError> {
    Executor::global().execute::<S>(a, b, mask, config)
}

/// Map a pool-infrastructure failure onto the public error surface.
fn pool_error(e: PoolError) -> SparseError {
    match e {
        PoolError::Poisoned { detail } => SparseError::ExecutorPoisoned { detail },
        PoolError::Spawn { detail } => {
            SparseError::Internal { detail: format!("worker spawn: {detail}") }
        }
    }
}

/// One chain to run: a frozen core, the concrete inputs it was frozen
/// against (positional), and its cross-run scratch.
pub(crate) struct Job<'r, S: Semiring> {
    pub(crate) core: &'r GraphCore<S::T>,
    pub(crate) inputs: &'r [&'r Csr<S::T>],
    pub(crate) scratch: &'r mut PlanScratch<S::T>,
    /// Cooperative cancellation for this job alone: when the token fires
    /// (client cancel or enforced deadline) the claim loop stops issuing
    /// this job's tiles and settle reports [`SparseError::Cancelled`] /
    /// [`SparseError::DeadlineExceeded`]. Sibling jobs are untouched.
    pub(crate) cancel: Option<&'r CancelToken>,
    /// Symbolic-phase wall time attributed to this job, reported in its
    /// `RunStats`.
    pub(crate) setup: Duration,
    /// Products plus fused post-ops a [`crate::PlanGraph`] execution
    /// counts as `fusion.ops_fused` (zero for plain products), recorded
    /// inside the run's metrics window.
    pub(crate) fused_ops: u64,
}

/// A job's outcome: its marked output nodes (in node order) and stats.
pub(crate) type JobResult<T> = Result<(Vec<Csr<T>>, RunStats), SparseError>;

/// The single output of a one-node job.
pub(crate) fn only_output<T>(outcome: JobResult<T>) -> Result<(Csr<T>, RunStats), SparseError> {
    let (outs, stats) = outcome?;
    match outs.into_iter().next() {
        Some(c) => Ok((c, stats)),
        None => Err(SparseError::Internal { detail: "product produced no output".to_string() }),
    }
}

/// Run one job alone (see [`run_jobs`]).
pub(crate) fn run_job<S: Semiring>(exec: &ExecutorShared, job: Job<'_, S>) -> JobResult<S::T> {
    run_jobs(exec, vec![job]).pop().unwrap_or_else(|| {
        Err(SparseError::Internal { detail: "job never settled".to_string() })
    })
}

/// Execute jobs in one run-lock window and one pool dispatch, then settle
/// each from its own failure accounting (so one tenant's tile panics never
/// fail a sibling's product). Results come back in job order.
///
/// A lone job claims its tiles under its configured schedule and reports
/// its own thread reports and (when armed) a metrics delta. A batch
/// interleaves every job's tiles at per-tile granularity; its per-job
/// `RunStats` carry the whole batch's `thread_reports` (workers interleave
/// jobs, so busy time is not attributable per job), an `elapsed` of the
/// shared parallel window plus the job's own settling, and `metrics: None`
/// (process-global counter deltas cannot be split across jobs).
pub(crate) fn run_jobs<S: Semiring>(
    exec: &ExecutorShared,
    mut jobs: Vec<Job<'_, S>>,
) -> Vec<JobResult<S::T>> {
    let _run = exec.run_lock.lock().unwrap_or_else(|e| e.into_inner());
    let n_jobs = jobs.len();
    let before = (n_jobs == 1 && obs::armed()).then(obs::snapshot);
    let start = Instant::now();
    let n_threads = jobs.iter().map(|j| j.core.n_threads).max().unwrap_or(1);
    let schedule = match jobs.as_slice() {
        [job] => job.core.config.schedule,
        _ => Schedule::Dynamic,
    };
    for job in jobs.iter_mut() {
        obs::incr(obs::Counter::DriverRuns);
        obs::add(obs::Counter::FusionOpsFused, job.fused_ops);
        job.scratch.fit(job.core, S::zero(), n_threads);
    }

    // --- parallel phase: claim slot windows, build each job's tile body,
    // one dispatch for all of them ---
    let metered = obs::armed();
    let (outcome, tallies) = {
        let mut ledgers: Vec<Ledger<'_, S::T>> = Vec::with_capacity(jobs.len());
        let mut views = Vec::with_capacity(jobs.len());
        for job in jobs.iter_mut() {
            let PlanScratch { slots, accums } = &mut *job.scratch;
            match Ledger::new(job.core, slots) {
                Ok(l) => ledgers.push(l),
                Err(detail) => {
                    let e = SparseError::Internal { detail };
                    return (0..n_jobs).map(|_| Err(e.clone())).collect();
                }
            }
            views.push((job.core, job.inputs, accums.as_slice(), job.cancel));
        }
        let bodies: Vec<TileFn<'_>> = views
            .iter()
            .zip(&ledgers)
            .map(|(&(core, inputs, cells, _), ledger)| {
                dispatch_accumulator::<S>(TileBody { core, inputs, cells, ledger }, metered)
            })
            .collect();
        let runs: Vec<MultiRun<'_>> = views
            .iter()
            .zip(&bodies)
            .map(|(&(core, _, _, cancel), body)| MultiRun {
                n_tiles: core.tiles.len(),
                cancel,
                body: body.as_ref(),
            })
            .collect();
        let outcome = exec.pool.run_tiles_multi(n_threads, schedule, &runs);
        drop(runs);
        drop(bodies);
        (outcome, ledgers.into_iter().map(Ledger::finish).collect::<Vec<_>>())
    };
    let par_elapsed = start.elapsed();
    let out = match outcome {
        Ok(out) => out,
        Err(e) => {
            let e = pool_error(e);
            return (0..n_jobs).map(|_| Err(e.clone())).collect();
        }
    };

    // --- settle each job: retry, assemble, account ---
    let mut results: Vec<JobResult<S::T>> = jobs
        .iter_mut()
        .zip(tallies)
        .zip(&out.failures)
        .map(|((job, tally), failures)| {
            let settle_start = Instant::now();
            let (outputs, retry) = settle::<S>(job, tally, failures)?;
            let stats = RunStats {
                elapsed: (par_elapsed + settle_start.elapsed()).saturating_sub(retry.elapsed),
                setup: job.setup,
                retry_elapsed: retry.elapsed,
                thread_reports: out.reports.clone(),
                estimated_work: job.core.estimated_work,
                output_nnz: outputs.iter().map(Csr::nnz).sum(),
                n_tiles: job.core.tiles.len(),
                n_threads,
                retried_tiles: retry.recovered,
                failed_tiles: retry.failed,
                metrics: None,
            };
            Ok((outputs, stats))
        })
        .collect();
    if let (Some(b), [Ok((_, stats))]) = (before, results.as_mut_slice()) {
        stats.metrics = Some(obs::snapshot().delta_since(&b));
    }
    results
}

/// A job's type-erased tile body, as handed to the pool.
type TileFn<'x> = Box<dyn Fn(usize, usize) + Sync + 'x>;

/// One job's shared tile-run state: every node's claimable slot windows,
/// the per-tile completion latches, and the duplicate tally the settle
/// routine reads back.
struct Ledger<'b, T> {
    cols: Vec<DisjointSlots<'b, Idx>>,
    vals: Vec<DisjointSlots<'b, T>>,
    nnz: Vec<DisjointSlots<'b, u32>>,
    completed: Vec<OnceLock<()>>,
    duplicate: Mutex<Option<usize>>,
}

/// What a job's tiles left behind for settle.
struct Tally {
    completed: Vec<OnceLock<()>>,
    duplicate: Option<usize>,
}

impl<'b, T> Ledger<'b, T> {
    fn new(core: &'b GraphCore<T>, slots: &'b mut [SlotBufs<T>]) -> Result<Self, String> {
        let n = core.nodes.len();
        let (mut cols, mut vals, mut nnz) =
            (Vec::with_capacity(n), Vec::with_capacity(n), Vec::with_capacity(n));
        for (bufs, node) in slots.iter_mut().zip(&core.nodes) {
            cols.push(DisjointSlots::new(&mut bufs.cols, &node.slot_ranges)?);
            vals.push(DisjointSlots::new(&mut bufs.vals, &node.slot_ranges)?);
            nnz.push(DisjointSlots::new(&mut bufs.nnz, &core.row_ranges)?);
        }
        Ok(Ledger {
            cols,
            vals,
            nnz,
            completed: (0..core.tiles.len()).map(|_| OnceLock::new()).collect(),
            duplicate: Mutex::new(None),
        })
    }

    fn finish(self) -> Tally {
        Tally {
            completed: self.completed,
            duplicate: self.duplicate.into_inner().unwrap_or_else(|e| e.into_inner()),
        }
    }
}

/// Everything one job's tile body reads.
struct TileBody<'x, S: Semiring> {
    core: &'x GraphCore<S::T>,
    inputs: &'x [&'x Csr<S::T>],
    /// Per-worker accumulator cells, plan-owned (see `PlanScratch`).
    cells: &'x [AccCell],
    ledger: &'x Ledger<'x, S::T>,
}

/// The one accumulator dispatch: monomorphise on the accumulator family ×
/// marker width — and on the metering flag: armed runs use
/// the counting (`METER = true`) accumulator instantiations, unarmed runs
/// compile to instantiations whose hot loops are instruction-identical to
/// the uninstrumented baseline. Arming is checked once per run, never per
/// element. (The plan-owned accumulator cells are type-checked on every
/// tile, so flipping the flag between runs transparently rebuilds them.)
///
/// Hash tables are built at the plan's hard bound `max_row_entries`
/// (§III-C); dense tables span the full column range.
fn dispatch_accumulator<S: Semiring>(body: TileBody<'_, S>, metered: bool) -> TileFn<'_> {
    if metered {
        pick_accumulator::<S, true>(body)
    } else {
        pick_accumulator::<S, false>(body)
    }
}

fn pick_accumulator<S: Semiring, const METER: bool>(body: TileBody<'_, S>) -> TileFn<'_> {
    let core = body.core;
    let ncols = core.max_ncols;
    let cap = core.max_row_entries;
    match core.config.kernel.accumulator {
        AccumulatorKind::Dense(MarkerWidth::W8) => {
            tile_fn(body, move || DenseAccumulator::<S, u8, METER>::new(ncols))
        }
        AccumulatorKind::Dense(MarkerWidth::W16) => {
            tile_fn(body, move || DenseAccumulator::<S, u16, METER>::new(ncols))
        }
        AccumulatorKind::Dense(MarkerWidth::W32) => {
            tile_fn(body, move || DenseAccumulator::<S, u32, METER>::new(ncols))
        }
        AccumulatorKind::Dense(MarkerWidth::W64) => {
            tile_fn(body, move || DenseAccumulator::<S, u64, METER>::new(ncols))
        }
        AccumulatorKind::Hash(MarkerWidth::W8) => {
            tile_fn(body, move || HashAccumulator::<S, u8, METER>::with_row_capacity(cap))
        }
        AccumulatorKind::Hash(MarkerWidth::W16) => {
            tile_fn(body, move || HashAccumulator::<S, u16, METER>::with_row_capacity(cap))
        }
        AccumulatorKind::Hash(MarkerWidth::W32) => {
            tile_fn(body, move || HashAccumulator::<S, u32, METER>::with_row_capacity(cap))
        }
        AccumulatorKind::Hash(MarkerWidth::W64) => {
            tile_fn(body, move || HashAccumulator::<S, u64, METER>::with_row_capacity(cap))
        }
    }
}

/// Box [`run_tile`] for one concrete accumulator type, built by `make`.
fn tile_fn<'x, S, A, F>(body: TileBody<'x, S>, make: F) -> TileFn<'x>
where
    S: Semiring,
    A: Accumulator<S> + Send + 'static,
    F: Fn() -> A + Sync + 'static,
{
    Box::new(move |t, tile| run_tile::<S, A, F>(&body, &make, t, tile))
}

/// Lease one worker's accumulator cell for a tile. A poisoned cell (a
/// tile panicked mid-update) is cleared and rebuilt from clean. The lock
/// never waits: a worker index is one thread, and `run_lock` serialises
/// runs.
fn lease(cell: &AccCell) -> MutexGuard<'_, AccSlot> {
    cell.lock().unwrap_or_else(|poisoned| {
        cell.clear_poison();
        let mut guard = poisoned.into_inner();
        *guard = None;
        guard
    })
}

/// The cell's value as a `T`, rebuilt (stale value dropped first, so peak
/// memory is one scratch) when the cell is empty, was built for another
/// core, or holds another type — e.g. arming metrics flips the
/// accumulator's `METER` parameter.
fn cached<T: Any + Send>(
    slot: &mut AccSlot,
    key: u64,
    build: impl FnOnce() -> T,
) -> Option<&mut T> {
    if !slot.as_ref().is_some_and(|(k, b)| *k == key && b.is::<T>()) {
        *slot = None;
        *slot = Some((key, Box::new(build())));
    }
    slot.as_mut()?.1.downcast_mut::<T>()
}

/// The one tile body: run every node of the chain on tile `tile_idx`,
/// claiming each node's slot windows, with the worker's plan-owned
/// accumulator serving the whole chain. A node that overflows the worker
/// table ends the tile without its completion mark, so settle recomputes
/// it through the degraded retry.
fn run_tile<S, A, F>(
    body: &TileBody<'_, S>,
    make: &F,
    t: usize,
    tile_idx: usize,
) where
    S: Semiring,
    A: Accumulator<S> + Send + 'static,
    F: Fn() -> A,
{
    let TileBody { core, inputs, cells, ledger } = *body;
    let n_tiles = core.tiles.len();
    let n_nodes = core.nodes.len();
    let tile = core.tiles[tile_idx];
    let mut slot = lease(&cells[t % cells.len()]);
    // the cell keeps the worker table warm across tiles and — under a
    // reused plan — across runs
    let Some(acc) = cached(&mut slot, core.id, make) else {
        // unreachable: `cached` just installed the table. Bailing leaves
        // the tile uncompleted, which settle repairs by the serial retry.
        return;
    };
    let iteration = core.config.kernel.iteration;
    // earlier nodes' windows, read by chained successors (a lone product
    // never pushes, so it never allocates)
    let mut done: Vec<Rows<'_, S::T>> = Vec::new();
    let mut fused = 0u64;
    for (ni, node) in core.nodes.iter().enumerate() {
        // decorrelate per-node failures under fault injection
        failpoint::maybe_fire(failpoint::TILE_KERNEL, (ni * n_tiles + tile_idx) as u64);
        let (Some(cols), Some(vals), Some(nnz)) = (
            ledger.cols[ni].take(tile_idx),
            ledger.vals[ni].take(tile_idx),
            ledger.nnz[ni].take(tile_idx),
        ) else {
            let mut dup = ledger.duplicate.lock().unwrap_or_else(|e| e.into_inner());
            dup.get_or_insert(tile_idx);
            return;
        };
        let Some(a) = operand(core, node, tile_idx, tile, inputs, &done) else { return };
        let Some(f) = node_tile::<S, A>(
            node,
            tile_idx,
            tile,
            inputs,
            iteration,
            a,
            acc,
            &mut *cols,
            &mut *vals,
            &mut *nnz,
        ) else {
            return;
        };
        fused += f;
        if ni + 1 < n_nodes {
            done.push((cols, vals, nnz));
        }
    }
    obs::add(obs::Counter::FusionSinkFusedElems, fused);
    obs::add(obs::Counter::FusionTilesChained, (n_nodes - 1) as u64);
    let _ = ledger.completed[tile_idx].set(());
}

/// A node's `A` operand for one tile: an external input, or the rows of
/// an earlier node this tile already computed.
enum Operand<'v, T> {
    Ext(&'v Csr<T>),
    Chained(SlotView<'v, T>),
}

/// One computed node's window of a tile: slot columns, slot values and
/// per-row nnz, read back by chained successors.
type Rows<'v, T> = (&'v [Idx], &'v [T], &'v [u32]);

/// Resolve `node`'s `A` for tile `tile_idx`; `done[j]` is node `j`'s
/// window of this tile. `None` only if a chained predecessor is missing.
fn operand<'v, T>(
    core: &'v GraphCore<T>,
    node: &NodePlan<T>,
    tile_idx: usize,
    tile: Tile,
    inputs: &[&'v Csr<T>],
    done: &[Rows<'v, T>],
) -> Option<Operand<'v, T>> {
    match node.a {
        OperandRef::Ext(e) => Some(Operand::Ext(inputs[e])),
        OperandRef::Node(j) => {
            let &(cols, vals, nnz) = done.get(j)?;
            let p = core.nodes.get(j)?;
            let (lo, hi) = p.nonempty_ranges[tile_idx];
            Some(Operand::Chained(SlotView {
                nonempty: &p.nonempty[lo..hi],
                slot_lo: p.slot_ranges[tile_idx].0,
                tile_lo: tile.lo,
                cols,
                vals,
                nnz,
            }))
        }
    }
}

/// Read-only row access into a predecessor node's slot window for one
/// tile: resolves row `i` through the node's `(row, slot offset)` list and
/// its per-row nnz counts. This is how node `j+1` consumes node `j`'s
/// output without the intermediate ever being materialised — sound
/// because output row `i` of a masked product reads only row `i` of its
/// `A` operand, and all nodes share one row partition.
struct SlotView<'v, T> {
    /// The predecessor's nonempty rows for this tile (absolute offsets).
    nonempty: &'v [(Idx, usize)],
    /// Start of the predecessor's slot window for this tile.
    slot_lo: usize,
    /// First row of the tile (`nnz` is indexed `i - tile_lo`).
    tile_lo: usize,
    cols: &'v [Idx],
    vals: &'v [T],
    nnz: &'v [u32],
}

impl<T: Copy> RowRead<T> for SlotView<'_, T> {
    #[inline]
    fn row(&self, i: usize) -> (&[Idx], &[T]) {
        match self.nonempty.binary_search_by_key(&(i as Idx), |&(r, _)| r) {
            Ok(p) => {
                let (_, src) = self.nonempty[p];
                let base = src - self.slot_lo;
                let n = self.nnz[i - self.tile_lo] as usize;
                (&self.cols[base..base + n], &self.vals[base..base + n])
            }
            // an empty mask row holds no slots and no output
            Err(_) => (&[], &[]),
        }
    }
}

/// Compute one node's rows of one tile into its slot windows, with the
/// node's fused post-ops applied in the gather. Returns the fused element
/// count, or `None` if a row overflowed `acc` (see [`node_rows`]).
#[allow(clippy::too_many_arguments)]
fn node_tile<S, A>(
    node: &NodePlan<S::T>,
    tile_idx: usize,
    tile: Tile,
    inputs: &[&Csr<S::T>],
    iteration: IterationSpace,
    a: Operand<'_, S::T>,
    acc: &mut A,
    cols: &mut [Idx],
    vals: &mut [S::T],
    nnz: &mut [u32],
) -> Option<u64>
where
    S: Semiring,
    A: Accumulator<S>,
{
    let (nlo, nhi) = node.nonempty_ranges[tile_idx];
    let mut w = Window {
        nonempty: &node.nonempty[nlo..nhi],
        slot_lo: node.slot_ranges[tile_idx].0,
        tile_lo: tile.lo,
        cols,
        vals,
        nnz,
    };
    let (b, mask) = (inputs[node.b], inputs[node.mask]);
    // monomorphic row loops: a node without post-ops never sees FusedSink
    let ops = node.post.as_slice();
    match (a, ops.is_empty()) {
        (Operand::Ext(m), true) => {
            node_rows::<S, A, _, false>(&mut w, iteration, m, b, mask, ops, acc)
        }
        (Operand::Ext(m), false) => {
            node_rows::<S, A, _, true>(&mut w, iteration, m, b, mask, ops, acc)
        }
        (Operand::Chained(v), true) => {
            node_rows::<S, A, _, false>(&mut w, iteration, &v, b, mask, ops, acc)
        }
        (Operand::Chained(v), false) => {
            node_rows::<S, A, _, true>(&mut w, iteration, &v, b, mask, ops, acc)
        }
    }
}

/// One node's slot windows for one tile, plus how to find its rows in
/// them.
struct Window<'w, T> {
    /// The node's nonempty mask rows in this tile, `(row, absolute slot)`.
    nonempty: &'w [(Idx, usize)],
    /// Absolute offset of the tile's slot window.
    slot_lo: usize,
    /// First row of the tile.
    tile_lo: usize,
    cols: &'w mut [Idx],
    vals: &'w mut [T],
    nnz: &'w mut [u32],
}

/// The row loop of [`node_tile`], monomorphic in the `A` operand.
///
/// Only the tile's nonempty mask rows are visited: an empty mask row
/// admits no output and owns no slots, so the only thing a full scan
/// would do for it is write `nnz = 0` — which the buffers already hold:
/// fresh buffers are zero-filled, reused ones belong to a plan whose
/// fingerprint pins the mask's row pointers, so a row empty now was empty
/// (and zero) on every earlier run.
///
/// Each row is written straight into its [`SlotSink`] for a node without
/// post-ops (so a plain product keeps the exact kernel instantiation it
/// always had), through a [`FusedSink`] over it when `FUSED`.
///
/// `acc` is sized at the plan's hard bound, so no row can overflow it.
/// The accumulator's overflow latch is still read once per row as a
/// safety net: a row that overflowed dropped updates, so the loop stops
/// and returns `None`, and the caller leaves the tile to settle's degraded
/// retry, whose dense table has no capacity bound.
fn node_rows<S, A, R, const FUSED: bool>(
    w: &mut Window<'_, S::T>,
    iteration: IterationSpace,
    a: &R,
    b: &Csr<S::T>,
    mask: &Csr<S::T>,
    ops: &[FusedOp<S::T>],
    acc: &mut A,
) -> Option<u64>
where
    S: Semiring,
    A: Accumulator<S>,
    R: RowRead<S::T> + ?Sized,
{
    let mut hstats = HybridStats::armed();
    let (mut tile_nnz, mut fused) = (0u64, 0u64);
    let mut complete = true;
    for &(i, src) in w.nonempty {
        let i = i as usize;
        let (mask_cols, _) = mask.row(i);
        let base = src - w.slot_lo;
        let width = mask_cols.len();
        let mut slot =
            SlotSink::for_row(&mut w.cols[base..base + width], &mut w.vals[base..base + width], i);
        if FUSED {
            let mut sink = FusedSink::new(ops, &mut slot);
            run_row::<S, A, R, _>(i, iteration, a, b, mask_cols, acc, &mut hstats, &mut sink);
            fused += sink.fused_elements();
        } else {
            run_row::<S, A, R, _>(i, iteration, a, b, mask_cols, acc, &mut hstats, &mut slot);
        }
        if acc.take_overflow() {
            complete = false;
            break;
        }
        let n = slot.written();
        w.nnz[i - w.tile_lo] = n as u32;
        tile_nnz += n as u64;
    }
    // fold this tile's instance-local tallies into the global registry —
    // once per tile, outside the row loop, a no-op unless armed
    acc.flush_metrics();
    hstats.flush();
    obs::add(obs::Counter::DriverTileOutputNnz, tile_nnz);
    complete.then_some(fused)
}

/// Dispatch one output row through the configured kernel into `out`,
/// replaying the hybrid kernel's Eq. 3 decisions when metrics are armed.
#[inline]
#[allow(clippy::too_many_arguments)]
fn run_row<S, A, R, W>(
    i: usize,
    iteration: IterationSpace,
    a: &R,
    b: &Csr<S::T>,
    mask_cols: &[Idx],
    acc: &mut A,
    hstats: &mut HybridStats,
    out: &mut W,
) where
    S: Semiring,
    A: Accumulator<S>,
    R: RowRead<S::T> + ?Sized,
    W: RowSink<S::T> + ?Sized,
{
    // An empty mask row admits no output at all, whatever the iteration
    // space — skip the row before touching A or B. This is what makes
    // frontier-style masks (BFS, sparse queries) pay only for the rows
    // they ask about instead of the whole product.
    if mask_cols.is_empty() {
        return;
    }
    match iteration {
        IterationSpace::Vanilla => row_vanilla(i, a, b, mask_cols, acc, out),
        IterationSpace::MaskAccumulate => row_mask_accumulate(i, a, b, mask_cols, acc, out),
        IterationSpace::CoIterate => row_coiterate(i, a, b, mask_cols, acc, out),
        IterationSpace::Hybrid { kappa } => {
            row_hybrid(i, a, b, mask_cols, kappa, acc, out);
            // replay the Eq. 3 decisions (pure function of the same
            // inputs) so the kernel itself stays uninstrumented
            if hstats.on {
                tally_row_hybrid(i, a, b, mask_cols.len(), kappa, hstats);
            }
        }
    }
}

/// What settling one job did, threaded up into [`RunStats`].
#[derive(Clone, Copy, Debug, Default)]
struct RetryStats {
    /// Tiles that failed in the parallel phase.
    failed: usize,
    /// Tiles recovered by the serial degraded retry.
    recovered: usize,
    /// Wall time of the retry pass.
    elapsed: Duration,
}

/// The one settle routine, run per job after the parallel phase:
///
/// 1. a tile claimed twice is an internal invariant break;
/// 2. a cancelled job's skipped tiles are *deliberately* missing — report
///    the cancellation (attributed to the deadline when that is what
///    fired) instead of serially finishing a product nobody wants; a job
///    whose every tile finished before the cancel was observed settles;
/// 3. every tile a panic or an accumulator overflow lost is recomputed
///    serially — the whole chain, conservative configuration — into
///    exactly the slots it owned;
/// 4. each output node's slot buffers are adopted (zero slack) or
///    compacted, firing the `fragment-stitch` failpoint per tile copied,
///    and the scratch keeps what it can reuse.
fn settle<S: Semiring>(
    job: &mut Job<'_, S>,
    tally: Tally,
    failures: &[TileFailure],
) -> Result<(Vec<Csr<S::T>>, RetryStats), SparseError> {
    let Tally { completed, duplicate } = tally;
    if let Some(tile_idx) = duplicate {
        return Err(SparseError::Internal { detail: format!("tile {tile_idx} executed twice") });
    }
    let core = job.core;
    let missing: Vec<usize> =
        (0..core.tiles.len()).filter(|&i| completed[i].get().is_none()).collect();
    if let Some(tok) = job.cancel {
        if !missing.is_empty() && tok.is_cancelled() {
            return Err(if tok.deadline_expired() {
                SparseError::DeadlineExceeded
            } else {
                SparseError::Cancelled
            });
        }
    }
    let mut retry = RetryStats { failed: missing.len(), ..RetryStats::default() };
    let retry_start = (retry.failed > 0).then(Instant::now);
    for tile_idx in missing {
        // The retry deliberately does NOT re-fire `tile-kernel`: the
        // degraded path is the recovery path, exercised on its own via the
        // `accum-reset` site. It is also deliberately the conservative
        // configuration — vanilla over a dense table.
        let slots = &mut job.scratch.slots;
        match catch_tile_panic(|| retry_tile::<S>(core, job.inputs, slots, tile_idx)) {
            Ok(()) => {
                retry.recovered += 1;
                obs::incr(obs::Counter::DriverRetriedTiles);
            }
            Err(retry_msg) => {
                let tile = core.tiles[tile_idx];
                let first = failures
                    .iter()
                    .find(|f| f.tile == tile_idx)
                    .map_or("tile output missing", |f| f.payload.as_str());
                return Err(SparseError::TileFailed {
                    tile: tile_idx,
                    rows: (tile.lo, tile.hi),
                    detail: format!("parallel: {first}; degraded retry: {retry_msg}"),
                });
            }
        }
    }
    if let Some(s) = retry_start {
        retry.elapsed = s.elapsed();
    }

    let mut outputs = Vec::new();
    for (node, bufs) in core.nodes.iter().zip(job.scratch.slots.iter_mut()) {
        if node.output {
            outputs.push(assemble::<S>(core, node, bufs)?);
        }
    }
    Ok((outputs, retry))
}

/// Recompute every node of one tile, in chain order, with the vanilla
/// kernel over a dense `u64` accumulator, writing into exactly the slots
/// the tile owns. A successor reads its predecessor's *recovered* rows, so
/// a mid-chain panic never poisons downstream nodes; a panicked attempt
/// only ever wrote inside the tile's slots, and the retry overwrites every
/// nonempty row's prefix and nnz, so recovery stays bit-identical.
fn retry_tile<S: Semiring>(
    core: &GraphCore<S::T>,
    inputs: &[&Csr<S::T>],
    slots: &mut [SlotBufs<S::T>],
    tile_idx: usize,
) {
    let tile = core.tiles[tile_idx];
    let mut acc = DenseAccumulator::<S, u64>::new(core.max_ncols);
    for (ni, node) in core.nodes.iter().enumerate() {
        let (earlier, rest) = slots.split_at_mut(ni);
        let Some(cur) = rest.first_mut() else { break };
        let done: Vec<Rows<'_, S::T>> = earlier
            .iter()
            .zip(&core.nodes)
            .map(|(bufs, p)| {
                let (lo, hi) = p.slot_ranges[tile_idx];
                (&bufs.cols[lo..hi], &bufs.vals[lo..hi], &bufs.nnz[tile.lo..tile.hi])
            })
            .collect();
        let Some(a) = operand(core, node, tile_idx, tile, inputs, &done) else { continue };
        let (lo, hi) = node.slot_ranges[tile_idx];
        // a dense table spans every column and never latches overflow, so
        // this always completes
        let _ = node_tile::<S, _>(
            node,
            tile_idx,
            tile,
            inputs,
            IterationSpace::Vanilla,
            a,
            &mut acc,
            &mut cur.cols[lo..hi],
            &mut cur.vals[lo..hi],
            &mut cur.nnz[tile.lo..tile.hi],
        );
    }
}

/// Turn one output node's slot buffers into its CSR. With no slack the
/// slot buffers *are* the output — zero bytes moved: they leave with the
/// result, and the scratch keeps only the (cheap) per-row nnz array and
/// re-allocates slots next run. Otherwise the slack is squeezed out by a
/// serial copy, tile by tile, and the buffers stay for reuse.
fn assemble<S: Semiring>(
    core: &GraphCore<S::T>,
    node: &NodePlan<S::T>,
    bufs: &mut SlotBufs<S::T>,
) -> Result<Csr<S::T>, SparseError> {
    let nrows = core.nrows;
    let (row_ptr, output_nnz) = build_row_ptr(nrows, &node.nonempty, &bufs.nnz);
    // mask bound minus realised output: the per-row slack the slot
    // buffers preallocated and compaction squeezes away
    obs::add(obs::Counter::DriverSlackNnz, (node.bound - output_nnz) as u64);
    if output_nnz == node.bound {
        let (cols, vals) = (std::mem::take(&mut bufs.cols), std::mem::take(&mut bufs.vals));
        return Ok(Csr::from_parts_unchecked(nrows, node.ncols, row_ptr, cols, vals));
    }

    let mut out_cols = vec![0 as Idx; output_nnz];
    let mut out_vals = vec![S::zero(); output_nnz];
    let copied = catch_tile_panic(|| {
        for (idx, &tile) in core.tiles.iter().enumerate() {
            failpoint::maybe_fire(failpoint::FRAGMENT_STITCH, idx as u64);
            let (dlo, dhi) = (row_ptr[tile.lo], row_ptr[tile.hi]);
            let (nlo, nhi) = node.nonempty_ranges[idx];
            let bytes = copy_tile_rows::<S>(
                tile,
                &node.nonempty[nlo..nhi],
                &row_ptr,
                &bufs.cols,
                &bufs.vals,
                &mut out_cols[dlo..dhi],
                &mut out_vals[dlo..dhi],
            );
            obs::add(obs::Counter::DriverCompactionBytes, bytes);
        }
    });
    if let Err(msg) = copied {
        return Err(SparseError::Internal { detail: format!("stitch: {msg}") });
    }
    Ok(Csr::from_parts_unchecked(nrows, node.ncols, row_ptr, out_cols, out_vals))
}

/// Copy one tile's rows from their slack-padded slots into the compacted
/// output window `[row_ptr[tile.lo], row_ptr[tile.hi])`, returning the
/// bytes moved. `nonempty` is the tile's slice of the node's
/// nonempty-mask-row list — rows outside it own no slots and hold no
/// output, so only the rows the mask asks about are visited (the
/// frontier-mask settle cost).
fn copy_tile_rows<S: Semiring>(
    tile: Tile,
    nonempty: &[(Idx, usize)],
    row_ptr: &[usize],
    slot_cols: &[Idx],
    slot_vals: &[S::T],
    dest_cols: &mut [Idx],
    dest_vals: &mut [S::T],
) -> u64 {
    let dest_base = row_ptr[tile.lo];
    for &(i, src) in nonempty {
        let i = i as usize;
        let n = row_ptr[i + 1] - row_ptr[i];
        let d = row_ptr[i] - dest_base;
        dest_cols[d..d + n].copy_from_slice(&slot_cols[src..src + n]);
        dest_vals[d..d + n].copy_from_slice(&slot_vals[src..src + n]);
    }
    let entry = std::mem::size_of::<Idx>() + std::mem::size_of::<S::T>();
    ((row_ptr[tile.hi] - dest_base) * entry) as u64
}

/// Build the output row pointer from the per-row nnz counts, visiting
/// only the node's nonempty mask rows — an empty mask row admits no
/// output, so its count is structurally zero and the prefix between two
/// nonempty rows is a constant run (written with `fill`, not walked).
/// Returns `(row_ptr, output_nnz)`.
fn build_row_ptr(nrows: usize, nonempty: &[(Idx, usize)], row_nnz: &[u32]) -> (Vec<usize>, usize) {
    let mut row_ptr = vec![0usize; nrows + 1];
    let mut acc = 0usize;
    let mut filled = 1usize; // row_ptr[..filled] is final
    for &(i, _) in nonempty {
        let i = i as usize;
        if acc != 0 && filled <= i {
            row_ptr[filled..=i].fill(acc);
        }
        acc += row_nnz[i] as usize;
        row_ptr[i + 1] = acc;
        filled = i + 2;
    }
    if acc != 0 && filled <= nrows {
        row_ptr[filled..].fill(acc);
    }
    (row_ptr, acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KernelPolicy;
    use mspgemm_sparse::{Coo, Dense, PlusPair, PlusTimes};

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

    #[test]
    fn triangle_counting_setup_a_a_a() {
        // C = A ⊙ (A×A) over plus_pair: C[i,j] counts wedges; the oracle
        // must agree for the exact paper workload
        let a = lcg_matrix(64, 64, 6, 9);
        let ap = a.spones(1u64);
        let want = Dense::masked_matmul::<PlusPair, u64>(&ap, &ap, &ap);
        let (got, _) = spgemm::<PlusPair>(&ap, &ap, &ap, &Config::default()).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let a = lcg_matrix(4, 5, 2, 1);
        let b = lcg_matrix(6, 4, 2, 2); // inner dim 5 != 6
        let m = lcg_matrix(4, 4, 2, 3);
        assert!(matches!(
            spgemm::<PlusTimes>(&a, &b, &m, &Config::default()),
            Err(SparseError::ShapeMismatch { .. })
        ));
        let b2 = lcg_matrix(5, 4, 2, 2);
        let bad_mask = lcg_matrix(3, 4, 2, 3);
        assert!(matches!(
            spgemm::<PlusTimes>(&a, &b2, &bad_mask, &Config::default()),
            Err(SparseError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn stats_are_populated() {
        let a = lcg_matrix(100, 100, 5, 4);
        let cfg = Config::builder().n_threads(2).n_tiles(16).build();
        let (c, stats) = spgemm::<PlusTimes>(&a, &a, &a, &cfg).unwrap();
        assert_eq!(stats.output_nnz, c.nnz());
        assert_eq!(stats.n_threads, 2);
        assert_eq!(stats.n_tiles, 16);
        assert!(stats.estimated_work > 0);
        assert_eq!(stats.thread_reports.len(), 2);
        assert_eq!(
            stats.thread_reports.iter().map(|r| r.tiles_run).sum::<usize>(),
            16
        );
        assert!(stats.imbalance() >= 1.0);
        assert_eq!(stats.retried_tiles, 0, "no failpoints armed, no retries");
        assert_eq!(stats.failed_tiles, 0);
    }

    #[test]
    fn more_tiles_than_rows_is_fine() {
        let a = lcg_matrix(10, 10, 3, 5);
        let cfg = Config::builder().n_threads(2).n_tiles(1000).build();
        let want = Dense::masked_matmul::<PlusTimes, f64>(&a, &a, &a);
        let (got, _) = spgemm::<PlusTimes>(&a, &a, &a, &cfg).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn single_tile_single_thread() {
        let a = lcg_matrix(30, 30, 4, 6);
        let cfg = Config::builder().n_threads(1).n_tiles(1).build();
        let want = Dense::masked_matmul::<PlusTimes, f64>(&a, &a, &a);
        assert_eq!(spgemm::<PlusTimes>(&a, &a, &a, &cfg).unwrap().0, want);
    }

    #[test]
    fn empty_matrices() {
        let a: Csr<f64> = Csr::zeros(10, 10);
        let (c, _) = spgemm::<PlusTimes>(&a, &a, &a, &Config::default()).unwrap();
        assert_eq!(c.nnz(), 0);
        assert_eq!(c.nrows(), 10);
    }

    #[test]
    fn empty_mask_gives_empty_output() {
        let a = lcg_matrix(20, 20, 4, 8);
        let mask: Csr<f64> = Csr::zeros(20, 20);
        for it in [
            IterationSpace::Vanilla,
            IterationSpace::MaskAccumulate,
            IterationSpace::CoIterate,
            IterationSpace::Hybrid { kappa: 1.0 },
        ] {
            let cfg = Config::builder()
                .kernel_policy(KernelPolicy::new().iteration(it))
                .n_threads(2)
                .build();
            let (c, _) = spgemm::<PlusTimes>(&a, &a, &mask, &cfg).unwrap();
            assert_eq!(c.nnz(), 0, "{}", it.label());
        }
    }

    #[test]
    fn rectangular_multiply() {
        let a = lcg_matrix(12, 20, 4, 10);
        let b = lcg_matrix(20, 8, 3, 11);
        let mask = lcg_matrix(12, 8, 4, 12);
        let want = Dense::masked_matmul::<PlusTimes, f64>(&a, &b, &mask);
        for it in [IterationSpace::MaskAccumulate, IterationSpace::Hybrid { kappa: 1.0 }] {
            let cfg = Config::builder()
                .kernel_policy(KernelPolicy::new().iteration(it))
                .n_threads(2)
                .n_tiles(3)
                .build();
            assert_eq!(spgemm::<PlusTimes>(&a, &b, &mask, &cfg).unwrap().0, want);
        }
    }

    #[test]
    fn mask_values_are_ignored_structurally() {
        // mask with value 0.0 stored: still admits the position
        let a = lcg_matrix(10, 10, 4, 13);
        let mut mask = lcg_matrix(10, 10, 4, 14);
        for v in mask.values_mut() {
            *v = 0.0;
        }
        let want = Dense::masked_matmul::<PlusTimes, f64>(&a, &a, &mask);
        let (got, _) = spgemm::<PlusTimes>(&a, &a, &mask, &Config::default()).unwrap();
        assert_eq!(got, want);
        // oracle also treats the mask structurally, so cross-check nnz > 0
        assert!(got.nnz() > 0, "structural mask should admit entries");
    }

    /// The overflow latch as a safety net: a worker table built below the
    /// hard bound (which `freeze` never does; forced here) drops updates,
    /// so the engine must leave the affected tiles to the degraded retry,
    /// which recomputes them bit-identically.
    #[test]
    fn overflowing_worker_table_falls_back_to_the_serial_retry() {
        let a = lcg_matrix(40, 40, 6, 31);
        let b = lcg_matrix(40, 40, 5, 32);
        let mask = lcg_matrix(40, 40, 8, 33);
        let exec = Executor::global().shared();
        for it in [
            IterationSpace::Vanilla,
            IterationSpace::MaskAccumulate,
            IterationSpace::CoIterate,
            IterationSpace::Hybrid { kappa: 1.0 },
        ] {
            let cfg = Config::builder()
                .n_threads(2)
                .n_tiles(5)
                .kernel_policy(KernelPolicy::new().iteration(it))
                .build();
            let (want, clean) = spgemm::<PlusTimes>(&a, &b, &mask, &cfg).unwrap();
            assert_eq!(clean.retried_tiles, 0, "the hard bound never overflows");
            let mut core = crate::graph::single_product(exec, &cfg, &a, &b, &mask).unwrap();
            core.max_row_entries = 1;
            let mut scratch = PlanScratch::default();
            let job = Job {
                core: &core,
                inputs: &[&a, &b, &mask],
                scratch: &mut scratch,
                cancel: None,
                setup: Duration::ZERO,
                fused_ops: 0,
            };
            let (got, stats) = only_output(run_job::<PlusTimes>(exec, job)).unwrap();
            assert_eq!(got, want, "{}", it.label());
            assert!(stats.retried_tiles >= 1, "{}: no tile overflowed", it.label());
            assert_eq!(stats.failed_tiles, stats.retried_tiles);
        }
    }
}
