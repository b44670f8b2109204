//! The persistent execution layer: an [`Executor`] owning a long-lived
//! worker pool, against which plans ([`crate::plan::Plan`]) and one-shot
//! calls run.
//!
//! The paper's motivating workloads (triangle counting, k-truss, BFS —
//! §I) all call `C = M ⊙ (A × B)` in a loop. The free functions rebuild
//! the world per call: spawn `p` threads, estimate FLOPs, cut tiles, lay
//! out slots, allocate scratch, run, tear it all down. The `Executor`
//! keeps the expensive parts alive between calls:
//!
//! * worker threads are spawned once and *parked* between runs
//!   ([`mspgemm_sched::WorkerPool`]);
//! * the symbolic phase (config resolution, Eq. 2 estimates, tile
//!   boundaries, mask slot layout) is captured once in a [`Plan`] and
//!   revalidated cheaply on re-execution, and the plan's per-worker
//!   accumulators and slot buffers survive across its runs.
//!
//! Fault isolation is preserved through the pool: a panicking tile kills
//! (at most) a run, never the executor. Only a panic that escapes tile
//! isolation — scheduler-infrastructure failure — poisons the pool, after
//! which every call returns [`SparseError::ExecutorPoisoned`].
//!
//! The free function [`crate::driver::spgemm`] is a thin wrapper over a
//! lazily-created process-wide executor ([`Executor::global`]), so
//! one-shot callers transparently get the persistent pool.

use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::config::Config;
use crate::driver::{only_output, run_job, Job, RunStats};
use crate::graph::single_product;
use crate::plan::{AccCell, Plan, PlanScratch};
use mspgemm_rt::obs;
use mspgemm_sched::WorkerPool;
use mspgemm_sparse::{Csr, Semiring, SparseError};

/// State shared between an [`Executor`] and every [`Plan`] built on it.
pub(crate) struct ExecutorShared {
    /// The long-lived worker pool; grows to the widest run ever requested.
    pub(crate) pool: WorkerPool,
    /// Serializes runs: the pool executes one job at a time, and per-run
    /// metric deltas (`RunStats::metrics`) must not interleave.
    pub(crate) run_lock: Mutex<()>,
    /// Accumulator cells lent to one-shot calls ([`Executor::execute`]).
    /// Every call freezes a fresh core, so each worker's first lease in a
    /// call drops the previous call's accumulator *on the worker thread*
    /// before building its own. Freeing the tables from the submitting
    /// thread at the end of each call instead left the workers' glibc
    /// malloc arenas holding ~10 % more peak RSS on the perfbench
    /// one-shot mix (2-vCPU host).
    pub(crate) oneshot_cells: Mutex<Vec<AccCell>>,
}

/// A persistent masked-SpGEMM execution context.
///
/// Cloning is cheap and shares the same pool. Dropping the last clone
/// (and every plan built on it) shuts the workers down and joins them.
///
/// ```
/// use mspgemm_core::{Config, Executor};
/// use mspgemm_sparse::{Csr, PlusTimes};
///
/// let a = Csr::try_from_parts(
///     2, 2, vec![0, 1, 2], vec![1, 0], vec![1.0f64; 2],
/// ).unwrap();
/// let exec = Executor::new();
/// let mut plan = exec.plan::<PlusTimes>(&a, &a, &a, &Config::default()).unwrap();
/// let (c1, _) = plan.execute(&a, &a, &a).unwrap();
/// let (c2, _) = plan.execute(&a, &a, &a).unwrap(); // reuses everything
/// assert_eq!(c1, c2);
/// ```
#[derive(Clone)]
pub struct Executor {
    shared: Arc<ExecutorShared>,
}

impl Default for Executor {
    fn default() -> Self {
        Self::new()
    }
}

impl Executor {
    /// Create an executor with its own (initially empty) worker pool.
    /// Threads are spawned lazily on the first run. Every tile runs to
    /// completion: a slow tile delays its run, and cancellation and
    /// deadlines act only at tile boundaries.
    pub fn new() -> Self {
        Executor {
            shared: Arc::new(ExecutorShared {
                pool: WorkerPool::new(),
                run_lock: Mutex::new(()),
                oneshot_cells: Mutex::new(Vec::new()),
            }),
        }
    }

    /// The process-wide executor the free functions run on, created
    /// lazily on first use and alive for the rest of the process.
    pub fn global() -> &'static Executor {
        static GLOBAL: OnceLock<Executor> = OnceLock::new();
        GLOBAL.get_or_init(Executor::new)
    }

    /// Capture the symbolic phase of `C = M ⊙ (A × B)` under `config` —
    /// resolved configuration, Eq. 2 work estimates, tile boundaries and
    /// mask slot layout — into a reusable [`Plan`].
    ///
    /// The plan is bound to the *structure* of the operands; re-execute it
    /// with [`Plan::execute`] against the same (or same-structured)
    /// matrices, and it skips the whole prologue.
    pub fn plan<S: Semiring>(
        &self,
        a: &Csr<S::T>,
        b: &Csr<S::T>,
        mask: &Csr<S::T>,
        config: &Config,
    ) -> Result<Plan<S>, SparseError> {
        Plan::build(self, a, b, mask, config)
    }

    /// One-shot `C = M ⊙ (A × B)` on this executor's pool: plans, runs
    /// once, and discards the symbolic phase. Equivalent to the
    /// [`spgemm`](crate::driver::spgemm) free function, but on this
    /// executor instead of the global one.
    pub fn execute<S: Semiring>(
        &self,
        a: &Csr<S::T>,
        b: &Csr<S::T>,
        mask: &Csr<S::T>,
        config: &Config,
    ) -> Result<(Csr<S::T>, RunStats), SparseError> {
        let setup_start = Instant::now();
        let core = single_product(&self.shared, config, a, b, mask)?;
        let setup = setup_start.elapsed();
        let cells = &self.shared.oneshot_cells;
        let mut scratch = PlanScratch {
            slots: Vec::new(),
            // a concurrent one-shot call that finds the cells lent out
            // simply builds its own
            accums: std::mem::take(&mut *cells.lock().unwrap_or_else(|e| e.into_inner())),
        };
        let job = Job {
            core: &core,
            inputs: &[a, b, mask],
            scratch: &mut scratch,
            cancel: None,
            setup,
            fused_ops: 0,
        };
        let outcome = only_output(run_job::<S>(&self.shared, job));
        *cells.lock().unwrap_or_else(|e| e.into_inner()) = scratch.accums;
        outcome
    }

    /// The shared pool/lock state, for in-crate layers (plans, graphs, the
    /// service dispatcher) that drive the tile engine directly.
    pub(crate) fn shared(&self) -> &Arc<ExecutorShared> {
        &self.shared
    }

    /// Worker threads spawned over the pool's lifetime. Stays flat across
    /// same-width runs — the invariant the CI executor-reuse smoke step
    /// checks (also visible as the `sched.workers_spawned` counter when
    /// metrics are armed).
    pub fn spawned_workers(&self) -> usize {
        self.shared.pool.spawned_workers()
    }

    /// Poison the executor as if a panic had escaped tile isolation.
    /// Test/CI hook for the refusal path; not part of the public API.
    #[doc(hidden)]
    pub fn debug_poison(&self, detail: &str) {
        self.shared.pool.debug_poison(detail);
    }
}

/// A session: a configuration plus a lazily-built, automatically-rebuilt
/// plan. The ergonomic entry point for iterated workloads — call
/// [`execute`](Session::execute) in a loop and the session plans on first
/// use, reuses the plan while the operand structure holds, and rebuilds
/// it (once per structure change) when it drifts.
///
/// ```
/// use mspgemm_core::{Config, Session};
/// use mspgemm_sparse::{Csr, PlusTimes};
///
/// let a = Csr::try_from_parts(
///     2, 2, vec![0, 1, 2], vec![1, 0], vec![1.0f64; 2],
/// ).unwrap();
/// let mut session = Session::<PlusTimes>::new(Config::default());
/// for _ in 0..3 {
///     let (c, _) = session.execute(&a, &a, &a).unwrap();
///     assert_eq!(c.nnz(), 0); // a 2-cycle is triangle-free
/// }
/// assert_eq!(session.rebuilds(), 0);
/// ```
pub struct Session<S: Semiring> {
    exec: Executor,
    config: Config,
    plan: Option<Plan<S>>,
    rebuilds: u64,
}

impl<S: Semiring> Session<S> {
    /// A session on the process-wide [`Executor::global`] pool.
    pub fn new(config: Config) -> Self {
        Session::on(Executor::global(), config)
    }

    /// A session on a specific executor.
    pub fn on(exec: &Executor, config: Config) -> Self {
        Session { exec: exec.clone(), config, plan: None, rebuilds: 0 }
    }

    /// The configuration every execution uses.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// How many times the plan was rebuilt because the operand structure
    /// changed. Zero for a well-behaved fixed-structure loop; a steadily
    /// climbing count means the workload gets no reuse benefit and a
    /// plain [`Executor::execute`] would do.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Start building a fused multi-op [`PlanGraph`](crate::graph::PlanGraph)
    /// on this session's executor and configuration. The graph shares the
    /// session's worker pool but owns its own tiling and scratch — see
    /// [`crate::graph`] for the builder walkthrough.
    pub fn graph(&self) -> crate::graph::GraphBuilder<S> {
        crate::graph::GraphBuilder::on(&self.exec, self.config)
    }

    /// Compute `C = M ⊙ (A × B)`, planning on first call and transparently
    /// rebuilding the plan when the operands' sparsity structure no longer
    /// matches it. The common path costs one structure hash on top of the
    /// planned execution.
    pub fn execute(
        &mut self,
        a: &Csr<S::T>,
        b: &Csr<S::T>,
        mask: &Csr<S::T>,
    ) -> Result<(Csr<S::T>, RunStats), SparseError> {
        if self.plan.is_none() {
            self.plan = Some(self.exec.plan::<S>(a, b, mask, &self.config)?);
        }
        let Some(plan) = self.plan.as_mut() else {
            return Err(SparseError::Internal {
                detail: "session plan missing right after build".to_string(),
            });
        };
        match plan.execute(a, b, mask) {
            Err(SparseError::PlanStructureMismatch { .. }) => {
                self.rebuilds += 1;
                obs::incr(obs::Counter::ExecPlanRebuilds);
                self.plan = None; // drop the stale plan before rebuilding
                let mut rebuilt = self.exec.plan::<S>(a, b, mask, &self.config)?;
                let outcome = rebuilt.execute(a, b, mask);
                self.plan = Some(rebuilt);
                outcome
            }
            outcome => outcome,
        }
    }
}
