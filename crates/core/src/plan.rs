//! Reusable symbolic plans: the prologue of a masked-SpGEMM call, captured
//! once and revalidated cheaply.
//!
//! Every call to the driver pays a *symbolic* phase before any arithmetic
//! happens: resolve the [`Config`], estimate per-row work with Eq. 2, cut
//! the rows into tiles, size the accumulators, and lay out the mask-bound
//! output slots. None of that depends on the matrices' *values* — only on
//! their sparsity structure. A [`Plan`] freezes the symbolic phase so an
//! iterated workload pays it once. It is a thin wrapper over a one-node
//! [`PlanGraph`] with inputs `[A, B, M]`:
//!
//! * the graph's frozen core holds the artifacts (tiles, slot layout, work
//!   estimates, accumulator bounds);
//! * structural fingerprints of the inputs guard re-execution —
//!   [`Plan::execute`] revalidates them and fails with
//!   [`SparseError::PlanStructureMismatch`] (naming the drifted operand)
//!   instead of computing garbage;
//! * `PlanScratch` carries the output slot buffers and the per-worker
//!   accumulators across executions, so a planned run performs no slot
//!   allocation, no slot zeroing and no accumulator rebuild at all.
//!
//! # What the fingerprint covers
//!
//! Exactly the structure the frozen artifacts were computed *from* — no
//! more. The mask's row pointers are always pinned: the slot layout is a
//! prefix sum over them, and a drifted mask row would overflow its tile's
//! slot window. Everything else is tiered by iteration space:
//!
//! * mask-bounded kernels (mask-accumulate, co-iterate, hybrid) size their
//!   accumulators from the mask's row lengths and read `A` and `B` fresh
//!   at run time, so for those only the operand *shapes* are pinned — a
//!   structural drift in `A` or `B` can shift load balance but corrupt
//!   nothing, and revalidation touches `O(nrows)` of the mask only;
//! * the vanilla kernel sizes its accumulator from the Eq. 2 work
//!   estimate, which walks `A`'s column indices into `B`'s row lengths —
//!   an undersized hash table latches its overflow flag and sends every
//!   affected tile through the serial degraded retry (correct but a
//!   performance cliff), so under vanilla the fingerprint additionally
//!   pins `A`'s row pointers *and* columns and `B`'s row pointers.
//!
//! Column indices of `B` and `M` are never hashed: they feed no
//! precomputed bound. The practical upshot is that revalidation — the
//! reuse tax paid by every [`Plan::execute`] — stays far cheaper than the
//! prologue it replaces, and benign drift is tolerated instead of forcing
//! a rebuild.

use std::any::Any;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::config::Config;
use crate::driver::{only_output, RunStats};
use crate::executor::Executor;
use crate::graph::{GraphBuilder, GraphCore, PlanGraph};
use mspgemm_rt::obs;
use mspgemm_sched::CancelToken;
use mspgemm_sparse::{Csr, Idx, Semiring, SparseError};

/// Structural fingerprint of the `(A, B, M)` operand triple. Hashable so
/// the service layer can key its plan cache on it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct Fingerprint {
    pub(crate) a: u64,
    pub(crate) b: u64,
    pub(crate) mask: u64,
}

/// FNV-style sequential fold with a strong finalizer — not cryptographic,
/// just a cheap structure digest with good avalanche on single-entry
/// edits (the mutation-detection property the plan-reuse suite checks).
fn fold(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Four independent FNV lanes over a slice, round-robin by position. The
/// fold's multiply chain is latency-bound, and this hash runs on every
/// planned execution (it *is* the reuse tax), so breaking the chain into
/// four pipelined lanes matters: it roughly quadruples digest throughput
/// while staying position-sensitive within each lane.
fn fold_lanes<T: Copy>(mut lanes: [u64; 4], xs: &[T], to64: impl Fn(T) -> u64) -> [u64; 4] {
    let mut chunks = xs.chunks_exact(4);
    for c in chunks.by_ref() {
        lanes[0] = fold(lanes[0], to64(c[0]));
        lanes[1] = fold(lanes[1], to64(c[1]));
        lanes[2] = fold(lanes[2], to64(c[2]));
        lanes[3] = fold(lanes[3], to64(c[3]));
    }
    for (j, &x) in chunks.remainder().iter().enumerate() {
        lanes[j] = fold(lanes[j], to64(x));
    }
    lanes
}

/// splitmix64 finalizer.
fn finish(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// How much of one operand's structure a plan froze — and hence how much
/// the fingerprint must pin (see the module docs, "What the fingerprint
/// covers").
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Pin {
    /// Shape only: the structure is read fresh at run time and feeds no
    /// precomputed bound. Drift shifts load balance, nothing else. `O(1)`.
    Dims,
    /// Shape + row pointers: row lengths feed a frozen sizing decision.
    Rows,
    /// Shape + row pointers + column indices (vanilla `A`: Eq. 2 walks
    /// the columns, and the estimate sizes the hash accumulator).
    RowsAndCols,
}

pub(crate) fn structure_hash<T: Copy>(m: &Csr<T>, pin: Pin) -> u64 {
    let mut lanes = [
        0xcbf2_9ce4_8422_2325u64,
        0x9e37_79b9_7f4a_7c15,
        0xc2b2_ae3d_27d4_eb4f,
        0x1656_67b1_9e37_79f9,
    ];
    lanes[0] = fold(lanes[0], m.nrows() as u64);
    lanes[0] = fold(lanes[0], m.ncols() as u64);
    if pin >= Pin::Rows {
        lanes = fold_lanes(lanes, m.row_ptr(), |p| p as u64);
    }
    if pin == Pin::RowsAndCols {
        lanes = fold_lanes(lanes, m.col_idx(), |c| c as u64);
    }
    finish(fold(fold(fold(lanes[0], lanes[1]), lanes[2]), lanes[3]))
}

/// The structural fingerprint of a lone product's operands, pinned by
/// the same rule `graph::freeze` applies to every node.
pub(crate) fn fingerprint<T: Copy>(
    a: &Csr<T>,
    b: &Csr<T>,
    mask: &Csr<T>,
    config: &Config,
) -> Fingerprint {
    let pins = crate::graph::single_product_pins(config);
    Fingerprint {
        a: structure_hash(a, pins[0]),
        b: structure_hash(b, pins[1]),
        mask: structure_hash(mask, pins[2]),
    }
}

/// One worker's accumulator cell: a type-erased accumulator, keyed by the
/// identity of the frozen core it was built for. The driver leases it
/// with `lock` per tile and checks key and type on every lease, so a cell
/// built for another core, or holding a stale type (the `METER` flag
/// flipped by arming metrics), is rebuilt from clean — on the worker
/// thread, after dropping the old value — as is a cell poisoned by a tile
/// that panicked mid-update.
pub(crate) type AccCell = Arc<Mutex<AccSlot>>;

/// What an [`AccCell`] holds: `(core id, accumulator)`, or nothing yet.
pub(crate) type AccSlot = Option<(u64, Box<dyn Any + Send>)>;

/// One node's mask-bound output slots and per-row nnz counts.
pub(crate) struct SlotBufs<T> {
    pub(crate) cols: Vec<Idx>,
    pub(crate) vals: Vec<T>,
    pub(crate) nnz: Vec<u32>,
}

impl<T> Default for SlotBufs<T> {
    fn default() -> Self {
        SlotBufs { cols: Vec::new(), vals: Vec::new(), nnz: Vec::new() }
    }
}

/// Cross-execution scratch of one frozen chain — every caller's, whether
/// a [`Plan`], a [`PlanGraph`], a cached service plan or a one-shot call
/// (whose slot buffers die with the call, and whose accumulator cells are
/// lent by the executor — see `ExecutorShared::oneshot_cells`).
///
/// `slots` holds each node's slot buffers: re-executing resizes them
/// *without clearing* (every surviving row slot is rewritten by its tile
/// or by the degraded retry before compaction reads it), so the steady
/// state allocates nothing and memsets nothing. `accums` holds one
/// accumulator cell per worker. The cells are owned by the *plan* rather
/// than by the worker threads because a batch interleaves tiles of many
/// jobs on each worker — a single worker-owned slot would thrash on every
/// job switch — and so a plan leased repeatedly from the service cache
/// re-executes without rebuilding its accumulators.
pub(crate) struct PlanScratch<T> {
    pub(crate) slots: Vec<SlotBufs<T>>,
    pub(crate) accums: Vec<AccCell>,
}

impl<T> Default for PlanScratch<T> {
    fn default() -> Self {
        PlanScratch { slots: Vec::new(), accums: Vec::new() }
    }
}

impl<T: Copy> PlanScratch<T> {
    /// Size the buffers for `core` and provide a cell per worker.
    pub(crate) fn fit(&mut self, core: &GraphCore<T>, zero: T, n_workers: usize) {
        if self.slots.len() != core.nodes.len() {
            self.slots.clear();
            self.slots.resize_with(core.nodes.len(), SlotBufs::default);
        }
        for (bufs, node) in self.slots.iter_mut().zip(&core.nodes) {
            bufs.cols.resize(node.bound, 0);
            bufs.vals.resize(node.bound, zero);
            bufs.nnz.resize(core.nrows, 0);
        }
        if self.accums.len() < n_workers {
            self.accums.resize_with(n_workers, AccCell::default);
        }
    }
}

/// A reusable execution plan for one masked-SpGEMM shape: the frozen
/// symbolic phase, structural fingerprints guarding it, cross-run scratch,
/// and a handle to the executor it runs on — a one-node [`PlanGraph`].
///
/// Built by [`Executor::plan`](crate::Executor::plan); re-executed with
/// [`execute`](Plan::execute). See [`crate::Session`] for the
/// plan-management loop (build lazily, rebuild on structure drift) done
/// for you.
pub struct Plan<S: Semiring> {
    graph: PlanGraph<S>,
}

impl<S: Semiring> Plan<S> {
    pub(crate) fn build(
        exec: &Executor,
        a: &Csr<S::T>,
        b: &Csr<S::T>,
        mask: &Csr<S::T>,
        config: &Config,
    ) -> Result<Self, SparseError> {
        let mut gb = GraphBuilder::on(exec, *config);
        let (ea, eb, em) = (gb.input(), gb.input(), gb.input());
        gb.product(ea, eb, em);
        Ok(Plan { graph: gb.build(&[a, b, mask])? })
    }

    /// The configuration the plan was built with.
    pub fn config(&self) -> &Config {
        &self.graph.core().config
    }

    /// Total Eq. 2 FLOP estimate captured at plan time.
    pub fn estimated_work(&self) -> u64 {
        self.graph.estimated_work()
    }

    /// Number of row tiles the plan cut.
    pub fn n_tiles(&self) -> usize {
        self.graph.n_tiles()
    }

    /// Worker threads the plan resolved to.
    pub fn n_threads(&self) -> usize {
        self.graph.core().n_threads
    }

    /// Check that the operands still match the structure the plan was
    /// built from, without executing. Returns the
    /// [`SparseError::PlanStructureMismatch`] that [`execute`](Plan::execute)
    /// would surface, naming the drifted operand.
    pub fn validate(
        &self,
        a: &Csr<S::T>,
        b: &Csr<S::T>,
        mask: &Csr<S::T>,
    ) -> Result<(), SparseError> {
        self.graph.validate_named(&[a, b, mask], |i| match i {
            0 => "A",
            1 => "B",
            _ => "mask",
        })
    }

    /// Execute the plan against (new values of) the operands, skipping the
    /// symbolic prologue entirely. The operands are revalidated against
    /// the plan's fingerprint first; on structure drift this fails with
    /// [`SparseError::PlanStructureMismatch`] and computes nothing —
    /// rebuild the plan (or use a [`crate::Session`], which does so
    /// automatically).
    ///
    /// The result is bit-identical to a fresh one-shot call with the same
    /// configuration: all kernels fold each row's products in the same
    /// `k` order regardless of how scratch is reused.
    pub fn execute(
        &mut self,
        a: &Csr<S::T>,
        b: &Csr<S::T>,
        mask: &Csr<S::T>,
    ) -> Result<(Csr<S::T>, RunStats), SparseError> {
        self.run(a, b, mask, None)
    }

    /// [`execute`](Plan::execute) under a cooperative [`CancelToken`]: the
    /// claim loop stops issuing tiles once the token fires (another thread
    /// called [`CancelToken::cancel`], or the token's deadline passed) and
    /// the call returns [`SparseError::Cancelled`] /
    /// [`SparseError::DeadlineExceeded`], discarding the partial output.
    /// A run whose every tile finished before the cancel was observed
    /// still returns its (bit-identical) result. The plan itself stays
    /// valid either way — cancel a run, not the plan.
    pub fn execute_cancellable(
        &mut self,
        a: &Csr<S::T>,
        b: &Csr<S::T>,
        mask: &Csr<S::T>,
        cancel: &CancelToken,
    ) -> Result<(Csr<S::T>, RunStats), SparseError> {
        self.run(a, b, mask, Some(cancel))
    }

    fn run(
        &mut self,
        a: &Csr<S::T>,
        b: &Csr<S::T>,
        mask: &Csr<S::T>,
        cancel: Option<&CancelToken>,
    ) -> Result<(Csr<S::T>, RunStats), SparseError> {
        let setup_start = Instant::now();
        self.validate(a, b, mask)?;
        let setup = setup_start.elapsed();
        obs::incr(obs::Counter::ExecPlanExecutes);
        only_output(self.graph.run(&[a, b, mask], cancel, setup, 0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_is_structure_only() {
        let m1 = Csr::try_from_parts(2, 2, vec![0, 1, 2], vec![1, 0], vec![1.0f64, 2.0])
            .unwrap();
        let m2 = Csr::try_from_parts(2, 2, vec![0, 1, 2], vec![1, 0], vec![9.0f64, 8.0])
            .unwrap();
        let cfg = Config::default();
        assert_eq!(
            fingerprint(&m1, &m1, &m1, &cfg),
            fingerprint(&m2, &m2, &m2, &cfg),
            "values must not affect the fingerprint"
        );
    }

    #[test]
    fn fingerprint_detects_single_entry_structure_drift() {
        let m = Csr::try_from_parts(2, 2, vec![0, 1, 2], vec![1, 0], vec![1.0f64, 2.0])
            .unwrap();
        let grown =
            Csr::try_from_parts(2, 2, vec![0, 2, 3], vec![0, 1, 0], vec![1.0f64, 1.0, 2.0])
                .unwrap();
        assert_ne!(structure_hash(&m, Pin::Rows), structure_hash(&grown, Pin::Rows));
        assert_ne!(
            structure_hash(&m, Pin::RowsAndCols),
            structure_hash(&grown, Pin::RowsAndCols)
        );
    }

    #[test]
    fn pins_cover_exactly_what_sizing_depends_on() {
        // same row pointers, different column indices
        let x = Csr::try_from_parts(2, 3, vec![0, 1, 2], vec![0, 1], vec![1.0f64; 2]).unwrap();
        let y = Csr::try_from_parts(2, 3, vec![0, 1, 2], vec![2, 0], vec![1.0f64; 2]).unwrap();
        assert_ne!(
            structure_hash(&x, Pin::RowsAndCols),
            structure_hash(&y, Pin::RowsAndCols),
            "col_idx must be covered at the top tier (vanilla sizing depends on it)"
        );
        assert_eq!(
            structure_hash(&x, Pin::Rows),
            structure_hash(&y, Pin::Rows),
            "below the top tier, col_idx is skipped — it feeds no precomputed bound"
        );
        // same shape, different row pointers
        let z = Csr::try_from_parts(2, 3, vec![0, 2, 2], vec![0, 1], vec![1.0f64; 2]).unwrap();
        assert_ne!(structure_hash(&x, Pin::Rows), structure_hash(&z, Pin::Rows));
        assert_eq!(
            structure_hash(&x, Pin::Dims),
            structure_hash(&z, Pin::Dims),
            "dims-only pin ignores row pointers — drift there only shifts balance"
        );

        use crate::config::{IterationSpace, KernelPolicy};
        let vanilla = Config::builder()
            .kernel_policy(KernelPolicy::new().iteration(IterationSpace::Vanilla))
            .build();
        let pins = crate::graph::single_product_pins;
        assert_eq!(
            pins(&vanilla),
            vec![Pin::RowsAndCols, Pin::Rows, Pin::Rows],
            "vanilla sizes from Eq. 2 row work: A cols and B row lengths are frozen"
        );
        assert_eq!(
            pins(&Config::default()),
            vec![Pin::Dims, Pin::Dims, Pin::Rows],
            "mask-bounded kernels read A and B fresh; the mask slot layout stays pinned"
        );
    }
}
