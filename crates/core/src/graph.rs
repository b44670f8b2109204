//! Fused multi-op plan graphs: a frozen DAG of masked products plus
//! element-wise consumers, executed tile-by-tile while cache-hot.
//!
//! The paper's workloads rarely stop at one `C = M ⊙ (A × B)`: k-truss
//! peels with a *select* over the support matrix, BFS/BC chase a chain of
//! per-level products, triangle counting reduces the product it just
//! built. Run through [`crate::Session`] those steps are separate pool
//! runs with fully materialised intermediates between them — every
//! element of an intermediate is written to memory, read back by the
//! next memory-bound pass, and thrown away.
//!
//! A [`PlanGraph`] freezes the whole chain instead:
//!
//! * every node is a masked product `mask ⊙ (A × B)` whose `mask` and `B`
//!   are *external* inputs (their structure is needed at freeze time for
//!   the slot layout) while `A` may be either an external input or the
//!   output of an earlier node;
//! * element-wise consumers — `select`-by-threshold and `spones`
//!   re-canonicalisation — fuse into the kernel's row sink
//!   ([`mspgemm_accum::FusedSink`]) instead of running as separate passes
//!   over a materialised intermediate;
//! * all nodes share one FLOP-balanced row partition (their summed Eq. 2
//!   estimates), and one pool run executes the *entire chain per tile*:
//!   the worker that finishes node `j`'s rows `[lo, hi)` immediately runs
//!   node `j+1` on the same rows, while they are still cache-resident.
//!
//! The chaining is sound because an output row `i` of a masked product
//! reads only row `i` of its `A` operand: with a single shared row
//! partition, node `j+1`'s tile needs exactly the rows of node `j` that
//! the same worker just wrote into its own slot window — no cross-tile
//! synchronisation, no barrier between nodes.
//!
//! A graph runs on the same tile engine as every other caller
//! ([`crate::driver`]) — a single-product [`crate::Plan`] *is* a one-node
//! graph — so it honours the whole kernel policy and shares its fault
//! model: a panicking tile loses only its own chain,
//! and the degraded serial retry recomputes
//! **every node of that tile in order** (vanilla kernel + dense `u64`
//! accumulator), so a retried node's successors are rebuilt from its
//! recovered output and can never observe a poisoned intermediate. All
//! kernels fold each row's products in the same `k` order, so the retry
//! — and the whole fused graph — is bit-identical to the unfused
//! pipeline.
//!
//! External inputs are guarded by the same tiered structural fingerprints
//! as [`crate::Plan`]: re-executing against drifted structure fails with
//! [`SparseError::PlanStructureMismatch`] instead of computing garbage.
//!
//! ```
//! use mspgemm_core::{Config, Session};
//! use mspgemm_sparse::{Csr, PlusPair};
//!
//! // one peeling round of 3-truss: S = A ⊙ (A × A), keep support ≥ 1,
//! // re-canonicalise to ones — select and spones fused into the gather
//! let a = Csr::try_from_parts(
//!     4, 4,
//!     vec![0, 3, 5, 8, 10],
//!     vec![1, 2, 3, 0, 2, 0, 1, 3, 0, 2],
//!     vec![1u64; 10],
//! ).unwrap();
//! let session = Session::<PlusPair>::new(Config::default());
//! let mut gb = session.graph();
//! let x = gb.input();
//! let n = gb.product(x, x, x);
//! gb.select_ge(n, 1);
//! gb.fill(n, 1);
//! let mut g = gb.build(&[&a]).unwrap();
//! let (outs, _) = g.execute(&[&a]).unwrap();
//! assert!(outs[0].nnz() > 0); // the triangle 0-1-2 survives
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use crate::config::{Config, IterationSpace};
use crate::driver::{run_job, Job, JobResult, RunStats};
use crate::executor::{Executor, ExecutorShared};
use crate::plan::{structure_hash, Pin, PlanScratch};
use mspgemm_accum::FusedOp;
use mspgemm_rt::{failpoint, obs};
use mspgemm_sched::{
    catch_tile_panic,
    tile::tiles_for,
    work::{row_work_into, total_work},
    CancelToken, DisjointSlots, Schedule, Tile,
};
use mspgemm_sparse::{Csr, Idx, Semiring, SparseError};

/// Handle to one external input of a graph under construction. Positional:
/// the `n`-th call to [`GraphBuilder::input`] names `inputs[n]` at
/// [`build`](GraphBuilder::build) and [`execute`](PlanGraph::execute)
/// time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExtId(usize);

/// Handle to one product node of a graph under construction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NodeId(usize);

/// The `A` operand of a product node: an external input or the output of
/// an earlier node.
#[derive(Clone, Copy, Debug)]
pub enum Operand {
    /// An external input.
    Ext(ExtId),
    /// The output of an earlier node in the same graph.
    Node(NodeId),
}

impl From<ExtId> for Operand {
    fn from(e: ExtId) -> Self {
        Operand::Ext(e)
    }
}

impl From<NodeId> for Operand {
    fn from(n: NodeId) -> Self {
        Operand::Node(n)
    }
}

/// Internal, index-resolved form of [`Operand`].
#[derive(Clone, Copy, Debug)]
pub(crate) enum OperandRef {
    Ext(usize),
    Node(usize),
}

/// One node as declared on the builder, before freezing.
pub(crate) struct NodeDecl<T> {
    a: OperandRef,
    b: usize,
    mask: usize,
    post: Vec<FusedOp<T>>,
    output: bool,
}

/// Builder for a [`PlanGraph`]. Obtain one from [`crate::Session::graph`],
/// declare inputs and product nodes, fuse element-wise consumers onto
/// nodes, then [`build`](Self::build) against the concrete inputs.
pub struct GraphBuilder<S: Semiring> {
    exec: Executor,
    config: Config,
    n_ext: usize,
    nodes: Vec<NodeDecl<S::T>>,
    any_output: bool,
    broken: Option<&'static str>,
}

impl<S: Semiring> GraphBuilder<S> {
    /// A builder on a specific executor with the given configuration.
    pub fn on(exec: &Executor, config: Config) -> Self {
        GraphBuilder {
            exec: exec.clone(),
            config,
            n_ext: 0,
            nodes: Vec::new(),
            any_output: false,
            broken: None,
        }
    }

    /// Declare the next external input (positional).
    pub fn input(&mut self) -> ExtId {
        self.n_ext += 1;
        ExtId(self.n_ext - 1)
    }

    /// Declare a masked product node `mask ⊙ (A × B)`. `B` and `mask`
    /// must be external inputs (the slot layout needs their structure at
    /// freeze time); `A` may be an external input or an earlier node.
    pub fn product(&mut self, a: impl Into<Operand>, b: ExtId, mask: ExtId) -> NodeId {
        let a = match a.into() {
            Operand::Ext(e) => {
                if e.0 >= self.n_ext {
                    self.broken = Some("product A references an undeclared input");
                }
                OperandRef::Ext(e.0)
            }
            Operand::Node(n) => {
                if n.0 >= self.nodes.len() {
                    self.broken = Some("product A references a later (or foreign) node");
                }
                OperandRef::Node(n.0)
            }
        };
        if b.0 >= self.n_ext || mask.0 >= self.n_ext {
            self.broken = Some("product B/mask references an undeclared input");
        }
        self.nodes.push(NodeDecl { a, b: b.0, mask: mask.0, post: Vec::new(), output: false });
        NodeId(self.nodes.len() - 1)
    }

    fn push_post(&mut self, node: NodeId, op: FusedOp<S::T>) {
        match self.nodes.get_mut(node.0) {
            Some(n) => n.post.push(op),
            None => self.broken = Some("post-op references a foreign node"),
        }
    }

    /// Fuse a `select`-by-threshold onto `node`: keep entries with
    /// `v >= threshold` (the k-truss support filter).
    pub fn select_ge(&mut self, node: NodeId, threshold: S::T) {
        self.push_post(node, FusedOp::SelectGe(threshold));
    }

    /// Fuse an `spones`-style re-canonicalisation onto `node`: every
    /// surviving value becomes `one`.
    pub fn fill(&mut self, node: NodeId, one: S::T) {
        self.push_post(node, FusedOp::Fill(one));
    }

    /// Mark `node`'s (post-op-filtered) result for materialisation. If no
    /// node is marked, the final node is the sole output.
    pub fn mark_output(&mut self, node: NodeId) {
        match self.nodes.get_mut(node.0) {
            Some(n) => {
                n.output = true;
                self.any_output = true;
            }
            None => self.broken = Some("mark_output references a foreign node"),
        }
    }

    /// Freeze the graph against the concrete inputs: validate shapes,
    /// estimate work, cut the shared FLOP-balanced tiles, size the
    /// accumulators, lay out every node's mask-bound slots, and fingerprint
    /// the external structure.
    pub fn build(mut self, inputs: &[&Csr<S::T>]) -> Result<PlanGraph<S>, SparseError> {
        if let Some(detail) = self.broken {
            return Err(SparseError::InvalidConfig { detail: detail.to_string() });
        }
        if inputs.len() != self.n_ext {
            return Err(SparseError::InvalidConfig {
                detail: format!(
                    "graph declared {} inputs but {} were supplied",
                    self.n_ext,
                    inputs.len()
                ),
            });
        }
        if !self.any_output {
            if let Some(last) = self.nodes.last_mut() {
                last.output = true;
            }
        }
        let nodes = std::mem::take(&mut self.nodes);
        let core = freeze(self.exec.shared(), self.config, nodes, inputs)?;
        let ext_fps = inputs
            .iter()
            .zip(&core.pins)
            .map(|(m, &pin)| ExtFingerprint {
                hash: structure_hash(m, pin),
                shape: (m.nrows(), m.ncols()),
            })
            .collect();
        obs::incr(obs::Counter::ExecPlanBuilds);
        Ok(PlanGraph {
            core,
            ext_fps,
            scratch: PlanScratch::default(),
            exec: Arc::clone(self.exec.shared()),
        })
    }
}

/// Freeze the one product `mask ⊙ (A × B)` — a one-node chain over inputs
/// `[A, B, M]`, the shape every single-product caller runs.
pub(crate) fn single_product<T: Copy + Sync>(
    exec: &ExecutorShared,
    config: &Config,
    a: &Csr<T>,
    b: &Csr<T>,
    mask: &Csr<T>,
) -> Result<GraphCore<T>, SparseError> {
    freeze(exec, *config, vec![single_product_node()], &[a, b, mask])
}

/// The lone product `[A, B, M] → C` as a graph node.
fn single_product_node<T>() -> NodeDecl<T> {
    NodeDecl { a: OperandRef::Ext(0), b: 1, mask: 2, post: Vec::new(), output: true }
}

/// The fingerprint pins of a lone product's `[A, B, M]` under `config` —
/// what the service hashes before it looks up a cached plan.
pub(crate) fn single_product_pins(config: &Config) -> Vec<Pin> {
    input_pins::<()>(config, &[single_product_node()], 3)
}

/// Fingerprint pins: exactly the structure the frozen artifacts were
/// computed from (see `crate::plan`, "What the fingerprint covers").
fn input_pins<T>(config: &Config, nodes: &[NodeDecl<T>], n_inputs: usize) -> Vec<Pin> {
    let vanilla = matches!(config.kernel.iteration, IterationSpace::Vanilla);
    let mut pins = vec![Pin::Dims; n_inputs];
    for node in nodes {
        // the mask's row pointers feed the slot layout: always pinned
        pins[node.mask] = pins[node.mask].max(Pin::Rows);
        if let (true, OperandRef::Ext(e)) = (vanilla, node.a) {
            // Eq. 2 walked A's columns into B's row lengths and the
            // estimate froze the accumulator bound
            pins[e] = pins[e].max(Pin::RowsAndCols);
            pins[node.b] = pins[node.b].max(Pin::Rows);
        }
    }
    pins
}

/// The symbolic prologue every caller shares: shape validation, Eq. 2
/// work estimation (on `exec`'s pool, see [`estimate_work`]), one
/// FLOP-balanced row partition for all nodes (their summed estimates),
/// the hard accumulator bound, every node's mask-bound
/// slot layout, and the per-input fingerprint pins. None of it depends on
/// the inputs' *values*.
pub(crate) fn freeze<T: Copy + Sync>(
    exec: &ExecutorShared,
    config: Config,
    nodes: Vec<NodeDecl<T>>,
    inputs: &[&Csr<T>],
) -> Result<GraphCore<T>, SparseError> {
    let Some(first) = nodes.first() else {
        return Err(SparseError::InvalidConfig {
            detail: "a plan graph needs at least one product node".to_string(),
        });
    };
    let nrows = match first.a {
        OperandRef::Ext(e) => inputs[e].nrows(),
        OperandRef::Node(_) => inputs[first.mask].nrows(),
    };

    // --- shape validation: all nodes share one row partition ---
    let mut node_ncols: Vec<usize> = Vec::with_capacity(nodes.len());
    for node in &nodes {
        let b = inputs[node.b];
        let mask = inputs[node.mask];
        let a_shape = match node.a {
            OperandRef::Ext(e) => (inputs[e].nrows(), inputs[e].ncols()),
            OperandRef::Node(j) => (nrows, node_ncols.get(j).copied().unwrap_or(0)),
        };
        if a_shape.1 != b.nrows() {
            return Err(SparseError::ShapeMismatch {
                expected: (a_shape.1, b.ncols()),
                found: (b.nrows(), b.ncols()),
                context: "masked_spgemm: A×B inner dimension",
            });
        }
        if a_shape.0 != nrows {
            return Err(SparseError::ShapeMismatch {
                expected: (nrows, a_shape.1),
                found: a_shape,
                context: "plan graph: A rows",
            });
        }
        if (mask.nrows(), mask.ncols()) != (nrows, b.ncols()) {
            return Err(SparseError::ShapeMismatch {
                expected: (nrows, b.ncols()),
                found: (mask.nrows(), mask.ncols()),
                context: "masked_spgemm: mask shape",
            });
        }
        node_ncols.push(b.ncols());
    }

    let n_threads = config.resolved_threads();
    let n_tiles = config.resolved_tiles(nrows);
    let vanilla = matches!(config.kernel.iteration, IterationSpace::Vanilla);

    // --- work estimation + shared tiling + per-node slot layout. The
    // prologue runs in the calling thread; contain it so a pathological
    // input (or the `work-estimate` failpoint) loses the call, not the
    // process. ---
    let prologue = catch_tile_panic(|| {
        let mut summed: Vec<u64> = Vec::new();
        let mut max_row_entries = 1usize;
        for (node, &ncols) in nodes.iter().zip(&node_ncols) {
            let mask = inputs[node.mask];
            let work = match node.a {
                OperandRef::Ext(e) => {
                    estimate_work(exec, config.schedule, n_threads, inputs[e], inputs[node.b], mask)
                }
                // an intermediate's structure is unknown at freeze time:
                // proxy its row work with the mask bound
                OperandRef::Node(_) => (0..nrows).map(|i| mask.row_nnz(i) as u64).collect(),
            };
            // Hash-accumulator sizing (§III-C): mask-preload kernels hold
            // at most nnz(M[i,:]) entries; the vanilla kernel holds every
            // distinct intermediate column, bounded by Σ nnz(B[k,:]) (= W[i]
            // minus the mask term, saturating) and by ncols — by ncols
            // alone behind a chained A, whose structure is unknown here.
            let row_bound = |i: usize| match (vanilla, node.a) {
                (false, _) => mask.row_nnz(i),
                (true, OperandRef::Ext(_)) => {
                    (work[i].saturating_sub(mask.row_nnz(i) as u64) as usize).min(ncols)
                }
                (true, OperandRef::Node(_)) => ncols.max(1),
            };
            for i in 0..nrows {
                max_row_entries = max_row_entries.max(row_bound(i));
            }
            if summed.is_empty() {
                summed = work;
            } else {
                for (s, w) in summed.iter_mut().zip(&work) {
                    *s += *w;
                }
            }
        }
        let estimated_work = total_work(&summed);
        let tiles = tiles_for(config.tiling, nrows, &summed, n_tiles);
        let layouts: Vec<SlotLayout> =
            nodes.iter().map(|node| SlotLayout::new(&tiles, inputs[node.mask])).collect();
        (estimated_work, tiles, max_row_entries, layouts)
    });
    let (estimated_work, tiles, max_row_entries, layouts) = prologue
        .map_err(|msg| SparseError::Internal { detail: format!("work estimation: {msg}") })?;

    let pins = input_pins(&config, &nodes, inputs.len());

    let frozen: Vec<NodePlan<T>> = nodes
        .into_iter()
        .zip(layouts)
        .zip(node_ncols)
        .map(|((decl, layout), ncols)| NodePlan {
            a: decl.a,
            b: decl.b,
            mask: decl.mask,
            post: decl.post,
            output: decl.output,
            ncols,
            slot_ranges: layout.slot_ranges,
            nonempty: layout.nonempty,
            nonempty_ranges: layout.nonempty_ranges,
            bound: layout.bound,
        })
        .collect();
    Ok(GraphCore {
        config,
        n_threads,
        nrows,
        row_ranges: tiles.iter().map(|t| (t.lo, t.hi)).collect(),
        tiles,
        max_ncols: frozen.iter().map(|n| n.ncols).max().unwrap_or(1).max(1),
        nodes: frozen,
        max_row_entries,
        estimated_work,
        pins,
        id: NEXT_CORE_ID.fetch_add(1, Ordering::Relaxed),
    })
}

/// Below this many stored entries in `A`, Eq. 2 runs serially on the
/// calling thread: waking the pool costs more than it saves. Measured at
/// 2 threads on a 2-vCPU host, median `RunStats::setup` over perfbench's
/// seed-1 `oneshot-mix` inputs: the social class (63k nnz) set up in
/// 0.23 ms serially against 0.26 ms on the pool, the web class (357k nnz)
/// in 0.94 ms on the pool against 1.25 ms serially.
const EQ2_POOL_MIN_NNZ: usize = 1 << 17;

/// Eq. 2 for one node whose `A` is an external input, on the calling
/// thread for one-thread configs and inputs under [`EQ2_POOL_MIN_NNZ`],
/// otherwise on `exec`'s resident workers at the run's width. A block the
/// pool loses, or a pool that fails outright, sends the whole vector
/// through the serial loop, which rewrites every entry.
fn estimate_work<T: Copy + Sync>(
    exec: &ExecutorShared,
    schedule: Schedule,
    n_threads: usize,
    a: &Csr<T>,
    b: &Csr<T>,
    mask: &Csr<T>,
) -> Vec<u64> {
    failpoint::maybe_fire(failpoint::WORK_ESTIMATE, a.nrows() as u64);
    let mut work = vec![0u64; a.nrows()];
    let pooled = n_threads > 1
        && a.nnz() >= EQ2_POOL_MIN_NNZ
        && estimate_on_pool(exec, schedule, n_threads, a, b, mask, &mut work);
    if !pooled {
        row_work_into(a, b, mask, 0, &mut work);
    }
    work
}

/// Eq. 2 in row blocks balanced by `nnz(A)` (a row costs one step per
/// stored entry of `A`), each writing its own window of `work`, under the
/// run lock so per-run metric deltas never interleave. One block per
/// worker, claimed offline, under [`Schedule::Static`]; otherwise 8 per
/// worker off the dynamic queue, few enough that the pool's claim
/// counters barely move. Returns whether every block completed.
fn estimate_on_pool<T: Copy + Sync>(
    exec: &ExecutorShared,
    schedule: Schedule,
    n_threads: usize,
    a: &Csr<T>,
    b: &Csr<T>,
    mask: &Csr<T>,
    work: &mut [u64],
) -> bool {
    let per_worker = match schedule {
        Schedule::Static => 1,
        Schedule::Dynamic => 8,
    };
    let nrows = a.nrows();
    let n_blocks = n_threads.saturating_mul(per_worker).min(nrows);
    // block k ends at the first row whose row pointer reaches k shares of
    // nnz(A)
    let row_ptr = a.row_ptr();
    let mut ranges = Vec::with_capacity(n_blocks);
    let mut lo = 0;
    for k in 1..=n_blocks {
        let hi = if k == n_blocks {
            nrows
        } else {
            let target = (a.nnz() as u128 * k as u128 / n_blocks as u128) as usize;
            row_ptr.partition_point(|&p| p < target).clamp(lo, nrows)
        };
        ranges.push((lo, hi));
        lo = hi;
    }
    let Ok(slots) = DisjointSlots::new(work, &ranges) else { return false };
    let done: Vec<OnceLock<()>> = (0..n_blocks).map(|_| OnceLock::new()).collect();
    let _run = exec.run_lock.lock().unwrap_or_else(|e| e.into_inner());
    // a lost block or a pool failure leaves `done` incomplete
    let _ = exec.pool.run_tiles(n_threads, n_blocks, schedule, |_, idx| {
        if let Some(out) = slots.take(idx) {
            row_work_into(a, b, mask, ranges[idx].0, out);
            let _ = done[idx].set(());
        }
    });
    done.iter().all(|d| d.get().is_some())
}

/// One node's mask-bound slot layout over the shared tiles. Tiles
/// partition the rows in order, so one running prefix sum over the mask's
/// row lengths covers them all.
struct SlotLayout {
    slot_ranges: Vec<(usize, usize)>,
    nonempty: Vec<(Idx, usize)>,
    nonempty_ranges: Vec<(usize, usize)>,
    bound: usize,
}

impl SlotLayout {
    fn new<T: Copy>(tiles: &[Tile], mask: &Csr<T>) -> Self {
        let mut slot_ranges = Vec::with_capacity(tiles.len());
        let mut nonempty = Vec::new();
        let mut nonempty_ranges = Vec::with_capacity(tiles.len());
        let mut bound = 0usize;
        for t in tiles {
            let lo = bound;
            let ne_lo = nonempty.len();
            for i in t.rows() {
                let rn = mask.row_nnz(i);
                if rn > 0 {
                    nonempty.push((i as Idx, bound));
                }
                bound += rn;
            }
            slot_ranges.push((lo, bound));
            nonempty_ranges.push((ne_lo, nonempty.len()));
        }
        SlotLayout { slot_ranges, nonempty, nonempty_ranges, bound }
    }
}

/// Structural guard for one external input.
struct ExtFingerprint {
    hash: u64,
    shape: (usize, usize),
}

/// One frozen product node.
pub(crate) struct NodePlan<T> {
    pub(crate) a: OperandRef,
    pub(crate) b: usize,
    pub(crate) mask: usize,
    pub(crate) post: Vec<FusedOp<T>>,
    pub(crate) output: bool,
    /// Output column count (`B.ncols`).
    pub(crate) ncols: usize,
    /// Per-tile `[lo, hi)` windows of this node's slot buffers.
    pub(crate) slot_ranges: Vec<(usize, usize)>,
    /// This node's nonempty mask rows as `(row, absolute slot offset)` —
    /// frontier-style masks leave most rows empty, and an empty mask row
    /// can neither hold output nor own slots, so the tile and settle
    /// passes visit only these.
    pub(crate) nonempty: Vec<(Idx, usize)>,
    /// Per-tile `[lo, hi)` ranges into `nonempty`.
    pub(crate) nonempty_ranges: Vec<(usize, usize)>,
    /// Total slot capacity: `nnz(mask)`.
    pub(crate) bound: usize,
}

/// The frozen symbolic phase of a chain of masked products — of a whole
/// [`PlanGraph`], and (as a one-node chain) of every single product.
pub(crate) struct GraphCore<T> {
    /// The configuration, as given (resolution results cached below).
    pub(crate) config: Config,
    /// `config.resolved_threads()` at freeze time.
    pub(crate) n_threads: usize,
    pub(crate) nrows: usize,
    /// The shared row partition (summed per-node Eq. 2 estimates).
    pub(crate) tiles: Vec<Tile>,
    /// `tiles` in tuple form, for `DisjointSlots`.
    pub(crate) row_ranges: Vec<(usize, usize)>,
    pub(crate) nodes: Vec<NodePlan<T>>,
    /// Accumulator sizing bound: the hard per-row bound, max over nodes.
    /// Every worker's hash table is built at this size (§III-C).
    pub(crate) max_row_entries: usize,
    /// Dense-accumulator column bound, max over nodes.
    pub(crate) max_ncols: usize,
    pub(crate) estimated_work: u64,
    /// How much of each input's structure the fingerprint must pin.
    pub(crate) pins: Vec<Pin>,
    /// Unique identity; keys the accumulators in the per-worker cells, so
    /// a cell lent to another core is rebuilt rather than reused.
    pub(crate) id: u64,
}

/// Source of [`GraphCore::id`]s.
static NEXT_CORE_ID: AtomicU64 = AtomicU64::new(1);

/// A frozen, reusable multi-op plan graph. Build with
/// [`crate::Session::graph`] → [`GraphBuilder::build`]; re-execute with
/// [`execute`](Self::execute) — external structure is revalidated against
/// the build-time fingerprints on every call.
pub struct PlanGraph<S: Semiring> {
    core: GraphCore<S::T>,
    ext_fps: Vec<ExtFingerprint>,
    scratch: PlanScratch<S::T>,
    exec: Arc<ExecutorShared>,
}

impl<S: Semiring> PlanGraph<S> {
    /// Product nodes in the graph.
    pub fn n_nodes(&self) -> usize {
        self.core.nodes.len()
    }

    /// Shared row tiles the graph was cut into.
    pub fn n_tiles(&self) -> usize {
        self.core.tiles.len()
    }

    /// Summed Eq. 2 work estimate across all nodes.
    pub fn estimated_work(&self) -> u64 {
        self.core.estimated_work
    }

    pub(crate) fn core(&self) -> &GraphCore<S::T> {
        &self.core
    }

    /// Check the inputs against the build-time structural fingerprints
    /// without executing.
    pub fn validate(&self, inputs: &[&Csr<S::T>]) -> Result<(), SparseError> {
        self.validate_named(inputs, |_| "graph input")
    }

    /// [`validate`](Self::validate), naming a drifted input by position —
    /// all shapes are checked before any structure is hashed.
    pub(crate) fn validate_named(
        &self,
        inputs: &[&Csr<S::T>],
        name: impl Fn(usize) -> &'static str,
    ) -> Result<(), SparseError> {
        if inputs.len() != self.ext_fps.len() {
            return Err(SparseError::InvalidConfig {
                detail: format!(
                    "graph was built with {} inputs but {} were supplied",
                    self.ext_fps.len(),
                    inputs.len()
                ),
            });
        }
        if inputs.iter().zip(&self.ext_fps).any(|(m, fp)| (m.nrows(), m.ncols()) != fp.shape) {
            return Err(SparseError::PlanStructureMismatch { operand: "shape" });
        }
        let guards = self.ext_fps.iter().zip(&self.core.pins);
        for (i, (m, (fp, &pin))) in inputs.iter().zip(guards).enumerate() {
            if structure_hash(m, pin) != fp.hash {
                return Err(SparseError::PlanStructureMismatch { operand: name(i) });
            }
        }
        Ok(())
    }

    /// Execute the whole graph in one pool run and materialise the
    /// marked output nodes (in node order). Bit-identical to running the
    /// unfused pipeline node by node.
    pub fn execute(
        &mut self,
        inputs: &[&Csr<S::T>],
    ) -> Result<(Vec<Csr<S::T>>, RunStats), SparseError> {
        let setup_start = Instant::now();
        self.validate(inputs)?;
        let setup = setup_start.elapsed();
        obs::incr(obs::Counter::ExecPlanExecutes);
        let n_post: usize = self.core.nodes.iter().map(|n| n.post.len()).sum();
        self.run(inputs, None, setup, (self.core.nodes.len() + n_post) as u64)
    }

    /// Run already-validated inputs through the tile engine.
    pub(crate) fn run(
        &mut self,
        inputs: &[&Csr<S::T>],
        cancel: Option<&CancelToken>,
        setup: Duration,
        fused_ops: u64,
    ) -> JobResult<S::T> {
        let job = Job {
            core: &self.core,
            inputs,
            scratch: &mut self.scratch,
            cancel,
            setup,
            fused_ops,
        };
        run_job::<S>(&self.exec, job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{spgemm, Session};
    use mspgemm_sparse::{PlusPair, PlusTimes};

    fn ring_with_chords(n: usize, seed: u64) -> Csr<f64> {
        let mut coo = mspgemm_sparse::Coo::new(n, n);
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..n {
            coo.push_symmetric(i, (i + 1) % n, 1.0);
            let j = (next() as usize) % n;
            if j != i {
                coo.push_symmetric(i, j, 1.0);
            }
        }
        coo.to_csr_with(|a, _| a)
    }

    fn cfg() -> Config {
        Config::builder().n_threads(2).n_tiles(4).build()
    }

    #[test]
    fn single_node_graph_matches_one_shot_spgemm() {
        let a = ring_with_chords(64, 7);
        let session = Session::<PlusTimes>::new(cfg());
        let mut gb = session.graph();
        let x = gb.input();
        let _n = gb.product(x, x, x);
        let mut g = gb.build(&[&a]).unwrap();
        let (outs, stats) = g.execute(&[&a]).unwrap();
        let (want, _) = spgemm::<PlusTimes>(&a, &a, &a, &cfg()).unwrap();
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0], want);
        assert_eq!(stats.output_nnz, want.nnz());
    }

    #[test]
    fn fused_select_fill_matches_unfused_select_spones() {
        let a = ring_with_chords(80, 3).spones(1u64);
        let session = Session::<PlusPair>::new(cfg());
        let mut gb = session.graph();
        let x = gb.input();
        let n = gb.product(x, x, x);
        gb.select_ge(n, 1);
        gb.fill(n, 1);
        let mut g = gb.build(&[&a]).unwrap();
        let (outs, _) = g.execute(&[&a]).unwrap();

        let (support, _) = spgemm::<PlusPair>(&a, &a, &a, &cfg()).unwrap();
        let want = support.select(|_, _, v| v >= 1).spones(1u64);
        assert_eq!(outs[0], want);
    }

    #[test]
    fn chained_node_consumes_predecessor_output() {
        // n0 = M ⊙ (A × A); n1 = M ⊙ (n0 × A): compare against running
        // the two products separately through the one-shot driver
        let a = ring_with_chords(72, 9);
        let session = Session::<PlusTimes>::new(cfg());
        let mut gb = session.graph();
        let x = gb.input();
        let n0 = gb.product(x, x, x);
        let n1 = gb.product(n0, x, x);
        gb.mark_output(n0);
        gb.mark_output(n1);
        let mut g = gb.build(&[&a]).unwrap();
        assert_eq!(g.n_nodes(), 2);
        let (outs, _) = g.execute(&[&a]).unwrap();

        let (c0, _) = spgemm::<PlusTimes>(&a, &a, &a, &cfg()).unwrap();
        let (c1, _) = spgemm::<PlusTimes>(&c0, &a, &a, &cfg()).unwrap();
        assert_eq!(outs.len(), 2);
        assert_eq!(outs[0], c0);
        assert_eq!(outs[1], c1, "successor must read the predecessor's slots");
    }

    #[test]
    fn fault_chain_retry_does_not_poison_successors() {
        // Named fault_: CI re-runs this under MSPGEMM_FAILPOINTS with
        // tile-kernel panics armed. A mid-chain tile panic must recover
        // through the whole-chain degraded retry with a bit-identical
        // result — including on re-execution over reused scratch.
        let a = ring_with_chords(96, 21);
        let session = Session::<PlusTimes>::new(cfg());
        let mut gb = session.graph();
        let x = gb.input();
        let n0 = gb.product(x, x, x);
        let n1 = gb.product(n0, x, x);
        gb.mark_output(n1);
        let mut g = gb.build(&[&a]).unwrap();

        let (c0, _) = spgemm::<PlusTimes>(&a, &a, &a, &cfg()).unwrap();
        let (want, _) = spgemm::<PlusTimes>(&c0, &a, &a, &cfg()).unwrap();
        for round in 0..3 {
            let (outs, _) = g.execute(&[&a]).unwrap();
            assert_eq!(outs[0], want, "round {round}");
        }
    }

    #[test]
    fn fault_graph_fused_ops_survive_degraded_retry() {
        // the fused select/fill chain must be re-applied by the retry too
        let a = ring_with_chords(90, 2).spones(1u64);
        let session = Session::<PlusPair>::new(cfg());
        let mut gb = session.graph();
        let x = gb.input();
        let n = gb.product(x, x, x);
        gb.select_ge(n, 2);
        gb.fill(n, 1);
        let mut g = gb.build(&[&a]).unwrap();
        let (support, _) = spgemm::<PlusPair>(&a, &a, &a, &cfg()).unwrap();
        let want = support.select(|_, _, v| v >= 2).spones(1u64);
        for round in 0..3 {
            let (outs, _) = g.execute(&[&a]).unwrap();
            assert_eq!(outs[0], want, "round {round}");
        }
    }

    #[test]
    fn graph_revalidates_external_structure() {
        let a = ring_with_chords(32, 4);
        let session = Session::<PlusTimes>::new(cfg());
        let mut gb = session.graph();
        let x = gb.input();
        let _ = gb.product(x, x, x);
        let mut g = gb.build(&[&a]).unwrap();
        let drifted = ring_with_chords(32, 5);
        let e = g.execute(&[&drifted]).unwrap_err();
        assert!(matches!(e, SparseError::PlanStructureMismatch { .. }), "{e}");
        // the graph itself stays valid for the original structure
        assert!(g.execute(&[&a]).is_ok());
    }

    #[test]
    fn builder_rejects_malformed_graphs() {
        let a = ring_with_chords(16, 1);
        let session = Session::<PlusTimes>::new(cfg());

        // no nodes
        let gb = session.graph();
        assert!(matches!(gb.build(&[]), Err(SparseError::InvalidConfig { .. })));

        // wrong input count
        let mut gb = session.graph();
        let x = gb.input();
        let _ = gb.product(x, x, x);
        assert!(matches!(gb.build(&[&a, &a]), Err(SparseError::InvalidConfig { .. })));

        // foreign node handle
        let mut gb = session.graph();
        let x = gb.input();
        let _ = gb.product(x, x, x);
        gb.mark_output(NodeId(7));
        assert!(matches!(gb.build(&[&a]), Err(SparseError::InvalidConfig { .. })));

        // inner-dimension mismatch
        let rect = {
            let mut coo = mspgemm_sparse::Coo::new(16, 8);
            coo.push(0, 1, 1.0f64);
            coo.to_csr_sum()
        };
        let mut gb = session.graph();
        let x = gb.input();
        let r = gb.input();
        let _ = gb.product(x, r, r); // mask shape 16×8 ok, but A 16×16 × B 16×8 ok...
        let mut gb2 = session.graph();
        let x2 = gb2.input();
        let r2 = gb2.input();
        let _ = gb2.product(r2, x2, x2); // A 16×8 × B 16×16: inner mismatch
        assert!(gb.build(&[&a, &rect]).is_ok());
        assert!(matches!(
            gb2.build(&[&a, &rect]),
            Err(SparseError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn outputs_default_to_the_last_node() {
        let a = ring_with_chords(40, 8);
        let session = Session::<PlusTimes>::new(cfg());
        let mut gb = session.graph();
        let x = gb.input();
        let n0 = gb.product(x, x, x);
        let _n1 = gb.product(n0, x, x);
        let mut g = gb.build(&[&a]).unwrap();
        let (outs, _) = g.execute(&[&a]).unwrap();
        assert_eq!(outs.len(), 1, "only the final node is materialised by default");
        let (c0, _) = spgemm::<PlusTimes>(&a, &a, &a, &cfg()).unwrap();
        let (c1, _) = spgemm::<PlusTimes>(&c0, &a, &a, &cfg()).unwrap();
        assert_eq!(outs[0], c1);
    }

    #[test]
    fn fusion_counters_tick_when_armed() {
        let a = ring_with_chords(64, 13).spones(1u64);
        let session = Session::<PlusPair>::new(cfg());
        let mut gb = session.graph();
        let x = gb.input();
        let n0 = gb.product(x, x, x);
        gb.select_ge(n0, 1);
        gb.fill(n0, 1);
        let mut g = gb.build(&[&a]).unwrap();
        obs::arm_metrics();
        let (_, stats) = g.execute(&[&a]).unwrap();
        let m = stats.metrics.expect("armed run must carry a metrics delta");
        assert_eq!(m.counter("fusion.ops_fused"), 3, "1 product + 2 fused post-ops");
        assert!(m.counter("fusion.sink_fused_elements") > 0);
    }

    // --- the symbolic prologue, as every single-product caller sees it ---

    fn exec() -> &'static ExecutorShared {
        Executor::global().shared()
    }

    #[test]
    fn single_product_rejects_shape_mismatches() {
        let cfg = Config::default();
        let a = Csr::<f64>::zeros(3, 4);
        let b = Csr::<f64>::zeros(5, 3); // inner 4 != 5
        let m = Csr::<f64>::zeros(3, 3);
        assert!(matches!(
            single_product(exec(), &cfg, &a, &b, &m),
            Err(SparseError::ShapeMismatch { context: "masked_spgemm: A×B inner dimension", .. })
        ));
        let b2 = Csr::<f64>::zeros(4, 3);
        let bad_mask = Csr::<f64>::zeros(2, 3);
        assert!(matches!(
            single_product(exec(), &cfg, &a, &b2, &bad_mask),
            Err(SparseError::ShapeMismatch { context: "masked_spgemm: mask shape", .. })
        ));
    }

    #[test]
    fn accumulator_bound_is_the_widest_mask_row() {
        use crate::config::KernelPolicy;
        use mspgemm_accum::{AccumulatorKind, MarkerWidth};
        // 10 rows: nine thin (1 nnz), one fat (6 nnz)
        let mut row_ptr = vec![0usize, 6];
        for r in 1..10 {
            row_ptr.push(6 + r);
        }
        let mut cols: Vec<Idx> = (0..6).collect();
        cols.extend(std::iter::repeat(0).take(9));
        let m = Csr::try_from_parts(10, 10, row_ptr, cols, vec![1.0f64; 15]).unwrap();

        // the hash default is sized at the hard bound max_i nnz(M[i,:])
        let core = single_product(exec(), &Config::default(), &m, &m, &m).unwrap();
        assert_eq!(core.max_row_entries, 6);

        // the bound does not depend on the accumulator family
        let dense = Config::builder()
            .kernel_policy(
                KernelPolicy::new()
                    .accumulator(AccumulatorKind::Dense(MarkerWidth::W32)),
            )
            .build();
        assert_eq!(single_product(exec(), &dense, &m, &m, &m).unwrap().max_row_entries, 6);
    }

    #[test]
    fn single_product_captures_the_slot_layout_and_pins() {
        let cfg = Config::builder().n_threads(2).n_tiles(3).build();
        let m = Csr::try_from_parts(
            4,
            4,
            vec![0, 2, 3, 5, 6],
            vec![0, 1, 2, 0, 3, 1],
            vec![1.0f64; 6],
        )
        .unwrap();
        let core = single_product(exec(), &cfg, &m, &m, &m).unwrap();
        let node = &core.nodes[0];
        assert_eq!(node.bound, 6, "slot bound is nnz(M)");
        assert_eq!(node.slot_ranges.len(), core.tiles.len());
        assert_eq!(core.row_ranges.len(), core.tiles.len());
        // slot ranges are a contiguous partition of [0, bound)
        let mut prev = 0;
        for &(lo, hi) in &node.slot_ranges {
            assert_eq!(lo, prev);
            prev = hi;
        }
        assert_eq!(prev, node.bound);
        assert_eq!((core.nrows, node.ncols), (4, 4));
        // the hybrid default pins only the mask's row pointers
        assert_eq!(core.pins, vec![Pin::Dims, Pin::Dims, Pin::Rows]);
    }
}
