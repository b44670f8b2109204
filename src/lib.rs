//! Facade crate for the *"To tile or not to tile"* (IPDPSW 2024)
//! reproduction: one `use` pulls in the whole stack.
//!
//! * [`sparse`] — CSR/COO matrices, semirings, Matrix Market I/O;
//! * [`gen`] — deterministic synthetic stand-ins for the Table I graphs;
//! * [`accum`] — dense/hash sparse accumulators with tunable markers;
//! * [`sched`] — Eq. 2 work estimation, tiling, static/dynamic scheduling;
//! * [`core`] — the tunable masked-SpGEMM, policy presets, auto-tuner;
//! * [`graph`] — triangle counting, k-truss, BFS, betweenness centrality.
//!
//! ```
//! use masked_spgemm_repro::prelude::*;
//!
//! let g = er::erdos_renyi(500, 2000, 42);
//! let triangles = count_triangles(&g, &Config::default()).unwrap();
//! let reference = triangles::count_triangles_naive(&g);
//! assert_eq!(triangles, reference);
//! ```

pub use mspgemm_accum as accum;
pub use mspgemm_core as core;
pub use mspgemm_gen as gen;
pub use mspgemm_graph as graph;
pub use mspgemm_rt as rt;
pub use mspgemm_sched as sched;
pub use mspgemm_sparse as sparse;

/// The names almost every user wants in scope.
pub mod prelude {
    pub use mspgemm_accum::{AccumulatorKind, MarkerWidth};
    pub use mspgemm_core::{
        predict_config, preset_config, run_stress, spgemm, tune, CancelStatus, CancelToken,
        Config, ConfigBuilder, Executor, GraphBuilder, IterationSpace, JobTicket, KernelPolicy,
        Operand, Plan, PlanGraph, Preset, RunStats, Service, ServiceOptions, ServiceReply,
        Session, StressCase, StressReport, StressSpec, SubmitOptions, TunerOptions,
    };
    pub use mspgemm_gen::{er, rmat, road, suite_graph, suite_specs, web, GraphKind};
    pub use mspgemm_graph::{
        bc_forward_fused, bc_forward_unfused, betweenness_centrality, bfs_levels,
        bfs_levels_multi, count_triangles, count_triangles_ll, count_triangles_with_stats, ktruss,
        ktruss_unfused, triangles,
    };
    pub use mspgemm_sched::{Schedule, TilingStrategy};
    pub use mspgemm_sparse::{BoolOrAnd, Coo, Csr, Dense, MinPlus, PlusPair, PlusTimes, Semiring};
}
