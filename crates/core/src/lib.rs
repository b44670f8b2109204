//! The tunable masked-SpGEMM — the primary contribution of *"To tile or
//! not to tile, that is the question"* (IPDPSW 2024), reimplemented in
//! Rust.
//!
//! Computes `C = M ⊙ (A × B)` over any [`Semiring`](mspgemm_sparse::Semiring),
//! with every choice the paper identifies as performance-relevant exposed
//! as an explicit parameter:
//!
//! | Dimension (paper §III) | Knob | Options |
//! |---|---|---|
//! | Tiling | [`ConfigBuilder::tiling`], [`ConfigBuilder::n_tiles`] | uniform / FLOP-balanced × any tile count |
//! | Scheduling | [`ConfigBuilder::schedule`] | static / dynamic (one tile per claim) |
//! | Iteration space | [`KernelPolicy::iteration`] via [`ConfigBuilder::kernel_policy`] | vanilla (Fig. 3), mask-accumulate (Fig. 5), co-iteration (Fig. 7), hybrid-κ (Fig. 9) |
//! | Accumulator | [`KernelPolicy::accumulator`] via [`ConfigBuilder::kernel_policy`] | dense / hash × marker width 8/16/32/64; hash tables sized at the hard bound `max_i nnz(M[i,:])` |
//!
//! Three policy presets reproduce the systems the paper compares
//! ([`presets`]), and [`tuner`] implements the staged tuning flow of
//! Fig. 12.
//!
//! # Quick start
//!
//! ```
//! use mspgemm_core::{spgemm, Config};
//! use mspgemm_sparse::{Csr, PlusTimes};
//!
//! // A 4-cycle: triangle-free, so A ⊙ (A × A) over plus_times is all zeros
//! let a = Csr::try_from_parts(
//!     4, 4,
//!     vec![0, 2, 4, 6, 8],
//!     vec![1, 3, 0, 2, 1, 3, 0, 2],
//!     vec![1.0f64; 8],
//! ).unwrap();
//!
//! let (c, stats) = spgemm::<PlusTimes>(&a, &a, &a, &Config::default()).unwrap();
//! assert_eq!(c.nnz(), 0);
//! assert_eq!(stats.output_nnz, 0);
//! ```
//!
//! # Execution sessions
//!
//! Iterated workloads (triangle counting, k-truss, BFS — the paper's §I
//! motivation) multiply under the *same operand structure* many times.
//! [`Executor`] keeps a persistent worker pool alive between calls, and
//! [`Session`] / [`Executor::plan`] additionally capture the symbolic
//! phase (work estimation, tiling, slot layout) once and reuse it:
//!
//! ```
//! use mspgemm_core::{Config, Session};
//! use mspgemm_sparse::{Csr, PlusTimes};
//!
//! let a = Csr::try_from_parts(
//!     4, 4,
//!     vec![0, 2, 4, 6, 8],
//!     vec![1, 3, 0, 2, 1, 3, 0, 2],
//!     vec![1.0f64; 8],
//! ).unwrap();
//! let mut session = Session::<PlusTimes>::new(Config::default());
//! for _ in 0..10 {
//!     let (c, _) = session.execute(&a, &a, &a).unwrap();
//!     assert_eq!(c.nnz(), 0);
//! }
//! assert_eq!(session.rebuilds(), 0); // structure never drifted
//! ```

pub mod config;
pub mod driver;
pub mod executor;
pub mod graph;
pub mod kernels;
pub mod model;
pub mod plan;
pub mod presets;
pub mod service;
pub mod stress;
pub mod tuner;

pub use config::{Config, ConfigBuilder, IterationSpace, KernelPolicy};
pub use driver::{spgemm, RunStats};
pub use executor::{Executor, Session};
pub use graph::{ExtId, GraphBuilder, NodeId, Operand, PlanGraph};
pub use model::predict_config;
pub use plan::Plan;
pub use presets::{preset_config, Preset};
pub use mspgemm_sched::CancelToken;
pub use service::{CancelStatus, JobTicket, Service, ServiceOptions, ServiceReply, SubmitOptions};
pub use stress::{run_stress, StressCase, StressReport, StressSpec};
pub use tuner::{tune, TuneReport, TunerOptions};
