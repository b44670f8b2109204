//! `mspgemm-rt` — the zero-dependency runtime under the workspace.
//!
//! Its modules replace external crates, so the tier-1 verify
//! (`cargo build --release && cargo test -q --offline`) runs on a machine
//! with no crates-io access. It starts no threads: the workspace's
//! parallel loops run on `mspgemm-sched`'s worker pool.
//!
//! * [`rng`] — SplitMix64 seeding plus a ChaCha8 core that is
//!   stream-compatible with `rand_chacha::ChaCha8Rng` +
//!   `rand 0.8` sampling, so `crates/gen` keeps producing bit-identical
//!   matrices for each Table I seed.
//! * [`testkit`] — a seeded property-testing mini-harness with greedy
//!   shrinking, replacing the three `proptest` suites.
//! * [`failpoint`] — deterministic fault injection (named sites armed via
//!   `MSPGEMM_FAILPOINTS`), a zero-cost no-op when unarmed.
//! * [`obs`] — observability: a global counter/histogram registry armed
//!   via `MSPGEMM_METRICS` (zero-cost no-op otherwise, same pattern as
//!   [`failpoint`]), span timers and a chrome://tracing event sink armed
//!   via `MSPGEMM_TRACE`.
//! * [`json`] — a minimal JSON reader used to validate the
//!   machine-readable run reports the CLI and benches emit.

pub mod failpoint;
pub mod json;
pub mod obs;
pub mod rng;
pub mod testkit;

pub use rng::{ChaCha8Rng, Rng, RngCore, SplitMix64};
