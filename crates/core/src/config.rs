//! Configuration of the masked-SpGEMM driver — one field per performance
//! dimension of the paper.

use mspgemm_accum::{AccumulatorKind, MarkerWidth};
use mspgemm_sched::{Schedule, TilingStrategy};

/// How the multiplication and masking are traversed — the paper's second
/// dimension (§III-B).
///
/// Marked `#[non_exhaustive]`: downstream `match`es need a wildcard arm,
/// so new traversal strategies can be added without a breaking release.
#[derive(Clone, Copy, Debug, PartialEq)]
#[non_exhaustive]
pub enum IterationSpace {
    /// Fig. 3: accumulate every intermediate product, intersect with the
    /// mask only at gather time. "Requires a large buffer ... and incurs
    /// many wasted computations."
    Vanilla,
    /// Fig. 5 (GrB): load `M[i,:]` into the accumulator first; updates
    /// that miss the mask are discarded on the spot.
    MaskAccumulate,
    /// Fig. 7: for every fetched `B[k,:]`, iterate the *mask* and binary
    /// search each mask column in the B row. Wins when
    /// `nnz(M[i,:]) ≪ nnz(B[k,:])`; loses badly otherwise.
    CoIterate,
    /// Fig. 9: per `(i,k)` choose between the Fig. 5 linear scan and the
    /// Fig. 7 co-iteration by comparing `W_co = nnz(M[i,:])·log₂nnz(B[k,:])`
    /// (Eq. 3) against `κ·nnz(B[k,:])`. This is SuiteSparse's "push-pull";
    /// κ = 1 is the paper's validated default (§V-B).
    Hybrid {
        /// The co-iteration factor κ.
        kappa: f64,
    },
}

impl IterationSpace {
    /// Label used in benchmark reports.
    pub fn label(&self) -> String {
        match self {
            IterationSpace::Vanilla => "vanilla".into(),
            IterationSpace::MaskAccumulate => "mask-accum".into(),
            IterationSpace::CoIterate => "coiterate".into(),
            IterationSpace::Hybrid { kappa } => format!("hybrid(k={kappa})"),
        }
    }
}

/// The per-row kernel policy: every knob that decides how one output row
/// is computed, in one value — accumulator family/width and iteration
/// space.
///
/// Built fluently from the recommended defaults:
///
/// ```
/// use mspgemm_core::{IterationSpace, KernelPolicy};
/// let k = KernelPolicy::new().hybrid(0.5);
/// assert!(matches!(k.iteration, IterationSpace::Hybrid { kappa } if kappa == 0.5));
/// ```
///
/// Marked `#[non_exhaustive]`: construct via [`KernelPolicy::new`] (or
/// `default()`) and the fluent setters, so new kernel axes can be added
/// without breaking downstream code.
#[derive(Clone, Copy, Debug, PartialEq)]
#[non_exhaustive]
pub struct KernelPolicy {
    /// Accumulator family and marker width (§III-C, Fig. 13).
    pub accumulator: AccumulatorKind,
    /// Iteration space (§III-B, Fig. 14).
    pub iteration: IterationSpace,
}

impl Default for KernelPolicy {
    /// The paper's recommended kernel point: hash accumulator with 32-bit
    /// markers (§V-C), hybrid iteration at κ = 1 (§V-B).
    fn default() -> Self {
        KernelPolicy {
            accumulator: AccumulatorKind::Hash(MarkerWidth::W32),
            iteration: IterationSpace::Hybrid { kappa: 1.0 },
        }
    }
}

impl KernelPolicy {
    /// Start from the recommended defaults.
    pub fn new() -> Self {
        KernelPolicy::default()
    }

    /// Set the accumulator family and marker width (§III-C).
    pub fn accumulator(mut self, accumulator: AccumulatorKind) -> Self {
        self.accumulator = accumulator;
        self
    }

    /// Set the iteration space (§III-B).
    pub fn iteration(mut self, iteration: IterationSpace) -> Self {
        self.iteration = iteration;
        self
    }

    /// Shorthand for the hybrid iteration space at co-iteration factor κ
    /// (Eq. 3); κ = 1 is the paper's validated default.
    pub fn hybrid(mut self, kappa: f64) -> Self {
        self.iteration = IterationSpace::Hybrid { kappa };
        self
    }

    /// Label used in reports: `hash32/hybrid(k=1)`.
    pub fn label(&self) -> String {
        format!("{}/{}", self.accumulator.label(), self.iteration.label())
    }
}

/// Full driver configuration — the cross product the Fig. 10/11 sweeps
/// explore.
///
/// Marked `#[non_exhaustive]`: construct it with [`Config::builder`] (or
/// start from [`Config::default`] and assign fields) so new performance
/// dimensions can be added without breaking downstream code.
#[derive(Clone, Copy, Debug, PartialEq)]
#[non_exhaustive]
pub struct Config {
    /// Worker threads. `0` means "use all available cores".
    pub n_threads: usize,
    /// Number of row tiles. `0` means "one per thread" (GrB's choice).
    pub n_tiles: usize,
    /// Uniform vs FLOP-balanced tiling (Fig. 6).
    pub tiling: TilingStrategy,
    /// Static vs dynamic tile scheduling.
    pub schedule: Schedule,
    /// Per-row kernel policy: accumulator family/width and iteration space
    /// (§III-B/C, Fig. 13/14).
    pub kernel: KernelPolicy,
}

impl Default for Config {
    /// The paper's recommended operating point: FLOP-balanced tiling with
    /// an intermediate tile count, dynamic scheduling (§V-A: "within 10%
    /// of the best configuration" for 80–90% of matrices), hybrid
    /// iteration at κ = 1 (§V-B) and a hash accumulator with 32-bit
    /// markers (§V-C).
    fn default() -> Self {
        Config {
            n_threads: 0,
            n_tiles: 2048,
            tiling: TilingStrategy::FlopBalanced,
            schedule: Schedule::Dynamic,
            kernel: KernelPolicy::default(),
        }
    }
}

/// Fluent constructor for [`Config`], starting from the paper's
/// recommended defaults:
///
/// ```
/// use mspgemm_core::{Config, KernelPolicy};
/// let cfg = Config::builder()
///     .n_threads(2)
///     .n_tiles(512)
///     .kernel_policy(KernelPolicy::new().hybrid(1.0))
///     .build();
/// assert_eq!(cfg.n_tiles, 512);
/// ```
///
/// With `Config` marked `#[non_exhaustive]`, this is the way downstream
/// crates express "defaults, except these axes" — struct literals and
/// `..Default::default()` functional updates only work inside this crate.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ConfigBuilder {
    cfg: Config,
}

impl ConfigBuilder {
    /// Start from [`Config::default`] — the paper's recommended point.
    pub fn new() -> Self {
        ConfigBuilder::default()
    }

    /// Worker threads; `0` means "use all available cores".
    pub fn n_threads(mut self, n: usize) -> Self {
        self.cfg.n_threads = n;
        self
    }

    /// Number of row tiles; `0` means "one per thread".
    pub fn n_tiles(mut self, n: usize) -> Self {
        self.cfg.n_tiles = n;
        self
    }

    /// Uniform vs FLOP-balanced tiling (Fig. 6).
    pub fn tiling(mut self, tiling: TilingStrategy) -> Self {
        self.cfg.tiling = tiling;
        self
    }

    /// Static or dynamic tile scheduling.
    pub fn schedule(mut self, schedule: Schedule) -> Self {
        self.cfg.schedule = schedule;
        self
    }

    /// Set the whole per-row kernel policy — accumulator and iteration
    /// space — in one value.
    pub fn kernel_policy(mut self, kernel: KernelPolicy) -> Self {
        self.cfg.kernel = kernel;
        self
    }

    /// Finish, yielding the configured [`Config`].
    pub fn build(self) -> Config {
        self.cfg
    }
}

impl From<Config> for ConfigBuilder {
    fn from(cfg: Config) -> Self {
        ConfigBuilder { cfg }
    }
}

/// The worker count a thread setting means: the setting itself, or the
/// machine's available parallelism for `0`. The one rule behind
/// [`Config::resolved_threads`], the presets and the model.
pub(crate) fn resolve_threads(n_threads: usize) -> usize {
    if n_threads > 0 {
        n_threads
    } else {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    }
}

impl Config {
    /// Fluent constructor starting from the recommended defaults.
    pub fn builder() -> ConfigBuilder {
        ConfigBuilder::new()
    }

    /// Reopen this configuration as a builder, to derive a variant.
    pub fn to_builder(self) -> ConfigBuilder {
        ConfigBuilder { cfg: self }
    }

    /// Resolve `n_threads == 0` to the machine's parallelism.
    pub fn resolved_threads(&self) -> usize {
        resolve_threads(self.n_threads)
    }

    /// Resolve `n_tiles == 0` to one tile per thread, and never more tiles
    /// than output rows would make useful.
    pub fn resolved_tiles(&self, nrows: usize) -> usize {
        let t = if self.n_tiles > 0 { self.n_tiles } else { self.resolved_threads() };
        t.min(nrows.max(1))
    }

    /// Compact label for reports: `balanced/dynamic/2048/hash32/hybrid(k=1)`.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}/{}",
            self.tiling.label(),
            self.schedule.label(),
            self.n_tiles,
            self.kernel.label()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_papers_recommendation() {
        let c = Config::default();
        assert_eq!(c.tiling, TilingStrategy::FlopBalanced);
        assert_eq!(c.schedule, Schedule::Dynamic);
        assert_eq!(c.n_tiles, 2048);
        assert!(matches!(c.kernel.iteration, IterationSpace::Hybrid { kappa } if kappa == 1.0));
        assert_eq!(c.kernel.accumulator, AccumulatorKind::Hash(MarkerWidth::W32));
    }

    #[test]
    fn thread_and_tile_resolution() {
        let mut c = Config::default();
        c.n_threads = 3;
        assert_eq!(c.resolved_threads(), 3);
        c.n_threads = 0;
        assert!(c.resolved_threads() >= 1);
        c.n_tiles = 0;
        assert_eq!(c.resolved_tiles(1_000_000), c.resolved_threads());
        c.n_tiles = 4096;
        assert_eq!(c.resolved_tiles(100), 100, "tiles capped at row count");
        assert_eq!(c.resolved_tiles(0), 1);
    }

    #[test]
    fn builder_round_trips_every_axis() {
        let cfg = Config::builder()
            .n_threads(3)
            .n_tiles(64)
            .tiling(TilingStrategy::Uniform)
            .schedule(Schedule::Static)
            .kernel_policy(
                KernelPolicy::new()
                    .accumulator(AccumulatorKind::Dense(MarkerWidth::W16))
                    .iteration(IterationSpace::CoIterate),
            )
            .build();
        assert_eq!(cfg.n_threads, 3);
        assert_eq!(cfg.n_tiles, 64);
        assert_eq!(cfg.tiling, TilingStrategy::Uniform);
        assert_eq!(cfg.schedule, Schedule::Static);
        assert_eq!(cfg.kernel.accumulator, AccumulatorKind::Dense(MarkerWidth::W16));
        assert_eq!(cfg.kernel.iteration, IterationSpace::CoIterate);
    }

    #[test]
    fn builder_defaults_match_config_default() {
        assert_eq!(Config::builder().build(), Config::default());
        assert_eq!(ConfigBuilder::new().build(), Config::default());
    }

    #[test]
    fn hybrid_shorthand_and_to_builder() {
        let cfg = Config::builder().kernel_policy(KernelPolicy::new().hybrid(0.5)).build();
        assert!(matches!(cfg.kernel.iteration, IterationSpace::Hybrid { kappa } if kappa == 0.5));
        let derived = cfg.to_builder().n_tiles(9).build();
        assert_eq!(derived.n_tiles, 9);
        assert_eq!(derived.kernel.iteration, cfg.kernel.iteration);
        let via_from: ConfigBuilder = cfg.into();
        assert_eq!(via_from.build(), cfg);
    }

    #[test]
    fn kernel_policy_label_names_accumulator_and_iteration() {
        assert_eq!(KernelPolicy::new().label(), "hash32/hybrid(k=1)");
    }

    #[test]
    fn labels_are_descriptive() {
        let c = Config::default();
        let l = c.label();
        assert!(l.contains("FlopBalanced"));
        assert!(l.contains("Dynamic"));
        assert!(l.contains("hash32"));
        assert!(l.contains("hybrid"));
        assert_eq!(IterationSpace::Vanilla.label(), "vanilla");
        assert_eq!(IterationSpace::CoIterate.label(), "coiterate");
    }
}
