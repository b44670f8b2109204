//! Observability — zero-cost counters, histograms, spans and a
//! chrome://tracing-compatible event sink.
//!
//! The paper's argument is built on *measured* internal quantities: load
//! imbalance across tiles (§III-A), accumulator reset counts (Fig. 13),
//! per-`(i,k)` hybrid kernel decisions (Eq. 3). This module is the one
//! place they are all collected, mirroring the [`crate::failpoint`]
//! pattern: a process-global registry that is **disarmed by default** and
//! costs a single cached atomic load per record call until armed via the
//! `MSPGEMM_METRICS` environment variable or [`arm_metrics`].
//!
//! # Three layers
//!
//! * **Counters** ([`Counter`]) — a fixed catalogue of named `u64`
//!   counters backed by relaxed atomics. [`add`] is a no-op unless armed.
//! * **Histograms** ([`Hist`]) — fixed catalogue of power-of-two-bucketed
//!   distributions (probe lengths, per-thread busy times, queue-claim
//!   latencies). Bucket `i` counts values in `[2^(i-1), 2^i)`; bucket 0
//!   counts zeros; the last bucket is unbounded above.
//! * **Trace events** ([`complete_event`]) — timestamped per-tile spans,
//!   exportable as a chrome://tracing / Perfetto "trace event" JSON array
//!   ([`trace_to_chrome_json`]). Armed separately via `MSPGEMM_TRACE` or
//!   [`arm_trace`] because span recording allocates.
//!
//! # Zero-cost guarantee
//!
//! Hot loops never touch this module directly: accumulators and kernels
//! bump plain (non-atomic, instance-local) scratch such as [`LocalHist`]
//! and fold it into the registry once per row/tile through gated flush
//! calls. With metrics unarmed, [`armed`] compiles to a completed-`Once`
//! fast path (one load + predictable branch) and every `add`/`record`
//! returns immediately. `scripts/ci.sh` enforces the structural half of
//! the guarantee with a grep gate: no atomic counter traffic in the
//! accumulator / kernel hot files.
//!
//! # Snapshots
//!
//! [`snapshot`] captures the full catalogue (always every counter and
//! histogram, so emitted JSON is schema-stable); snapshots subtract
//! ([`MetricsSnapshot::delta_since`]) so callers can report per-run deltas
//! from process-cumulative counters. Counters are process-global: deltas
//! are only attributable to one run if no other instrumented run is
//! concurrent.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, Once, OnceLock};
use std::time::Instant;

/// Environment variable arming the counter/histogram registry.
pub const ENV_VAR: &str = "MSPGEMM_METRICS";
/// Environment variable arming the trace-event sink.
pub const TRACE_ENV_VAR: &str = "MSPGEMM_TRACE";

/// Buckets per histogram (power-of-two widths; last bucket unbounded).
pub const HIST_BUCKETS: usize = 16;

macro_rules! catalogue {
    ($enum_name:ident, $all:ident, $count:ident; $($variant:ident => $name:literal),+ $(,)?) => {
        /// Fixed catalogue — see each variant's string name for meaning.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        #[repr(usize)]
        pub enum $enum_name {
            $(#[doc = $name] $variant),+
        }

        /// Number of catalogue entries.
        pub const $count: usize = [$($enum_name::$variant),+].len();

        /// Every entry, in stable (schema) order.
        pub const $all: [$enum_name; $count] = [$($enum_name::$variant),+];

        impl $enum_name {
            /// The stable dotted name used in emitted JSON.
            pub fn name(self) -> &'static str {
                match self {
                    $($enum_name::$variant => $name),+
                }
            }
        }
    };
}

catalogue! { Counter, COUNTERS_ALL, N_COUNTERS;
    SchedTilesStarted => "sched.tiles_started",
    SchedTilesCompleted => "sched.tiles_completed",
    SchedTilesFailed => "sched.tiles_failed",
    SchedQueueClaims => "sched.queue_claims",
    SchedWorkersSpawned => "sched.workers_spawned",
    SchedTilesCancelled => "sched.tiles_cancelled",
    AccumDenseFullResets => "accum.dense.full_resets",
    AccumHashFullResets => "accum.hash.full_resets",
    AccumHashProbes => "accum.hash.probes",
    AccumHashProbeSteps => "accum.hash.probe_steps",
    AccumMaskHits => "accum.mask_preload.hits",
    AccumMaskMisses => "accum.mask_preload.misses",
    KernelHybridCoiterate => "kernel.hybrid.coiterate",
    KernelHybridSaxpy => "kernel.hybrid.saxpy",
    KernelBinarySearchSteps => "kernel.binary_search_steps",
    DriverRuns => "driver.runs",
    DriverTileOutputNnz => "driver.tile_output_nnz",
    DriverCompactionBytes => "driver.compaction_bytes",
    DriverSlackNnz => "driver.slack_nnz",
    DriverRetriedTiles => "driver.retried_tiles",
    ExecPlanBuilds => "exec.plan_builds",
    ExecPlanExecutes => "exec.plan_executes",
    ExecPlanRebuilds => "exec.plan_rebuilds",
    SvcSubmitted => "svc.submitted",
    SvcCompleted => "svc.completed",
    SvcRejected => "svc.rejected",
    SvcCancelled => "svc.cancelled",
    SvcBatches => "svc.batches",
    SvcBatchedJobs => "svc.batched_jobs",
    SvcPlanCacheHits => "svc.plan_cache_hits",
    SvcPlanCacheMisses => "svc.plan_cache_misses",
    SvcDeadlineShed => "svc.deadline_shed",
    SvcCancelledInFlight => "svc.cancelled_in_flight",
    FusionOpsFused => "fusion.ops_fused",
    FusionTilesChained => "fusion.tiles_chained",
    FusionSinkFusedElems => "fusion.sink_fused_elements",
}

catalogue! { Hist, HISTS_ALL, N_HISTS;
    HashProbeLen => "accum.hash.probe_len",
    ThreadBusyUs => "sched.thread_busy_us",
    ClaimLatencyNs => "sched.claim_latency_ns",
    TileElapsedUs => "sched.tile_elapsed_us",
    SvcQueueDelayUs => "svc.queue_delay_us",
    SvcBatchSize => "svc.batch_size",
}

// `const` items may be repeated in array initialisers, giving N fresh
// atomics (a `static` would alias one).
#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
#[allow(clippy::declare_interior_mutable_const)]
const ZERO_ROW: [AtomicU64; HIST_BUCKETS] = [ZERO; HIST_BUCKETS];
static COUNTER_CELLS: [AtomicU64; N_COUNTERS] = [ZERO; N_COUNTERS];
static HIST_CELLS: [[AtomicU64; HIST_BUCKETS]; N_HISTS] = [ZERO_ROW; N_HISTS];

static ENV_INIT: Once = Once::new();
static METRICS_ARMED: AtomicBool = AtomicBool::new(false);
static TRACE_ARMED: AtomicBool = AtomicBool::new(false);

fn env_truthy(v: &str) -> bool {
    let v = v.trim();
    !(v.is_empty() || v == "0" || v.eq_ignore_ascii_case("off"))
}

#[inline]
fn init_from_env() {
    ENV_INIT.call_once(|| {
        if std::env::var(ENV_VAR).map(|v| env_truthy(&v)).unwrap_or(false) {
            METRICS_ARMED.store(true, Ordering::Relaxed);
        }
        if std::env::var(TRACE_ENV_VAR).map(|v| env_truthy(&v)).unwrap_or(false) {
            TRACE_ARMED.store(true, Ordering::Relaxed);
        }
    });
}

/// `true` once metric recording is armed (environment or builder API).
/// After the first call this is a completed-`Once` check plus one relaxed
/// load — the entire unarmed cost of every instrumentation site.
#[inline]
pub fn armed() -> bool {
    init_from_env();
    METRICS_ARMED.load(Ordering::Relaxed)
}

/// `true` once trace-event recording is armed.
#[inline]
pub fn trace_armed() -> bool {
    init_from_env();
    TRACE_ARMED.load(Ordering::Relaxed)
}

/// Arm the counter/histogram registry programmatically (CLI / test use).
/// Unlike [`crate::failpoint::arm`] this can happen at any time: the
/// armed flag is a plain atomic, not a once-cell decision.
pub fn arm_metrics() {
    init_from_env();
    METRICS_ARMED.store(true, Ordering::Relaxed);
}

/// Arm the trace-event sink programmatically.
pub fn arm_trace() {
    init_from_env();
    TRACE_ARMED.store(true, Ordering::Relaxed);
}

/// Add `n` to a counter. No-op unless [`armed`].
#[inline]
pub fn add(c: Counter, n: u64) {
    if n != 0 && armed() {
        COUNTER_CELLS[c as usize].fetch_add(n, Ordering::Relaxed);
    }
}

/// Increment a counter by one. No-op unless [`armed`].
#[inline]
pub fn incr(c: Counter) {
    add(c, 1);
}

/// Current value of one counter (always readable; zero when never armed).
pub fn counter_value(c: Counter) -> u64 {
    COUNTER_CELLS[c as usize].load(Ordering::Relaxed)
}

/// Bucket index for a histogram value: 0 for 0, else
/// `min(bit_length(v), HIST_BUCKETS - 1)` so bucket `i ≥ 1` spans
/// `[2^(i-1), 2^i)`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((u64::BITS - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

/// Record one observation into a histogram. No-op unless [`armed`].
#[inline]
pub fn record(h: Hist, value: u64) {
    if armed() {
        HIST_CELLS[h as usize][bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }
}

/// Merge a whole pre-bucketed local histogram into the registry.
/// No-op unless [`armed`].
pub fn record_buckets(h: Hist, buckets: &[u64; HIST_BUCKETS]) {
    if !armed() {
        return;
    }
    let cells = &HIST_CELLS[h as usize];
    for (cell, &n) in cells.iter().zip(buckets) {
        if n != 0 {
            cell.fetch_add(n, Ordering::Relaxed);
        }
    }
}

/// Instance-local, non-atomic histogram scratch for hot paths: bumping a
/// plain bucket is a few register instructions with no cross-thread
/// traffic; [`LocalHist::flush_into`] folds (and zeroes) the scratch under
/// the armed gate.
#[derive(Clone, Debug)]
pub struct LocalHist {
    /// The power-of-two buckets, same layout as the global histograms.
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for LocalHist {
    fn default() -> Self {
        LocalHist { buckets: [0; HIST_BUCKETS] }
    }
}

impl LocalHist {
    /// Record one observation (always cheap; never touches atomics).
    #[inline(always)]
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
    }

    /// Total observations recorded since the last flush.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Fold into the global histogram (if armed) and zero the scratch.
    pub fn flush_into(&mut self, h: Hist) {
        record_buckets(h, &self.buckets);
        self.buckets = [0; HIST_BUCKETS];
    }
}

/// Point-in-time copy of the whole registry. Always contains every
/// catalogue entry (schema-stable), even those still at zero.
#[derive(Clone, Debug, Default)]
pub struct MetricsSnapshot {
    /// `(name, value)` per counter, in catalogue order.
    pub counters: Vec<(&'static str, u64)>,
    /// `(name, buckets)` per histogram, in catalogue order.
    pub hists: Vec<(&'static str, [u64; HIST_BUCKETS])>,
}

/// Capture the current registry contents.
pub fn snapshot() -> MetricsSnapshot {
    let counters = COUNTERS_ALL
        .iter()
        .map(|&c| (c.name(), counter_value(c)))
        .collect();
    let hists = HISTS_ALL
        .iter()
        .map(|&h| {
            let mut buckets = [0u64; HIST_BUCKETS];
            for (b, cell) in buckets.iter_mut().zip(&HIST_CELLS[h as usize]) {
                *b = cell.load(Ordering::Relaxed);
            }
            (h.name(), buckets)
        })
        .collect();
    MetricsSnapshot { counters, hists }
}

/// Zero every counter and histogram and drop buffered trace events
/// (test / CLI session boundary use). Does not change the armed flags.
pub fn reset() {
    for cell in &COUNTER_CELLS {
        cell.store(0, Ordering::Relaxed);
    }
    for hist in &HIST_CELLS {
        for cell in hist {
            cell.store(0, Ordering::Relaxed);
        }
    }
    trace_events().lock().unwrap_or_else(|e| e.into_inner()).clear();
}

impl MetricsSnapshot {
    /// Element-wise `self - earlier` (saturating), for per-run attribution
    /// of process-cumulative counters.
    pub fn delta_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let counters = self
            .counters
            .iter()
            .map(|&(name, v)| {
                let before = earlier.counter(name);
                (name, v.saturating_sub(before))
            })
            .collect();
        let hists = self
            .hists
            .iter()
            .map(|&(name, buckets)| {
                let mut out = buckets;
                if let Some(prev) = earlier.hist(name) {
                    for (o, p) in out.iter_mut().zip(prev) {
                        *o = o.saturating_sub(*p);
                    }
                }
                (name, out)
            })
            .collect();
        MetricsSnapshot { counters, hists }
    }

    /// Value of a counter by name (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _)| *n == name).map_or(0, |&(_, v)| v)
    }

    /// Buckets of a histogram by name.
    pub fn hist(&self, name: &str) -> Option<&[u64; HIST_BUCKETS]> {
        self.hists.iter().find(|(n, _)| *n == name).map(|(_, b)| b)
    }

    /// `true` iff every counter and histogram bucket is zero.
    pub fn is_zero(&self) -> bool {
        self.counters.iter().all(|&(_, v)| v == 0)
            && self.hists.iter().all(|(_, b)| b.iter().all(|&v| v == 0))
    }

    /// The `"counters"` / `"histograms"` JSON objects (an *object body*
    /// fragment, embeddable in a larger report).
    pub fn to_json_fragment(&self) -> String {
        let mut s = String::new();
        s.push_str("\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{name}\":{v}"));
        }
        s.push_str("},\"histograms\":{");
        for (i, (name, buckets)) in self.hists.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let joined: Vec<String> = buckets.iter().map(|b| b.to_string()).collect();
            s.push_str(&format!("\"{name}\":[{}]", joined.join(",")));
        }
        s.push('}');
        s
    }

    /// A standalone metrics document (`mspgemm.metrics/1`).
    pub fn to_json(&self) -> String {
        format!("{{\"schema\":\"mspgemm.metrics/1\",{}}}", self.to_json_fragment())
    }
}

// ---------------------------------------------------------------------
// Trace events (chrome://tracing "X" complete events)
// ---------------------------------------------------------------------

/// One completed span. `name` is static and `key` carries the instance
/// (e.g. the tile index), so recording never allocates.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Static span label, e.g. `"tile"`.
    pub name: &'static str,
    /// Instance key (tile index, row, …), rendered into the event name.
    pub key: u64,
    /// Logical thread id (the worker ordinal, not the OS tid).
    pub tid: u64,
    /// Start, microseconds since the process trace epoch.
    pub ts_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

static TRACE_EVENTS: OnceLock<Mutex<Vec<TraceEvent>>> = OnceLock::new();
static TRACE_EPOCH: OnceLock<Instant> = OnceLock::new();

fn trace_events() -> &'static Mutex<Vec<TraceEvent>> {
    TRACE_EVENTS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Microseconds since the process trace epoch (the first call wins the
/// epoch; all events share it, so spans from different threads align).
pub fn now_us() -> u64 {
    TRACE_EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// Record a completed span. No-op unless [`trace_armed`].
pub fn complete_event(name: &'static str, key: u64, tid: u64, ts_us: u64, dur_us: u64) {
    if !trace_armed() {
        return;
    }
    let mut events = trace_events().lock().unwrap_or_else(|e| e.into_inner());
    events.push(TraceEvent { name, key, tid, ts_us, dur_us });
}

/// Drain all buffered trace events (ordering: recording order).
pub fn take_trace() -> Vec<TraceEvent> {
    let mut events = trace_events().lock().unwrap_or_else(|e| e.into_inner());
    std::mem::take(&mut *events)
}

/// Copy the buffered trace events without draining them.
pub fn trace_snapshot() -> Vec<TraceEvent> {
    trace_events().lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Render events as a chrome://tracing / Perfetto JSON array of complete
/// ("ph":"X") events.
pub fn trace_to_chrome_json(events: &[TraceEvent]) -> String {
    let mut s = String::from("[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"name\":\"{} {}\",\"cat\":\"mspgemm\",\"ph\":\"X\",\"pid\":0,\
             \"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"key\":{}}}}}",
            e.name, e.key, e.tid, e.ts_us, e.dur_us, e.key
        ));
    }
    s.push(']');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    // The armed flag is process-global, so every test in this binary that
    // reads counters arms first and works with deltas under one lock.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1 << 14), 15);
        assert_eq!(bucket_index(u64::MAX), 15);
    }

    #[test]
    fn catalogue_names_are_unique_and_dotted() {
        let mut names: Vec<&str> = COUNTERS_ALL.iter().map(|c| c.name()).collect();
        names.extend(HISTS_ALL.iter().map(|h| h.name()));
        for n in &names {
            assert!(n.contains('.'), "{n} should be namespaced");
        }
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate catalogue name");
    }

    #[test]
    fn add_and_snapshot_roundtrip() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        arm_metrics();
        let before = snapshot();
        add(Counter::DriverRuns, 3);
        incr(Counter::DriverRuns);
        record(Hist::HashProbeLen, 5);
        let delta = snapshot().delta_since(&before);
        assert_eq!(delta.counter("driver.runs"), 4);
        assert_eq!(delta.hist("accum.hash.probe_len").unwrap()[bucket_index(5)], 1);
    }

    #[test]
    fn local_hist_flush_folds_and_zeroes() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        arm_metrics();
        let mut local = LocalHist::default();
        local.record(1);
        local.record(1);
        local.record(100);
        assert_eq!(local.count(), 3);
        let before = snapshot();
        local.flush_into(Hist::ThreadBusyUs);
        assert_eq!(local.count(), 0, "flush zeroes the scratch");
        let delta = snapshot().delta_since(&before);
        let buckets = delta.hist("sched.thread_busy_us").unwrap();
        assert_eq!(buckets[bucket_index(1)], 2);
        assert_eq!(buckets[bucket_index(100)], 1);
    }

    #[test]
    fn snapshot_is_schema_stable() {
        let s = snapshot();
        assert_eq!(s.counters.len(), N_COUNTERS);
        assert_eq!(s.hists.len(), N_HISTS);
        let json = s.to_json();
        assert!(json.starts_with("{\"schema\":\"mspgemm.metrics/1\""));
        for c in COUNTERS_ALL {
            assert!(json.contains(c.name()), "{} missing from JSON", c.name());
        }
    }

    #[test]
    fn trace_events_roundtrip() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        arm_trace();
        let _ = take_trace();
        let t0 = now_us();
        complete_event("tile", 7, 2, t0, 13);
        let events = take_trace();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].key, 7);
        let json = trace_to_chrome_json(&events);
        assert!(json.contains("\"name\":\"tile 7\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(take_trace().is_empty(), "drained");
    }

    #[test]
    fn env_truthiness() {
        assert!(env_truthy("1"));
        assert!(env_truthy("on"));
        assert!(!env_truthy("0"));
        assert!(!env_truthy(""));
        assert!(!env_truthy("off"));
        assert!(!env_truthy("OFF"));
    }
}
