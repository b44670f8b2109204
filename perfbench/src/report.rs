//! The metric catalogue and the result line every run ends with.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("ops_per_s", "ops/s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run. A layer that the
/// workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("core.plan.symbolic_ms", "ms"),
    ("core.plan.validate_us", "us"),
    ("core.plan.builds_per_op", "1/op"),
    ("core.plan.cache_hit_ratio", "ratio"),
    ("sched.persistent.busy_share", "ratio"),
    ("sched.persistent.wait_ms", "ms"),
    ("sched.persistent.imbalance", "ratio"),
    ("sched.persistent.claims_per_op", "1/op"),
    ("sched.persistent.claim_latency_ns_p50", "ns"),
    ("sched.persistent.speedup_2w", "x"),
    ("core.kernels.busy_ms", "ms"),
    ("core.kernels.ns_per_work.social", "ns"),
    ("core.kernels.ns_per_work.web", "ns"),
    ("core.kernels.ns_per_work.road", "ns"),
    ("core.kernels.ns_per_work.circuit", "ns"),
    ("core.kernels.coiterate_share", "ratio"),
    ("core.kernels.binsearch_steps_per_coiterate", "count"),
    ("accum.hash.steps_per_probe", "count"),
    ("accum.mask_hit_ratio", "ratio"),
    ("accum.full_resets_per_op", "1/op"),
    ("core.driver.compaction_bytes_per_op", "B/op"),
    ("core.driver.slack_ratio", "ratio"),
    ("core.driver.retried_tiles", "count"),
    ("core.driver.overbook_spills", "count"),
    ("core.graph.ops_fused_per_job", "1/op"),
    ("core.graph.sink_fused_per_job", "1/op"),
    ("graph.ktruss_ms", "ms"),
    ("graph.bfs_multi_ms", "ms"),
    ("core.graph.bc_sweep_ms", "ms"),
    ("core.executor.session_ms", "ms"),
    ("core.executor.rebuilds", "count"),
    ("core.service.submit_us", "us"),
    ("core.service.queue_ms_p50", "ms"),
    ("core.service.queue_ms_p99", "ms"),
    ("core.service.run_ms_p50", "ms"),
    ("core.service.settle_ms_p50", "ms"),
    ("core.service.batch_size_mean", "count"),
    ("core.service.light_ms_p50", "ms"),
    ("core.service.heavy_ms_p50", "ms"),
    ("core.service.latency_ms_p99", "ms"),
    ("core.service.refused_ratio", "ratio"),
    ("bench.gen.late_ms_p99", "ms"),
    ("bench.env.steal_share", "ratio"),
    ("bench.op.self_ms_p50", "ms"),
    ("bench.trace.overhead_pct.setup_s", "%"),
    ("bench.trace.overhead_pct.op_ms_p50", "%"),
    ("bench.trace.overhead_pct.op_ms_p90", "%"),
    ("bench.trace.overhead_pct.ops_per_s", "%"),
    ("bench.trace.overhead_pct.cpu_ms_per_op", "%"),
    ("bench.trace.overhead_pct.peak_rss_mb", "%"),
];

/// Operations attempted and failed over the whole run. An operation fails
/// when the library returns an error or a refusal, or its output differs
/// from the oracle.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Count one operation; `ok` is whether it succeeded.
    pub fn check(&mut self, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        ok
    }
}

/// Metric values by name, plus the run record printed beside them.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    env: Vec<(String, String)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .any(|(n, _)| *n == name),
            "{name} is not in the catalogue"
        );
        self.values.insert(name, value);
    }

    pub fn env(&mut self, key: &str, value: impl ToString) {
        self.env.push((key.to_string(), value.to_string()));
    }

    /// The result line. Per-layer metrics the workload never set read 0;
    /// an end-to-end metric that is missing or not finite makes the run
    /// incorrect.
    pub fn result_line(&self, tally: Tally, traced: bool) -> String {
        let catalogue: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut correct = tally.failed == 0 && tally.attempted > 0;
        let mut metrics = Vec::new();
        for &(name, unit) in catalogue {
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                _ => {
                    correct &= traced;
                    0.0
                }
            };
            metrics.push(format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                number(value)
            ));
        }
        format!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            tally.attempted,
            tally.failed,
            metrics.join(",")
        )
    }

    /// The run record: host, configuration and steal, one JSON object.
    pub fn env_line(&self) -> String {
        let fields: Vec<String> = self
            .env
            .iter()
            .map(|(k, v)| format!("\"{k}\":\"{}\"", v.replace('"', "'")))
            .collect();
        format!("{{\"env\":{{{}}}}}", fields.join(","))
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
fn number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}
