//! End-to-end benchmark of the masked-SpGEMM library, built entirely from
//! outside it: every figure comes from timing calls to public functions,
//! from `RunStats`/`ServiceReply` fields, and from the library's existing
//! `obs` counters. See `README.md` in this directory for the workloads,
//! the metrics and what each metric is expected to move.
//!
//! ```text
//! perfbench --workload <oneshot-mix|analytics-iter|service-tenants>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result: `correct`,
//! `attempted`, `failed` and the metrics (end-to-end with `--trace 0`,
//! per-layer with `--trace 1`). The line before it records the host and
//! the steal share of every measured phase.

mod analytics;
mod host;
mod oneshot;
mod oracle;
mod phase;
mod report;
mod service;
mod stats;
mod trace;

use std::error::Error;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use masked_spgemm_repro::core::{Config, RunStats};
use masked_spgemm_repro::rt::obs::{self, MetricsSnapshot};
use phase::E2e;
use report::{Report, Tally};
use stats::{hist_quantile, median, ratio};
use trace::Tracer;

pub type Res<T> = Result<T, Box<dyn Error>>;

const USAGE: &str = "usage: perfbench --workload <oneshot-mix|analytics-iter|service-tenants> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Fresh set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 11;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Self-test only: perturb every expected answer after the oracle is
    /// computed, so that each checked operation must be counted failed.
    pub corrupt_oracle: bool,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut corrupt_oracle = false;
        while let Some(flag) = it.next() {
            if flag == "--corrupt-oracle" {
                corrupt_oracle = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds = seconds.ok_or("missing --seconds")?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds must be in (0, 600], not {seconds}"));
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds,
            trace: trace.ok_or("missing --trace")?,
            corrupt_oracle,
        })
    }
}

/// One workload: its inputs and oracle are built by its constructor,
/// before anything is timed.
pub trait Workload {
    /// One complete set-up: a fresh worker pool and session or
    /// service, and one checked operation per distinct input or tenant.
    /// Returns the time from the first library call to the end of that
    /// pass; tearing down is not timed.
    fn setup_once(&mut self, tally: &mut Tally, tracer: Option<&Tracer>) -> Res<Duration>;

    /// Build and warm the long-lived objects the measured phases use.
    fn warm(&mut self, tally: &mut Tally) -> Res<()>;

    /// Run the measured phase for `seconds`, checking every output.
    /// The report receives the phase's steal share and record.
    fn measure(
        &mut self,
        seconds: f64,
        tally: &mut Tally,
        tracer: Option<&Tracer>,
        report: &mut Report,
    ) -> Res<E2e>;

    /// Per-layer metrics of the last (traced) measured phase, from the
    /// counter deltas over it and the spans recorded in it.
    fn layers(
        &mut self,
        delta: &MetricsSnapshot,
        tracer: &Tracer,
        tally: &mut Tally,
        report: &mut Report,
    ) -> Res<()>;
}

fn setup_s(w: &mut dyn Workload, tally: &mut Tally, tracer: Option<&Tracer>) -> Res<f64> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        times.push(w.setup_once(tally, tracer)?.as_secs_f64());
    }
    Ok(median(&times))
}

fn run(args: &Args, report: &mut Report, tally: &mut Tally) -> Res<()> {
    // pinned to the host's CPUs; every other knob is the library default
    let cfg = Config::builder().n_threads(host::nproc()).build();
    report.env("workload", &args.workload);
    report.env("seed", args.seed);
    report.env("seconds", args.seconds);
    report.env("trace", u8::from(args.trace));
    report.env("nproc", host::nproc());
    report.env("workers", cfg.resolved_threads());
    report.env("git_rev", host::git_rev());
    report.env(
        "source_digest",
        host::source_digest().unwrap_or_else(|_| "unknown".into()),
    );
    report.env("config", cfg.label());

    let built = Instant::now();
    let mut w: Box<dyn Workload> = match args.workload.as_str() {
        "oneshot-mix" => Box::new(oneshot::OneshotMix::new(args, cfg, tally)?),
        "analytics-iter" => Box::new(analytics::AnalyticsIter::new(args, cfg, tally)?),
        "service-tenants" => Box::new(service::ServiceTenants::new(args, cfg, tally)?),
        other => return Err(format!("unknown workload {other}\n{USAGE}").into()),
    };
    report.env(
        "inputs_and_oracle_s",
        format!("{:.3}", built.elapsed().as_secs_f64()),
    );

    let setup = setup_s(w.as_mut(), tally, None)?;
    w.warm(tally)?;
    if !args.trace {
        let e = w.measure(args.seconds, tally, None, report)?;
        report.set("setup_s", setup);
        report.set("op_ms_p50", e.op_ms_p50);
        report.set("op_ms_p90", e.op_ms_p90);
        report.set("ops_per_s", e.ops_per_s);
        report.set("cpu_ms_per_op", e.cpu_ms_per_op);
        report.set("peak_rss_mb", host::peak_rss_mb()?);
        return Ok(());
    }

    // Traced run: half the time untraced, then arm the library's counters
    // (they cannot be disarmed) and spend the other half traced. The
    // difference between the halves is the tracing overhead.
    let half = args.seconds / 2.0;
    let plain = w.measure(half, tally, None, report)?;
    let rss_plain = host::peak_rss_mb()?;
    obs::arm_metrics();
    let tracer = Tracer::new();
    let setup_traced = setup_s(w.as_mut(), tally, Some(&tracer))?;
    let before = obs::snapshot();
    let traced = w.measure(half, tally, Some(&tracer), report)?;
    let delta = obs::snapshot().delta_since(&before);
    let rss_traced = host::peak_rss_mb()?;
    w.layers(&delta, &tracer, tally, report)?;

    let pct = |plain: f64, traced: f64| ratio(traced - plain, plain) * 100.0;
    report.set("bench.trace.overhead_pct.setup_s", pct(setup, setup_traced));
    report.set(
        "bench.trace.overhead_pct.op_ms_p50",
        pct(plain.op_ms_p50, traced.op_ms_p50),
    );
    report.set(
        "bench.trace.overhead_pct.op_ms_p90",
        pct(plain.op_ms_p90, traced.op_ms_p90),
    );
    report.set(
        "bench.trace.overhead_pct.ops_per_s",
        pct(plain.ops_per_s, traced.ops_per_s),
    );
    report.set(
        "bench.trace.overhead_pct.cpu_ms_per_op",
        pct(plain.cpu_ms_per_op, traced.cpu_ms_per_op),
    );
    report.set(
        "bench.trace.overhead_pct.peak_rss_mb",
        pct(rss_plain, rss_traced),
    );
    let spans = tracer.spans();
    let roots: Vec<f64> = trace::self_times(&spans)
        .into_iter()
        .zip(&spans)
        .filter(|(_, s)| s.parent.is_none() && s.name == "op")
        .map(|(own, _)| own)
        .collect();
    report.set("bench.op.self_ms_p50", median(&roots));
    let path = format!(".bench_out/spans-{}-seed{}.json", args.workload, args.seed);
    tracer.write(std::path::Path::new(&path))?;
    report.env("spans_file", path);
    Ok(())
}

/// Per-layer metrics read off the `RunStats` of the measured calls:
/// worker busy share, the time workers waited, imbalance and busy time.
pub fn stats_layers(stats: &[&RunStats], report: &mut Report) {
    let busy = |s: &RunStats| {
        s.thread_reports
            .iter()
            .map(|t| t.busy.as_secs_f64())
            .sum::<f64>()
    };
    let span = |s: &RunStats| s.thread_reports.len() as f64 * s.elapsed.as_secs_f64();
    let total_busy: f64 = stats.iter().map(|s| busy(s)).sum();
    let total_span: f64 = stats.iter().map(|s| span(s)).sum();
    let ms = |v: Vec<f64>| median(&v) * 1e3;
    report.set("sched.persistent.busy_share", ratio(total_busy, total_span));
    report.set(
        "sched.persistent.wait_ms",
        ms(stats.iter().map(|s| span(s) - busy(s)).collect()),
    );
    report.set(
        "sched.persistent.imbalance",
        median(&stats.iter().map(|s| s.imbalance()).collect::<Vec<_>>()),
    );
    report.set(
        "core.kernels.busy_ms",
        ms(stats.iter().map(|s| busy(s)).collect()),
    );
}

/// Per-layer metrics read off the library's counters over a traced
/// phase of `ops` operations.
pub fn counter_layers(d: &MetricsSnapshot, ops: u64, report: &mut Report) {
    let c = |name: &str| d.counter(name) as f64;
    let per_op = |name: &str| ratio(c(name), ops as f64);
    report.set("core.plan.builds_per_op", per_op("exec.plan_builds"));
    let (hits, misses) = (c("svc.plan_cache_hits"), c("svc.plan_cache_misses"));
    report.set("core.plan.cache_hit_ratio", ratio(hits, hits + misses));
    report.set(
        "sched.persistent.claims_per_op",
        per_op("sched.queue_claims"),
    );
    if let Some(h) = d.hist("sched.claim_latency_ns") {
        report.set(
            "sched.persistent.claim_latency_ns_p50",
            hist_quantile(h, 0.5),
        );
    }
    let (co, saxpy) = (c("kernel.hybrid.coiterate"), c("kernel.hybrid.saxpy"));
    report.set("core.kernels.coiterate_share", ratio(co, co + saxpy));
    report.set(
        "core.kernels.binsearch_steps_per_coiterate",
        ratio(c("kernel.binary_search_steps"), co),
    );
    report.set(
        "accum.hash.steps_per_probe",
        ratio(c("accum.hash.probe_steps"), c("accum.hash.probes")),
    );
    let (mh, mm) = (c("accum.mask_preload.hits"), c("accum.mask_preload.misses"));
    report.set("accum.mask_hit_ratio", ratio(mh, mh + mm));
    report.set(
        "accum.full_resets_per_op",
        ratio(
            c("accum.dense.full_resets") + c("accum.hash.full_resets"),
            ops as f64,
        ),
    );
    report.set(
        "core.driver.compaction_bytes_per_op",
        per_op("driver.compaction_bytes"),
    );
    let (slack, out) = (c("driver.slack_nnz"), c("driver.tile_output_nnz"));
    report.set("core.driver.slack_ratio", ratio(slack, slack + out));
    report.set("core.driver.retried_tiles", c("driver.retried_tiles"));
    report.set("core.driver.overbook_spills", c("accum.overbook_spills"));
    report.set("core.graph.ops_fused_per_job", per_op("fusion.ops_fused"));
    report.set(
        "core.graph.sink_fused_per_job",
        per_op("fusion.sink_fused_elements"),
    );
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn main() -> ExitCode {
    // The library reads MSPGEMM_* variables (counters, trace sink,
    // failpoints, watchdog) once, lazily. Clear them before the first
    // library call so every run measures the defaults.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("MSPGEMM_") {
            std::env::remove_var(key);
        }
    }
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    let mut tally = Tally::default();
    if let Err(e) = run(&args, &mut report, &mut tally) {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    println!("{}", report.env_line());
    println!("{}", report.result_line(tally, args.trace));
    ExitCode::SUCCESS
}
