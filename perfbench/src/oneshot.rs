//! `oneshot-mix`: the paper's kernel, one call at a time.
//!
//! One closed-loop caller runs `spgemm::<PlusPair>(A, A, A)` round-robin
//! over four graph classes. Every call pays the symbolic phase, the
//! per-tile kernels, the accumulators and compaction; none enters plan
//! reuse, fusion or the service. Each class is sized so its median call
//! takes roughly the same time, which keeps p50 and p90 off a class
//! boundary and gives each class equal weight.

use std::time::{Duration, Instant};

use crate::phase::{E2e, Phase};
use crate::report::{Report, Tally};
use crate::stats::{csr_digest, median, mix, ratio};
use crate::trace::Tracer;
use crate::{ms, Args, Res, Workload};
use masked_spgemm_repro::core::{spgemm, Config, Executor, RunStats};
use masked_spgemm_repro::gen::{circuit, rmat, road, web};
use masked_spgemm_repro::graph::triangles;
use masked_spgemm_repro::rt::obs::MetricsSnapshot;
use masked_spgemm_repro::sparse::{Csr, PlusPair};

/// Each class's name and its per-class kernel metric, in [`generate`]
/// order.
const CLASSES: [(&str, &str); 4] = [
    ("social", "core.kernels.ns_per_work.social"),
    ("web", "core.kernels.ns_per_work.web"),
    ("road", "core.kernels.ns_per_work.road"),
    ("circuit", "core.kernels.ns_per_work.circuit"),
];

/// Calls per window: 25 rounds of one call per class, and 10 calls
/// beyond each window's p90.
const WINDOW: usize = 100;

/// Calls per class timed at 1 and at all workers for `speedup_2w`.
const SPEEDUP_REPS: usize = 3;

fn generate(seed: u64) -> Vec<Csr<u64>> {
    vec![
        // skewed degrees: hash-accumulator heavy
        rmat::rmat(11, 24, rmat::RmatParams::default(), mix(seed, 1)).spones(1u64),
        // host-local blocks plus hubs
        web::web(26_000, web::WebParams::default(), mix(seed, 2)).spones(1u64),
        // large n, near-empty output, working set larger than L2
        road::road(480, 480, road::RoadParams::default(), mix(seed, 3)).spones(1u64),
        // narrow band plus dense rails
        circuit::circuit(44_000, circuit::CircuitParams::default(), mix(seed, 4)).spones(1u64),
    ]
}

pub struct OneshotMix {
    cfg: Config,
    inputs: Vec<Csr<u64>>,
    /// `Σ C = 6 × triangles`, from the brute-force triangle count.
    want_sum: Vec<u64>,
    /// Output digest of the first set-up's result per class; every later
    /// call must reproduce it.
    want_digest: Vec<Option<u64>>,
    corrupt: bool,
    /// `(class, stats)` of every call in the last measured phase.
    calls: Vec<(usize, RunStats)>,
    steal: f64,
}

impl OneshotMix {
    pub fn new(args: &Args, cfg: Config, _tally: &mut Tally) -> Res<Self> {
        let inputs = generate(args.seed);
        let mut want_sum: Vec<u64> = inputs
            .iter()
            .map(|a| 6 * triangles::count_triangles_naive(a))
            .collect();
        if args.corrupt_oracle {
            want_sum.iter_mut().for_each(|s| *s += 1);
        }
        Ok(OneshotMix {
            cfg,
            want_digest: vec![None; inputs.len()],
            inputs,
            want_sum,
            corrupt: args.corrupt_oracle,
            calls: Vec::new(),
            steal: 0.0,
        })
    }

    /// Whether `c` is the right answer for `class`.
    fn check(&mut self, class: usize, c: &Csr<u64>) -> bool {
        if c.values().iter().sum::<u64>() != self.want_sum[class] {
            return false;
        }
        let digest = csr_digest(c, |v| v) ^ u64::from(self.corrupt);
        *self.want_digest[class].get_or_insert(digest) == digest
    }

    /// Median wall time of [`SPEEDUP_REPS`] checked calls per class at
    /// `threads` workers, summed over the classes.
    fn timed_at(&mut self, threads: usize, tally: &mut Tally) -> f64 {
        let cfg = self.cfg.to_builder().n_threads(threads).build();
        let mut total = 0.0;
        for class in 0..self.inputs.len() {
            let mut times = Vec::new();
            for _ in 0..SPEEDUP_REPS {
                let a = &self.inputs[class];
                let t0 = Instant::now();
                let r = spgemm::<PlusPair>(a, a, a, &cfg);
                let dt = ms(t0.elapsed());
                let ok = matches!(&r, Ok((c, _)) if self.check(class, c));
                if tally.check(ok) {
                    times.push(dt);
                }
            }
            total += median(&times);
        }
        total
    }
}

impl Workload for OneshotMix {
    fn setup_once(&mut self, tally: &mut Tally, tracer: Option<&Tracer>) -> Res<Duration> {
        let root = tracer.map(|t| t.open("setup", 0, None));
        let t0 = Instant::now();
        let exec = Executor::new();
        let mut outs = Vec::with_capacity(self.inputs.len());
        for a in &self.inputs {
            let c0 = Instant::now();
            let r = exec.execute::<PlusPair>(a, a, a, &self.cfg);
            if let Some(t) = tracer {
                t.record("spgemm", 0, root, c0, Instant::now());
            }
            outs.push(r);
        }
        let elapsed = t0.elapsed();
        if let (Some(t), Some(id)) = (tracer, root) {
            t.close(id);
        }
        for (class, r) in outs.into_iter().enumerate() {
            let ok = matches!(&r, Ok((c, _)) if self.check(class, c));
            tally.check(ok);
        }
        Ok(elapsed)
    }

    fn warm(&mut self, tally: &mut Tally) -> Res<()> {
        for class in 0..self.inputs.len() {
            let a = &self.inputs[class];
            let r = spgemm::<PlusPair>(a, a, a, &self.cfg);
            let ok = matches!(&r, Ok((c, _)) if self.check(class, c));
            tally.check(ok);
        }
        Ok(())
    }

    fn measure(
        &mut self,
        seconds: f64,
        tally: &mut Tally,
        tracer: Option<&Tracer>,
        report: &mut Report,
    ) -> Res<E2e> {
        self.calls.clear();
        let mut by_class = vec![Vec::new(); CLASSES.len()];
        let mut phase = Phase::start(WINDOW)?;
        let end = Instant::now() + Duration::from_secs_f64(seconds);
        let mut op = 0u64;
        // whole rounds only, so every class weighs the same
        while Instant::now() < end {
            for (class, class_ms) in by_class.iter_mut().enumerate() {
                let root = tracer.map(|t| t.open("op", op, None));
                let a = &self.inputs[class];
                let t0 = Instant::now();
                let r = spgemm::<PlusPair>(a, a, a, &self.cfg);
                let t1 = Instant::now();
                if let Some(t) = tracer {
                    t.record("spgemm", op, root, t0, t1);
                }
                let ok = matches!(&r, Ok((c, _)) if self.check(class, c));
                let latency = tally.check(ok).then(|| ms(t1 - t0));
                class_ms.extend(latency);
                if let (Some(t), Some(id)) = (tracer, root) {
                    t.close(id);
                }
                if let (Some(_), Ok((_, stats))) = (tracer, r) {
                    self.calls.push((class, stats));
                }
                phase.done(latency)?;
                op += 1;
            }
        }
        let summary = phase.stop()?;
        self.steal = summary.steal;
        let label = u8::from(tracer.is_some());
        report.env(&format!("steal_share.measure{label}"), summary.steal);
        for ((name, _), times) in CLASSES.iter().zip(&by_class) {
            report.env(&format!("op_ms_p50.{name}.measure{label}"), median(times));
        }
        Ok(E2e::new(&summary, &summary))
    }

    fn layers(
        &mut self,
        delta: &MetricsSnapshot,
        _tracer: &Tracer,
        tally: &mut Tally,
        report: &mut Report,
    ) -> Res<()> {
        let stats: Vec<&RunStats> = self.calls.iter().map(|(_, s)| s).collect();
        crate::stats_layers(&stats, report);
        crate::counter_layers(delta, self.calls.len() as u64, report);
        report.set(
            "core.plan.symbolic_ms",
            median(&stats.iter().map(|s| ms(s.setup)).collect::<Vec<_>>()),
        );
        for (class, (_, metric)) in CLASSES.into_iter().enumerate() {
            let per_work: Vec<f64> = self
                .calls
                .iter()
                .filter(|(c, _)| *c == class)
                .map(|(_, s)| {
                    let busy: f64 = s.thread_reports.iter().map(|t| t.busy.as_secs_f64()).sum();
                    ratio(busy * 1e9, s.estimated_work as f64)
                })
                .collect();
            report.set(metric, median(&per_work));
        }
        report.set("bench.env.steal_share", self.steal);
        // the single-thread baseline, measured once here and nowhere else
        let one = self.timed_at(1, tally);
        let all = self.timed_at(self.cfg.resolved_threads(), tally);
        report.set("sched.persistent.speedup_2w", ratio(one, all));
        Ok(())
    }
}
