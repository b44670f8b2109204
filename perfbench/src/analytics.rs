//! `analytics-iter`: a closed loop of identical graph-analytics jobs.
//!
//! One job is a k-truss (`k = 4`, one fused `PlanGraph` per peeling
//! round, rebuilt every round), a 16-source BFS followed by the fused
//! Brandes forward sweep (one multi-node chain in one dispatch), and 8
//! re-queries of a fixed frontier product through one long-lived
//! `Session` (plan built at set-up, fingerprint revalidated per call).
//! It is the only workload that exercises `core::graph` fusion and
//! `Session` plan reuse; the one-shot symbolic phase mostly disappears.

use std::time::{Duration, Instant};

use crate::oracle;
use crate::phase::{E2e, Phase};
use crate::report::{Report, Tally};
use crate::stats::{csr_digest, median, mix};
use crate::trace::Tracer;
use crate::{ms, Args, Res, Workload};
use masked_spgemm_repro::core::{Config, Executor, RunStats, Session};
use masked_spgemm_repro::gen::rmat;
use masked_spgemm_repro::graph::{
    bc_forward_fused_from_levels, bc_forward_unfused_from_levels, bfs_levels_multi, ktruss,
    ktruss_unfused,
};
use masked_spgemm_repro::rt::obs::MetricsSnapshot;
use masked_spgemm_repro::rt::rng::{ChaCha8Rng, Rng};
use masked_spgemm_repro::sparse::permute::permute_symmetric;
use masked_spgemm_repro::sparse::{Coo, Csr, PlusPair};

/// Seed of the one R-MAT draw every run relabels.
const GRAPH_SEED: u64 = 0x5eed_0a11;
const TRUSS_K: usize = 4;
const BFS_SOURCES: usize = 16;
const REQUERIES: usize = 8;
/// Share of rows in the fixed frontier.
const FRONTIER_SHARE: f64 = 1.0 / 16.0;
/// Jobs per window: 10 beyond each window's p90.
const WINDOW: usize = 100;

/// What a correct job returns, as digests.
#[derive(Clone, Copy, Debug)]
struct Want {
    truss_nnz: usize,
    truss: u64,
    levels: u64,
    sigma: u64,
    frontier: u64,
}

/// Library timings of one job.
struct JobTimes {
    ktruss: (Instant, Instant),
    bfs: (Instant, Instant),
    bc: (Instant, Instant),
    session: Vec<(Instant, Instant)>,
}

pub struct AnalyticsIter {
    cfg: Config,
    a: Csr<u64>,
    sources: Vec<usize>,
    frontier: Csr<u64>,
    want: Want,
    session: Option<Session<PlusPair>>,
    /// Session-call stats and job timings of the last measured phase.
    calls: Vec<RunStats>,
    jobs: usize,
    steal: f64,
}

/// Rows chosen with probability `share`, restricted to `a`'s structure.
fn frontier_mask(a: &Csr<u64>, share: f64, rng: &mut ChaCha8Rng) -> Csr<u64> {
    let mut coo = Coo::new(a.nrows(), a.ncols());
    for i in 0..a.nrows() {
        if rng.gen::<f64>() < share {
            for &j in a.row(i).0 {
                coo.push(i, j as usize, 1u64);
            }
        }
    }
    coo.to_csr_with(|x, _| x)
}

impl AnalyticsIter {
    pub fn new(args: &Args, cfg: Config, tally: &mut Tally) -> Res<Self> {
        // K-truss peeling takes 3 rounds on some R-MAT draws of this size
        // and 4 on others, a 40 % swing in job cost. So the graph is drawn
        // once, from a fixed seed, and the workload seed relabels it: every
        // seed runs the same amount of work on a different vertex order.
        let base = rmat::rmat(10, 16, rmat::RmatParams::default(), GRAPH_SEED);
        let mut rng = ChaCha8Rng::seed_from_u64(mix(args.seed, 12));
        let mut perm: Vec<u32> = (0..base.nrows() as u32).collect();
        for i in (1..perm.len()).rev() {
            perm.swap(i, rng.gen_range(0..=i));
        }
        let a = permute_symmetric(&base, &perm).spones(1u64);
        let linked: Vec<usize> = (0..a.nrows()).filter(|&i| a.row_nnz(i) > 0).collect();
        let sources: Vec<usize> = (0..BFS_SOURCES)
            .map(|_| linked[rng.gen_range(0..linked.len())])
            .collect();
        let frontier = frontier_mask(&a, FRONTIER_SHARE, &mut rng);

        // the oracle: plain loops, sharing no kernel code
        let (truss_nnz, truss) = oracle::ktruss(&a, TRUSS_K as u64);
        let paths = oracle::paths(&a, &sources);
        let mut want = Want {
            truss_nnz,
            truss,
            levels: oracle::levels_digest(&paths.levels),
            sigma: oracle::sigma_digest(&paths),
            frontier: csr_digest(&oracle::masked_pair(&a, &frontier), |v| v),
        };
        // the unfused library paths must agree with it too
        let unfused = ktruss_unfused(&a, TRUSS_K, &cfg);
        tally.check(matches!(&unfused, Ok(u) if u.truss.nnz() == want.truss_nnz
            && oracle::truss_digest(&u.truss) == want.truss));
        let sigma = bc_forward_unfused_from_levels(&a, &paths.levels, &cfg);
        tally.check(matches!(&sigma, Ok(s) if oracle::waves_digest(s) == want.sigma));
        if args.corrupt_oracle {
            want.truss_nnz += 1;
            want.sigma ^= 1;
        }
        Ok(AnalyticsIter {
            cfg,
            a,
            sources,
            frontier,
            want,
            session: None,
            calls: Vec::new(),
            jobs: 0,
            steal: 0.0,
        })
    }

    /// One job: every library call back to back, then the checks.
    /// Returns whether it was right, its timings and the session stats.
    fn job(&self, session: &mut Session<PlusPair>) -> (bool, JobTimes, Vec<RunStats>) {
        let a = &self.a;
        let t0 = Instant::now();
        let truss = ktruss(a, TRUSS_K, &self.cfg);
        let t1 = Instant::now();
        let levels = bfs_levels_multi(a, &self.sources);
        let t2 = Instant::now();
        let waves = match &levels {
            Ok(l) => bc_forward_fused_from_levels(a, l, &self.cfg),
            Err(e) => Err(e.clone()),
        };
        let t3 = Instant::now();
        let mut session_times = Vec::with_capacity(REQUERIES);
        let mut outs = Vec::with_capacity(REQUERIES);
        for _ in 0..REQUERIES {
            let s0 = Instant::now();
            outs.push(session.execute(a, a, &self.frontier));
            session_times.push((s0, Instant::now()));
        }
        let times = JobTimes {
            ktruss: (t0, t1),
            bfs: (t1, t2),
            bc: (t2, t3),
            session: session_times,
        };

        let mut ok = matches!(&truss, Ok(t) if t.truss.nnz() == self.want.truss_nnz
            && oracle::truss_digest(&t.truss) == self.want.truss);
        ok &= matches!(&levels, Ok(l) if oracle::levels_digest(l) == self.want.levels);
        ok &= matches!(&waves, Ok(w) if oracle::waves_digest(w) == self.want.sigma);
        let mut stats = Vec::with_capacity(REQUERIES);
        for out in outs {
            match out {
                Ok((c, s)) => {
                    ok &= csr_digest(&c, |v| v) == self.want.frontier;
                    stats.push(s);
                }
                Err(_) => ok = false,
            }
        }
        (ok, times, stats)
    }
}

fn record(
    tracer: &Tracer,
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    t: (Instant, Instant),
) {
    tracer.record(name, op, parent, t.0, t.1);
}

fn record_job(tracer: &Tracer, op: u64, parent: Option<usize>, t: &JobTimes) {
    record(tracer, "ktruss", op, parent, t.ktruss);
    record(tracer, "bfs_levels_multi", op, parent, t.bfs);
    record(tracer, "bc_forward_fused_from_levels", op, parent, t.bc);
    for &s in &t.session {
        record(tracer, "Session::execute", op, parent, s);
    }
}

impl Workload for AnalyticsIter {
    fn setup_once(&mut self, tally: &mut Tally, tracer: Option<&Tracer>) -> Res<Duration> {
        let root = tracer.map(|t| t.open("setup", 0, None));
        let t0 = Instant::now();
        let exec = Executor::new();
        let mut session = Session::<PlusPair>::on(&exec, self.cfg);
        let (ok, times, _) = self.job(&mut session);
        // the job's own checks come after its calls; time up to the last call
        let elapsed = times.session.last().map_or(times.bc.1, |s| s.1) - t0;
        if let (Some(t), Some(id)) = (tracer, root) {
            record_job(t, 0, root, &times);
            t.close(id);
        }
        tally.check(ok);
        Ok(elapsed)
    }

    fn warm(&mut self, tally: &mut Tally) -> Res<()> {
        let mut session = Session::<PlusPair>::new(self.cfg);
        let (ok, _, _) = self.job(&mut session);
        tally.check(ok);
        self.session = Some(session);
        Ok(())
    }

    fn measure(
        &mut self,
        seconds: f64,
        tally: &mut Tally,
        tracer: Option<&Tracer>,
        report: &mut Report,
    ) -> Res<E2e> {
        let mut session = self.session.take().ok_or("warm() builds the session")?;
        self.calls.clear();
        let mut phase = Phase::start(WINDOW)?;
        let end = Instant::now() + Duration::from_secs_f64(seconds);
        let mut op = 0u64;
        while Instant::now() < end {
            let root = tracer.map(|t| t.open("op", op, None));
            let (ok, times, stats) = self.job(&mut session);
            let finished = times.session.last().map_or(times.bc.1, |s| s.1);
            let latency = tally.check(ok).then(|| ms(finished - times.ktruss.0));
            if let (Some(t), Some(id)) = (tracer, root) {
                record_job(t, op, root, &times);
                t.close(id);
                self.calls.extend(stats);
            }
            phase.done(latency)?;
            op += 1;
        }
        let summary = phase.stop()?;
        self.steal = summary.steal;
        self.jobs = op as usize;
        report.env(
            &format!("steal_share.measure{}", u8::from(tracer.is_some())),
            summary.steal,
        );
        self.session = Some(session);
        Ok(E2e::new(&summary, &summary))
    }

    fn layers(
        &mut self,
        delta: &MetricsSnapshot,
        tracer: &Tracer,
        _tally: &mut Tally,
        report: &mut Report,
    ) -> Res<()> {
        let stats: Vec<&RunStats> = self.calls.iter().collect();
        crate::stats_layers(&stats, report);
        crate::counter_layers(delta, self.jobs as u64, report);
        let us: Vec<f64> = stats.iter().map(|s| s.setup.as_secs_f64() * 1e6).collect();
        report.set("core.plan.validate_us", median(&us));
        report.set("graph.ktruss_ms", median(&tracer.durations("ktruss")));
        report.set(
            "graph.bfs_multi_ms",
            median(&tracer.durations("bfs_levels_multi")),
        );
        report.set(
            "core.graph.bc_sweep_ms",
            median(&tracer.durations("bc_forward_fused_from_levels")),
        );
        report.set(
            "core.executor.session_ms",
            median(&tracer.durations("Session::execute")),
        );
        let rebuilds = self.session.as_ref().map_or(0, |s| s.rebuilds());
        report.set("core.executor.rebuilds", rebuilds as f64);
        report.set("bench.env.steal_share", self.steal);
        Ok(())
    }
}
