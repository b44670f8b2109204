//! `service-tenants`: one `Service` with default options, fed by one
//! generator thread on behalf of 64 tenants; a second thread collects the
//! replies. Each tenant re-queries its own fixed frontier mask (µs of
//! numeric work), and one request in 16 is a full-mask product, so that a
//! front-end change that starves large jobs still shows.
//!
//! Two phases of equal length: an open loop at a fixed absolute rate
//! (latency timed from each request's due time), then a closed loop
//! keeping 64 requests outstanding (capacity). The admission queue,
//! deficit round-robin fairness, batching, the plan cache,
//! `run_tiles_multi` and reply settlement do almost all of the work; the
//! kernels do almost none.

use std::io;
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::oracle;
use crate::phase::{E2e, Phase, Summary};
use crate::report::{Report, Tally};
use crate::stats::{mean, median, mix, quantile, ratio};
use crate::trace::Tracer;
use crate::{ms, Args, Res, Workload};
use masked_spgemm_repro::core::{
    Config, Executor, JobTicket, RunStats, Service, ServiceOptions, SubmitOptions,
};
use masked_spgemm_repro::gen::road;
use masked_spgemm_repro::rt::obs::MetricsSnapshot;
use masked_spgemm_repro::rt::rng::{ChaCha8Rng, Rng};
use masked_spgemm_repro::sparse::{Coo, Csr, PlusPair, SparseError};

const TENANTS: usize = 64;
/// Rows of the graph in each tenant's frontier mask.
const ROWS_PER_TENANT: usize = 32;
/// Every `HEAVY_EVERY`-th request is the full-mask product.
const HEAVY_EVERY: u64 = 16;
/// Open-loop arrival rate, requests per second: a fixed absolute rate,
/// about a tenth of the closed-loop capacity of a 2-vCPU host.
const OPEN_RATE: f64 = 300.0;
/// Requests kept outstanding in the closed loop.
const OUTSTANDING: usize = 64;
/// Requests per open-loop window: 10 beyond each window's p90.
const OPEN_WINDOW: usize = 100;
/// Requests per closed-loop window: long enough (≈ 0.4 s) for the
/// window's steal share, read in 10 ms jiffies, to mean something.
const CLOSED_WINDOW: usize = 2048;

/// One submitted request on its way to the collector.
struct Sent {
    id: u64,
    tenant: usize,
    heavy: bool,
    due: Instant,
    sent: Instant,
    submitted: Instant,
    root: Option<usize>,
    ticket: Result<JobTicket<PlusPair>, SparseError>,
}

/// What the collector saw of one request.
struct Seen {
    heavy: bool,
    due: Instant,
    sent: Instant,
    submitted: Instant,
    done: Instant,
    ok: bool,
    refused: bool,
    queue: Duration,
    /// `RunStats::total` of the reply.
    run: Duration,
    batch: usize,
}

/// One phase as the collector saw it, with its throughput, CPU and steal.
struct Collected {
    seen: Vec<Seen>,
    /// Driver stats of each reply, kept in traced phases only.
    stats: Vec<RunStats>,
    summary: Summary,
}

/// The seeded request stream: tenant order reshuffled every 64 requests,
/// Poisson gaps for the open loop.
struct Stream {
    rng: ChaCha8Rng,
    order: Vec<usize>,
    next: u64,
}

impl Stream {
    fn new(seed: u64) -> Self {
        Stream {
            rng: ChaCha8Rng::seed_from_u64(seed),
            order: Vec::new(),
            next: 0,
        }
    }

    /// `(id, tenant, heavy)` of the next request.
    fn next(&mut self) -> (u64, usize, bool) {
        let pos = (self.next % TENANTS as u64) as usize;
        if pos == 0 {
            self.order = (0..TENANTS).collect();
            for i in (1..TENANTS).rev() {
                self.order.swap(i, self.rng.gen_range(0..=i));
            }
        }
        let id = self.next;
        self.next += 1;
        (id, self.order[pos], id % HEAVY_EVERY == HEAVY_EVERY - 1)
    }

    /// Time to the next open-loop arrival.
    fn gap(&mut self) -> Duration {
        Duration::from_secs_f64(-(1.0 - self.rng.gen::<f64>()).ln() / OPEN_RATE)
    }
}

/// Inputs and answers, read by the generator and the collector alike.
struct Fixture {
    cfg: Config,
    a: Arc<Csr<u64>>,
    masks: Vec<Arc<Csr<u64>>>,
    want: Vec<Csr<u64>>,
    want_heavy: Csr<u64>,
}

/// `rows` rows chosen at random, restricted to `a`'s structure.
fn tenant_mask(a: &Csr<u64>, rows: usize, rng: &mut ChaCha8Rng) -> Csr<u64> {
    let mut picked: Vec<usize> = (0..rows).map(|_| rng.gen_range(0..a.nrows())).collect();
    picked.sort_unstable();
    picked.dedup();
    let mut coo = Coo::new(a.nrows(), a.ncols());
    for &i in &picked {
        for &j in a.row(i).0 {
            coo.push(i, j as usize, 1u64);
        }
    }
    coo.to_csr_with(|x, _| x)
}

impl Fixture {
    fn submit(
        &self,
        svc: &Service<PlusPair>,
        tenant: usize,
        heavy: bool,
    ) -> Result<JobTicket<PlusPair>, SparseError> {
        let mask = if heavy { &self.a } else { &self.masks[tenant] };
        let opts = SubmitOptions {
            tenant: tenant as u32,
            ..SubmitOptions::default()
        };
        svc.submit(
            Arc::clone(&self.a),
            Arc::clone(&self.a),
            Arc::clone(mask),
            self.cfg,
            opts,
        )
    }

    fn expected(&self, tenant: usize, heavy: bool) -> &Csr<u64> {
        if heavy {
            &self.want_heavy
        } else {
            &self.want[tenant]
        }
    }

    /// One request per tenant plus one full-mask request, all in flight
    /// at once; returns when the last reply is in, then checks them all.
    fn one_each(&self, svc: &Service<PlusPair>, tally: &mut Tally) -> Instant {
        let tickets: Vec<_> = (0..TENANTS)
            .map(|t| (t, false))
            .chain([(0, true)])
            .map(|(t, heavy)| (t, heavy, self.submit(svc, t, heavy)))
            .collect();
        let replies: Vec<_> = tickets
            .into_iter()
            .map(|(t, h, r)| (t, h, r.and_then(JobTicket::wait)))
            .collect();
        let done = Instant::now();
        for (t, heavy, r) in replies {
            tally.check(matches!(&r, Ok(reply) if reply.c == *self.expected(t, heavy)));
        }
        done
    }

    /// Submit the stream's next request, due at `due`, and hand it over.
    fn send(
        &self,
        svc: &Service<PlusPair>,
        stream: &mut Stream,
        due: Instant,
        tracer: Option<&Tracer>,
        tx: &Sender<Sent>,
    ) {
        let (id, tenant, heavy) = stream.next();
        let sent = Instant::now();
        let root = tracer.map(|t| t.record("op", id, None, due, due));
        let ticket = self.submit(svc, tenant, heavy);
        let submitted = Instant::now();
        if let Some(t) = tracer {
            t.record("Service::submit", id, root, sent, submitted);
        }
        // the collector drains the channel until the generator drops it
        let _ = tx.send(Sent {
            id,
            tenant,
            heavy,
            due,
            sent,
            submitted,
            root,
            ticket,
        });
    }

    /// The collector: wait for each request in submission order, check
    /// the reply, give a closed-loop slot back, and close the phase once
    /// everything has settled, while this thread is still alive.
    fn collect(
        &self,
        rx: Receiver<Sent>,
        permits: Option<SyncSender<()>>,
        tracer: Option<&Tracer>,
        mut phase: Phase,
    ) -> io::Result<Collected> {
        // sized for the longest phase up front: growing by doubling would
        // make the benchmark's own peak memory depend on the throughput
        let mut seen = Vec::with_capacity(1 << 20);
        let mut stats = Vec::new();
        for s in rx {
            let w0 = Instant::now();
            let refused = s.ticket.is_err();
            let result = s.ticket.and_then(JobTicket::wait);
            let done = Instant::now();
            if let (Some(t), false) = (tracer, refused) {
                t.record("JobTicket::wait", s.id, s.root, w0, done);
            }
            let mut one = Seen {
                heavy: s.heavy,
                due: s.due,
                sent: s.sent,
                submitted: s.submitted,
                done,
                ok: false,
                refused,
                queue: Duration::ZERO,
                run: Duration::ZERO,
                batch: 0,
            };
            if let Ok(r) = result {
                one.ok = r.c == *self.expected(s.tenant, s.heavy);
                one.queue = r.queue_delay;
                one.run = r.stats.total();
                one.batch = r.batch_size;
                if tracer.is_some() {
                    stats.push(r.stats);
                }
            }
            if let (Some(t), Some(id)) = (tracer, s.root) {
                t.close(id);
            }
            if let Some(p) = &permits {
                // the generator may have stopped already; the slot is moot
                let _ = p.send(());
            }
            phase.done(one.ok.then(|| ms(done - one.due)))?;
            seen.push(one);
        }
        Ok(Collected {
            seen,
            stats,
            summary: phase.stop()?,
        })
    }

    /// Poisson arrivals at [`OPEN_RATE`] for `seconds`.
    fn open_loop(
        &self,
        svc: &Service<PlusPair>,
        stream: &mut Stream,
        seconds: f64,
        tracer: Option<&Tracer>,
    ) -> io::Result<Collected> {
        let (tx, rx) = channel();
        let phase = Phase::start(OPEN_WINDOW)?;
        std::thread::scope(|scope| {
            let collector = scope.spawn(|| self.collect(rx, None, tracer, phase));
            let start = Instant::now();
            let end = start + Duration::from_secs_f64(seconds);
            let mut due = start + stream.gap();
            while due < end {
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                self.send(svc, stream, due, tracer, &tx);
                due += stream.gap();
            }
            drop(tx);
            collector.join().expect("collector thread panicked")
        })
    }

    /// [`OUTSTANDING`] requests in flight at all times for `seconds`.
    fn closed_loop(
        &self,
        svc: &Service<PlusPair>,
        stream: &mut Stream,
        seconds: f64,
        tracer: Option<&Tracer>,
    ) -> io::Result<Collected> {
        let (tx, rx) = channel();
        // slots in the channel plus requests in flight is always
        // OUTSTANDING, so the collector's sends never block
        let (slot_tx, slot_rx) = sync_channel(OUTSTANDING);
        for _ in 0..OUTSTANDING {
            slot_tx.send(()).expect("the receiver is alive");
        }
        let phase = Phase::start(CLOSED_WINDOW)?;
        std::thread::scope(|scope| {
            let collector = scope.spawn(|| self.collect(rx, Some(slot_tx), tracer, phase));
            let end = Instant::now() + Duration::from_secs_f64(seconds);
            while slot_rx.recv().is_ok() {
                let now = Instant::now();
                if now >= end {
                    break;
                }
                self.send(svc, stream, now, tracer, &tx);
            }
            drop(tx);
            collector.join().expect("collector thread panicked")
        })
    }
}

pub struct ServiceTenants {
    fx: Fixture,
    stream: Stream,
    service: Option<Service<PlusPair>>,
    /// The last measured phase: open loop, closed loop.
    last: Option<(Collected, Collected)>,
}

impl ServiceTenants {
    pub fn new(args: &Args, cfg: Config, tally: &mut Tally) -> Res<Self> {
        // One tile per worker: with the default 2048 tiles a frontier
        // query of a few dozen rows would spend its time claiming empty
        // tiles instead of in the service front end this workload is for.
        let cfg = cfg.to_builder().n_tiles(0).build();
        let a = road::road(140, 140, road::RoadParams::default(), mix(args.seed, 21)).spones(1u64);
        let mut rng = ChaCha8Rng::seed_from_u64(mix(args.seed, 22));
        let masks: Vec<Csr<u64>> = (0..TENANTS)
            .map(|_| tenant_mask(&a, ROWS_PER_TENANT, &mut rng))
            .collect();
        // the oracle: plain loops, sharing no kernel code
        let mut want: Vec<Csr<u64>> = masks.iter().map(|m| oracle::masked_pair(&a, m)).collect();
        let mut want_heavy = oracle::masked_pair(&a, &a);
        // and every reply must be bit-identical to a serial execution
        let serial_cfg = cfg.to_builder().n_threads(1).build();
        let serial = Executor::new();
        for (m, w) in masks
            .iter()
            .chain([&a])
            .zip(want.iter().chain([&want_heavy]))
        {
            let r = serial.execute::<PlusPair>(&a, &a, m, &serial_cfg);
            tally.check(matches!(&r, Ok((c, _)) if c == w));
        }
        if args.corrupt_oracle {
            for w in want.iter_mut().chain([&mut want_heavy]) {
                w.values_mut().iter_mut().for_each(|v| *v += 1);
            }
        }
        let fx = Fixture {
            cfg,
            a: Arc::new(a),
            masks: masks.into_iter().map(Arc::new).collect(),
            want,
            want_heavy,
        };
        Ok(ServiceTenants {
            fx,
            stream: Stream::new(mix(args.seed, 23)),
            service: None,
            last: None,
        })
    }
}

impl Workload for ServiceTenants {
    fn setup_once(&mut self, tally: &mut Tally, tracer: Option<&Tracer>) -> Res<Duration> {
        let root = tracer.map(|t| t.open("setup", 0, None));
        let t0 = Instant::now();
        let exec = Executor::new();
        let svc = Service::<PlusPair>::on(&exec, ServiceOptions::default());
        let done = self.fx.one_each(&svc, tally);
        if let (Some(t), Some(id)) = (tracer, root) {
            t.close(id);
        }
        Ok(done - t0)
    }

    fn warm(&mut self, tally: &mut Tally) -> Res<()> {
        let svc = Service::<PlusPair>::new(ServiceOptions::default());
        self.fx.one_each(&svc, tally);
        self.service = Some(svc);
        Ok(())
    }

    fn measure(
        &mut self,
        seconds: f64,
        tally: &mut Tally,
        tracer: Option<&Tracer>,
        report: &mut Report,
    ) -> Res<E2e> {
        let svc = self.service.as_ref().ok_or("warm() builds the service")?;
        let open = self
            .fx
            .open_loop(svc, &mut self.stream, seconds / 2.0, tracer)?;
        let closed = self
            .fx
            .closed_loop(svc, &mut self.stream, seconds / 2.0, tracer)?;
        let label = u8::from(tracer.is_some());
        report.env(&format!("steal_share.open{label}"), open.summary.steal);
        report.env(&format!("steal_share.closed{label}"), closed.summary.steal);
        for s in open.seen.iter().chain(&closed.seen) {
            tally.check(s.ok);
        }
        let e = E2e::new(&open.summary, &closed.summary);
        self.last = Some((open, closed));
        Ok(e)
    }

    fn layers(
        &mut self,
        delta: &MetricsSnapshot,
        _tracer: &Tracer,
        _tally: &mut Tally,
        report: &mut Report,
    ) -> Res<()> {
        let (open, closed) = self.last.as_ref().ok_or("measure() runs first")?;
        let stats: Vec<&RunStats> = open.stats.iter().chain(&closed.stats).collect();
        let all = open.seen.len() + closed.seen.len();
        crate::stats_layers(&stats, report);
        crate::counter_layers(delta, all as u64, report);
        report.set(
            "core.plan.symbolic_ms",
            median(&stats.iter().map(|s| ms(s.setup)).collect::<Vec<_>>()),
        );
        // request-level figures come from the open loop, where op_ms_p50
        // is measured; batch sizes from the closed loop, where ops_per_s is
        let ok: Vec<&Seen> = open.seen.iter().filter(|s| s.ok).collect();
        let of = |f: &dyn Fn(&Seen) -> f64| ok.iter().map(|s| f(s)).collect::<Vec<f64>>();
        let latency = |s: &Seen| ms(s.done - s.due);
        report.set(
            "core.service.submit_us",
            median(&of(&|s| ms(s.submitted - s.sent) * 1e3)),
        );
        let queue = of(&|s| ms(s.queue));
        report.set("core.service.queue_ms_p50", median(&queue));
        report.set("core.service.queue_ms_p99", quantile(&queue, 0.99));
        report.set("core.service.run_ms_p50", median(&of(&|s| ms(s.run))));
        report.set(
            "core.service.settle_ms_p50",
            median(&of(&|s| ms(s.done - s.sent) - ms(s.queue) - ms(s.run))),
        );
        let batches: Vec<f64> = closed
            .seen
            .iter()
            .filter(|s| s.ok)
            .map(|s| s.batch as f64)
            .collect();
        report.set("core.service.batch_size_mean", mean(&batches));
        let kind = |heavy: bool| {
            ok.iter()
                .filter(|s| s.heavy == heavy)
                .map(|s| latency(s))
                .collect::<Vec<_>>()
        };
        report.set("core.service.light_ms_p50", median(&kind(false)));
        report.set("core.service.heavy_ms_p50", median(&kind(true)));
        report.set("core.service.latency_ms_p99", quantile(&of(&latency), 0.99));
        let refused = open
            .seen
            .iter()
            .chain(&closed.seen)
            .filter(|s| s.refused)
            .count();
        report.set(
            "core.service.refused_ratio",
            ratio(refused as f64, all as f64),
        );
        report.set(
            "bench.gen.late_ms_p99",
            quantile(&of(&|s| ms(s.sent - s.due)), 0.99),
        );
        report.set(
            "bench.env.steal_share",
            (open.summary.steal + closed.summary.steal) / 2.0,
        );
        Ok(())
    }
}
