//! A measured phase and the end-to-end figures it yields.
//!
//! On a small shared host the CPU a run gets swings by tens of percent
//! within seconds, and hypervisor steal comes in episodes. So a phase is
//! cut into windows of a fixed number of operations, each with its own
//! rate, CPU cost, latency quantiles and steal share, and every figure is
//! a median over the quieter half of the windows: those whose steal share
//! is at most the median window's. A slow episode that covers fewer than
//! half the windows does not move the figures. The price is that a stall
//! recurring in fewer than half the windows does not move them either; the
//! per-layer p99s of a traced run show those.

use std::io;
use std::time::Instant;

use crate::host;
use crate::stats::{median, quantile};

/// One window edge: time, process CPU time and machine jiffies.
#[derive(Clone, Copy)]
struct Mark {
    at: Instant,
    cpu_ns: u64,
    jiffies: host::CpuJiffies,
}

impl Mark {
    fn now() -> io::Result<Self> {
        Ok(Mark {
            at: Instant::now(),
            cpu_ns: host::cpu_ns()?,
            jiffies: host::cpu_jiffies()?,
        })
    }
}

/// Completions of one measured phase, cut into windows of `per`.
pub struct Phase {
    per: usize,
    marks: Vec<Mark>,
    /// Latency samples in completion order, in ms.
    latencies: Vec<f64>,
    /// Latency-sample count at each mark, to cut them by window.
    cuts: Vec<usize>,
    count: usize,
}

/// The figures of a finished phase.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    pub op_ms_p50: f64,
    pub op_ms_p90: f64,
    pub ops_per_s: f64,
    pub cpu_ms_per_op: f64,
    /// Steal share over the whole phase.
    pub steal: f64,
    pub windows: usize,
}

impl Phase {
    pub fn start(per: usize) -> io::Result<Self> {
        Ok(Phase {
            per: per.max(1),
            marks: vec![Mark::now()?],
            latencies: Vec::with_capacity(1 << 16),
            cuts: vec![0],
            count: 0,
        })
    }

    /// Count one finished operation, with its latency if it succeeded.
    pub fn done(&mut self, latency_ms: Option<f64>) -> io::Result<()> {
        self.latencies.extend(latency_ms);
        self.count += 1;
        if self.count.is_multiple_of(self.per) {
            self.marks.push(Mark::now()?);
            self.cuts.push(self.latencies.len());
        }
        Ok(())
    }

    /// Close the phase. Call while every thread that worked in it is
    /// alive: a thread's CPU time leaves the sum when it exits.
    pub fn stop(mut self) -> io::Result<Summary> {
        let end = Mark::now()?;
        let steal = host::steal_share(self.marks[0].jiffies, end.jiffies);
        if self.marks.len() < 2 {
            // shorter than one window: the whole phase is the window
            self.marks.push(end);
            self.cuts.push(self.latencies.len());
            self.per = self.count.max(1);
        }
        let per = self.per as f64;
        let windows: Vec<Window> = self
            .marks
            .windows(2)
            .zip(self.cuts.windows(2))
            .map(|(m, c)| {
                let lat = &self.latencies[c[0]..c[1]];
                Window {
                    steal: host::steal_share(m[0].jiffies, m[1].jiffies),
                    p50: quantile(lat, 0.5),
                    p90: quantile(lat, 0.9),
                    rate: per / (m[1].at - m[0].at).as_secs_f64(),
                    cpu: m[1].cpu_ns.saturating_sub(m[0].cpu_ns) as f64 / 1e6 / per,
                }
            })
            .collect();
        Ok(summarize(&windows, steal))
    }
}

/// The figures of one window.
#[derive(Clone, Copy, Debug)]
struct Window {
    steal: f64,
    p50: f64,
    p90: f64,
    rate: f64,
    cpu: f64,
}

/// Medians over the quieter half of the windows.
fn summarize(windows: &[Window], steal: f64) -> Summary {
    let calm = median(&windows.iter().map(|w| w.steal).collect::<Vec<_>>());
    let quiet: Vec<&Window> = windows.iter().filter(|w| w.steal <= calm).collect();
    let figure = |f: fn(&Window) -> f64| median(&quiet.iter().map(|w| f(w)).collect::<Vec<_>>());
    Summary {
        op_ms_p50: figure(|w| w.p50),
        op_ms_p90: figure(|w| w.p90),
        ops_per_s: figure(|w| w.rate),
        cpu_ms_per_op: figure(|w| w.cpu),
        steal,
        windows: windows.len(),
    }
}

/// The end-to-end figures of one measured phase.
#[derive(Clone, Copy, Debug)]
pub struct E2e {
    pub op_ms_p50: f64,
    pub op_ms_p90: f64,
    pub ops_per_s: f64,
    pub cpu_ms_per_op: f64,
}

impl E2e {
    /// Latency from `latency`, rate and CPU cost from `throughput`.
    pub fn new(latency: &Summary, throughput: &Summary) -> Self {
        E2e {
            op_ms_p50: latency.op_ms_p50,
            op_ms_p90: latency.op_ms_p90,
            ops_per_s: throughput.ops_per_s,
            cpu_ms_per_op: throughput.cpu_ms_per_op,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_phase_shorter_than_a_window_reports_the_whole_phase() {
        let mut p = Phase::start(1000).expect("/proc is readable");
        p.done(Some(2.0)).expect("/proc is readable");
        p.done(Some(4.0)).expect("/proc is readable");
        let s = p.stop().expect("/proc is readable");
        assert_eq!(s.windows, 1);
        assert_eq!(s.op_ms_p50, 3.0);
        assert!(s.ops_per_s > 0.0 && s.cpu_ms_per_op >= 0.0);
    }

    #[test]
    fn windows_cut_the_latencies_in_completion_order() {
        let mut p = Phase::start(2).expect("/proc is readable");
        for lat in [1.0, 2.0, 5.0, 6.0, 1.0, 2.0, 7.0] {
            p.done(Some(lat)).expect("/proc is readable");
        }
        let s = p.stop().expect("/proc is readable");
        assert_eq!(s.windows, 3, "the last, partial window is dropped");
    }

    #[test]
    fn stolen_windows_do_not_count() {
        let w = |steal, lat| Window {
            steal,
            p50: lat,
            p90: 2.0 * lat,
            rate: 1.0 / lat,
            cpu: lat,
        };
        // three calm windows at 1 ms, two stolen ones at 9 ms
        let windows = [
            w(0.0, 1.0),
            w(0.3, 9.0),
            w(0.0, 1.0),
            w(0.4, 9.0),
            w(0.01, 1.0),
        ];
        let s = summarize(&windows, 0.1);
        assert_eq!(
            (s.op_ms_p50, s.op_ms_p90, s.ops_per_s, s.cpu_ms_per_op),
            (1.0, 2.0, 1.0, 1.0)
        );
        // with steal everywhere alike, the median window decides
        let even = [w(0.2, 1.0), w(0.2, 9.0), w(0.2, 2.0)];
        assert_eq!(summarize(&even, 0.2).op_ms_p50, 2.0);
    }
}
