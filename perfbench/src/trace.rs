//! The benchmark's own spans, recorded around every call it makes into a
//! layer of the library. Spans stay in memory and are written out once,
//! when the traced run ends; nothing inside the library is touched.

use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// One timed call. `parent` indexes the enclosing span; spans of one
/// operation share `op`.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span buffer lock: a recording thread panicked")
    }

    /// Record a finished call; returns its id for children to name.
    pub fn record(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let mut spans = self.lock();
        spans.push(Span {
            name,
            op,
            parent,
            start,
            end,
        });
        spans.len() - 1
    }

    /// Open a span whose children are recorded before it ends.
    pub fn open(&self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, op, parent, now, now)
    }

    pub fn close(&self, id: usize) {
        self.lock()[id].end = Instant::now();
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }

    /// Durations in ms of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.lock()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Write every span, with its self time, as a Chrome trace-event
    /// array (`chrome://tracing`, Perfetto).
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans();
        let self_ms = self_times(&spans);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"[")?;
        for (i, (s, own)) in spans.iter().zip(&self_ms).enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = s.parent.map_or(-1, |p| p as i64);
            write!(
                out,
                "{sep}\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{:.3},\
                 \"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{},\"self_ms\":{own:.6}}}}}",
                s.name,
                s.op % 64,
                (s.start - self.epoch).as_secs_f64() * 1e6,
                (s.end - s.start).as_secs_f64() * 1e6,
                s.op,
            )?;
        }
        out.write_all(b"\n]\n")?;
        out.flush()
    }
}

/// Self time of each span: its duration minus the part of it that its
/// children cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(Instant, Instant)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort();
            let mut covered = 0.0;
            let mut cursor = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end));
                if b > a {
                    covered += (b - a).as_secs_f64();
                    cursor = b;
                }
            }
            ((s.end - s.start).as_secs_f64() - covered) * 1e3
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = Instant::now();
        let ms = |n| t + Duration::from_millis(n);
        let span = |parent, a, b| Span {
            name: "s",
            op: 0,
            parent,
            start: ms(a),
            end: ms(b),
        };
        // parent 0..10 with children 1..4 and 3..6 (overlapping) and 8..12
        // (running past the parent's end): covered 1..6 and 8..10
        let spans = [
            span(None, 0, 10),
            span(Some(0), 1, 4),
            span(Some(0), 3, 6),
            span(Some(0), 8, 12),
        ];
        let own = self_times(&spans);
        assert!((own[0] - 3.0).abs() < 1e-9, "{}", own[0]);
        assert!((own[1] - 3.0).abs() < 1e-9);
    }
}
