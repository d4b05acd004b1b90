//! In-memory spans for the traced run.
//!
//! A span is a name, a start and an end, the span that caused it, and an
//! iteration number shared by every span of one request or one replayed
//! batch. The benchmark records spans only from its own code, around its
//! calls into each layer; a layer's self time is its duration minus the
//! durations of its child spans. Spans are kept in memory and written out
//! once, when the run ends.

use std::collections::HashMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Identifies a recorded span; `0` means "no parent".
pub type SpanId = u32;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub iter: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Self { origin, spans: Vec::new() }
    }

    /// Nanoseconds from the tracer's origin to `t`.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        iter: u32,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let id = self.spans.len() as SpanId + 1;
        let (start_ns, end_ns) = (self.at(start), self.at(end));
        self.spans.push(Span { id, parent, iter, name, start_ns, end_ns });
        id
    }

    /// Runs `f` under a new span and returns the span's id with `f`'s result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        iter: u32,
        f: impl FnOnce() -> T,
    ) -> (SpanId, T) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        (self.record(name, parent, iter, start, end), out)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per iteration, the summed duration (`self_time = false`) or summed
    /// self time (`true`) of every span called `name`, in nanoseconds.
    /// Iterations without such a span are absent.
    pub fn per_iter(&self, name: &str, self_time: bool) -> Vec<f64> {
        let mut child_ns: HashMap<SpanId, u64> = HashMap::new();
        if self_time {
            for s in &self.spans {
                if s.parent != 0 {
                    *child_ns.entry(s.parent).or_default() += s.dur_ns();
                }
            }
        }
        let mut by_iter: HashMap<u32, f64> = HashMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            let children = child_ns.get(&s.id).copied().unwrap_or(0);
            let ns =
                if self_time { s.dur_ns() as f64 - children as f64 } else { s.dur_ns() as f64 };
            *by_iter.entry(s.iter).or_default() += ns;
        }
        let mut iters: Vec<(u32, f64)> = by_iter.into_iter().collect();
        iters.sort_by_key(|(i, _)| *i);
        iters.into_iter().map(|(_, v)| v).collect()
    }

    /// Writes every span as a tab-separated line:
    /// `id parent iter name start_ns end_ns`.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tparent\titer\tname\tstart_ns\tend_ns")?;
        for s in &self.spans {
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.iter, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_child_spans() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let mut tr = Tracer::new(t0);
        // Iteration 0: parent 100 µs with children of 30 and 50 µs.
        let p = tr.record("parent", 0, 0, at(0), at(100));
        tr.record("child", p, 0, at(200), at(230));
        tr.record("child", p, 0, at(300), at(350));
        // Iteration 1: parent 40 µs, no children.
        tr.record("parent", 0, 1, at(400), at(440));
        assert_eq!(tr.per_iter("parent", false), vec![100_000.0, 40_000.0]);
        assert_eq!(tr.per_iter("parent", true), vec![20_000.0, 40_000.0]);
        assert_eq!(tr.per_iter("child", false), vec![80_000.0]);
        assert!(tr.per_iter("absent", false).is_empty());

        let path = std::env::temp_dir().join(format!("perfbench-spans-{}.tsv", std::process::id()));
        tr.write(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(text.lines().count(), 5);
        assert!(text.contains("2\t1\t0\tchild\t200000\t230000"));
    }
}
