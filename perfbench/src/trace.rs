//! The traced run's recorder: one span per call into a layer, plus sums,
//! samples and allocation counts booked at the same boundaries. Everything
//! stays in memory until [`Trace::write_jsonl`] at the end of the run.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

use crate::alloc;

/// One timed call. `parent` indexes [`Trace::spans`]; `item` identifies
/// the workload item (loop × policy, or request) the call served.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub item: u64,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
    /// Layer quantities without a span of their own (compiler phase
    /// times, server-side wire timings, deterministic counts).
    pub sums: BTreeMap<&'static str, f64>,
    /// Per-call latency samples for percentile metrics.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Allocations made inside spans, by span name.
    pub allocs: BTreeMap<&'static str, u64>,
    /// The open `pass` span, parent of every layer span.
    pass: Option<usize>,
    /// Traced passes completed.
    pub passes: usize,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            sums: BTreeMap::new(),
            samples: BTreeMap::new(),
            allocs: BTreeMap::new(),
            pass: None,
            passes: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        item: u64,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            item,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens the pass span; layer spans recorded until [`Trace::end_pass_at`]
    /// are its children.
    pub fn begin_pass(&mut self, index: usize) {
        let now = Instant::now();
        self.pass = Some(self.record("pass", now, now, None, index as u64));
    }

    pub fn end_pass_at(&mut self, end: Instant) {
        let idx = self.pass.take().expect("end_pass_at after begin_pass");
        self.spans[idx].end_ns = self.ns(end);
        self.passes += 1;
    }

    pub fn pass_span(&self) -> Option<usize> {
        self.pass
    }

    /// Times `f` as a span named `name` under the current pass, counting
    /// the allocations it makes on this thread.
    pub fn time<R>(&mut self, name: &'static str, item: u64, f: impl FnOnce() -> R) -> R {
        let a0 = alloc::count();
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        *self.allocs.entry(name).or_default() += alloc::count() - a0;
        let parent = self.pass;
        self.record(name, t0, t1, parent, item);
        r
    }

    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.sums.entry(key).or_default() += v;
    }

    pub fn sample(&mut self, key: &'static str, v: f64) {
        self.samples.entry(key).or_default().push(v);
    }

    /// Total microseconds in spans named `name`.
    pub fn span_us(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .sum()
    }

    pub fn spans_named(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Microseconds of the spans named `name` not covered by any of their
    /// children (the union of child intervals, so concurrent children on
    /// client threads are not double-counted).
    pub fn self_us(&self, name: &str) -> f64 {
        let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut total_ns = 0u64;
        for (i, s) in self.spans.iter().enumerate() {
            if s.name != name {
                continue;
            }
            let mut kids = children.remove(&i).unwrap_or_default();
            kids.sort_unstable();
            let (mut covered, mut cur): (u64, Option<(u64, u64)>) = (0, None);
            for (a, b) in kids {
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            total_ns += (s.end_ns - s.start_ns).saturating_sub(covered);
        }
        total_ns as f64 / 1e3
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"item\":{}}}",
                s.name, s.start_ns, s.end_ns, s.item
            )?;
        }
        w.flush()
    }
}

/// Runs `f` as a span when tracing, or plainly when not.
pub fn span<R>(
    tr: &mut Option<&mut Trace>,
    name: &'static str,
    item: u64,
    f: impl FnOnce() -> R,
) -> R {
    match tr {
        Some(t) => t.time(name, item, f),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Trace::new();
        let s = |name, a, b, parent| Span {
            name,
            start_ns: a,
            end_ns: b,
            parent,
            item: 0,
        };
        t.spans = vec![
            s("pass", 0, 10_000, None),
            s("x", 1_000, 4_000, Some(0)),
            s("x", 2_000, 5_000, Some(0)), // overlaps the first
            s("x", 7_000, 8_000, Some(0)),
        ];
        // Covered: [1,5) + [7,8) = 5 µs of 10.
        assert_eq!(t.self_us("pass"), 5.0);
        assert_eq!(t.span_us("x"), 7.0);
    }
}
