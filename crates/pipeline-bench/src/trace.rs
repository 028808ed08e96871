//! The span recorder of the traced run.
//!
//! One span per call from the benchmark into a layer: name, start, end,
//! the span that was open when it began, and an operation id shared by
//! the spans of one repetition, round or request. Spans are kept in
//! memory and written as JSON lines when the run ends. With tracing off
//! every method is a no-op that reads no clock, so the untraced run pays
//! nothing for the instrumentation.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

use crate::harness::json_string;

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `shard.ingest`.
    pub name: &'static str,
    /// Operation (repetition / round / request) the span belongs to.
    pub op: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// An in-memory span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A recorder; when `enabled` is false nothing is recorded.
    pub fn new(enabled: bool) -> Tracer {
        Tracer::with_origin(enabled, Instant::now())
    }

    /// A recorder sharing another's time origin (one per client thread,
    /// merged with [`Tracer::absorb`]).
    pub fn with_origin(enabled: bool, origin: Instant) -> Tracer {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// The shared time origin.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Start numbering this recorder's operations after `base`, which
    /// keeps the operation ids of different threads apart.
    pub fn set_op_base(&mut self, base: u64) {
        self.op = base;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the currently open one.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let now = self.now_ns();
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        self.open.push(index);
        SpanId(Some(index))
    }

    /// Open the top-level span of a new operation.
    pub fn begin_op(&mut self, name: &'static str) -> SpanId {
        self.op += 1;
        self.begin(name)
    }

    /// Close a span (and anything left open inside it).
    pub fn end(&mut self, id: SpanId) {
        let Some(index) = id.0 else { return };
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == index {
                break;
            }
        }
    }

    /// Record `f` as one leaf span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Append another recorder's spans (same origin), re-basing their
    /// parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Nanoseconds of each span covered by its direct children. Children
    /// of one parent never overlap (one thread, strictly nested), so the
    /// sum is exact.
    fn child_cover_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns - s.start_ns;
            }
        }
        covered
    }

    /// The smallest share of an operation span called `name` that its
    /// child spans cover — the "stages sum to the total" check. 1 when
    /// there is no such span.
    pub fn min_coverage(&self, name: &str) -> f64 {
        let covered = self.child_cover_ns();
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name && s.end_ns > s.start_ns)
            .map(|(i, s)| covered[i] as f64 / (s.end_ns - s.start_ns) as f64)
            .fold(1.0, f64::min)
    }

    /// Write every span as one JSON line: id, parent, op, name, start,
    /// end and self time (duration minus the part children cover).
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let covered = self.child_cover_ns();
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let dur = s.end_ns - s.start_ns;
            writeln!(
                w,
                "{{\"id\":{i},\"parent\":{parent},\"op\":{},\"name\":{},\"start_us\":{:.3},\"end_us\":{:.3},\"self_us\":{:.3}}}",
                s.op,
                json_string(s.name),
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                dur.saturating_sub(covered[i]) as f64 / 1e3,
            )?;
        }
        w.flush()
    }
}

/// Seconds one begin/end pair costs on this machine, measured on a
/// scratch recorder; multiplied by the spans a run recorded it gives the
/// run's tracing overhead without comparing two noisy wall times.
pub fn span_cost_secs() -> f64 {
    const PAIRS: usize = 20_000;
    let mut scratch = Tracer::new(true);
    let start = Instant::now();
    for _ in 0..PAIRS {
        let id = scratch.begin("calibrate");
        scratch.end(id);
    }
    let secs = start.elapsed().as_secs_f64();
    std::hint::black_box(scratch.spans().len());
    secs / PAIRS as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let op = t.begin_op("op");
        assert_eq!(t.span("leaf", || 5), 5);
        t.end(op);
        assert!(t.spans().is_empty());
        assert_eq!(t.min_coverage("op"), 1.0);
    }

    #[test]
    fn spans_nest_and_share_the_operation_id() {
        let mut t = Tracer::new(true);
        let op = t.begin_op("op");
        t.span("a", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        let b = t.begin("b");
        t.span("b.inner", || ());
        t.end(b);
        t.end(op);
        let next = t.begin_op("op");
        t.end(next);

        let s = t.spans();
        assert_eq!(s.len(), 5);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        assert!(s[..4].iter().all(|x| x.op == 1));
        assert_eq!(s[4].op, 2);
        assert_eq!(t.durations("a").len(), 1);
        assert!(t.durations("a")[0] >= 0.002);
        let cover = t.min_coverage("op");
        assert!((0.0..=1.0).contains(&cover));
    }

    #[test]
    fn absorb_rebases_parents() {
        let origin = Instant::now();
        let mut a = Tracer::with_origin(true, origin);
        a.span("x", || ());
        let mut b = Tracer::with_origin(true, origin);
        b.set_op_base(1_000);
        let op = b.begin_op("req");
        b.span("y", || ());
        b.end(op);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert_eq!(a.spans()[1].op, 1_001);
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let mut t = Tracer::new(true);
        let op = t.begin_op("op");
        t.span("leaf", || ());
        t.end(op);
        let dir = std::env::temp_dir().join(format!("nc_pb_trace_{}", std::process::id()));
        let path = dir.join("t.jsonl");
        t.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.lines().next().unwrap().contains("\"parent\":null"));
        assert!(text.lines().nth(1).unwrap().contains("\"parent\":0"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
