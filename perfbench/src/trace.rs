//! The traced run's span recorder.
//!
//! Spans are recorded from the benchmark's own code, around its calls into
//! each layer's public entry points.  They carry a name, start, end, parent
//! and operation id, stay in memory while the run measures, and are written
//! out as JSON lines when it ends.

use std::io::Write as _;
use std::time::Instant;

/// Index of a span within its [`Recorder`].
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub op: u64,
    pub parent: Option<SpanId>,
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's spans.  Recorders of concurrent clients share an epoch so
/// their spans can be laid on one time axis.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a completed span.
    pub fn span(
        &mut self,
        op: u64,
        parent: Option<SpanId>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let span = Span {
            op,
            parent,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Open a parent span now; close it with [`Recorder::end`].
    pub fn begin(&mut self, op: u64, parent: Option<SpanId>, name: &'static str) -> SpanId {
        let now = Instant::now();
        self.span(op, parent, name, now, now)
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Time `f` as a span.
    pub fn time<T>(
        &mut self,
        op: u64,
        parent: Option<SpanId>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.span(op, parent, name, start, end);
        (out, (end - start).as_secs_f64() * 1e6)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (µs) of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Write every recorder's spans as JSON lines after a header line, with
/// each span's self time.
pub fn write_spans(
    path: &std::path::Path,
    header: &str,
    recorders: &[&Recorder],
) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{header}")?;
    for (lane, recorder) in recorders.iter().enumerate() {
        let self_ns = self_times_ns(recorder.spans());
        for (id, (span, self_ns)) in recorder.spans().iter().zip(self_ns).enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"lane\": {lane}, \"id\": {id}, \"parent\": {parent}, \"op\": {}, \"name\": \"{}\", \
                 \"start_us\": {}, \"end_us\": {}, \"self_us\": {}}}",
                span.op,
                span.name,
                span.start_ns as f64 / 1e3,
                span.end_ns as f64 / 1e3,
                self_ns as f64 / 1e3
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            op: 0,
            parent,
            name: "s",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 50, 90),
            span(Some(2), 60, 70),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 20, 30, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // two concurrent children covering 10..60 together
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 50),
            span(Some(0), 30, 60),
        ];
        assert_eq!(self_times_ns(&spans)[0], 50);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![span(None, 20, 40), span(Some(0), 10, 30)];
        assert_eq!(self_times_ns(&spans)[0], 10);
    }

    #[test]
    fn recorder_times_and_nests() {
        let mut rec = Recorder::new(Instant::now());
        let root = rec.begin(7, None, "root");
        let (value, us) = rec.time(7, Some(root), "child", || 6 * 7);
        rec.end(root);
        assert_eq!(value, 42);
        assert!(us >= 0.0);
        assert_eq!(rec.spans().len(), 2);
        assert_eq!(rec.spans()[1].parent, Some(root));
        assert!(rec.spans()[0].end_ns >= rec.spans()[1].end_ns);
        assert_eq!(rec.durations_us("child").len(), 1);
    }
}
