//! The benchmark's own span recorder. Spans are taken around calls into
//! the engine's public API from the benchmark's side; the engine's own
//! tracer (`lahar_core::trace`) stays off in every run, because turning
//! it on changes which kernel steps the chains.
//!
//! Spans stay in memory and are written out once, when the run ends.

use crate::stats::Span;
use std::io::Write;
use std::time::Instant;

/// Records spans when on; every call is a no-op when off, so untraced
/// runs pay one branch per call site.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of a span [`Tracer::begin`] opened.
#[derive(Debug, Clone, Copy)]
#[must_use]
pub struct SpanId(usize);

const OFF: usize = usize::MAX;

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Self {
        Self {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.at_ns(Instant::now())
    }

    /// Nanoseconds from the run's epoch to `t`.
    pub fn at_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(OFF);
        }
        let span = Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            request: None,
        };
        self.spans.push(span);
        let id = self.spans.len() - 1;
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id` (and anything still open inside it).
    pub fn end(&mut self, id: SpanId) {
        if id.0 == OFF {
            return;
        }
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id.0 {
                break;
            }
        }
    }

    /// Records a finished span measured elsewhere (a request timed by a
    /// generator thread), nested in the innermost open span.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        request: Option<u64>,
    ) {
        if !self.on {
            return;
        }
        let span = Span {
            name,
            start_ns: self.at_ns(start),
            end_ns: self.at_ns(end).max(self.at_ns(start)),
            parent: self.open.last().copied(),
            request,
        };
        self.spans.push(span);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as Chrome Trace Event JSON (`chrome://tracing`,
    /// Perfetto), with each span's parent index and request id as args.
    pub fn write_chrome_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"traceEvents\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let request = s.request.map_or("null".to_owned(), |r| r.to_string());
            writeln!(
                out,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {parent}, \"request\": {request}}}}}{sep}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}
