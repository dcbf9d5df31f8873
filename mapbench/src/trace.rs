//! In-memory spans recorded around the benchmark's calls into each
//! layer, written out as JSON lines when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span: name, start and end (ns since the tracer's epoch)
/// and the span open when it began.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call the span wraps, e.g. `request` or `cell.full`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch (0 while open).
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Problem the span worked on, if any.
    pub problem: Option<usize>,
}

/// A span recorder. A disabled tracer records nothing; its `begin` and
/// `end` return at once.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (`None` when tracing is off).
pub type SpanId = Option<usize>;

impl Tracer {
    /// A tracer, recording when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off (open spans stay open).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        self.begin_on(name, None)
    }

    /// Opens a span tagged with the problem it works on.
    pub fn begin_on(&mut self, name: &'static str, problem: Option<usize>) -> SpanId {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.epoch.elapsed().as_nanos() as u64,
            end: 0,
            parent: self.open.last().copied(),
            problem,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes `span` (and any span left open inside it).
    pub fn end(&mut self, span: SpanId) {
        let Some(id) = span else { return };
        let now = self.epoch.elapsed().as_nanos() as u64;
        while let Some(top) = self.open.pop() {
            self.spans[top].end = now;
            if top == id {
                break;
            }
        }
    }

    /// The recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per span.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}",
                s.name, s.start, s.end
            );
            match s.parent {
                Some(p) => {
                    let _ = write!(out, ",\"parent\":{p}");
                }
                None => out.push_str(",\"parent\":null"),
            }
            if let Some(p) = s.problem {
                let _ = write!(out, ",\"problem\":{p}");
            }
            out.push_str("}\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer");
        let inner = t.begin_on("inner", Some(3));
        t.end(inner);
        t.end(outer);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end >= t.spans()[1].end);
        assert!(t.to_jsonl().contains("\"problem\":3"));

        let mut off = Tracer::new(false);
        let s = off.begin("x");
        off.end(s);
        assert!(off.spans().is_empty());
    }
}
