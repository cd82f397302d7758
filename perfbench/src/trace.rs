//! An in-memory span recorder for the traced run.
//!
//! Spans are opened and closed around calls into the library's layers from
//! the benchmark's own code. They stay in memory and are written out once,
//! as Chrome Trace Event JSON (viewable offline in Perfetto or
//! `chrome://tracing`), when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// A finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id within the run.
    pub id: u64,
    /// The span that caused this one, if any.
    pub parent: Option<u64>,
    /// Shared by every span of one job (or one probe).
    pub trace: u64,
    /// Layer boundary the span covers, e.g. `core.enumerate`.
    pub name: &'static str,
    /// Start, in seconds since the recorder was created.
    pub start_s: f64,
    /// Duration in seconds.
    pub dur_s: f64,
    /// Charged block transfers during the span, where the benchmark holds
    /// the machine.
    pub io: Option<u64>,
    /// Charged work operations during the span, likewise.
    pub work: Option<u64>,
}

/// A span that has been opened and not yet closed.
#[derive(Debug)]
pub struct Open {
    id: Option<u64>,
    parent: Option<u64>,
    trace: u64,
    name: &'static str,
    start: Instant,
}

impl Open {
    /// The id children of this span name as their parent (`None` when the
    /// span is not recorded).
    pub fn id(&self) -> Option<u64> {
        self.id
    }
}

/// The recorder. When a span is opened with `record == false` it is only
/// timed: nothing is stored, so an untraced job pays for two clock reads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    next_id: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            next_id: 1,
        }
    }

    /// Opens a span; `record` decides whether closing it stores it.
    pub fn open(
        &mut self,
        record: bool,
        name: &'static str,
        parent: Option<u64>,
        trace: u64,
    ) -> Open {
        let id = record.then(|| {
            let id = self.next_id;
            self.next_id += 1;
            id
        });
        Open {
            id,
            parent,
            trace,
            name,
            start: Instant::now(),
        }
    }

    /// Closes `open` and returns its duration in seconds. `counters` is the
    /// `(charged transfers, work operations)` delta over the span, when known.
    pub fn close(&mut self, open: Open, counters: Option<(u64, u64)>) -> f64 {
        let dur_s = open.start.elapsed().as_secs_f64();
        if let Some(id) = open.id {
            self.spans.push(Span {
                id,
                parent: open.parent,
                trace: open.trace,
                name: open.name,
                start_s: open.start.duration_since(self.epoch).as_secs_f64(),
                dur_s,
                io: counters.map(|c| c.0),
                work: counters.map(|c| c.1),
            });
        }
        dur_s
    }

    /// Every recorded span, in closing order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as a Chrome Trace Event JSON document: one complete (`X`)
    /// event per span, one thread row per trace id.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{}",
                s.name,
                s.trace,
                s.start_s * 1e6,
                s.dur_s * 1e6,
                s.id
            );
            if let Some(p) = s.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            if let Some(io) = s.io {
                let _ = write!(out, ",\"io\":{io}");
            }
            if let Some(work) = s.work {
                let _ = write!(out, ",\"work\":{work}");
            }
            out.push_str("}}");
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unrecorded_spans_are_timed_but_not_stored() {
        let mut t = Tracer::new();
        let open = t.open(false, "x", None, 0);
        assert!(open.id().is_none());
        assert!(t.close(open, None) >= 0.0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn recorded_spans_keep_parent_and_counters() {
        let mut t = Tracer::new();
        let root = t.open(true, "job", None, 7);
        let child = t.open(true, "core.enumerate", root.id(), 7);
        t.close(child, Some((12, 34)));
        t.close(root, None);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, Some(spans[1].id));
        assert_eq!((spans[0].io, spans[0].work), (Some(12), Some(34)));
        let json = t.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":[{\"name\":\"core.enumerate\""));
        assert!(json.contains("\"io\":12"));
    }
}
