//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end, the span that caused it and, for
//! served requests, the request id. Spans stay in memory and are written
//! out once, when the run ends; self time is derived from them then. When
//! tracing is off, [`Tracer::span`] returns an inert guard and records
//! nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Unique id (ids start at 1; 0 means "no parent").
    pub id: u64,
    /// Id of the span that caused this one, or 0.
    pub parent: u64,
    /// Layer call the span covers.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Request id for served requests, else 0.
    pub request: u64,
}

/// Span recorder shared by every thread of one run.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    // ordering: Relaxed — a unique-id counter; it publishes no other data.
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An open span; records itself when dropped.
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    request: u64,
}

impl SpanGuard<'_> {
    /// Id to pass as the parent of child spans (0 when tracing is off).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if self.id != 0 {
            let end_ns = self.tracer.now_ns();
            self.tracer.push(Span {
                id: self.id,
                parent: self.parent,
                name: self.name,
                start_ns: self.start_ns,
                end_ns,
                request: self.request,
            });
        }
    }
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// `true` when spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the tracer's creation to `t`.
    fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("a thread panicked while recording a span").push(span);
    }

    /// Opens a span under `parent` (0 for a root span).
    pub fn span(&self, name: &'static str, parent: u64) -> SpanGuard<'_> {
        let id = if self.enabled { self.next_id.fetch_add(1, Ordering::Relaxed) } else { 0 };
        let start_ns = if self.enabled { self.now_ns() } else { 0 };
        SpanGuard { tracer: self, id, parent, name, start_ns, request: 0 }
    }

    /// Records a span whose endpoints were measured elsewhere (a served
    /// request runs from its due time to the arrival of its response).
    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            self.push(Span {
                id,
                parent,
                name,
                start_ns: self.at(start),
                end_ns: self.at(end),
                request,
            });
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("a thread panicked while recording a span").clone()
    }
}

/// Per-name totals: `(count, total ns, self ns)`, where a span's self time
/// is its duration minus the part of it covered by its children.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let total = s.end_ns.saturating_sub(s.start_ns);
        let covered = children.get_mut(&s.id).map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += total;
        e.2 += total.saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`. Children of a
/// served run overlap, so they are merged rather than summed.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(cursor), end.min(hi));
        if end > start {
            covered += end - start;
            cursor = end;
        }
    }
    covered
}

/// The spans and their per-name self times as one JSON document.
pub fn to_json(spans: &[Span], header: &str) -> String {
    let mut out = String::new();
    let _ = write!(out, "{{{header},\"self_time\":{{");
    for (i, (name, (count, total, own))) in self_times(spans).iter().enumerate() {
        let comma = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{comma}\"{name}\":{{\"count\":{count},\"total_ns\":{total},\"self_ns\":{own}}}"
        );
    }
    out.push_str("},\"spans\":[");
    for (i, s) in spans.iter().enumerate() {
        let comma = if i == 0 { "" } else { "," };
        let _ = write!(
            out,
            "{comma}\n{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"request\":{}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns, s.request
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name, start_ns, end_ns, request: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, "run", 0, 100),
            // Two overlapping children cover [10, 50]; a third covers [60, 70].
            span(2, 1, "req", 10, 40),
            span(3, 1, "req", 30, 50),
            span(4, 1, "req", 60, 70),
            span(5, 4, "check", 62, 64),
        ];
        let t = self_times(&spans);
        assert_eq!(t["run"], (1, 100, 50));
        assert_eq!(t["req"], (3, 60, 58));
        assert_eq!(t["check"], (1, 2, 2));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        {
            let g = tracer.span("x", 0);
            assert_eq!(g.id(), 0);
        }
        assert!(tracer.spans().is_empty());
        let tracer = Tracer::new(true);
        {
            let outer = tracer.span("outer", 0);
            let _inner = tracer.span("inner", outer.id());
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].parent, spans[1].id);
    }
}
