//! Spans recorded by the benchmark around its own calls into the layers:
//! held in memory while the rig runs, analysed and written out at exit.

use crate::json::{obj, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// Layer of the spans that frame an operation rather than time a layer.
pub const RIG: &str = "bench";

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for an operation's root.
    pub parent: Option<usize>,
    /// Shared by every span of one operation.
    pub op_id: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Single-threaded span recorder (the rig drives one call at a time).
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    ops: u32,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            ops: 0,
        }
    }

    /// A tracer that records nothing: `span` just runs its body. Untraced
    /// runs drive the same code through this.
    pub fn disabled() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `body` inside a span. A span opened while none is open starts
    /// a new operation.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        body: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return body(self);
        }
        let parent = self.open.last().copied();
        let op_id = match parent {
            Some(p) => self.spans[p].op_id,
            None => {
                self.ops += 1;
                self.ops
            }
        };
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns: start_ns,
            parent,
            op_id,
        });
        self.open.push(index);
        let result = body(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        result
    }

    /// A span around a call that opens no spans of its own.
    pub fn leaf<R>(
        &mut self,
        name: &'static str,
        layer: &'static str,
        call: impl FnOnce() -> R,
    ) -> R {
        self.span(name, layer, |_| call())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every finished span called `name`, in order.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Total seconds spent in spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_ns(name).iter().sum::<f64>() / 1e9
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (start, end) in intervals {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Self time of each span: its duration minus the part of that interval
/// its direct children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, kids)| span.duration_ns() - covered(kids, span.start_ns, span.end_ns))
        .collect()
}

/// Per layer: `(self seconds, spans)`.
pub fn layer_table(spans: &[Span]) -> BTreeMap<&'static str, (f64, usize)> {
    let mut table: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times_ns(spans)) {
        let row = table.entry(span.layer).or_default();
        row.0 += self_ns as f64 / 1e9;
        row.1 += 1;
    }
    table
}

/// Share of operation wall time covered by layer spans, per operation
/// name: the union of an operation's non-[`RIG`] spans over its root
/// span, summed over the operations of that name.
pub fn coverage_by_operation(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut layer_spans: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.layer != RIG) {
        layer_spans
            .entry(span.op_id)
            .or_default()
            .push((span.start_ns, span.end_ns));
    }
    let mut totals: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for root in spans.iter().filter(|s| s.parent.is_none()) {
        let inside = layer_spans.remove(&root.op_id).unwrap_or_default();
        let row = totals.entry(root.name).or_default();
        row.0 += covered(inside, root.start_ns, root.end_ns);
        row.1 += root.duration_ns();
    }
    totals
        .into_iter()
        .filter(|(_, (_, wall))| *wall > 0)
        .map(|(name, (inside, wall))| (name, inside as f64 / wall as f64))
        .collect()
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
/// event per span on a single track, category = layer.
pub fn chrome_trace(spans: &[Span], track: &str) -> Value {
    let mut events = vec![obj([
        ("name", "thread_name".into()),
        ("ph", "M".into()),
        ("pid", 1.0.into()),
        ("tid", 1.0.into()),
        ("args", obj([("name", track.into())])),
    ])];
    events.extend(spans.iter().map(|span| {
        obj([
            ("name", span.name.into()),
            ("cat", span.layer.into()),
            ("ph", "X".into()),
            ("ts", (span.start_ns as f64 / 1e3).into()),
            ("dur", (span.duration_ns() as f64 / 1e3).into()),
            ("pid", 1.0.into()),
            ("tid", 1.0.into()),
            ("args", obj([("op", f64::from(span.op_id).into())])),
        ])
    }));
    obj([
        ("traceEvents", Value::Arr(events)),
        ("displayTimeUnit", "ns".into()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        layer: &'static str,
        start: u64,
        end: u64,
        parent: Option<usize>,
    ) -> Span {
        Span {
            name,
            layer,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = vec![
            span("op", RIG, 0, 100, None),
            span("a", "xml", 10, 40, Some(0)),   // adjacent to b
            span("b", "graph", 40, 70, Some(0)), // has a nested child
            span("c", "rank", 45, 55, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 30, 20, 10]);
        let table = layer_table(&spans);
        assert_eq!(table[RIG], (40e-9, 1));
        assert_eq!(table["graph"], (20e-9, 1));
        let total: f64 = table.values().map(|row| row.0).sum();
        assert!(
            (total - 100e-9).abs() < 1e-15,
            "self times add up to the root"
        );
    }

    #[test]
    fn overlapping_children_are_not_subtracted_twice() {
        let spans = vec![
            span("op", RIG, 0, 100, None),
            span("a", "xml", 10, 60, Some(0)),
            span("b", "xml", 50, 120, Some(0)), // overlaps a and overruns the parent
        ];
        assert_eq!(self_times_ns(&spans)[0], 10);
    }

    #[test]
    fn coverage_is_layer_time_over_root_time() {
        let mut spans = vec![
            span("ingest", RIG, 0, 100, None),
            span("parse", "xml", 0, 50, Some(0)),
            span("frame", RIG, 50, 100, Some(0)),
            span("build", "graph", 60, 100, Some(2)),
        ];
        spans.push(Span {
            op_id: 2,
            ..span("query", RIG, 200, 300, None)
        });
        let coverage = coverage_by_operation(&spans);
        assert!((coverage["ingest"] - 0.9).abs() < 1e-12);
        assert_eq!(coverage["query"], 0.0);
    }

    #[test]
    fn tracer_nests_and_numbers_operations() {
        let mut t = Tracer::new();
        t.span("op", RIG, |t| {
            t.leaf("inner", "xml", || std::hint::black_box(1 + 1));
            t.span("mid", "graph", |t| t.leaf("deep", "rank", || ()));
        });
        t.leaf("solo", "query", || ());
        let s = t.spans();
        assert_eq!(s.len(), 5);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[3].parent, Some(2));
        assert_eq!(s[4].parent, None);
        assert_eq!((s[0].op_id, s[3].op_id, s[4].op_id), (1, 1, 2));
        assert!(s[0].start_ns <= s[1].start_ns && s[3].end_ns <= s[0].end_ns);
        assert_eq!(t.durations_ns("inner").len(), 1);

        let mut off = Tracer::disabled();
        assert_eq!(off.span("op", RIG, |t| t.leaf("inner", "xml", || 7)), 7);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn chrome_trace_passes_the_engines_validator() {
        let mut t = Tracer::new();
        t.span("op", RIG, |t| {
            t.leaf("a", "xml", || ());
            t.leaf("b", "graph", || ());
        });
        let text = chrome_trace(t.spans(), "rig").render();
        let check = xrank::validate_chrome_trace(&text).expect("valid trace");
        assert_eq!(check.events, 4);
        assert!(check.has_cat("xml") && check.has_track("rig"));
    }
}
