//! Observability substrate: metrics registry and query tracing.
//!
//! The paper's entire Section 5 evaluation is an observability exercise —
//! per-query I/O ledgers, Threshold-Algorithm round counts, and the
//! RDIL→DIL switch decision of Figures 10–11. This crate provides the
//! machinery the rest of the workspace uses to *see* that behaviour in a
//! running engine instead of only in offline experiments:
//!
//! * [`MetricsRegistry`] — named atomic counters, gauges, and fixed-bucket
//!   latency histograms with a typed [`MetricsRegistry::snapshot`] and a
//!   Prometheus text exposition
//!   ([`MetricsRegistry::render_prometheus`]). Handles are pre-resolvable
//!   (`Arc`-shared atomic cells), so the hot query path records events
//!   without any lock or map lookup. A disabled registry
//!   ([`MetricsRegistry::set_enabled`]) reduces every recording call to
//!   one relaxed load and a branch.
//! * [`QueryTrace`] — a per-query span/event recorder the query
//!   processors fill with per-stage timings (tokenize, list open, the
//!   Dewey-stack merge, TA rounds with their threshold values, B+-tree
//!   longest-common-prefix probes, range scans) and discrete decisions
//!   (the HDIL switch with both time estimates that drove it). A disabled
//!   trace records nothing and costs one branch per call site.
//! * [`FlightRecorder`] — an always-on bounded ring of recent finished
//!   [`Trace`]s from foreground queries *and* background pipeline work
//!   (commits, compactions, manifest swaps, GC, recovery), tagged with
//!   [`OpKind`], outcome, thread identity, and a start time on a shared
//!   epoch. Notable ops (slow / errored / degraded / cancelled, and all
//!   background work) are always kept; normal queries are sampled 1-in-N.
//! * [`render_chrome_trace`] — Chrome trace-event JSON export of flight
//!   records, loadable in `ui.perfetto.dev`: one track per thread, a span
//!   per operation and per stage occurrence, instants for discrete
//!   decisions. [`validate_chrome_trace`] structurally checks such a file
//!   (required fields, strict per-track span nesting) without any JSON
//!   dependency.
//!
//! Zero external dependencies, consistent with the workspace's offline
//! shims policy: everything here is `std` + atomics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod recorder;
mod registry;
mod trace;
mod trace_json;

pub use recorder::{FlightRecord, FlightRecorder, OpKind, OpOutcome, RecorderConfig};
pub use registry::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot,
    LATENCY_BUCKETS_US,
};
pub use trace::{
    DegradeReason, EventData, QueryTrace, Span, SpanRecord, Stage, StageTiming, SwitchClock,
    SwitchReason, Trace, TraceEvent,
};
pub use trace_json::{
    json_escape, render_chrome_trace, render_chrome_trace_normalized, validate_chrome_trace,
    TraceCheck, TrackSummary,
};
