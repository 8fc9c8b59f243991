//! The flight recorder: a bounded, always-on ring of finished traces.
//!
//! Queries record rich per-stage [`Trace`]s (PR 4), and the update
//! pipeline's commits and compactions do too — but until now a finished
//! trace either rode back to the one caller that asked for it or was
//! dropped on the floor. The [`FlightRecorder`] retains the recent past
//! continuously, like an aircraft flight recorder: every finished
//! operation — foreground query or background commit / compaction /
//! manifest swap / GC / recovery — lands in a bounded ring, tagged with
//! its [`OpKind`], its outcome, the thread it ran on, and a start time
//! anchored to the recorder's shared epoch so operations from different
//! threads can be correlated on one timeline.
//!
//! Retention is two-tier. **Notable** operations — anything that errored,
//! degraded, was cancelled, ran over its slowness threshold, or is a rare
//! background op (non-[`OpKind::Query`]) — always enter their own ring,
//! so a flood of fast queries can never evict the one slow compaction
//! you are hunting. **Normal** queries are sampled one-in-N
//! ([`RecorderConfig::sample_one_in`]) into a second ring. Both rings are
//! small `VecDeque`s behind one mutex that is only taken when a record is
//! actually kept; the common disabled/unsampled path is an atomic load
//! (plus one `fetch_add` for the sampling counter).
//!
//! [`crate::render_chrome_trace`] turns [`FlightRecorder::records`] into
//! Chrome trace-event JSON loadable in `ui.perfetto.dev`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::trace::Trace;

/// What kind of operation a [`FlightRecord`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// A foreground query evaluation.
    Query,
    /// Sealing staged documents into a new segment and publishing it.
    Commit,
    /// A background fold of segments (tombstone GC + rank rebuild).
    Compaction,
    /// A manifest publish that did not build a segment (e.g. a delete).
    ManifestSwap,
    /// Post-publish garbage collection of superseded generations.
    Gc,
    /// Opening a published snapshot (manifest load + segment reopen).
    Recovery,
    /// An admission-control shed decision (instant, no duration).
    Shed,
    /// A background integrity-scrub pass over sealed segment pages.
    Scrub,
    /// Rebuilding a quarantined segment from its document sidecar.
    Repair,
}

impl OpKind {
    /// Stable snake_case name (the `cat` field of exported trace events).
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Query => "query",
            OpKind::Commit => "commit",
            OpKind::Compaction => "compaction",
            OpKind::ManifestSwap => "manifest_swap",
            OpKind::Gc => "gc",
            OpKind::Recovery => "recovery",
            OpKind::Shed => "shed",
            OpKind::Scrub => "scrub",
            OpKind::Repair => "repair",
        }
    }
}

/// How an operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpOutcome {
    /// Completed normally.
    Ok,
    /// Completed, but stopped early and returned partial results.
    Degraded,
    /// Failed with an error.
    Error,
    /// Cancelled (e.g. a compaction interrupted by shutdown).
    Cancelled,
}

impl OpOutcome {
    /// Stable name for rendering.
    pub fn name(self) -> &'static str {
        match self {
            OpOutcome::Ok => "ok",
            OpOutcome::Degraded => "degraded",
            OpOutcome::Error => "error",
            OpOutcome::Cancelled => "cancelled",
        }
    }
}

/// Retention and sampling policy for a [`FlightRecorder`].
#[derive(Debug, Clone, PartialEq)]
pub struct RecorderConfig {
    /// Master switch. Disabled, every recording call is one atomic load.
    pub enabled: bool,
    /// Ring capacity for sampled normal-outcome queries.
    pub normal_capacity: usize,
    /// Ring capacity for notable records (slow / errored / degraded /
    /// cancelled ops and all background work).
    pub notable_capacity: usize,
    /// Keep one in this many normal-outcome queries (1 = keep all).
    pub sample_one_in: u64,
    /// A query at or over this wall time is notable (kept unsampled).
    pub slow_query: Duration,
    /// A background op at or over this wall time is flagged slow.
    pub slow_op: Duration,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig {
            enabled: true,
            normal_capacity: 256,
            notable_capacity: 64,
            sample_one_in: 1,
            slow_query: Duration::from_millis(100),
            slow_op: Duration::from_millis(250),
        }
    }
}

/// One retained operation: identity, placement on the shared timeline,
/// and the full finished [`Trace`].
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecord {
    /// Monotone admission sequence number (total order across threads).
    pub seq: u64,
    /// What kind of operation this was.
    pub kind: OpKind,
    /// Human-readable label (query text, segment id, manifest seq…).
    pub label: String,
    /// Name of the thread the operation ran on (its exporter track).
    pub thread: String,
    /// Start offset from the recorder epoch, in nanoseconds. Kept at
    /// nanosecond precision so sequential ops on one thread never appear
    /// to overlap after the exporter's microsecond rendering.
    pub start_ns: u64,
    /// How the operation ended.
    pub outcome: OpOutcome,
    /// Whether the operation ran over its kind's slowness threshold.
    pub slow: bool,
    /// The finished trace (empty for instant records like sheds).
    pub trace: Trace,
}

impl FlightRecord {
    /// Whether this record is retained unconditionally (see module docs).
    pub fn is_notable(&self) -> bool {
        self.outcome != OpOutcome::Ok || self.kind != OpKind::Query || self.slow
    }
}

/// The bounded ring of recent operations (see the module docs).
#[derive(Debug)]
pub struct FlightRecorder {
    config: RecorderConfig,
    epoch: Instant,
    enabled: AtomicBool,
    seq: AtomicU64,
    sample: AtomicU64,
    dropped: AtomicU64,
    rings: Mutex<Rings>,
}

#[derive(Debug, Default)]
struct Rings {
    notable: VecDeque<FlightRecord>,
    normal: VecDeque<FlightRecord>,
}

impl FlightRecorder {
    /// A recorder with the given policy; the epoch is `Instant::now()`.
    pub fn new(config: RecorderConfig) -> Self {
        let enabled = AtomicBool::new(config.enabled);
        FlightRecorder {
            config,
            epoch: Instant::now(),
            enabled,
            seq: AtomicU64::new(0),
            sample: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            rings: Mutex::new(Rings::default()),
        }
    }

    /// A permanently-quiet recorder (for contexts that share a parent's).
    pub fn disabled() -> Self {
        Self::new(RecorderConfig { enabled: false, ..RecorderConfig::default() })
    }

    /// Whether operations should trace themselves for this recorder.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Flips recording on or off at runtime (retained records stay).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// The retention policy this recorder was built with.
    pub fn config(&self) -> &RecorderConfig {
        &self.config
    }

    /// The shared epoch all `start_ns` offsets are anchored to.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Offers a finished operation to the rings. The record takes the
    /// trace and the label by value, so keeping it copies nothing; a
    /// caller that also hands the trace back to its own caller (an
    /// explicitly traced query) pays the one clone. `start` is the
    /// operation's own clock anchor (usually `QueryTrace::origin`),
    /// translated onto the recorder epoch here. A record evicted to make
    /// room is dropped after the ring mutex is released.
    pub fn record(
        &self,
        kind: OpKind,
        label: String,
        start: Instant,
        outcome: OpOutcome,
        trace: Trace,
    ) {
        if !self.is_enabled() {
            return;
        }
        let threshold = if kind == OpKind::Query {
            self.config.slow_query
        } else {
            self.config.slow_op
        };
        let slow = trace.total >= threshold;
        let notable = outcome != OpOutcome::Ok || kind != OpKind::Query || slow;
        if !notable {
            let n = self.sample.fetch_add(1, Ordering::Relaxed);
            if self.config.sample_one_in > 1 && !n.is_multiple_of(self.config.sample_one_in) {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        let record = FlightRecord {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            kind,
            label,
            thread: current_thread_label(),
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            outcome,
            slow,
            trace,
        };
        let evicted = {
            let mut rings = self.rings.lock().unwrap_or_else(|p| p.into_inner());
            let (ring, cap) = if notable {
                (&mut rings.notable, self.config.notable_capacity)
            } else {
                (&mut rings.normal, self.config.normal_capacity)
            };
            // Rings never exceed their capacity, so at most one goes.
            let evicted = if ring.len() >= cap.max(1) { ring.pop_front() } else { None };
            ring.push_back(record);
            evicted
        };
        if evicted.is_some() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a zero-duration decision point (e.g. a shed) as of now.
    pub fn instant(&self, kind: OpKind, label: &str) {
        self.record(kind, label.to_string(), Instant::now(), OpOutcome::Ok, Trace::default());
    }

    /// Every retained record, merged across both rings and ordered by
    /// start time on the shared timeline (ties by admission order).
    pub fn records(&self) -> Vec<FlightRecord> {
        let rings = self.rings.lock().unwrap_or_else(|p| p.into_inner());
        let mut all: Vec<FlightRecord> =
            rings.notable.iter().chain(rings.normal.iter()).cloned().collect();
        all.sort_by_key(|r| (r.start_ns, r.seq));
        all
    }

    /// Records evicted or sampled away since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Current ring occupancy `(notable, normal)`.
    pub fn depth(&self) -> (usize, usize) {
        let rings = self.rings.lock().unwrap_or_else(|p| p.into_inner());
        (rings.notable.len(), rings.normal.len())
    }

    /// Empties both rings (the drop/sample counters keep their history).
    pub fn clear(&self) {
        let mut rings = self.rings.lock().unwrap_or_else(|p| p.into_inner());
        rings.notable.clear();
        rings.normal.clear();
    }
}

/// The current thread's track label: its name, or a stable id-derived
/// fallback for unnamed threads. Computed once per thread.
fn current_thread_label() -> String {
    thread_local! {
        static LABEL: String = {
            let t = std::thread::current();
            match t.name() {
                Some(name) => name.to_string(),
                None => format!("thread-{:?}", t.id()),
            }
        };
    }
    LABEL.with(String::clone)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{QueryTrace, Stage};

    fn quick_trace(ms: u64) -> Trace {
        let t = QueryTrace::enabled();
        t.add_count(Stage::Tokenize, 1);
        let mut done = t.finish();
        done.total = Duration::from_millis(ms);
        done
    }

    #[test]
    fn notable_ops_survive_a_query_flood() {
        let r = FlightRecorder::new(RecorderConfig {
            normal_capacity: 4,
            notable_capacity: 4,
            ..RecorderConfig::default()
        });
        let start = Instant::now();
        r.record(OpKind::Commit, "commit seg-1".into(), start, OpOutcome::Ok, quick_trace(1));
        for i in 0..100 {
            r.record(OpKind::Query, format!("q{i}"), start, OpOutcome::Ok, quick_trace(1));
        }
        let records = r.records();
        assert!(records.iter().any(|r| r.kind == OpKind::Commit));
        assert_eq!(records.iter().filter(|r| r.kind == OpKind::Query).count(), 4);
        assert!(r.dropped() >= 96);
    }

    #[test]
    fn slow_errored_and_degraded_queries_are_notable() {
        let r = FlightRecorder::new(RecorderConfig::default());
        let start = Instant::now();
        r.record(OpKind::Query, "slow".into(), start, OpOutcome::Ok, quick_trace(500));
        r.record(OpKind::Query, "err".into(), start, OpOutcome::Error, quick_trace(1));
        r.record(OpKind::Query, "deg".into(), start, OpOutcome::Degraded, quick_trace(1));
        r.record(OpKind::Query, "fast".into(), start, OpOutcome::Ok, quick_trace(1));
        let records = r.records();
        for rec in &records {
            let expect = rec.label != "fast";
            assert_eq!(rec.is_notable(), expect, "label {}", rec.label);
        }
        assert_eq!(r.depth(), (3, 1));
    }

    #[test]
    fn sampling_keeps_one_in_n_normal_queries() {
        let r = FlightRecorder::new(RecorderConfig {
            sample_one_in: 10,
            normal_capacity: 1000,
            ..RecorderConfig::default()
        });
        let start = Instant::now();
        for i in 0..100 {
            r.record(OpKind::Query, format!("q{i}"), start, OpOutcome::Ok, quick_trace(1));
        }
        assert_eq!(r.records().len(), 10);
        // Sampling never applies to background ops.
        for _ in 0..5 {
            r.record(OpKind::Commit, "c".into(), start, OpOutcome::Ok, quick_trace(1));
        }
        assert_eq!(r.records().len(), 15);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let r = FlightRecorder::disabled();
        r.record(OpKind::Query, "q".into(), Instant::now(), OpOutcome::Ok, quick_trace(1));
        r.instant(OpKind::Shed, "shed");
        assert!(r.records().is_empty());
        r.set_enabled(true);
        r.instant(OpKind::Shed, "shed");
        assert_eq!(r.records().len(), 1);
    }

    #[test]
    fn records_are_ordered_by_start_then_admission() {
        let r = FlightRecorder::new(RecorderConfig::default());
        let t0 = Instant::now();
        let t1 = t0 + Duration::from_millis(5);
        r.record(OpKind::Query, "later".into(), t1, OpOutcome::Ok, quick_trace(1));
        r.record(OpKind::Commit, "earlier".into(), t0, OpOutcome::Ok, quick_trace(1));
        let labels: Vec<String> = r.records().into_iter().map(|r| r.label).collect();
        assert_eq!(labels, ["earlier", "later"]);
    }
}
