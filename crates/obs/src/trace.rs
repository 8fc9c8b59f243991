//! Per-query span/event tracing.
//!
//! A [`QueryTrace`] travels with one query evaluation. Processors record
//! two kinds of data into it:
//!
//! * **stage timings** — aggregated `(count, total duration)` per
//!   [`Stage`], recorded either with a scoped [`Span`] (times the enclosed
//!   work) or [`QueryTrace::bump`] (counts an occurrence without timing
//!   it, for per-probe call sites too hot to clock individually when the
//!   trace is the only consumer);
//! * **events** — discrete decisions with payloads ([`EventData`]): a TA
//!   round with its threshold value, the HDIL switch decision with both
//!   time estimates, a stage annotation.
//!
//! The trace uses interior mutability (`RefCell`) so a single `&QueryTrace`
//! can be threaded through deeply nested evaluation code — including the
//! resumable `RdilRun` that both the RDIL and HDIL processors drive —
//! without mutable-borrow gymnastics. A query runs on exactly one thread,
//! so no synchronisation is needed; the finished, immutable [`Trace`] is
//! `Send + Sync` and rides inside the query's results.
//!
//! A disabled trace ([`QueryTrace::disabled`]) records nothing: every
//! recording call is one bool check, and no `Instant::now()` is taken.

use std::cell::RefCell;
use std::time::{Duration, Instant};

/// Cap on discrete events retained per query (TA rounds on a huge
/// low-correlation scan could otherwise balloon); overflow increments
/// [`Trace::dropped_events`] instead of growing the buffer.
const MAX_EVENTS: usize = 4096;

/// Cap on individual timeline spans retained per trace. Aggregates
/// ([`StageTiming`]) keep counting past this; only the per-occurrence
/// timeline needed by the Chrome-trace exporter is bounded. Overflow
/// increments [`Trace::dropped_spans`].
const MAX_SPANS: usize = 2048;

/// The instrumented stages of the serving path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Stage {
    /// Query-string tokenization and vocabulary lookup (engine).
    Tokenize,
    /// Opening posting-list readers / fetching list metadata.
    ListOpen,
    /// The Figure 5 Dewey-stack merge loop (DIL; also HDIL's fallback).
    DeweyMerge,
    /// The Figure 7 Threshold-Algorithm loop (RDIL; HDIL's first phase).
    TaLoop,
    /// One TA round (a full round-robin cycle over the keyword lists).
    TaRound,
    /// A B+-tree longest-common-prefix probe (`lowest_geq`).
    BtreeProbe,
    /// A probe answered from the per-term gap memo (no list access; HDIL).
    ProbeMemoHit,
    /// A probe served by a cursor seeking forward from its pinned leaf.
    CursorSeek,
    /// A probe served by a cursor's backward sibling walk.
    CursorSeekBack,
    /// A probe that fell back to a full root-to-leaf re-descent.
    CursorDescent,
    /// A Dewey-prefix range scan scoring a candidate.
    RangeScan,
    /// A hash-index membership probe (Naive-Rank).
    HashProbe,
    /// The Naive-ID equality merge-join loop.
    MergeJoin,
    /// The disjunctive ranked-union merge loop.
    UnionMerge,
    /// The HDIL adaptive switch decision point.
    SwitchDecision,
    /// The DIL fallback run after an HDIL switch.
    DilFallback,
    /// Result presentation: answer-node promotion, snippets (engine).
    Present,
    /// The evaluation stopped early (deadline or I/O budget) and returned
    /// a partial result.
    Degraded,
    /// Building and sealing a new immutable index segment (update pipeline).
    SegmentBuild,
    /// Writing + publishing a new manifest generation (the snapshot swap).
    ManifestSwap,
    /// Folding segments together during compaction (tombstone GC, link
    /// re-resolution, warm-started ElemRank).
    CompactMerge,
    /// Garbage-collecting superseded manifest generations and segment
    /// directories after a publish.
    Gc,
    /// Recovering a published snapshot at open (manifest load, segment
    /// reopen, startup GC).
    Recovery,
    /// Buffer-pool I/O accounting attached to a query (read counts,
    /// breaker/retry activity observed while it ran).
    PoolIo,
    /// Appending (and possibly fsyncing) a record to the write-ahead log
    /// before a mutation is acknowledged.
    WalAppend,
    /// A background integrity-scrub pass re-reading sealed segment pages
    /// against their checksums.
    Scrub,
    /// Rebuilding a quarantined segment from its document sidecar and
    /// republishing it.
    Repair,
}

impl Stage {
    /// Number of stages (sizes the aggregation table).
    pub const COUNT: usize = 27;

    const ALL: [Stage; Stage::COUNT] = [
        Stage::Tokenize,
        Stage::ListOpen,
        Stage::DeweyMerge,
        Stage::TaLoop,
        Stage::TaRound,
        Stage::BtreeProbe,
        Stage::ProbeMemoHit,
        Stage::CursorSeek,
        Stage::CursorSeekBack,
        Stage::CursorDescent,
        Stage::RangeScan,
        Stage::HashProbe,
        Stage::MergeJoin,
        Stage::UnionMerge,
        Stage::SwitchDecision,
        Stage::DilFallback,
        Stage::Present,
        Stage::Degraded,
        Stage::SegmentBuild,
        Stage::ManifestSwap,
        Stage::CompactMerge,
        Stage::Gc,
        Stage::Recovery,
        Stage::PoolIo,
        Stage::WalAppend,
        Stage::Scrub,
        Stage::Repair,
    ];

    /// Stable snake_case name (used in EXPLAIN output and tests).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Tokenize => "tokenize",
            Stage::ListOpen => "list_open",
            Stage::DeweyMerge => "dewey_merge",
            Stage::TaLoop => "ta_loop",
            Stage::TaRound => "ta_round",
            Stage::BtreeProbe => "btree_probe",
            Stage::ProbeMemoHit => "probe_memo_hit",
            Stage::CursorSeek => "cursor_seek",
            Stage::CursorSeekBack => "cursor_seek_back",
            Stage::CursorDescent => "cursor_descent",
            Stage::RangeScan => "range_scan",
            Stage::HashProbe => "hash_probe",
            Stage::MergeJoin => "merge_join",
            Stage::UnionMerge => "union_merge",
            Stage::SwitchDecision => "switch_decision",
            Stage::DilFallback => "dil_fallback",
            Stage::Present => "present",
            Stage::Degraded => "degraded",
            Stage::SegmentBuild => "segment_build",
            Stage::ManifestSwap => "manifest_swap",
            Stage::CompactMerge => "compact_merge",
            Stage::Gc => "gc",
            Stage::Recovery => "recovery",
            Stage::PoolIo => "pool_io",
            Stage::WalAppend => "wal_append",
            Stage::Scrub => "scrub",
            Stage::Repair => "repair",
        }
    }
}

/// Why HDIL left (or stayed on) the RDIL phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchReason {
    /// The estimated remaining RDIL cost exceeded the a-priori DIL cost.
    EstimateExceeded,
    /// No result confirmed yet and the no-progress budget (a fraction of
    /// the DIL estimate) was spent.
    NoProgressBudget,
    /// A rank-sorted prefix drained before the TA condition fired (HDIL
    /// stores only a fraction of each list in rank order).
    PrefixExhausted,
    /// The query's I/O budget is too small to afford the random-probe
    /// RDIL phase at all, so HDIL went straight to its DIL fallback.
    BudgetPressure,
}

impl SwitchReason {
    /// Stable name for rendering.
    pub fn name(self) -> &'static str {
        match self {
            SwitchReason::EstimateExceeded => "estimate_exceeded",
            SwitchReason::NoProgressBudget => "no_progress_budget",
            SwitchReason::PrefixExhausted => "prefix_exhausted",
            SwitchReason::BudgetPressure => "budget_pressure",
        }
    }
}

/// Which resource HDIL's Section 4.4.2 monitor measured "time" in — the
/// unit of a switch decision's `spent`, `rdil_remaining` and
/// `dil_estimate`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwitchClock {
    /// Simulated I/O cost of the pool ledger under the engine's cost
    /// model, against the a-priori page-count estimate of a DIL scan: the
    /// RDIL phase has paid for at least one physical read.
    Io,
    /// Postings decoded, against the entry count of the keywords' full
    /// lists: every page the RDIL phase touched was already cached, so
    /// the I/O ledger has nothing to say.
    Work,
}

impl SwitchClock {
    /// Stable name for rendering.
    pub fn name(self) -> &'static str {
        match self {
            SwitchClock::Io => "io",
            SwitchClock::Work => "work",
        }
    }
}

/// What made an evaluation stop early and return a partial result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeReason {
    /// The query's deadline (relative timeout or absolute `deadline_at`)
    /// elapsed with `allow_partial` set.
    Deadline,
    /// The query's logical-read budget (`QueryOptions::io_budget`) was
    /// exhausted with `allow_partial` set.
    IoBudget,
    /// One or more segments were quarantined by the integrity scrubber,
    /// so the answer covers only the healthy segments.
    Quarantined,
}

impl DegradeReason {
    /// Stable name for rendering and metric labels.
    pub fn name(self) -> &'static str {
        match self {
            DegradeReason::Deadline => "deadline",
            DegradeReason::IoBudget => "io_budget",
            DegradeReason::Quarantined => "quarantined",
        }
    }
}

/// Payload of a discrete trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum EventData {
    /// One Threshold-Algorithm progress point.
    TaRound {
        /// Entries consumed so far.
        entries: u64,
        /// The TA threshold after this round.
        threshold: f64,
        /// Results confirmed above the threshold so far.
        confirmed: usize,
    },
    /// The HDIL switch decision, with the quantities that drove it, all
    /// in the unit of `clock`.
    Switch {
        /// The resource the monitor measured.
        clock: SwitchClock,
        /// Spent in the RDIL phase so far.
        spent: f64,
        /// Estimated remaining RDIL cost (`(m-r)·t/r`), when computable.
        rdil_remaining: Option<f64>,
        /// The a-priori DIL cost estimate.
        dil_estimate: f64,
        /// Confirmed results at the decision point.
        confirmed: usize,
        /// What triggered the switch.
        reason: SwitchReason,
    },
    /// A labelled quantity (list sizes, entries scanned, hits emitted…).
    Count {
        /// What is being counted.
        what: &'static str,
        /// The count.
        n: u64,
    },
    /// The evaluation degraded: it stopped early and returned the best
    /// top-k accumulated so far.
    Degraded {
        /// What tripped the early stop.
        reason: DegradeReason,
    },
    /// A plain annotation.
    Note(&'static str),
}

/// One discrete event, stamped with its offset from the query start.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// The stage the event belongs to.
    pub stage: Stage,
    /// Offset from the start of the traced evaluation.
    pub at: Duration,
    /// Payload.
    pub data: EventData,
}

/// Aggregated timing for one stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct StageAgg {
    count: u64,
    total: Duration,
}

/// One concrete timed occurrence of a stage on the trace timeline
/// (recorded by [`Span`] guards; `bump`/`record` stay aggregate-only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// The stage.
    pub stage: Stage,
    /// Offset of the span start from the trace origin.
    pub at: Duration,
    /// How long the span ran.
    pub dur: Duration,
}

#[derive(Debug)]
struct TraceInner {
    stages: [StageAgg; Stage::COUNT],
    events: Vec<TraceEvent>,
    dropped: u64,
    spans: Vec<SpanRecord>,
    dropped_spans: u64,
}

/// The per-query recording handle (see the module docs).
#[derive(Debug)]
pub struct QueryTrace {
    enabled: bool,
    origin: Instant,
    inner: RefCell<TraceInner>,
}

impl QueryTrace {
    /// A recording trace.
    pub fn enabled() -> Self {
        Self::with_enabled(true)
    }

    /// A no-op trace: every recording call is one branch.
    pub fn disabled() -> Self {
        Self::with_enabled(false)
    }

    fn with_enabled(enabled: bool) -> Self {
        QueryTrace {
            enabled,
            origin: Instant::now(),
            inner: RefCell::new(TraceInner {
                stages: [StageAgg::default(); Stage::COUNT],
                events: Vec::new(),
                dropped: 0,
                spans: Vec::new(),
                dropped_spans: 0,
            }),
        }
    }

    /// Whether this trace records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The instant this trace was created — all span/event offsets are
    /// relative to it, so it anchors the trace on a shared timeline.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Opens a timing span for `stage`; the duration is recorded when the
    /// returned guard drops. On a disabled trace no clock is read.
    pub fn span(&self, stage: Stage) -> Span<'_> {
        Span {
            trace: self,
            stage,
            start: if self.enabled { Some(Instant::now()) } else { None },
        }
    }

    /// Records an occurrence of `stage` without timing it.
    pub fn bump(&self, stage: Stage) {
        if !self.enabled {
            return;
        }
        let mut inner = self.inner.borrow_mut();
        inner.stages[stage as usize].count += 1;
    }

    /// Records an explicit `(occurrence, duration)` for `stage`.
    pub fn record(&self, stage: Stage, dur: Duration) {
        if !self.enabled {
            return;
        }
        let mut inner = self.inner.borrow_mut();
        let agg = &mut inner.stages[stage as usize];
        agg.count += 1;
        agg.total += dur;
    }

    /// Records a closed span on the timeline and in the aggregates
    /// (called by the [`Span`] drop guard).
    fn record_span(&self, stage: Stage, start: Instant, dur: Duration) {
        let mut inner = self.inner.borrow_mut();
        let agg = &mut inner.stages[stage as usize];
        agg.count += 1;
        agg.total += dur;
        if inner.spans.len() >= MAX_SPANS {
            inner.dropped_spans += 1;
            return;
        }
        let at = start.saturating_duration_since(self.origin);
        inner.spans.push(SpanRecord { stage, at, dur });
    }

    /// Appends a discrete event (bounded; overflow counts as dropped).
    pub fn event(&self, stage: Stage, data: EventData) {
        if !self.enabled {
            return;
        }
        let at = self.origin.elapsed();
        let mut inner = self.inner.borrow_mut();
        if inner.events.len() >= MAX_EVENTS {
            inner.dropped += 1;
            return;
        }
        inner.events.push(TraceEvent { stage, at, data });
    }

    /// Finalises into an immutable, shareable [`Trace`].
    pub fn finish(self) -> Trace {
        let total = self.origin.elapsed();
        let inner = self.inner.into_inner();
        Trace {
            total,
            stages: Stage::ALL
                .iter()
                .filter_map(|&s| {
                    let agg = inner.stages[s as usize];
                    (agg.count > 0).then_some(StageTiming {
                        stage: s,
                        count: agg.count,
                        total: agg.total,
                    })
                })
                .collect(),
            events: inner.events,
            dropped_events: inner.dropped,
            spans: inner.spans,
            dropped_spans: inner.dropped_spans,
        }
    }
}

/// A scoped stage timer (see [`QueryTrace::span`]).
#[derive(Debug)]
pub struct Span<'a> {
    trace: &'a QueryTrace,
    stage: Stage,
    start: Option<Instant>,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.trace.record_span(self.stage, start, start.elapsed());
        }
    }
}

/// Aggregated timing of one stage in a finished [`Trace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageTiming {
    /// The stage.
    pub stage: Stage,
    /// Occurrences recorded.
    pub count: u64,
    /// Total time attributed (zero for untimed `bump`s).
    pub total: Duration,
}

/// An immutable, finished query trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    /// Wall time from trace creation to [`QueryTrace::finish`].
    pub total: Duration,
    /// Per-stage aggregates (only stages that occurred).
    pub stages: Vec<StageTiming>,
    /// Discrete events in record order.
    pub events: Vec<TraceEvent>,
    /// Events discarded beyond the per-query cap.
    pub dropped_events: u64,
    /// Individual timed spans in completion order (what the Chrome-trace
    /// exporter draws; aggregates above keep counting past the cap).
    pub spans: Vec<SpanRecord>,
    /// Spans discarded beyond the per-trace cap.
    pub dropped_spans: u64,
}

impl Trace {
    /// The aggregate for `stage`, if it occurred.
    pub fn stage(&self, stage: Stage) -> Option<StageTiming> {
        self.stages.iter().find(|t| t.stage == stage).copied()
    }

    /// Whether `stage` occurred at least once.
    pub fn has_stage(&self, stage: Stage) -> bool {
        self.stage(stage).is_some()
    }

    /// The set of stage names that occurred (for assertions and display).
    pub fn stage_names(&self) -> Vec<&'static str> {
        self.stages.iter().map(|t| t.stage.name()).collect()
    }

    /// The switch event, if the evaluation recorded one.
    pub fn switch_event(&self) -> Option<&TraceEvent> {
        self.events
            .iter()
            .find(|e| matches!(e.data, EventData::Switch { .. }))
    }

    /// The degradation event, if the evaluation stopped early.
    pub fn degraded_event(&self) -> Option<&TraceEvent> {
        self.events
            .iter()
            .find(|e| matches!(e.data, EventData::Degraded { .. }))
    }
}

// `Trace` must ride inside `SearchResults` across executor threads.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Trace>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let t = QueryTrace::disabled();
        {
            let _s = t.span(Stage::DeweyMerge);
        }
        t.bump(Stage::BtreeProbe);
        t.event(Stage::TaRound, EventData::Note("x"));
        let done = t.finish();
        assert!(done.stages.is_empty());
        assert!(done.events.is_empty());
    }

    #[test]
    fn spans_aggregate_per_stage() {
        let t = QueryTrace::enabled();
        for _ in 0..3 {
            let _s = t.span(Stage::BtreeProbe);
        }
        t.bump(Stage::BtreeProbe);
        t.record(Stage::RangeScan, Duration::from_micros(5));
        let done = t.finish();
        assert_eq!(done.stage(Stage::BtreeProbe).unwrap().count, 4);
        assert_eq!(done.stage(Stage::RangeScan).unwrap().total, Duration::from_micros(5));
        assert!(done.has_stage(Stage::RangeScan));
        assert!(!done.has_stage(Stage::DeweyMerge));
    }

    #[test]
    fn events_are_bounded() {
        let t = QueryTrace::enabled();
        for i in 0..(MAX_EVENTS as u64 + 10) {
            t.event(
                Stage::TaRound,
                EventData::TaRound { entries: i, threshold: 0.5, confirmed: 0 },
            );
        }
        let done = t.finish();
        assert_eq!(done.events.len(), MAX_EVENTS);
        assert_eq!(done.dropped_events, 10);
    }

    #[test]
    fn spans_build_a_bounded_timeline() {
        let t = QueryTrace::enabled();
        for _ in 0..(MAX_SPANS + 5) {
            let _s = t.span(Stage::BtreeProbe);
        }
        t.bump(Stage::BtreeProbe); // aggregate-only: no timeline entry
        let done = t.finish();
        assert_eq!(done.spans.len(), MAX_SPANS);
        assert_eq!(done.dropped_spans, 5);
        assert_eq!(done.stage(Stage::BtreeProbe).unwrap().count, MAX_SPANS as u64 + 6);
        // Spans complete in order on one thread, so offsets never regress.
        assert!(done.spans.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn switch_event_lookup() {
        let t = QueryTrace::enabled();
        t.event(
            Stage::SwitchDecision,
            EventData::Switch {
                clock: SwitchClock::Io,
                spent: 10.0,
                rdil_remaining: Some(50.0),
                dil_estimate: 20.0,
                confirmed: 2,
                reason: SwitchReason::EstimateExceeded,
            },
        );
        let done = t.finish();
        let e = done.switch_event().expect("switch recorded");
        assert!(matches!(
            e.data,
            EventData::Switch { reason: SwitchReason::EstimateExceeded, .. }
        ));
    }
}
