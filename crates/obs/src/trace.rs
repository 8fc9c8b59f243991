//! Per-query span/event tracing.
//!
//! A [`QueryTrace`] travels with one query evaluation. Processors record
//! two kinds of data into it:
//!
//! * **stage timings** — aggregated `(count, total duration)` per
//!   [`Stage`], recorded with a scoped [`Span`] (times the enclosed work)
//!   or [`QueryTrace::add_count`] (untimed occurrences the caller already
//!   counted, such as the probe kinds of the evaluation's work counters);
//! * **events** — discrete decisions with payloads ([`EventData`]): a TA
//!   round with its threshold value, the HDIL switch decision with both
//!   time estimates, a stage annotation.
//!
//! A full trace ([`QueryTrace::enabled`]), which a caller gets when it asks
//! for one, records every span and event, down to each B+-tree probe,
//! range scan and TA round. A stage-level trace ([`QueryTrace::stage_level`]),
//! which the flight recorder keeps of every other query, times only the
//! coarse stages: on a [`Stage::is_probe_level`] stage, spans and events
//! read no clock and push nothing, since a clock read per probe would cost
//! more than the probe. A disabled trace ([`QueryTrace::disabled`]) records
//! nothing: every recording call is one branch.
//!
//! The trace uses interior mutability (`RefCell`) so a single `&QueryTrace`
//! can be threaded through deeply nested evaluation code — including the
//! resumable `RdilRun` that both the RDIL and HDIL processors drive —
//! without mutable-borrow gymnastics. A query runs on exactly one thread,
//! so no synchronisation is needed; the finished, immutable [`Trace`] is
//! `Send + Sync` and rides inside the query's results.

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
    /// Buffer-pool I/O accounting attached to a query (sequential and
    /// random physical reads and cache hits while it ran).
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

    /// Whether this stage occurs once per probe, range scan or TA round
    /// rather than once per phase of a query: a stage-level trace skips it.
    pub fn is_probe_level(self) -> bool {
        use Stage::*;
        matches!(self, TaRound | BtreeProbe | ProbeMemoHit | CursorSeek | CursorSeekBack)
            || matches!(self, CursorDescent | RangeScan | HashProbe)
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

/// One concrete timed occurrence of a stage on the trace timeline
/// (recorded by [`Span`] guards; `add_count` stays aggregate-only).
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
    /// One aggregate per stage that occurred, in first-occurrence order.
    stages: Vec<StageTiming>,
    events: Vec<TraceEvent>,
    dropped: u64,
    spans: Vec<SpanRecord>,
    dropped_spans: u64,
}

/// How much a [`QueryTrace`] records (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Detail {
    Off,
    Stages,
    Full,
}

/// The per-query recording handle (see the module docs).
#[derive(Debug)]
pub struct QueryTrace {
    detail: Detail,
    origin: Instant,
    inner: RefCell<TraceInner>,
}

impl QueryTrace {
    /// A trace that records every span and event.
    pub fn enabled() -> Self {
        Self::with_detail(Detail::Full)
    }

    /// A trace that times only the coarse stages: spans and events on a
    /// probe-level stage cost one branch.
    pub fn stage_level() -> Self {
        Self::with_detail(Detail::Stages)
    }

    /// A no-op trace: every recording call is one branch.
    pub fn disabled() -> Self {
        Self::with_detail(Detail::Off)
    }

    fn with_detail(detail: Detail) -> Self {
        QueryTrace {
            detail,
            origin: Instant::now(),
            inner: RefCell::new(TraceInner {
                stages: Vec::new(),
                events: Vec::new(),
                dropped: 0,
                spans: Vec::new(),
                dropped_spans: 0,
            }),
        }
    }

    /// Whether this trace records anything.
    pub fn is_enabled(&self) -> bool {
        self.detail != Detail::Off
    }

    /// Whether this trace records the probe-level stages too.
    pub fn is_full(&self) -> bool {
        self.detail == Detail::Full
    }

    fn keeps(&self, stage: Stage) -> bool {
        self.detail == Detail::Full || self.detail == Detail::Stages && !stage.is_probe_level()
    }

    /// The instant this trace was created — all span/event offsets are
    /// relative to it, so it anchors the trace on a shared timeline.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Opens a timing span for `stage`; the duration is recorded when the
    /// returned guard drops. When the trace does not keep `stage`, no
    /// clock is read.
    pub fn span(&self, stage: Stage) -> Span<'_> {
        Span {
            trace: self,
            stage,
            start: if self.keeps(stage) { Some(Instant::now()) } else { None },
        }
    }

    /// Adds `n` untimed occurrences of `stage`, at either level of detail:
    /// the caller already counted them, so no clock is read.
    pub fn add_count(&self, stage: Stage, n: u64) {
        if self.is_enabled() && n > 0 {
            self.inner.borrow_mut().tally(stage, n, Duration::ZERO);
        }
    }

    /// Records a closed span on the timeline and in the aggregates
    /// (called by the [`Span`] drop guard).
    fn record_span(&self, stage: Stage, start: Instant, dur: Duration) {
        let mut inner = self.inner.borrow_mut();
        inner.tally(stage, 1, dur);
        if inner.spans.len() >= MAX_SPANS {
            inner.dropped_spans += 1;
            return;
        }
        let at = start.saturating_duration_since(self.origin);
        inner.spans.push(SpanRecord { stage, at, dur });
    }

    /// Appends a discrete event (bounded; overflow counts as dropped).
    pub fn event(&self, stage: Stage, data: EventData) {
        if !self.keeps(stage) {
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
        let mut inner = self.inner.into_inner();
        inner.stages.sort_unstable_by_key(|t| t.stage);
        Trace {
            total,
            stages: inner.stages,
            events: inner.events,
            dropped_events: inner.dropped,
            spans: inner.spans,
            dropped_spans: inner.dropped_spans,
        }
    }
}

impl TraceInner {
    fn tally(&mut self, stage: Stage, count: u64, total: Duration) {
        match self.stages.iter_mut().find(|t| t.stage == stage) {
            Some(t) => {
                t.count += count;
                t.total += total;
            }
            None => self.stages.push(StageTiming { stage, count, total }),
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
    /// Total time attributed (zero for untimed `add_count`s).
    pub total: Duration,
}

/// An immutable, finished query trace.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    /// Wall time from trace creation to [`QueryTrace::finish`].
    pub total: Duration,
    /// Per-stage aggregates (only stages that occurred), in [`Stage`]
    /// declaration order.
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
        t.add_count(Stage::BtreeProbe, 3);
        t.event(Stage::TaRound, EventData::Note("x"));
        let done = t.finish();
        assert!(done.stages.is_empty());
        assert!(done.events.is_empty());
    }

    #[test]
    fn stage_level_trace_keeps_coarse_stages_and_counts() {
        let t = QueryTrace::stage_level();
        assert!(t.is_enabled() && !t.is_full());
        t.add_count(Stage::CursorSeek, 7);
        {
            let _loop = t.span(Stage::TaLoop);
            let _probe = t.span(Stage::BtreeProbe);
            let _scan = t.span(Stage::RangeScan);
            t.event(Stage::TaRound, EventData::Note("round"));
            t.event(Stage::SwitchDecision, EventData::Note("switch"));
        }
        let done = t.finish();
        let spans: Vec<Stage> = done.spans.iter().map(|s| s.stage).collect();
        assert_eq!(spans, [Stage::TaLoop]);
        // Aggregates come out in declaration order, not recording order.
        assert_eq!(done.stage_names(), ["ta_loop", "cursor_seek"]);
        assert_eq!(done.stage(Stage::CursorSeek).unwrap().count, 7);
        assert_eq!(done.events.len(), 1);
        assert_eq!(done.events[0].stage, Stage::SwitchDecision);
    }

    #[test]
    fn spans_aggregate_per_stage() {
        let t = QueryTrace::enabled();
        for _ in 0..3 {
            let _s = t.span(Stage::BtreeProbe);
        }
        t.add_count(Stage::BtreeProbe, 1);
        t.add_count(Stage::RangeScan, 2);
        let done = t.finish();
        assert_eq!(done.stage(Stage::BtreeProbe).unwrap().count, 4);
        assert_eq!(done.stage(Stage::RangeScan).unwrap().count, 2);
        assert_eq!(done.stage(Stage::RangeScan).unwrap().total, Duration::ZERO);
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
        t.add_count(Stage::BtreeProbe, 1); // aggregate-only: no timeline entry
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
