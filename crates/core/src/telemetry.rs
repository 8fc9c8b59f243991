//! Engine-level observability: pre-resolved metric handles, the
//! slow-query log, and the EXPLAIN rendering.
//!
//! The engine owns one [`MetricsRegistry`]; every handle the serving path
//! touches is resolved here once, at engine construction, so recording a
//! query is a handful of relaxed atomic adds — never a lock or a map
//! lookup. Pool-level quantities (hit ratio, eviction counters,
//! per-segment read classification) are *published* into the registry at
//! scrape time instead of being incremented inline, which keeps the
//! storage crate free of any observability dependency.

use crate::engine::Strategy;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Mutex;
use std::time::Duration;
use xrank_obs::{Counter, EventData, Gauge, Histogram, MetricsRegistry, RecorderConfig, Trace};
use xrank_query::{EvalStats, QueryError};
use xrank_storage::IoStats;

/// Observability configuration ([`crate::EngineConfig::obs`]).
#[derive(Debug, Clone)]
pub struct ObsConfig {
    /// Whether the registry records on the hot path. When off, every
    /// recording call is one relaxed load and a branch; scraping still
    /// works (it just reads zeros for the gated series).
    pub metrics_enabled: bool,
    /// Queries at least this slow are captured in the slow-query log.
    pub slow_query_threshold: Duration,
    /// Ring-buffer capacity of the slow-query log.
    pub slow_log_capacity: usize,
    /// Background operations (commits, compactions) at least this slow
    /// are captured in the update pipeline's slow-op log.
    pub slow_op_threshold: Duration,
    /// Ring-buffer capacity of the slow-op log.
    pub slow_op_capacity: usize,
    /// Flight-recorder retention policy (always-on trace ring; see
    /// [`xrank_obs::FlightRecorder`]).
    pub recorder: RecorderConfig,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            metrics_enabled: true,
            slow_query_threshold: Duration::from_millis(100),
            slow_log_capacity: 64,
            slow_op_threshold: Duration::from_millis(250),
            slow_op_capacity: 32,
            recorder: RecorderConfig::default(),
        }
    }
}

/// Stable label for a strategy, baked into metric series names and used
/// in EXPLAIN output.
pub(crate) fn strategy_label(strategy: Strategy) -> &'static str {
    match strategy {
        Strategy::Dil => "dil",
        Strategy::Rdil => "rdil",
        Strategy::Hdil => "hdil",
        Strategy::NaiveId => "naive_id",
        Strategy::NaiveRank => "naive_rank",
    }
}

fn strategy_slot(strategy: Strategy) -> usize {
    match strategy {
        Strategy::Dil => 0,
        Strategy::Rdil => 1,
        Strategy::Hdil => 2,
        Strategy::NaiveId => 3,
        Strategy::NaiveRank => 4,
    }
}

/// Labels in slot order; slot 5 is the disjunctive (`search_any`) path.
const STRATEGY_LABELS: [&str; 6] = ["dil", "rdil", "hdil", "naive_id", "naive_rank", "any"];

/// Slot index of the disjunctive path.
pub(crate) const ANY_SLOT: usize = 5;

struct PerStrategy {
    queries: Counter,
    latency_us: Histogram,
}

/// Every handle the engine's query path records through, resolved once.
pub(crate) struct EngineMetrics {
    per_strategy: Vec<PerStrategy>,
    err_storage: Counter,
    err_timeout: Counter,
    err_unavailable: Counter,
    err_overloaded: Counter,
    err_budget: Counter,
    degraded_deadline: Counter,
    degraded_budget: Counter,
    degraded_quarantined: Counter,
    slow_queries: Counter,
    rdil_probes: Counter,
    rdil_memo_hits: Counter,
    cursor_seek_forward: Counter,
    cursor_seek_backward: Counter,
    cursor_redescent: Counter,
    blocks_decoded: Counter,
    blocks_skipped: Counter,
}

impl EngineMetrics {
    pub(crate) fn new(registry: &MetricsRegistry) -> Self {
        let per_strategy = STRATEGY_LABELS
            .iter()
            .map(|label| PerStrategy {
                queries: registry.counter(&format!("xrank_queries_total{{strategy=\"{label}\"}}")),
                latency_us: registry
                    .latency_histogram_us(&format!("xrank_query_latency_us{{strategy=\"{label}\"}}")),
            })
            .collect();
        EngineMetrics {
            per_strategy,
            err_storage: registry.counter("xrank_query_errors_total{kind=\"storage\"}"),
            err_timeout: registry.counter("xrank_query_errors_total{kind=\"timeout\"}"),
            err_unavailable: registry.counter("xrank_query_errors_total{kind=\"unavailable\"}"),
            err_overloaded: registry.counter("xrank_query_errors_total{kind=\"overloaded\"}"),
            err_budget: registry.counter("xrank_query_errors_total{kind=\"budget\"}"),
            degraded_deadline: registry.counter("xrank_queries_degraded_total{reason=\"deadline\"}"),
            degraded_budget: registry.counter("xrank_queries_degraded_total{reason=\"io_budget\"}"),
            degraded_quarantined: registry
                .counter("xrank_queries_degraded_total{reason=\"quarantined\"}"),
            slow_queries: registry.counter("xrank_slow_queries_total"),
            rdil_probes: registry.counter("xrank_rdil_probes_total"),
            rdil_memo_hits: registry.counter("xrank_rdil_probe_memo_hits_total"),
            cursor_seek_forward: registry.counter("xrank_cursor_seek_forward_total"),
            cursor_seek_backward: registry.counter("xrank_cursor_seek_backward_total"),
            cursor_redescent: registry.counter("xrank_cursor_redescent_total"),
            blocks_decoded: registry.counter("xrank_blocks_decoded_total"),
            blocks_skipped: registry.counter("xrank_blocks_skipped_total"),
        }
    }

    /// Folds one evaluation's probe-path counters into the registry: how
    /// many Section 4.3.2 probes were issued and how each was served
    /// (memo hit / forward or backward seek / root re-descent).
    pub(crate) fn record_eval(&self, eval: &EvalStats) {
        if eval.btree_probes > 0 {
            self.rdil_probes.add(eval.btree_probes);
        }
        if eval.probe_memo_hits > 0 {
            self.rdil_memo_hits.add(eval.probe_memo_hits);
        }
        if eval.cursor_seeks > 0 {
            self.cursor_seek_forward.add(eval.cursor_seeks);
        }
        if eval.cursor_seeks_back > 0 {
            self.cursor_seek_backward.add(eval.cursor_seeks_back);
        }
        if eval.cursor_descents > 0 {
            self.cursor_redescent.add(eval.cursor_descents);
        }
        if eval.blocks_decoded > 0 {
            self.blocks_decoded.add(eval.blocks_decoded);
        }
        if eval.blocks_skipped > 0 {
            self.blocks_skipped.add(eval.blocks_skipped);
        }
    }

    /// Records a served query: QPS counter plus wall-latency histogram.
    pub(crate) fn record_ok(&self, slot: usize, elapsed: Duration) {
        let s = &self.per_strategy[slot];
        s.queries.inc();
        s.latency_us.observe(elapsed.as_secs_f64() * 1e6);
    }

    /// Records a failed query under its error kind.
    pub(crate) fn record_err(&self, err: &QueryError) {
        match err {
            QueryError::Storage(_) => self.err_storage.inc(),
            QueryError::Timeout => self.err_timeout.inc(),
            QueryError::Unavailable(_) => self.err_unavailable.inc(),
            QueryError::Overloaded => self.err_overloaded.inc(),
            QueryError::BudgetExhausted => self.err_budget.inc(),
        }
    }

    /// Records a degraded (partial) answer under its trigger.
    pub(crate) fn record_degraded(&self, reason: xrank_obs::DegradeReason) {
        match reason {
            xrank_obs::DegradeReason::Deadline => self.degraded_deadline.inc(),
            xrank_obs::DegradeReason::IoBudget => self.degraded_budget.inc(),
            xrank_obs::DegradeReason::Quarantined => self.degraded_quarantined.inc(),
        }
    }

    pub(crate) fn record_slow(&self) {
        self.slow_queries.inc();
    }

    pub(crate) fn slot_for(strategy: Strategy) -> usize {
        strategy_slot(strategy)
    }
}

/// Segment-lifecycle handles of the update pipeline, resolved once at
/// pipeline construction (same discipline as [`EngineMetrics`]): commits,
/// compactions and their failures as counters; the live shape of the
/// pipeline (segments, staged docs, delta bytes, pinned snapshots) as
/// gauges; build wall times as histograms.
pub(crate) struct UpdateMetrics {
    pub segments_live: Gauge,
    pub staged_docs: Gauge,
    pub delta_bytes: Gauge,
    pub tombstones_live: Gauge,
    pub snapshot_pins: Gauge,
    pub commits: Counter,
    pub commit_failures: Counter,
    pub compactions: Counter,
    pub compaction_failures: Counter,
    pub tombstones_gced: Counter,
    pub slow_ops: Counter,
    pub commit_wall_us: Histogram,
    pub compact_wall_us: Histogram,
    pub wal_appends: Counter,
    pub wal_append_failures: Counter,
    pub wal_fsyncs: Counter,
    pub wal_checkpoints: Counter,
    pub wal_replayed: Counter,
    pub wal_bytes: Gauge,
    pub scrub_pages: Counter,
    pub scrub_passes: Counter,
    pub scrub_corruptions: Counter,
    pub scrub_repairs: Counter,
    pub scrub_quarantined: Gauge,
    /// Queries that skipped a quarantined segment under `allow_partial`.
    /// Same series the engine-level degrade reasons use, resolved here
    /// because quarantine is a pipeline-level (not per-segment) degrade.
    pub degraded_quarantined: Counter,
}

impl UpdateMetrics {
    pub(crate) fn new(registry: &MetricsRegistry) -> Self {
        UpdateMetrics {
            segments_live: registry.gauge("xrank_update_segments_live"),
            staged_docs: registry.gauge("xrank_update_staged_docs"),
            delta_bytes: registry.gauge("xrank_update_delta_bytes"),
            tombstones_live: registry.gauge("xrank_update_tombstones_live"),
            snapshot_pins: registry.gauge("xrank_update_snapshot_pins"),
            commits: registry.counter("xrank_update_commits_total"),
            commit_failures: registry.counter("xrank_update_commit_failures_total"),
            compactions: registry.counter("xrank_update_compactions_total"),
            compaction_failures: registry.counter("xrank_update_compaction_failures_total"),
            tombstones_gced: registry.counter("xrank_update_tombstones_gced_total"),
            slow_ops: registry.counter("xrank_update_slow_ops_total"),
            commit_wall_us: registry.latency_histogram_us("xrank_update_commit_wall_us"),
            compact_wall_us: registry.latency_histogram_us("xrank_update_compact_wall_us"),
            wal_appends: registry.counter("xrank_wal_appends_total"),
            wal_append_failures: registry.counter("xrank_wal_append_failures_total"),
            wal_fsyncs: registry.counter("xrank_wal_fsyncs_total"),
            wal_checkpoints: registry.counter("xrank_wal_checkpoints_total"),
            wal_replayed: registry.counter("xrank_wal_replayed_records_total"),
            wal_bytes: registry.gauge("xrank_wal_bytes"),
            scrub_pages: registry.counter("xrank_scrub_pages_total"),
            scrub_passes: registry.counter("xrank_scrub_passes_total"),
            scrub_corruptions: registry.counter("xrank_scrub_corruptions_total"),
            scrub_repairs: registry.counter("xrank_scrub_repairs_total"),
            scrub_quarantined: registry.gauge("xrank_scrub_quarantined_segments"),
            degraded_quarantined: registry
                .counter("xrank_queries_degraded_total{reason=\"quarantined\"}"),
        }
    }

    /// Publishes the published-snapshot shape gauges.
    pub(crate) fn publish_shape(&self, snap: &crate::snapshot::Snapshot, staged: usize) {
        self.segments_live.set(snap.segment_count() as i64);
        self.staged_docs.set(staged as i64);
        self.delta_bytes.set(snap.delta_bytes() as i64);
        self.tombstones_live.set(snap.tombstone_count() as i64);
    }
}

/// One captured slow query.
#[derive(Debug, Clone)]
pub struct SlowQueryEntry {
    /// The raw query string.
    pub query: String,
    /// Strategy label (`dil`, `rdil`, `hdil`, `naive_id`, `naive_rank`,
    /// `any`).
    pub strategy: &'static str,
    /// Evaluation wall time.
    pub elapsed: Duration,
    /// Hits returned.
    pub hits: usize,
}

/// A bounded ring buffer of the most recent queries slower than the
/// configured threshold.
pub(crate) struct SlowQueryLog {
    threshold: Duration,
    capacity: usize,
    entries: Mutex<VecDeque<SlowQueryEntry>>,
}

impl SlowQueryLog {
    pub(crate) fn new(config: &ObsConfig) -> Self {
        SlowQueryLog {
            threshold: config.slow_query_threshold,
            capacity: config.slow_log_capacity.max(1),
            entries: Mutex::new(VecDeque::new()),
        }
    }

    pub(crate) fn threshold(&self) -> Duration {
        self.threshold
    }

    /// Captures `entry` if it clears the threshold; evicts the oldest
    /// entry beyond capacity. Returns whether it was captured.
    pub(crate) fn offer(&self, entry: SlowQueryEntry) -> bool {
        if entry.elapsed < self.threshold {
            return false;
        }
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        if entries.len() >= self.capacity {
            entries.pop_front();
        }
        entries.push_back(entry);
        true
    }

    /// The captured entries, oldest first.
    pub(crate) fn snapshot(&self) -> Vec<SlowQueryEntry> {
        self.entries
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }
}

/// One captured slow background operation (commit, compaction, …).
///
/// Symmetric with [`SlowQueryEntry`], but background ops are rare and
/// their traces are the primary evidence — `CompactStats::trace` is
/// consumed by whoever triggered the fold, so this ring keeps its own
/// copy for later inspection via `UpdatableXRank::slow_ops`.
#[derive(Debug, Clone)]
pub struct SlowOpEntry {
    /// Operation kind label (`commit`, `compaction`).
    pub kind: &'static str,
    /// Human-readable description (segment id, fold shape…).
    pub label: String,
    /// Wall time of the operation.
    pub elapsed: Duration,
    /// The snapshot sequence the operation published (0 if none).
    pub seq: u64,
    /// The operation's finished trace.
    pub trace: Trace,
}

/// A bounded ring buffer of the most recent background operations slower
/// than [`ObsConfig::slow_op_threshold`].
pub(crate) struct SlowOpLog {
    threshold: Duration,
    capacity: usize,
    entries: Mutex<VecDeque<SlowOpEntry>>,
}

impl SlowOpLog {
    pub(crate) fn new(config: &ObsConfig) -> Self {
        SlowOpLog {
            threshold: config.slow_op_threshold,
            capacity: config.slow_op_capacity.max(1),
            entries: Mutex::new(VecDeque::new()),
        }
    }

    pub(crate) fn threshold(&self) -> Duration {
        self.threshold
    }

    /// Captures `entry` if it clears the threshold; evicts the oldest
    /// entry beyond capacity. Returns whether it was captured.
    pub(crate) fn offer(&self, entry: SlowOpEntry) -> bool {
        if entry.elapsed < self.threshold {
            return false;
        }
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        if entries.len() >= self.capacity {
            entries.pop_front();
        }
        entries.push_back(entry);
        true
    }

    /// The captured entries, oldest first.
    pub(crate) fn snapshot(&self) -> Vec<SlowOpEntry> {
        self.entries
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }
}

/// Number of trace events rendered in full before eliding the middle.
const EXPLAIN_EVENT_HEAD: usize = 10;
const EXPLAIN_EVENT_TAIL: usize = 6;

/// The EXPLAIN view of one query: the per-stage trace, work counters, and
/// the per-query physical I/O delta, renderable via `Display`.
#[derive(Debug, Clone)]
pub struct Explain {
    /// The raw query string.
    pub query: String,
    /// Strategy label.
    pub strategy: &'static str,
    /// Hits returned.
    pub hits: usize,
    /// Evaluation wall time.
    pub elapsed: Duration,
    /// Algorithmic work counters.
    pub eval: EvalStats,
    /// Physical I/O attributed to this query.
    pub io: IoStats,
    /// Degradation trigger, when the answer is a best-so-far partial.
    pub degraded: Option<xrank_obs::DegradeReason>,
    /// The per-stage timing/event trace.
    pub trace: Trace,
}

fn fmt_dur(d: Duration) -> String {
    let us = d.as_secs_f64() * 1e6;
    if us >= 1e6 {
        format!("{:.2}s", us / 1e6)
    } else if us >= 1e3 {
        format!("{:.2}ms", us / 1e3)
    } else {
        format!("{us:.1}µs")
    }
}

impl fmt::Display for Explain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "EXPLAIN {:?} strategy={}", self.query, self.strategy)?;
        writeln!(f, "  hits={} elapsed={}", self.hits, fmt_dur(self.elapsed))?;
        if let Some(reason) = self.degraded {
            writeln!(
                f,
                "  degraded: partial answer (trigger={}) — best top-k at cut-off",
                reason.name()
            )?;
        }
        writeln!(
            f,
            "  io: seq_reads={} rand_reads={} cache_hits={} (hit ratio {:.1}%)",
            self.io.seq_reads,
            self.io.rand_reads,
            self.io.cache_hits,
            100.0 * self.io.cache_hits as f64 / (self.io.logical_reads().max(1)) as f64,
        )?;
        writeln!(
            f,
            "  work: entries_scanned={} postings_decoded={} btree_probes={} hash_probes={} \
             range_scans={}",
            self.eval.entries_scanned,
            self.eval.postings_decoded,
            self.eval.btree_probes,
            self.eval.hash_probes,
            self.eval.range_scans,
        )?;
        if self.eval.btree_probes > 0 {
            write!(
                f,
                "  probes: issued={} memo_hits={} seek_forward={} seek_backward={} re_descent={}",
                self.eval.btree_probes,
                self.eval.probe_memo_hits,
                self.eval.cursor_seeks,
                self.eval.cursor_seeks_back,
                self.eval.cursor_descents,
            )?;
            // Probes per TA round, before vs after the stateful-cursor
            // path: before, every probe was a root descent; now only the
            // `cursor_descents` remainder is.
            let rounds = self
                .trace
                .events
                .iter()
                .filter(|e| matches!(e.data, EventData::TaRound { .. }))
                .count() as u64;
            if rounds > 0 {
                writeln!(
                    f,
                    " descents_per_round: before={:.2} after={:.2} ({rounds} rounds)",
                    self.eval.btree_probes as f64 / rounds as f64,
                    self.eval.cursor_descents as f64 / rounds as f64,
                )?;
            } else {
                writeln!(f)?;
            }
        }
        if self.eval.blocks_decoded + self.eval.blocks_skipped > 0 {
            writeln!(
                f,
                "  blocks: decoded={} skipped={} ({:.1}% skipped)",
                self.eval.blocks_decoded,
                self.eval.blocks_skipped,
                100.0 * self.eval.blocks_skipped as f64
                    / (self.eval.blocks_decoded + self.eval.blocks_skipped) as f64,
            )?;
        }
        if let Some(sw) = self.eval.switch {
            writeln!(
                f,
                "  switch: reason={} clock={} spent={:.1} rdil_remaining={} dil_estimate={:.1} \
                 confirmed={}",
                sw.reason.name(),
                sw.clock.name(),
                sw.spent,
                sw.rdil_remaining
                    .map_or_else(|| "n/a".to_string(), |v| format!("{v:.1}")),
                sw.dil_estimate,
                sw.confirmed,
            )?;
        }
        writeln!(f, "  stages:")?;
        for t in &self.trace.stages {
            writeln!(
                f,
                "    {:<16} {:>8}x {:>12}",
                t.stage.name(),
                t.count,
                fmt_dur(t.total)
            )?;
        }
        if !self.trace.events.is_empty() {
            writeln!(f, "  events:")?;
            let n = self.trace.events.len();
            let elide = n > EXPLAIN_EVENT_HEAD + EXPLAIN_EVENT_TAIL;
            for (i, e) in self.trace.events.iter().enumerate() {
                if elide && i == EXPLAIN_EVENT_HEAD {
                    writeln!(
                        f,
                        "    … {} events elided …",
                        n - EXPLAIN_EVENT_HEAD - EXPLAIN_EVENT_TAIL
                    )?;
                }
                if elide && i >= EXPLAIN_EVENT_HEAD && i < n - EXPLAIN_EVENT_TAIL {
                    continue;
                }
                write!(f, "    +{:<10}", fmt_dur(e.at))?;
                match &e.data {
                    EventData::TaRound { entries, threshold, confirmed } => writeln!(
                        f,
                        " ta_round entries={entries} threshold={threshold:.4} confirmed={confirmed}"
                    )?,
                    EventData::Switch {
                        clock,
                        spent,
                        rdil_remaining,
                        dil_estimate,
                        confirmed,
                        reason,
                    } => writeln!(
                        f,
                        " switch reason={} clock={} spent={spent:.1} rdil_remaining={} dil_estimate={dil_estimate:.1} confirmed={confirmed}",
                        reason.name(),
                        clock.name(),
                        rdil_remaining
                            .map_or_else(|| "n/a".to_string(), |v| format!("{v:.1}")),
                    )?,
                    EventData::Count { what, n } => {
                        writeln!(f, " {} {what}={n}", e.stage.name())?
                    }
                    EventData::Degraded { reason } => {
                        writeln!(f, " degraded trigger={}", reason.name())?
                    }
                    EventData::Note(note) => writeln!(f, " {} {note}", e.stage.name())?,
                }
            }
        }
        if self.trace.dropped_events > 0 {
            writeln!(f, "  (dropped {} events beyond cap)", self.trace.dropped_events)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_log_captures_only_above_threshold_and_bounds_capacity() {
        let log = SlowQueryLog::new(&ObsConfig {
            metrics_enabled: true,
            slow_query_threshold: Duration::from_millis(10),
            slow_log_capacity: 2,
            ..Default::default()
        });
        let entry = |q: &str, ms: u64| SlowQueryEntry {
            query: q.to_string(),
            strategy: "hdil",
            elapsed: Duration::from_millis(ms),
            hits: 1,
        };
        assert!(!log.offer(entry("fast", 1)));
        assert!(log.offer(entry("a", 20)));
        assert!(log.offer(entry("b", 30)));
        assert!(log.offer(entry("c", 40)));
        let snap = log.snapshot();
        assert_eq!(snap.len(), 2, "ring evicts oldest");
        assert_eq!(snap[0].query, "b");
        assert_eq!(snap[1].query, "c");
    }

    #[test]
    fn slow_op_log_mirrors_slow_query_semantics() {
        let log = SlowOpLog::new(&ObsConfig {
            slow_op_threshold: Duration::from_millis(10),
            slow_op_capacity: 2,
            ..Default::default()
        });
        assert_eq!(log.threshold(), Duration::from_millis(10));
        let entry = |label: &str, ms: u64| SlowOpEntry {
            kind: "commit",
            label: label.to_string(),
            elapsed: Duration::from_millis(ms),
            seq: 7,
            trace: Trace::default(),
        };
        assert!(!log.offer(entry("fast", 1)));
        assert!(log.offer(entry("a", 20)));
        assert!(log.offer(entry("b", 30)));
        assert!(log.offer(entry("c", 40)));
        let snap = log.snapshot();
        assert_eq!(snap.len(), 2, "ring evicts oldest");
        assert_eq!(snap[0].label, "b");
        assert_eq!(snap[1].label, "c");
        assert_eq!(snap[1].seq, 7);
    }

    #[test]
    fn explain_renders_stages_and_switch() {
        use xrank_obs::{QueryTrace, Stage, SwitchClock, SwitchReason};
        let qt = QueryTrace::enabled();
        {
            let _s = qt.span(Stage::TaLoop);
        }
        qt.event(
            Stage::SwitchDecision,
            EventData::Switch {
                clock: SwitchClock::Work,
                spent: 12.0,
                rdil_remaining: Some(99.5),
                dil_estimate: 40.0,
                confirmed: 1,
                reason: SwitchReason::EstimateExceeded,
            },
        );
        let explain = Explain {
            query: "xql language".into(),
            strategy: "hdil",
            hits: 3,
            elapsed: Duration::from_micros(420),
            eval: EvalStats::default(),
            io: IoStats::default(),
            degraded: Some(xrank_obs::DegradeReason::Deadline),
            trace: qt.finish(),
        };
        let text = explain.to_string();
        assert!(text.contains("strategy=hdil"), "{text}");
        assert!(text.contains("ta_loop"), "{text}");
        assert!(text.contains("reason=estimate_exceeded clock=work spent=12.0"), "{text}");
        assert!(text.contains("postings_decoded=0"), "{text}");
        assert!(text.contains("rdil_remaining=99.5"), "{text}");
        assert!(text.contains("dil_estimate=40.0"), "{text}");
        assert!(text.contains("degraded: partial answer (trigger=deadline)"), "{text}");
    }
}
