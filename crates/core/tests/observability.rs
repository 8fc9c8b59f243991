//! End-to-end observability: the Section 4.2.2 worked-example query traced
//! through every processor variant, the HDIL switch decision with both
//! cost estimates, EXPLAIN rendering, slow-query capture, and the serving
//! metrics the executor records into the engine's registry.

use std::sync::Arc;
use std::time::Duration;
use xrank_core::{
    EngineBuilder, EngineConfig, ObsConfig, QueryExecutor, QueryRequest, Strategy, XRankEngine,
};
use xrank_obs::{EventData, Stage, SwitchClock, SwitchReason};
use xrank_query::QueryOptions;

/// The paper's Figure 1 / Section 4.2.2 workshop-proceedings example.
const WORKSHOP: &str = r#"<workshop>
  <wtitle>XML and IR a SIGIR Workshop</wtitle>
  <proceedings>
    <paper id="1">
      <title>XQL and Proximal Nodes</title>
      <author>Ricardo Baeza-Yates</author>
      <abstract>We consider the recently proposed language</abstract>
      <body>
        <section name="Implementing XML Operations">
          <subsection name="Path Expressions">At first sight the XQL query language looks</subsection>
        </section>
        <cite ref="2">Querying XML in Xyleme</cite>
      </body>
    </paper>
    <paper id="2"><title>Querying XML in Xyleme</title></paper>
  </proceedings>
</workshop>"#;

fn full_engine() -> XRankEngine {
    let mut b = EngineBuilder::with_config(EngineConfig {
        with_rdil: true,
        with_naive: true,
        ..Default::default()
    });
    b.add_xml("workshop", WORKSHOP).unwrap();
    b.build()
}

/// Keywords that never co-occur except in one element: forces HDIL's
/// rank-sorted phase to give up and fall back to DIL.
fn uncorrelated_engine() -> XRankEngine {
    let mut xml = String::from("<r>");
    for i in 0..300 {
        xml.push_str(&format!("<a{i}>alpha solo {i}</a{i}><b{i}>beta solo {i}</b{i}>"));
    }
    xml.push_str("<rare>alpha beta</rare></r>");
    let mut b = EngineBuilder::new();
    b.add_xml("uncorrelated", &xml).unwrap();
    b.build()
}

#[test]
fn worked_example_trace_stage_set_matches_processor() {
    let e = full_engine();
    let opts = e.config().query.clone();
    for strategy in [
        Strategy::Dil,
        Strategy::Rdil,
        Strategy::Hdil,
        Strategy::NaiveId,
        Strategy::NaiveRank,
    ] {
        let res = e.query_traced("xql language", strategy, &opts).unwrap();
        assert!(!res.hits.is_empty(), "{strategy:?} found no hits");
        let trace = res.trace.as_ref().expect("traced query returns a trace");
        // Every variant resolves terms, opens lists, and presents results.
        assert!(trace.has_stage(Stage::Tokenize), "{strategy:?}: {:?}", trace.stage_names());
        assert!(trace.has_stage(Stage::ListOpen), "{strategy:?}: {:?}", trace.stage_names());
        assert!(trace.has_stage(Stage::Present), "{strategy:?}: {:?}", trace.stage_names());
        match strategy {
            Strategy::Dil => {
                assert!(trace.has_stage(Stage::DeweyMerge));
                assert!(!trace.has_stage(Stage::TaLoop));
                assert!(trace.switch_event().is_none());
            }
            Strategy::Rdil => {
                assert!(trace.has_stage(Stage::TaLoop));
                assert!(trace.has_stage(Stage::BtreeProbe), "RDIL probes the Dewey B+-trees");
                assert!(trace.has_stage(Stage::RangeScan), "candidate scoring scans a prefix range");
                assert!(!trace.has_stage(Stage::DeweyMerge));
            }
            Strategy::Hdil => {
                // HDIL always starts on the rank-sorted phase; whether it
                // ends there or falls back, the trace says which.
                assert!(trace.has_stage(Stage::TaLoop));
                assert_eq!(res.eval.switched_to_dil, trace.has_stage(Stage::DilFallback));
                assert_eq!(res.eval.switched_to_dil, trace.switch_event().is_some());
            }
            Strategy::NaiveId => {
                assert!(trace.has_stage(Stage::MergeJoin));
                assert!(!trace.has_stage(Stage::TaLoop));
            }
            Strategy::NaiveRank => {
                assert!(trace.has_stage(Stage::TaLoop));
                assert!(trace.has_stage(Stage::HashProbe), "naive TA probes the hash index");
            }
        }
    }
}

#[test]
fn untraced_query_carries_no_trace() {
    let e = full_engine();
    let opts = e.config().query.clone();
    let res = e.query("xql language", Strategy::Dil, &opts).unwrap();
    assert!(res.trace.is_none());
}

/// Untraced, a query reaches the flight recorder at stage level: coarse
/// spans only, and the probe-kind counts stamped from its `EvalStats`.
/// Asked for, the trace keeps every probe, range scan and TA round.
#[test]
fn recorder_keeps_stages_and_an_asked_for_trace_keeps_probes() {
    let e = full_engine();
    let opts = e.config().query.clone();
    let is_round = |ev: &xrank_obs::TraceEvent| matches!(ev.data, EventData::TaRound { .. });
    for strategy in [Strategy::Dil, Strategy::Rdil, Strategy::Hdil] {
        let res = e.query("xql language", strategy, &opts).unwrap();
        let records = e.recorder().records();
        let recorded = &records.iter().max_by_key(|r| r.seq).expect("query recorded").trace;
        let stages: Vec<Stage> = recorded.spans.iter().map(|s| s.stage).collect();
        assert!(stages.iter().all(|s| !s.is_probe_level()), "{strategy:?}: {stages:?}");
        assert!(stages.contains(&Stage::Tokenize) && stages.contains(&Stage::Present));
        assert!(!recorded.events.iter().any(is_round), "{strategy:?}");
        let s = &res.eval;
        let count = |stage| recorded.stage(stage).map_or(0, |t| t.count);
        assert_eq!(count(Stage::ProbeMemoHit), s.probe_memo_hits, "{strategy:?}");
        assert_eq!(count(Stage::CursorSeek), s.cursor_seeks, "{strategy:?}");
        assert_eq!(count(Stage::CursorSeekBack), s.cursor_seeks_back, "{strategy:?}");
        assert_eq!(count(Stage::CursorDescent), s.cursor_descents, "{strategy:?}");
        assert_eq!(
            s.probe_memo_hits + s.cursor_seeks + s.cursor_seeks_back + s.cursor_descents,
            s.btree_probes,
            "{strategy:?}"
        );

        let traced = e.query_traced("xql language", strategy, &opts).unwrap();
        let full = traced.trace.as_ref().unwrap();
        let spans = |stage| full.spans.iter().filter(|s| s.stage == stage).count();
        let rounds = full.events.iter().filter(|ev| is_round(ev)).count();
        let probed = strategy != Strategy::Dil;
        assert_eq!(spans(Stage::BtreeProbe) > 0, probed, "{strategy:?}");
        assert_eq!(spans(Stage::RangeScan) > 0, probed, "{strategy:?}");
        assert_eq!(rounds > 0, probed, "{strategy:?}");
        assert_eq!(full.stage(Stage::CursorSeek).map_or(0, |t| t.count), traced.eval.cursor_seeks);
    }
}

#[test]
fn hdil_switch_records_both_cost_estimates() {
    let e = uncorrelated_engine();
    let opts = QueryOptions { top_m: 5, ..e.config().query.clone() };
    let res = e.query_traced("alpha beta", Strategy::Hdil, &opts).unwrap();
    assert!(res.eval.switched_to_dil, "uncorrelated keywords must fall back");
    let trace = res.trace.as_ref().unwrap();
    assert!(trace.has_stage(Stage::DilFallback));

    // The structured decision rides on EvalStats…
    let decision = res.eval.switch.as_ref().expect("switch decision recorded");
    assert!(decision.dil_estimate > 0.0);
    assert!(decision.spent >= 0.0);
    // …in the unit its clock names: the I/O ledger only once the RDIL
    // phase has paid for a physical read, postings decoded otherwise.
    if res.io.physical_reads() == 0 {
        assert_eq!(decision.clock, SwitchClock::Work);
        assert!(decision.spent <= res.eval.postings_decoded as f64);
    }
    match decision.reason {
        // (m-r)·t/r is only computable once r > 0 results are confirmed.
        SwitchReason::EstimateExceeded => {
            let remaining = decision.rdil_remaining.expect("estimate present");
            assert!(remaining > decision.dil_estimate);
            assert!(decision.confirmed > 0);
        }
        SwitchReason::NoProgressBudget | SwitchReason::PrefixExhausted => {
            assert!(decision.rdil_remaining.is_none());
        }
        // This query carries no io_budget, so budget pressure cannot be
        // the trigger here.
        SwitchReason::BudgetPressure => panic!("no io_budget set on this query"),
    }

    // …and the same quantities land in the trace event stream.
    let event = trace.switch_event().expect("switch event in trace");
    assert_eq!(event.stage, Stage::SwitchDecision);
    match &event.data {
        EventData::Switch { clock, spent, rdil_remaining, dil_estimate, confirmed, reason } => {
            assert_eq!(*clock, decision.clock);
            assert_eq!(*spent, decision.spent);
            assert_eq!(*rdil_remaining, decision.rdil_remaining);
            assert_eq!(*dil_estimate, decision.dil_estimate);
            assert_eq!(*confirmed, decision.confirmed);
            assert_eq!(*reason, decision.reason);
        }
        other => panic!("switch event carries {other:?}"),
    }

    // A second run finds every page cached, so it decides on the work
    // clock, and EXPLAIN says so.
    let warm = e.explain("alpha beta", Strategy::Hdil, &opts).unwrap();
    assert_eq!(warm.io.physical_reads(), 0);
    let decision = warm.eval.switch.expect("warm run switches too");
    assert_eq!(decision.clock, SwitchClock::Work);
    let rendered = warm.to_string();
    assert!(rendered.contains("  switch: reason="), "{rendered}");
    assert!(rendered.contains(" clock=work spent="), "{rendered}");
}

#[test]
fn explain_renders_for_all_five_variants() {
    let e = full_engine();
    let opts = e.config().query.clone();
    for (strategy, label) in [
        (Strategy::Dil, "dil"),
        (Strategy::Rdil, "rdil"),
        (Strategy::Hdil, "hdil"),
        (Strategy::NaiveId, "naive_id"),
        (Strategy::NaiveRank, "naive_rank"),
    ] {
        let explain = e.explain("xql language", strategy, &opts).unwrap();
        assert_eq!(explain.strategy, label);
        assert!(explain.hits > 0);
        assert!(!explain.trace.stage_names().is_empty());
        let rendered = explain.to_string();
        assert!(rendered.contains("EXPLAIN"), "{rendered}");
        assert!(rendered.contains(label), "{rendered}");
        assert!(rendered.contains("tokenize"), "{rendered}");
        assert!(explain.eval.postings_decoded > 0, "{label} decoded no posting");
        assert!(
            rendered.contains(&format!("postings_decoded={}", explain.eval.postings_decoded)),
            "{rendered}"
        );
    }
}

#[test]
fn per_strategy_counters_and_latency_histograms_record() {
    let e = full_engine();
    let opts = e.config().query.clone();
    for _ in 0..3 {
        e.query("xql language", Strategy::Dil, &opts).unwrap();
    }
    e.query("xql language", Strategy::Rdil, &opts).unwrap();
    let snap = e.metrics_snapshot();
    assert_eq!(snap.counter("xrank_queries_total{strategy=\"dil\"}"), 3);
    assert_eq!(snap.counter("xrank_queries_total{strategy=\"rdil\"}"), 1);
    assert_eq!(snap.counter_family_total("xrank_queries_total"), 4);
    let h = snap
        .histogram("xrank_query_latency_us{strategy=\"dil\"}")
        .expect("latency histogram registered");
    assert_eq!(h.count, 3);
    // Pool gauges publish at snapshot time.
    assert!(snap.gauge("xrank_pool_cache_hits") + snap.gauge("xrank_pool_seq_reads") > 0);
    // And the exposition endpoint carries the same series.
    let text = e.render_metrics();
    assert!(text.contains("xrank_queries_total{strategy=\"dil\"} 3"), "{text}");
    assert!(text.contains("# TYPE xrank_query_latency_us histogram"), "{text}");
}

#[test]
fn error_paths_count_by_kind() {
    // Strategy not built → unavailable. (The keywords must resolve: an
    // unknown keyword short-circuits to an empty result before the
    // strategy dispatch.)
    let mut b = EngineBuilder::new(); // no rdil, no naive
    b.add_xml("workshop", WORKSHOP).unwrap();
    let bare = b.build();
    let opts = bare.config().query.clone();
    let err = bare.query("xql language", Strategy::Rdil, &opts).unwrap_err();
    assert!(matches!(err, xrank_query::QueryError::Unavailable(_)));
    let snap = bare.metrics_snapshot();
    assert_eq!(snap.counter("xrank_query_errors_total{kind=\"unavailable\"}"), 1);
    assert_eq!(snap.counter_family_total("xrank_queries_total"), 0);

    // Expired deadline on a real evaluation → timeout.
    let e = full_engine();
    let timeout_opts =
        QueryOptions { timeout: Some(Duration::ZERO), ..e.config().query.clone() };
    let err = e.query("xql language", Strategy::Dil, &timeout_opts).unwrap_err();
    assert!(matches!(err, xrank_query::QueryError::Timeout));
    let snap = e.metrics_snapshot();
    assert_eq!(snap.counter("xrank_query_errors_total{kind=\"timeout\"}"), 1);
    assert_eq!(snap.counter_family_total("xrank_queries_total"), 0);
}

#[test]
fn slow_query_log_captures_threshold_breaches() {
    let mut b = EngineBuilder::with_config(EngineConfig {
        obs: ObsConfig {
            slow_query_threshold: Duration::ZERO, // everything is "slow"
            slow_log_capacity: 2,
            ..Default::default()
        },
        ..Default::default()
    });
    b.add_xml("workshop", WORKSHOP).unwrap();
    let e = b.build();
    let opts = e.config().query.clone();
    for q in ["xql language", "xml workshop", "querying xyleme"] {
        e.query(q, Strategy::Dil, &opts).unwrap();
    }
    let slow = e.slow_queries();
    // Ring buffer: capacity 2, oldest evicted.
    assert_eq!(slow.len(), 2);
    assert_eq!(slow[0].query, "xml workshop");
    assert_eq!(slow[1].query, "querying xyleme");
    assert!(slow.iter().all(|s| s.strategy == "dil"));
    assert!(e.metrics_snapshot().counter("xrank_slow_queries_total") >= 3);
}

#[test]
fn metrics_disabled_engine_records_nothing() {
    let mut b = EngineBuilder::with_config(EngineConfig {
        obs: ObsConfig { metrics_enabled: false, ..Default::default() },
        ..Default::default()
    });
    b.add_xml("workshop", WORKSHOP).unwrap();
    let e = b.build();
    let opts = e.config().query.clone();
    e.query("xql language", Strategy::Dil, &opts).unwrap();
    let snap = e.metrics_snapshot();
    assert_eq!(snap.counter_family_total("xrank_queries_total"), 0);
    // Tracing still works when metrics are gated off — orthogonal knobs.
    let res = e.query_traced("xql language", Strategy::Dil, &opts).unwrap();
    assert!(res.trace.is_some());
}

#[test]
fn executor_metrics_reach_the_engine_registry() {
    let engine = Arc::new(full_engine());
    let exec = QueryExecutor::new(Arc::clone(&engine), 2, 8);
    const N: usize = 24;
    let pending: Vec<_> = (0..N)
        .map(|_| exec.submit(QueryRequest::new("xql language", Strategy::Hdil)).unwrap())
        .collect();
    for rx in pending {
        rx.recv().unwrap().unwrap();
    }
    exec.shutdown();
    let snap = engine.metrics_snapshot();
    let wall = snap.histogram("xrank_executor_wall_us").expect("wall histogram");
    assert_eq!(wall.count, N as u64);
    let wait = snap.histogram("xrank_executor_queue_wait_us").expect("wait histogram");
    assert_eq!(wait.count, N as u64);
    // Depth gauges return to zero once the queue drains.
    assert_eq!(snap.gauge("xrank_executor_queue_depth"), 0);
    assert_eq!(snap.gauge("xrank_executor_in_flight"), 0);
    assert_eq!(snap.counter("xrank_queries_total{strategy=\"hdil\"}"), N as u64);
    assert_eq!(snap.counter_family_total("xrank_executor_errors_total"), 0);
}
