//! Flight recorder + Chrome trace export, end to end: the Section 4.2.2
//! worked example runs through an updatable pipeline (queries, commits,
//! a delete, a compaction), the recorder retains every op on one
//! timeline, and the exported trace-event JSON is structurally valid and
//! — under normalized rendering — byte-for-byte deterministic.

mod common;

use common::temp_pipeline;
use std::time::Duration;
use xrank_core::{
    render_chrome_trace_normalized, validate_chrome_trace, EngineBuilder, EngineConfig, ObsConfig,
    OpKind, Strategy,
};
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

fn quiet_thresholds() -> ObsConfig {
    // Slowness depends on wall time; push the thresholds out of reach so
    // a scheduling hiccup cannot flip the `slow` flag in a golden dump.
    ObsConfig {
        slow_query_threshold: Duration::from_secs(3600),
        slow_op_threshold: Duration::from_secs(3600),
        ..Default::default()
    }
}

/// Runs the worked example through a fresh pipeline and
/// returns the normalized trace dump: identical operation sequences must
/// produce identical bytes.
fn run_scenario() -> String {
    let config = EngineConfig { obs: quiet_thresholds(), ..Default::default() };
    let e = temp_pipeline(config);
    e.add_xml("workshop", WORKSHOP).unwrap();
    e.commit().unwrap();
    e.search("xql language", 10).unwrap();
    e.add_xml(
        "note",
        "<doc><title>XQL notes</title><body>the xql query language again</body></doc>",
    )
    .unwrap();
    e.commit().unwrap();
    e.search("xql language", 10).unwrap();
    e.delete("note").unwrap();
    e.compact().unwrap();
    e.search("xql language", 10).unwrap();
    render_chrome_trace_normalized(&e.recorder().records())
}

#[test]
fn normalized_worked_example_dump_is_byte_deterministic() {
    let a = run_scenario();
    let b = run_scenario();
    assert_eq!(a, b, "two identical op sequences rendered different traces");
}

#[test]
fn worked_example_dump_validates_with_every_op_kind_on_the_timeline() {
    let json = run_scenario();
    let check = validate_chrome_trace(&json).expect("dump must validate");
    for cat in ["query", "commit", "compaction", "manifest_swap", "stage"] {
        assert!(check.has_cat(cat), "dump is missing cat {cat:?}:\n{json}");
    }
    // Stable op names: the §4.2.2 query and the segment lifecycle.
    assert!(json.contains("query[hdil] xql language"), "query op label drifted");
    assert!(json.contains("commit seg-1 docs=1 seq=1"), "commit op label drifted");
    assert!(json.contains("delete note"), "delete op label drifted");
    assert!(json.contains("compaction folded=2"), "compaction op label drifted");
}

#[test]
fn recorder_orders_queries_and_background_ops_on_one_timeline() {
    let config = EngineConfig { obs: quiet_thresholds(), ..Default::default() };
    let e = temp_pipeline(config);
    e.add_xml("workshop", WORKSHOP).unwrap();
    e.commit().unwrap();
    e.search("xql language", 10).unwrap();
    e.compact().unwrap();

    let records = e.recorder().records();
    let commit_at = records
        .iter()
        .find(|r| r.kind == OpKind::Commit)
        .expect("commit recorded")
        .start_ns;
    let query_at = records
        .iter()
        .find(|r| r.kind == OpKind::Query)
        .expect("query recorded")
        .start_ns;
    let fold_at = records
        .iter()
        .find(|r| r.kind == OpKind::Compaction)
        .expect("compaction recorded")
        .start_ns;
    assert!(
        commit_at <= query_at && query_at <= fold_at,
        "ops out of order on the shared epoch: commit {commit_at} query {query_at} fold {fold_at}"
    );
    // They all ran on this test thread, so they share one track.
    let threads: std::collections::HashSet<&str> =
        records.iter().map(|r| r.thread.as_str()).collect();
    assert_eq!(threads.len(), 1, "single-threaded scenario grew extra tracks: {threads:?}");
}

#[test]
fn slow_op_log_captures_commits_and_compactions() {
    let config = EngineConfig {
        obs: ObsConfig {
            slow_op_threshold: Duration::ZERO,
            slow_query_threshold: Duration::from_secs(3600),
            ..Default::default()
        },
        ..Default::default()
    };
    let e = temp_pipeline(config);
    e.add_xml("workshop", WORKSHOP).unwrap();
    e.commit().unwrap();
    e.add_xml("doc2", "<doc><body>second body</body></doc>").unwrap();
    e.commit().unwrap();
    e.compact().unwrap();

    let ops = e.slow_ops();
    let kinds: Vec<&str> = ops.iter().map(|o| o.kind).collect();
    assert_eq!(kinds, ["commit", "commit", "compaction"], "slow-op log kinds: {kinds:?}");
    assert!(
        ops.iter().all(|o| !o.trace.spans.is_empty()),
        "captured slow ops must carry their stage timeline"
    );
    let rendered = e.render_metrics();
    assert!(
        rendered.contains("xrank_update_slow_ops_total 3"),
        "slow-op counter missing:\n{rendered}"
    );
}

#[test]
fn per_segment_gauges_retire_when_compaction_drops_segments() {
    let e = temp_pipeline(EngineConfig::default());
    e.add_xml("a", "<doc><body>alpha text</body></doc>").unwrap();
    e.commit().unwrap();
    e.add_xml("b", "<doc><body>beta text</body></doc>").unwrap();
    e.commit().unwrap();

    let before = e.render_metrics();
    assert!(before.contains("xrank_update_segment_docs{segment=\"1\"}"), "{before}");
    assert!(before.contains("xrank_update_segment_docs{segment=\"2\"}"), "{before}");

    e.compact().unwrap();
    let after = e.render_metrics();
    assert!(
        !after.contains("segment=\"1\"") && !after.contains("segment=\"2\""),
        "stale per-segment series survived compaction:\n{after}"
    );
    assert!(
        after.contains("xrank_update_segment_docs{segment=\"3\"}"),
        "folded segment's series missing:\n{after}"
    );
}

#[test]
fn disabled_recorder_keeps_queries_untraced() {
    let mut config = EngineConfig::default();
    config.obs.recorder.enabled = false;
    let e = temp_pipeline(config);
    e.add_xml("workshop", WORKSHOP).unwrap();
    e.commit().unwrap();
    e.search("xql language", 10).unwrap();
    assert!(e.recorder().records().is_empty(), "disabled recorder retained records");
    let check = validate_chrome_trace(&e.dump_trace_json()).expect("empty dump still validates");
    assert!(check.tracks.is_empty(), "empty recorder produced tracks: {:?}", check.tracks);
}

#[test]
fn recorder_keeps_the_trace_an_explicit_caller_also_gets() {
    let mut b = EngineBuilder::new();
    b.add_xml("workshop", WORKSHOP).unwrap();
    let e = b.build();
    let opts = QueryOptions { top_m: 10, ..Default::default() };
    let traced = e.query_traced("xql language", Strategy::Hdil, &opts).unwrap();
    let plain = e.query("xql language", Strategy::Hdil, &opts).unwrap();
    assert!(plain.trace.is_none(), "an untraced caller got the recorder's trace");
    let records = e.recorder().records();
    assert_eq!(records.len(), 2);
    assert_eq!(Some(&records[0].trace), traced.trace.as_ref());
    assert!(records[1].trace.stage_names().contains(&"present"), "upgraded trace missing");

    e.recorder().set_enabled(false);
    assert!(e.query_traced("xql language", Strategy::Hdil, &opts).unwrap().trace.is_some());
    assert_eq!(e.recorder().records().len(), 2);
}
