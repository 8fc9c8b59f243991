//! Tests for document-granularity updates (Section 4.5), the segmented
//! pipeline semantics, and disjunctive search.

mod common;

use common::{temp_pipeline, TempPipeline};
use xrank_core::{EngineBuilder, EngineConfig, UpdatableXRank};

fn doc(word: &str) -> String {
    format!("<doc><title>{word} item</title><body>shared corpus text about {word}</body></doc>")
}

fn engine_with(docs: &[(&str, &str)]) -> TempPipeline {
    let e = temp_pipeline(EngineConfig::default());
    for (uri, word) in docs {
        e.add_xml(uri, &doc(word)).unwrap();
    }
    e.commit().unwrap();
    e
}

#[test]
fn staged_docs_invisible_until_commit() {
    let e = temp_pipeline(EngineConfig::default());
    e.add_xml("a", &doc("alpha")).unwrap();
    assert_eq!(e.staged_count(), 1);
    assert!(e.search("alpha", 10).unwrap().hits.is_empty(), "not yet committed");
    let stats = e.commit().unwrap();
    assert_eq!(stats.docs_added, 1);
    assert!(stats.segment_id.is_some());
    assert_eq!(e.staged_count(), 0);
    assert_eq!(e.search("alpha", 10).unwrap().hits.len(), 2); // title + body
}

/// A document whose one posting used to exceed a list page: `add_xml`
/// WAL-logged and acknowledged it, then every `commit` (and every reopen,
/// which replays the log) hit the packer's assertion.
#[test]
fn heavily_repeated_word_commits_durably_and_is_found() {
    let dir = std::env::temp_dir().join(format!("xrank-updates-zeros-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let xml = format!("<doc><p>{}</p></doc>", "zero ".repeat(6000));
    {
        let e = UpdatableXRank::open(&dir, EngineConfig::default()).unwrap();
        e.add_xml("zeros", &xml).unwrap();
        assert_eq!(e.commit().unwrap().docs_added, 1);
        assert_eq!(e.search("zero", 10).unwrap().hits.len(), 1);
        // Logged but not yet committed: the reopen below replays it.
        e.add_xml("more", &xml).unwrap();
    }
    let e = UpdatableXRank::open(&dir, EngineConfig::default()).unwrap();
    e.commit().unwrap();
    let hits = e.search("zero", 10).unwrap().hits;
    let mut uris: Vec<&str> = hits.iter().map(|h| h.doc_uri.as_str()).collect();
    uris.sort_unstable();
    assert_eq!(uris, ["more", "zeros"]);
    drop(e);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn empty_commit_is_a_no_op() {
    let e = engine_with(&[("a", "alpha")]);
    let seq = e.commit().unwrap().seq;
    let stats = e.commit().unwrap();
    assert_eq!(stats.docs_added, 0);
    assert!(stats.segment_id.is_none());
    assert_eq!(stats.seq, seq, "no-op commit publishes nothing");
    assert_eq!(e.segment_count(), 1);
}

#[test]
fn delete_takes_effect_immediately() {
    let e = engine_with(&[("a", "alpha"), ("b", "beta")]);
    assert!(!e.search("alpha", 10).unwrap().hits.is_empty());
    assert!(e.delete("a").unwrap());
    assert!(e.search("alpha", 10).unwrap().hits.is_empty(), "tombstone filters hits");
    assert!(!e.search("beta", 10).unwrap().hits.is_empty(), "other docs unaffected");
    assert_eq!(e.tombstone_count(), 1);
    assert!(!e.delete("a").unwrap(), "double delete is a no-op");
}

#[test]
fn incremental_adds_search_across_segments() {
    let e = engine_with(&[("a", "alpha")]);
    e.add_xml("b", &doc("beta")).unwrap();
    e.commit().unwrap();
    assert_eq!(e.segment_count(), 2);
    // 'shared' occurs in both documents — results must merge.
    let res = e.search("shared corpus", 10).unwrap();
    let uris: std::collections::HashSet<&str> =
        res.hits.iter().map(|h| h.doc_uri.as_str()).collect();
    assert!(uris.contains("a") && uris.contains("b"), "got {uris:?}");
}

#[test]
fn replace_document() {
    let e = engine_with(&[("a", "oldword")]);
    e.add_xml("a", &doc("newword")).unwrap();
    e.commit().unwrap();
    assert!(e.search("oldword", 10).unwrap().hits.is_empty(), "old content tombstoned");
    assert!(!e.search("newword", 10).unwrap().hits.is_empty(), "new content searchable");
}

#[test]
fn compact_folds_to_one_segment_and_drops_tombstones() {
    let e = engine_with(&[("a", "alpha"), ("b", "beta")]);
    e.delete("a").unwrap();
    e.add_xml("c", &doc("gamma")).unwrap();
    let stats = e.compact().unwrap();
    assert_eq!(stats.tombstones_dropped, 1);
    assert_eq!(stats.docs_live, 2); // b, c
    assert_eq!(e.tombstone_count(), 0);
    assert_eq!(e.staged_count(), 0);
    assert_eq!(e.segment_count(), 1);
    assert!(e.search("alpha", 10).unwrap().hits.is_empty());
    assert!(!e.search("gamma", 10).unwrap().hits.is_empty());
    assert!(!e.search("beta", 10).unwrap().hits.is_empty());
}

#[test]
fn compaction_warm_starts_elem_rank() {
    let e = engine_with(&[("a", "alpha"), ("b", "beta")]);
    e.add_xml("c", &doc("gamma")).unwrap();
    e.commit().unwrap();
    let stats = e.compact().unwrap();
    assert!(stats.rank_seeded, "fold over existing segments must seed ElemRank");
    assert!(stats.rank_iterations > 0);
    // The ranking after a seeded fold equals a cold from-scratch build.
    let mut b = EngineBuilder::new();
    for (uri, word) in [("a", "alpha"), ("b", "beta"), ("c", "gamma")] {
        b.add_xml(uri, &doc(word)).unwrap();
    }
    let cold = b.build();
    let folded = e.search("shared", 10).unwrap();
    let reference = cold.search("shared", 10).unwrap();
    assert_eq!(folded.hits.len(), reference.hits.len());
    // Seeded iteration reaches the same fixed point within the solver
    // tolerance (not bit-identically — near-ties may reorder), so compare
    // per-element scores keyed by dewey rather than positionally.
    let by_dewey: std::collections::HashMap<String, f64> = reference
        .hits
        .iter()
        .map(|h| (format!("{:?}", h.dewey), h.score))
        .collect();
    for f in &folded.hits {
        let r = by_dewey
            .get(&format!("{:?}", f.dewey))
            .unwrap_or_else(|| panic!("hit {:?} missing from cold build", f.dewey));
        assert!(
            (f.score - r).abs() < 1e-3,
            "seeded fold drifted at {:?}: {} vs {}",
            f.dewey,
            f.score,
            r
        );
    }
}

#[test]
fn merge_small_folds_only_small_segments() {
    let e = temp_pipeline(EngineConfig::default());
    // One big segment...
    let big: String = (0..40).map(|i| format!("<s>filler words number {i}</s>")).collect();
    e.add_xml("big", &format!("<doc>{big}</doc>")).unwrap();
    e.commit().unwrap();
    // ...and three small ones.
    for (uri, word) in [("s1", "alpha"), ("s2", "beta"), ("s3", "gamma")] {
        e.add_xml(uri, &doc(word)).unwrap();
        e.commit().unwrap();
    }
    assert_eq!(e.segment_count(), 4);
    let stats = e.merge_small(512, None).unwrap();
    assert_eq!(stats.segments_folded, 3, "only the small segments fold");
    assert_eq!(e.segment_count(), 2, "big segment survives untouched");
    for q in ["alpha", "beta", "gamma", "filler"] {
        assert!(!e.search(q, 10).unwrap().hits.is_empty(), "{q} lost in merge");
    }
}

#[test]
fn invalid_xml_rejected_at_add_time() {
    let e = temp_pipeline(EngineConfig::default());
    assert!(e.add_xml("bad", "<unclosed>").is_err());
    assert_eq!(e.doc_count(), 0);
}

#[test]
fn merged_ranking_is_score_ordered() {
    let e = engine_with(&[("a", "alpha"), ("b", "beta")]);
    e.add_xml("c", &doc("gamma")).unwrap();
    e.commit().unwrap();
    let res = e.search("shared", 10).unwrap();
    for w in res.hits.windows(2) {
        assert!(w[0].score >= w[1].score, "merged hits out of order");
    }
}

#[test]
fn top_k_refills_past_tombstoned_documents() {
    // One document matches "common" from many elements and would dominate
    // the top of the merged stream; after tombstoning it, the requested k
    // live hits must still come back (the naive fixed over-fetch used to
    // underfill here).
    let e = temp_pipeline(EngineConfig::default());
    // Every document has the same shape (64 <p> under the root), so every
    // matching element carries the same ElemRank and scores tie exactly;
    // the dewey tie-break then puts the hot doc's 64 hits ahead of the
    // single hit each live doc contributes.
    let hot: String = (0..64).map(|i| format!("<p>common topic {i}</p>")).collect();
    e.add_xml("hot", &format!("<doc>{hot}</doc>")).unwrap();
    for i in 0..6 {
        let filler: String = (0..63).map(|j| format!("<p>unrelated filler {j}</p>")).collect();
        e.add_xml(
            &format!("live{i}"),
            &format!("<doc>{filler}<p>common topic {i}</p></doc>"),
        )
        .unwrap();
    }
    e.commit().unwrap();

    let full = e.search("common topic", 6).unwrap();
    assert_eq!(full.hits.len(), 6);
    assert!(full.hits.iter().any(|h| h.doc_uri == "hot"));

    e.delete("hot").unwrap();
    let filtered = e.search("common topic", 6).unwrap();
    assert_eq!(
        filtered.hits.len(),
        6,
        "k live hits exist, the page must re-fill past the tombstoned doc"
    );
    assert!(filtered.hits.iter().all(|h| h.doc_uri != "hot"));
}

#[test]
fn pinned_snapshot_is_isolated_from_later_writes() {
    let e = engine_with(&[("a", "alpha")]);
    let pin = e.pin();
    assert_eq!(pin.live_doc_count(), 1);
    e.add_xml("b", &doc("beta")).unwrap();
    e.commit().unwrap();
    e.delete("a").unwrap();
    // The pin still sees the old state; the pipeline sees the new one.
    assert_eq!(pin.live_doc_count(), 1);
    assert_eq!(pin.segment_count(), 1);
    assert_eq!(pin.tombstone_count(), 0);
    assert_eq!(e.doc_count(), 1); // b
    assert_eq!(e.tombstone_count(), 1);
    drop(pin);
}

#[test]
fn disjunctive_search_via_engine() {
    let mut b = EngineBuilder::new();
    b.add_xml("d", "<r><a>apple pie</a><b>banana split</b><c>apple banana</c></r>")
        .unwrap();
    let e = b.build();
    // Conjunctive: only <c>.
    // <c> directly, plus <r> via independent occurrences in <a> and <b>.
    assert_eq!(e.search("apple banana", 10).unwrap().hits.len(), 2);
    // Disjunctive: a, b, c.
    let any = e.search_any("apple banana", 10).unwrap();
    assert_eq!(any.hits.len(), 3);
    // Unknown keywords are dropped, not fatal.
    let any = e.search_any("apple zzzznope", 10).unwrap();
    assert_eq!(any.hits.len(), 2);
    // Conjunctive matches rank first (two rank terms vs one).
    let top = &e.search_any("apple banana", 10).unwrap().hits[0];
    assert!(top.path.ends_with(&["c".to_string()]));
}

#[test]
fn search_shares_one_deadline_across_segment_passes() {
    use std::time::{Duration, Instant};
    use xrank_query::{QueryError, QueryOptions};

    // Two committed segments: a search runs two passes.
    let e = engine_with(&[("a", "alpha")]);
    e.add_xml("b", &doc("beta")).unwrap();
    e.commit().unwrap();

    // An already-expired absolute deadline must stop the query even though
    // the relative timeout alone would allow it: the shared deadline wins,
    // and later segment passes must NOT get a fresh allowance.
    let expired = QueryOptions {
        deadline_at: Some(Instant::now() - Duration::from_millis(1)),
        timeout: Some(Duration::from_secs(3600)),
        ..Default::default()
    };
    match e.search_opts("shared corpus", 10, expired.clone()) {
        Err(QueryError::Timeout) => {}
        other => panic!("expected shared-deadline timeout, got {other:?}"),
    }

    // Same budget, degradation allowed: one merged partial answer instead.
    let partial = QueryOptions { allow_partial: true, ..expired };
    let res = e.search_opts("shared corpus", 10, partial).unwrap();
    assert_eq!(res.degraded, Some(xrank_core::DegradeReason::Deadline));

    // With headroom the multi-pass search still completes and merges fully.
    let roomy = QueryOptions { timeout: Some(Duration::from_secs(3600)), ..Default::default() };
    let res = e.search_opts("shared corpus", 10, roomy).unwrap();
    assert!(res.degraded.is_none());
    let uris: std::collections::HashSet<&str> =
        res.hits.iter().map(|h| h.doc_uri.as_str()).collect();
    assert!(uris.contains("a") && uris.contains("b"), "got {uris:?}");
}

#[test]
fn update_metrics_track_segment_lifecycle() {
    let e = engine_with(&[("a", "alpha")]);
    e.add_xml("b", &doc("beta")).unwrap();
    e.commit().unwrap();
    e.delete("a").unwrap();
    e.compact().unwrap();
    let text = e.render_metrics();
    assert!(text.contains("xrank_update_commits_total 2"), "{text}");
    assert!(text.contains("xrank_update_compactions_total 1"), "{text}");
    assert!(text.contains("xrank_update_segments_live 1"), "{text}");
    assert!(text.contains("xrank_update_tombstones_gced_total 1"), "{text}");
    assert!(text.contains("xrank_update_snapshot_pins 0"), "{text}");
}
