//! Overload-protection suite: retry with backoff, circuit breaking,
//! prompt executor shutdown, and graceful degradation through the engine
//! facade.
//!
//! Everything runs over a [`FaultStore`] (deterministic fault injection)
//! or a plain in-memory engine — no timing-based flakiness beyond the
//! breaker cooldown, which uses generous margins.

use std::sync::Arc;
use std::time::Duration;
use xrank_core::{
    EngineBuilder, EngineConfig, QueryExecutor, QueryRequest, Strategy, XRankEngine,
};
use xrank_query::{QueryError, QueryOptions};
use xrank_storage::{
    BreakerConfig, FaultAt, FaultKind, FaultPolicy, FaultRule, FaultStore, MemStore, PageId,
    PageStore, RetryPolicy, SegmentId, StorageError,
};

fn repeated(word: &str, n: usize) -> String {
    vec![word; n].join(" ")
}

/// Two high-volume single-term topics (same corpus shape as the
/// fault-injection suite), built over a seeded fault store with the given
/// retry/breaker policy. `with_rdil` also builds the standalone RDIL
/// index — which lives in its *own* storage segments, giving the breaker
/// tests an undamaged index family to keep serving from.
fn fault_engine_with(policy: FaultPolicy, with_rdil: bool) -> XRankEngine<FaultStore<MemStore>> {
    let mut b = EngineBuilder::with_config(EngineConfig {
        fault_policy: policy,
        with_rdil,
        ..Default::default()
    });
    for d in 0..40 {
        b.add_xml(
            &format!("a{d}"),
            &format!("<doc><t>{}</t></doc>", repeated("alphaword", 100)),
        )
        .unwrap();
        b.add_xml(
            &format!("b{d}"),
            &format!("<doc><t>{}</t></doc>", repeated("betaword", 100)),
        )
        .unwrap();
    }
    b.build_with_store(FaultStore::with_seed(MemStore::new(), 17))
        .unwrap()
}

fn hits_of(r: &xrank_core::SearchResults) -> Vec<(xrank_dewey::DeweyId, u64)> {
    r.hits.iter().map(|h| (h.dewey.clone(), h.score.to_bits())).collect()
}

fn all_pages<S: PageStore>(store: &S) -> Vec<PageId> {
    let mut v = Vec::new();
    for s in 0..store.segment_count() {
        let seg = SegmentId(s);
        for p in 0..store.page_count(seg) {
            v.push(PageId::new(seg, p));
        }
    }
    v
}

/// The segment backing the HDIL full (DIL) lists, found by per-page
/// probing on a breaker-free engine (probing on the engine under test
/// would pollute its breaker failure counts). Index layout is
/// deterministic, so the segment id carries over to any engine built from
/// the same corpus and config.
fn dil_list_segment() -> SegmentId {
    let e = fault_engine_with(FaultPolicy::default(), true);
    let opts = QueryOptions::default();
    let store = e.pool().store();
    all_pages(store)
        .into_iter()
        .find(|&page| {
            store.inject(FaultRule::new(FaultKind::ReadError, FaultAt::Page(page)));
            let dead = e.search_with("alphaword", Strategy::Dil, &opts).is_err();
            store.clear_faults();
            dead
        })
        .expect("some page backs the DIL lists")
        .segment
}

/// With retry enabled through [`EngineConfig::fault_policy`], transient
/// faults below the retry limit are invisible to the caller: the query
/// succeeds with baseline-identical results, and the retries show up in
/// the published pool metrics.
#[test]
fn transient_faults_below_retry_limit_are_caller_invisible() {
    let policy = FaultPolicy {
        retry: RetryPolicy {
            max_retries: 3,
            backoff_base: Duration::from_micros(50),
            backoff_max: Duration::from_millis(1),
        },
        breaker: BreakerConfig::disabled(),
    };
    let e = fault_engine_with(policy, false);
    let opts = QueryOptions::default();
    let baseline = e.search_with("alphaword", Strategy::Dil, &opts).unwrap();

    // The first physical read faults twice, then succeeds on the third
    // attempt — still within max_retries = 3.
    let store = e.pool().store();
    store.inject(FaultRule::new(FaultKind::ReadError, FaultAt::Always).times(2));
    let retried = e
        .search_with("alphaword", Strategy::Dil, &opts)
        .expect("transient faults below the retry limit must be invisible");
    assert_eq!(hits_of(&retried), hits_of(&baseline));
    assert_eq!(store.injected_count(), 2, "both faults were exercised");

    let snap = e.metrics_snapshot();
    assert_eq!(snap.gauge("xrank_pool_read_retries"), 2);
    assert_eq!(snap.gauge("xrank_pool_retry_successes"), 1);
}

/// With retry disabled (the default), a single transient fault still
/// surfaces — PR 3's fault-injection semantics are opt-out intact.
#[test]
fn default_policy_still_surfaces_single_faults() {
    let e = fault_engine_with(FaultPolicy::default(), false);
    let opts = QueryOptions::default();
    let store = e.pool().store();
    store.inject(FaultRule::new(FaultKind::ReadError, FaultAt::Always).times(1));
    let err = e.search_with("alphaword", Strategy::Dil, &opts).unwrap_err();
    assert!(matches!(err, QueryError::Storage(StorageError::Io { .. })), "got {err:?}");
}

/// A persistently failing segment trips its circuit breaker: subsequent
/// queries touching it fail fast with the typed [`StorageError::CircuitOpen`]
/// without reaching the store, queries over the other index family's
/// segments keep serving, and after the cooldown a half-open probe
/// restores service. (Segments map to index components — all DIL lists
/// share one — so segment isolation is demonstrated across strategies.)
#[test]
fn tripped_breaker_fails_fast_and_recovers_after_cooldown() {
    let policy = FaultPolicy {
        retry: RetryPolicy::disabled(),
        breaker: BreakerConfig { threshold: 2, cooldown: Duration::from_millis(40) },
    };
    let e = fault_engine_with(policy, true);
    let opts = QueryOptions::default();
    let base_dil = e.search_with("alphaword", Strategy::Dil, &opts).unwrap();
    let base_rdil = e.search_with("alphaword", Strategy::Rdil, &opts).unwrap();

    // Damage the segment holding the DIL lists, persistently.
    let seg = dil_list_segment();
    let store = e.pool().store();
    store.inject(FaultRule::new(FaultKind::ReadError, FaultAt::Segment(seg)));

    // Two consecutive failures on the segment reach the threshold.
    assert!(e.search_with("alphaword", Strategy::Dil, &opts).is_err());
    assert!(e.search_with("alphaword", Strategy::Dil, &opts).is_err());
    let touched_before = store.injected_count();

    // Now the breaker is open: fail fast, typed, without touching the
    // store at all.
    let err = e.search_with("alphaword", Strategy::Dil, &opts).unwrap_err();
    assert!(
        matches!(err, QueryError::Storage(StorageError::CircuitOpen { segment }) if segment == seg),
        "got {err:?}"
    );
    assert_eq!(store.injected_count(), touched_before, "fast-fail must not reach the store");

    // Queries over the undamaged RDIL segments keep serving through it
    // all, on the same shared engine.
    let rdil = e.search_with("alphaword", Strategy::Rdil, &opts).unwrap();
    assert_eq!(hits_of(&rdil), hits_of(&base_rdil));

    // Heal the segment, wait out the cooldown: the half-open probe
    // succeeds and service is restored.
    store.clear_faults();
    std::thread::sleep(Duration::from_millis(60));
    let healed = e.search_with("alphaword", Strategy::Dil, &opts).unwrap();
    assert_eq!(hits_of(&healed), hits_of(&base_dil));

    let snap = e.metrics_snapshot();
    assert!(snap.gauge("xrank_pool_breaker_trips") >= 1);
    assert!(snap.gauge("xrank_pool_breaker_fast_fails") >= 1);
    assert!(snap.gauge("xrank_pool_breaker_recoveries") >= 1);
}

/// Satellite: `QueryExecutor::shutdown` must not hang on a long-running
/// query. The query is made deliberately slow via fault-injected retries
/// (each faulted page read sleeps through a backoff), and shutdown's
/// shared cancel flag stops it at the next loop boundary.
#[test]
fn shutdown_interrupts_a_slow_fault_injected_query() {
    let policy = FaultPolicy {
        // Every other read faults once and succeeds on retry after a
        // 50ms backoff: with the slowterm list spanning dozens of pages,
        // the query runs for seconds unless something stops it.
        retry: RetryPolicy {
            max_retries: 1,
            backoff_base: Duration::from_millis(50),
            backoff_max: Duration::from_millis(50),
        },
        breaker: BreakerConfig::disabled(),
    };
    let mut b = EngineBuilder::with_config(EngineConfig {
        fault_policy: policy,
        ..Default::default()
    });
    for d in 0..60 {
        b.add_xml(
            &format!("s{d}"),
            &format!("<doc><t>{}</t></doc>", repeated("slowterm", 800)),
        )
        .unwrap();
    }
    let e = Arc::new(
        b.build_with_store(FaultStore::with_seed(MemStore::new(), 23))
            .unwrap(),
    );
    e.pool()
        .store()
        .inject(FaultRule::new(FaultKind::ReadError, FaultAt::EveryNth(2)));
    // The serving path (`query`) does not clear the cache; start cold.
    e.pool().clear_cache();

    let exec = QueryExecutor::new(Arc::clone(&e), 1, 4);
    let reply = exec
        .submit(QueryRequest::new("slowterm", Strategy::Dil))
        .unwrap();
    // Let the worker get into the evaluation (a couple of backoffs deep).
    std::thread::sleep(Duration::from_millis(120));
    exec.shutdown();
    // The shared cancel flag stops the query at its next loop boundary —
    // shutdown cannot hang for the query's multi-second natural runtime,
    // and the submitter gets a typed reply, not a completed result.
    match reply.recv().expect("shutdown delivers a reply") {
        Err(QueryError::Unavailable(_)) => {}
        other => panic!("expected the in-flight query to be cancelled, got {other:?}"),
    }
}

/// Degradation reaches the facade: a zero deadline with `allow_partial`
/// yields `Ok` with the degraded marker (and the trigger lands in both
/// EXPLAIN and the metrics), never `Err(Timeout)`.
#[test]
fn degraded_query_reports_trigger_in_explain_and_metrics() {
    let mut b = EngineBuilder::new();
    for i in 0..20 {
        b.add_xml(
            &format!("d{i}"),
            &format!("<r><a>shared words {i}</a><b>shared extra</b></r>"),
        )
        .unwrap();
    }
    let e = b.build();
    let opts = QueryOptions {
        timeout: Some(Duration::ZERO),
        allow_partial: true,
        ..e.config().query.clone()
    };
    let res = e.query("shared words", Strategy::Dil, &opts).unwrap();
    assert!(res.is_degraded(), "zero deadline + allow_partial must degrade");

    let report = e.explain("shared words", Strategy::Dil, &opts).unwrap();
    let text = report.to_string();
    assert!(
        text.contains("degraded: partial answer (trigger=deadline)"),
        "EXPLAIN missing degraded marker:\n{text}"
    );
    assert!(text.contains("degraded trigger=deadline"), "trace event missing:\n{text}");

    let snap = e.metrics_snapshot();
    assert!(snap.counter("xrank_queries_degraded_total{reason=\"deadline\"}") >= 2);

    // Without allow_partial the same deadline is a hard typed error.
    let hard = QueryOptions { allow_partial: false, ..opts };
    assert!(matches!(
        e.query("shared words", Strategy::Dil, &hard),
        Err(QueryError::Timeout)
    ));
}
