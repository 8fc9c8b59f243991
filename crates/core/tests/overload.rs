//! Overload-protection suite: prompt executor shutdown and graceful
//! degradation through the engine facade.
//!
//! The slow query runs over a test-local [`PageStore`] wrapper that sleeps
//! in every physical read; everything else is a plain in-memory engine.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use xrank_core::{EngineBuilder, QueryExecutor, QueryRequest, Strategy};
use xrank_query::{QueryError, QueryOptions};
use xrank_storage::{MemStore, PageId, PageStore, SegmentId, StorageResult};

fn repeated(word: &str, n: usize) -> String {
    vec![word; n].join(" ")
}

/// A [`MemStore`] whose physical reads each sleep `delay` once `slow` is
/// set, so a query that misses the pool runs for as long as the test needs.
/// The build runs at full speed. The first slow read reports on `entered`.
struct SlowStore {
    inner: MemStore,
    slow: AtomicBool,
    delay: Duration,
    entered: Mutex<Option<Sender<()>>>,
}

impl PageStore for SlowStore {
    fn create_segment(&mut self) -> StorageResult<SegmentId> {
        self.inner.create_segment()
    }

    fn segment_count(&self) -> u32 {
        self.inner.segment_count()
    }

    fn page_count(&self, segment: SegmentId) -> u32 {
        self.inner.page_count(segment)
    }

    fn append_page(&mut self, segment: SegmentId, data: &[u8]) -> StorageResult<u32> {
        self.inner.append_page(segment, data)
    }

    fn write_page(&mut self, id: PageId, data: &[u8]) -> StorageResult<()> {
        self.inner.write_page(id, data)
    }

    fn read_page(&self, id: PageId, buf: &mut [u8]) -> StorageResult<()> {
        if self.slow.load(Ordering::Relaxed) {
            if let Some(entered) = self.entered.lock().unwrap().take() {
                let _ = entered.send(());
            }
            std::thread::sleep(self.delay);
        }
        self.inner.read_page(id, buf)
    }
}

/// Satellite: `QueryExecutor::shutdown` must not hang on a long-running
/// query. The query is made deliberately slow by a store whose every
/// physical read sleeps, and shutdown's shared cancel flag stops it at the
/// next loop boundary.
#[test]
fn shutdown_interrupts_a_slow_fault_injected_query() {
    let mut b = EngineBuilder::new();
    for d in 0..60 {
        b.add_xml(
            &format!("s{d}"),
            &format!("<doc><t>{}</t></doc>", repeated("slowterm", 800)),
        )
        .unwrap();
    }
    // Each physical read sleeps 25 ms: with the slowterm list spanning
    // dozens of pages, the query runs for seconds unless something stops
    // it.
    let (entered, in_evaluation) = channel();
    let store = SlowStore {
        inner: MemStore::new(),
        slow: AtomicBool::new(false),
        delay: Duration::from_millis(25),
        entered: Mutex::new(Some(entered)),
    };
    let e = Arc::new(b.build_with_store(store).unwrap());
    e.pool().store().slow.store(true, Ordering::Relaxed);
    // The serving path (`query`) does not clear the cache; start cold.
    e.pool().clear_cache();

    let exec = QueryExecutor::new(Arc::clone(&e), 1, 4);
    let reply = exec
        .submit(QueryRequest::new("slowterm", Strategy::Dil))
        .unwrap();
    // Shut down once the worker is inside the evaluation.
    in_evaluation.recv().expect("the query reaches the store");
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
