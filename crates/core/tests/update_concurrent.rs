//! Snapshot-isolation acceptance: readers keep searching — without
//! errors, blocking, or half-visible state — while commits and
//! compactions publish new snapshots underneath them, and the background
//! [`Compactor`] folds segments and shuts down cleanly.

mod common;

use common::temp_pipeline;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use xrank_core::{
    CompactionPolicy, Compactor, EngineConfig, ScrubPolicy, Scrubber, UpdatableXRank,
};

fn doc(word: &str, i: usize) -> String {
    format!(
        "<doc><title>{word} item {i}</title>\
         <body>shared corpus text about {word} number {i}</body></doc>"
    )
}

#[test]
fn readers_run_uninterrupted_through_commits_and_compactions() {
    let e = temp_pipeline(EngineConfig::default());
    e.add_xml("seed", &doc("seed", 0)).unwrap();
    e.commit().unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let searches = Arc::new(AtomicUsize::new(0));

    std::thread::scope(|scope| {
        // Four readers hammer the pipeline the whole time. Every result
        // must be complete and well-ordered: a search that overlaps a
        // publish sees either the old snapshot or the new one, never a
        // mixture, and "seed" is live in all of them.
        for _ in 0..4 {
            let e = Arc::clone(&e.index);
            let stop = Arc::clone(&stop);
            let searches = Arc::clone(&searches);
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let res = e.search("shared corpus", 10).unwrap();
                    assert!(
                        res.hits.iter().any(|h| h.doc_uri == "seed"),
                        "committed doc vanished mid-read"
                    );
                    for w in res.hits.windows(2) {
                        assert!(w[0].score >= w[1].score, "merged page out of order");
                    }
                    searches.fetch_add(1, Ordering::Relaxed);
                }
            });
        }

        // Meanwhile one writer commits, replaces, deletes, and compacts.
        for round in 0..8 {
            e.add_xml(&format!("doc{round}"), &doc("alpha", round)).unwrap();
            e.add_xml("churn", &doc("beta", round)).unwrap(); // replaced every round
            e.commit().unwrap();
            if round % 3 == 2 {
                e.delete(&format!("doc{}", round - 1)).unwrap();
                e.compact().unwrap();
            }
        }
        stop.store(true, Ordering::Relaxed);
    });

    assert!(searches.load(Ordering::Relaxed) > 0, "readers never got a search in");
    // End state: seed + churn + 8 docN - 2 deleted.
    assert_eq!(e.doc_count(), 8);
    e.compact().unwrap();
    assert_eq!(e.tombstone_count(), 0, "compaction dropped the tombstones");
    assert_eq!(e.doc_count(), 8);
}

#[test]
fn pinned_snapshot_outlives_compaction_of_its_segments() {
    let e = temp_pipeline(EngineConfig::default());
    e.add_xml("a", &doc("alpha", 1)).unwrap();
    e.commit().unwrap();
    e.add_xml("b", &doc("beta", 2)).unwrap();
    e.commit().unwrap();

    let pin = e.pin();
    assert_eq!(pin.segment_count(), 2);

    // Compact away both segments the pin references, then keep writing.
    e.delete("a").unwrap();
    e.compact().unwrap();
    e.add_xml("c", &doc("gamma", 3)).unwrap();
    e.commit().unwrap();

    // The pinned snapshot still reads its (now superseded) segments:
    // two segments, no tombstones, doc "a" alive.
    assert_eq!(pin.segment_count(), 2);
    assert_eq!(pin.live_doc_count(), 2);
    assert_eq!(e.doc_count(), 2); // b, c
    drop(pin);
}

#[test]
fn background_compactor_folds_segments_and_shuts_down() {
    let e = temp_pipeline(EngineConfig::default());
    let policy = CompactionPolicy {
        max_segments: 3,
        small_bytes: 1 << 20,
        interval: Duration::from_millis(20),
    };
    let mut compactor = Compactor::spawn(&e.index, policy);

    for i in 0..6 {
        e.add_xml(&format!("d{i}"), &doc("alpha", i)).unwrap();
        e.commit().unwrap();
        compactor.nudge();
    }

    // The worker runs on its own clock; wait for it to fold below the
    // threshold, bounded so a hang fails the test instead of wedging it.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while e.segment_count() > 3 {
        assert!(std::time::Instant::now() < deadline, "compactor never folded");
        std::thread::sleep(Duration::from_millis(10));
    }

    // Nothing lost in the folds.
    let res = e.search("shared corpus", 20).unwrap();
    assert_eq!(res.hits.iter().filter(|h| h.path.last().map(String::as_str) == Some("body")).count(), 6);

    compactor.shutdown();
    compactor.shutdown(); // idempotent

    // After shutdown the worker is gone: more commits pile up segments and
    // nobody folds them.
    let before = e.segment_count();
    for i in 6..9 {
        e.add_xml(&format!("d{i}"), &doc("alpha", i)).unwrap();
        e.commit().unwrap();
    }
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(e.segment_count(), before + 3, "worker kept folding after shutdown");
}

#[test]
fn dropping_the_compactor_joins_the_worker() {
    let e = temp_pipeline(EngineConfig::default());
    {
        let _compactor = Compactor::spawn(&e.index, CompactionPolicy::default());
        e.add_xml("a", &doc("alpha", 1)).unwrap();
        e.commit().unwrap();
    } // Drop shuts the worker down; must not hang or panic.
    assert_eq!(e.doc_count(), 1);
}

#[test]
fn concurrent_commit_attempts_serialize_without_corruption() {
    // Two writer threads race commits of distinct documents; the writer
    // mutex serializes them, and both publishes must survive.
    let e = temp_pipeline(EngineConfig::default());
    std::thread::scope(|scope| {
        for t in 0..2 {
            let e = Arc::clone(&e.index);
            scope.spawn(move || {
                for i in 0..4 {
                    e.add_xml(&format!("w{t}-{i}"), &doc("alpha", i)).unwrap();
                    e.commit().unwrap();
                }
            });
        }
    });
    assert_eq!(e.doc_count(), 8);
    let res = e.search("alpha", 32).unwrap();
    let uris: std::collections::HashSet<&str> =
        res.hits.iter().map(|h| h.doc_uri.as_str()).collect();
    assert_eq!(uris.len(), 8, "all racing commits visible: {uris:?}");
}

/// Neither worker keeps the pipeline alive: each upgrades its `Weak` for
/// one tick at a time, so once the last user `Arc` drops, a `Weak` the
/// test holds stops upgrading within one nudge, and both handles still
/// shut down cleanly afterwards.
#[test]
fn workers_do_not_keep_the_pipeline_alive() {
    let dir = std::env::temp_dir().join(format!("xrank-weak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let e = Arc::new(UpdatableXRank::open(&dir, EngineConfig::default()).unwrap());
    for i in 0..3 {
        e.add_xml(&format!("d{i}"), &doc("alpha", i)).unwrap();
        e.commit().unwrap();
    }
    // Intervals far beyond the test: the workers wake only on nudges.
    let idle = Duration::from_secs(3600);
    let policy = CompactionPolicy { max_segments: 1, interval: idle, ..Default::default() };
    let mut compactor = Compactor::spawn(&e, policy);
    let mut scrubber = Scrubber::spawn(&e, ScrubPolicy { interval: idle, ..Default::default() });
    compactor.nudge();
    scrubber.nudge();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while e.segment_count() > 1 {
        assert!(std::time::Instant::now() < deadline, "compactor never ran a tick");
        std::thread::sleep(Duration::from_millis(5));
    }

    let weak = Arc::downgrade(&e);
    drop(e);
    compactor.nudge();
    scrubber.nudge();
    while weak.upgrade().is_some() {
        assert!(std::time::Instant::now() < deadline, "a worker kept the pipeline alive");
        std::thread::sleep(Duration::from_millis(5));
    }
    compactor.shutdown();
    scrubber.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}
