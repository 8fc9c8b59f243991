//! Online integrity scrub, segment quarantine, and self-repair.
//!
//! The failure model is silent media rot: a byte on a sealed segment's
//! page file flips *after* the segment was built and verified. The
//! contract under that model:
//!
//! - the scrubber finds the damage from its background walk (no query
//!   has to trip over it first);
//! - the damaged segment is quarantined — strict reads fail fast with a
//!   typed error, `allow_partial` reads degrade and keep serving every
//!   healthy segment;
//! - self-repair rebuilds the segment from its CRC-checked docs sidecar,
//!   publishes the replacement atomically, and releases the quarantine;
//! - a repaired commit-built segment serves bit-identical rankings to
//!   the undamaged original.

use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xrank_core::{
    CrashPoint, EngineConfig, OpKind, ScrubCursor, ScrubPolicy, Scrubber, SearchResults,
    UpdatableXRank, UpdateError,
};
use xrank_query::QueryError;
use xrank_storage::StorageError;

fn doc(word: &str) -> String {
    format!("<doc><title>{word} item</title><body>shared corpus text about {word}</body></doc>")
}

fn tmp_dir(tag: &str) -> PathBuf {
    let pid = std::process::id();
    let dir = std::env::temp_dir().join(format!("xrank-scrub-{tag}-{pid}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn uris(e: &UpdatableXRank, query: &str) -> HashSet<String> {
    e.search(query, 64)
        .unwrap()
        .hits
        .into_iter()
        .map(|h| h.doc_uri)
        .collect()
}

/// On-disk directory of pipeline segment `seg_id` (zero-padded).
fn seg_dir_name(seg_id: u64) -> String {
    format!("seg-{seg_id:08}")
}

/// Flips one byte inside the first page of segment `seg_id`'s first
/// store file — inside the checksummed region, so the trailer CRC no
/// longer matches what is on the medium.
fn corrupt_first_page(dir: &Path, seg_id: u64) {
    let store = dir.join(seg_dir_name(seg_id)).join("store");
    let mut pages: Vec<PathBuf> = std::fs::read_dir(&store)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "pages"))
        .collect();
    pages.sort();
    let victim = pages.first().unwrap_or_else(|| panic!("no page files under {store:?}"));
    let mut bytes = std::fs::read(victim).unwrap();
    assert!(!bytes.is_empty(), "{victim:?} empty");
    bytes[64] ^= 0xff; // well inside the first page's data region
    std::fs::write(victim, bytes).unwrap();
}

/// The only live segment id of a single-segment pipeline, read off the
/// directory layout.
fn only_seg_id(dir: &Path) -> u64 {
    let mut ids: Vec<u64> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter_map(|e| {
            e.file_name().to_string_lossy().strip_prefix("seg-").and_then(|s| s.parse().ok())
        })
        .collect();
    ids.sort_unstable();
    assert_eq!(ids.len(), 1, "expected one live segment, found {ids:?}");
    ids[0]
}

fn assert_identical(a: &SearchResults, b: &SearchResults, what: &str) {
    assert_eq!(a.hits.len(), b.hits.len(), "{what}: result count");
    for (x, y) in a.hits.iter().zip(&b.hits) {
        assert_eq!(x.dewey, y.dewey, "{what}: dewey");
        assert_eq!(x.score.to_bits(), y.score.to_bits(), "{what}: score bytes");
        assert_eq!(x.path, y.path, "{what}: path");
    }
}

/// A clean pipeline scrubs clean: every physical page is visited, no
/// segment is quarantined, and the cursor wraps.
#[test]
fn clean_scrub_visits_every_page_and_quarantines_nothing() {
    let dir = tmp_dir("clean");
    let e = UpdatableXRank::open(&dir, EngineConfig::default()).unwrap();
    for i in 0..8 {
        e.add_xml(&format!("d{i}"), &doc(&format!("word{i}"))).unwrap();
    }
    e.commit().unwrap();

    let report = e.scrub_full();
    assert!(report.wrapped, "full scrub completes a pass");
    assert!(report.pages_scanned > 0, "file-backed segment has pages");
    assert!(report.corrupt_segments.is_empty());
    assert!(e.quarantined_segments().is_empty());
    let snap = e.metrics().snapshot();
    assert_eq!(snap.counter("xrank_scrub_pages_total"), report.pages_scanned);
    assert_eq!(snap.counter("xrank_scrub_passes_total"), 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The scrub is resumable: tiny page budgets make partial passes that
/// pick up where the cursor left off and cover the same total.
#[test]
fn chunked_scrub_resumes_from_its_cursor() {
    let dir = tmp_dir("chunked");
    let e = UpdatableXRank::open(&dir, EngineConfig::default()).unwrap();
    for i in 0..6 {
        e.add_xml(&format!("d{i}"), &doc(&format!("word{i}"))).unwrap();
    }
    e.commit().unwrap();
    let total = e.scrub_full().pages_scanned;

    let mut cursor = ScrubCursor::default();
    let mut scanned = 0u64;
    let mut chunks = 0u32;
    loop {
        let report = e.scrub_chunk(3, &mut cursor);
        scanned += report.pages_scanned;
        chunks += 1;
        assert!(chunks < 10_000, "cursor never wrapped");
        if report.wrapped {
            break;
        }
    }
    assert_eq!(scanned, total, "chunked pass covers exactly one full pass");
    assert!(chunks > 1, "budget of 3 pages forces multiple chunks");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Silent on-disk damage → scrub quarantines the segment → strict reads
/// fail fast with the typed error, `allow_partial` reads degrade while
/// every healthy segment keeps serving.
#[test]
fn corruption_quarantines_fails_fast_and_degrades_partial() {
    let dir = tmp_dir("quarantine");
    let e = UpdatableXRank::open(&dir, EngineConfig::default()).unwrap();
    e.add_xml("a", &doc("alpha")).unwrap();
    e.commit().unwrap();
    let victim = only_seg_id(&dir);
    e.add_xml("b", &doc("beta")).unwrap();
    e.commit().unwrap(); // second, healthy segment

    corrupt_first_page(&dir, victim);
    let report = e.scrub_full();
    assert_eq!(report.corrupt_segments, vec![victim], "scrub found the rot");
    assert_eq!(e.quarantined_segments(), vec![victim]);
    assert!(e.metrics().snapshot().counter("xrank_scrub_corruptions_total") >= 1);

    // Strict read: typed fail-fast naming the segment.
    match e.search("shared corpus", 10) {
        Err(QueryError::Storage(StorageError::Quarantined { segment })) => {
            assert_eq!(segment, victim)
        }
        other => panic!("expected Quarantined fail-fast, got {other:?}"),
    }

    // Partial read: healthy segment serves, result marked degraded.
    let opts = xrank_query::QueryOptions { allow_partial: true, ..Default::default() };
    let res = e.search_opts("shared corpus", 10, opts).unwrap();
    assert_eq!(res.degraded, Some(xrank_core::DegradeReason::Quarantined));
    let found: HashSet<String> = res.hits.into_iter().map(|h| h.doc_uri).collect();
    assert!(found.contains("b") && !found.contains("a"), "{found:?}");
    assert!(
        e.metrics().snapshot().counter("xrank_queries_degraded_total{reason=\"quarantined\"}")
            >= 1
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Self-repair end to end: rebuild from the docs sidecar, republish,
/// release the quarantine — documents serve again, tombstones survive,
/// and the corrupt segment's directory is gone.
#[test]
fn repair_rebuilds_republishes_and_releases() {
    let dir = tmp_dir("repair");
    let e = UpdatableXRank::open(&dir, EngineConfig::default()).unwrap();
    e.add_xml("a", &doc("alpha")).unwrap();
    e.add_xml("dead", &doc("ghostly")).unwrap();
    e.commit().unwrap();
    let victim = only_seg_id(&dir);
    e.delete("dead").unwrap();

    corrupt_first_page(&dir, victim);
    e.scrub_full();
    assert_eq!(e.quarantined_segments(), vec![victim]);

    assert!(e.repair_segment(victim).unwrap(), "repair must rebuild the live segment");
    assert!(e.quarantined_segments().is_empty(), "quarantine released");
    let found = uris(&e, "shared corpus");
    assert!(found.contains("a"), "repaired segment serves: {found:?}");
    assert!(!found.contains("dead"), "tombstone survived the rebuild: {found:?}");
    assert!(e.metrics().snapshot().counter("xrank_scrub_repairs_total") >= 1);

    // The repaired pipeline survives a reopen (the new manifest is the
    // durable truth) and keeps accepting writes.
    drop(e);
    let e = UpdatableXRank::open(&dir, EngineConfig::default()).unwrap();
    assert!(uris(&e, "shared corpus").contains("a"));
    e.add_xml("c", &doc("gamma")).unwrap();
    e.commit().unwrap();
    assert!(uris(&e, "shared corpus").contains("c"));
    // GC keeps the previous manifest's segments as a crash fallback, so
    // the corrupt directory outlives the repair by exactly one publish —
    // after the follow-up commit it must be gone.
    assert!(
        !dir.join(seg_dir_name(victim)).exists(),
        "corrupt segment directory retired by gc after the next publish"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Repairing a segment nobody can find is a no-op `Ok(false)` that still
/// clears the quarantine flag (the segment may have been compacted away
/// while quarantined).
#[test]
fn repairing_a_vanished_segment_releases_without_rebuilding() {
    let dir = tmp_dir("vanished");
    let e = UpdatableXRank::open(&dir, EngineConfig::default()).unwrap();
    e.add_xml("a", &doc("alpha")).unwrap();
    e.commit().unwrap();
    e.quarantine(9999);
    assert_eq!(e.quarantined_segments(), vec![9999]);
    assert!(!e.repair_segment(9999).unwrap(), "nothing to rebuild for a vanished segment");
    assert!(e.quarantined_segments().is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A repaired commit-built segment is indistinguishable to a reader:
/// same deweys, same score bits, same paths as before the damage.
#[test]
fn repair_serves_bit_identical_rankings() {
    let dir = tmp_dir("bitident");
    let e = UpdatableXRank::open(&dir, EngineConfig::default()).unwrap();
    e.add_xml(
        "workshop",
        r#"<workshop><paper><title>XQL and Proximal Nodes</title>
           <abstract>We consider the recently proposed language</abstract>
           <body><section><subsection>At first sight the XQL query language looks</subsection>
           </section></body></paper></workshop>"#,
    )
    .unwrap();
    e.add_xml("other", &doc("unrelated")).unwrap();
    e.commit().unwrap();
    let victim = only_seg_id(&dir);
    let before = e.search("xql language", 10).unwrap();
    assert!(!before.hits.is_empty());

    corrupt_first_page(&dir, victim);
    e.scrub_full();
    assert_eq!(e.quarantined_segments(), vec![victim]);
    e.repair_segment(victim).unwrap();

    let after = e.search("xql language", 10).unwrap();
    assert_identical(&before, &after, "post-repair rankings");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Satellite: the per-segment quarantine gauge is born on quarantine and
/// *retired* — gone from the scrape, not zeroed — when repair releases
/// it, so a long-lived process doesn't accrete one dead series per
/// incident.
#[test]
fn quarantine_gauge_is_retired_after_repair() {
    let dir = tmp_dir("gauge");
    let e = UpdatableXRank::open(&dir, EngineConfig::default()).unwrap();
    e.add_xml("a", &doc("alpha")).unwrap();
    e.commit().unwrap();
    let victim = only_seg_id(&dir);

    corrupt_first_page(&dir, victim);
    e.scrub_full();
    let series = format!("xrank_scrub_quarantined{{segment=\"{victim}\"}}");
    let render = e.render_metrics();
    assert!(render.contains(&format!("{series} 1")), "flag exported:\n{render}");
    assert!(render.contains("xrank_scrub_quarantined_segments 1"), "{render}");

    e.repair_segment(victim).unwrap();
    let render = e.render_metrics();
    assert!(
        !render.contains("xrank_scrub_quarantined{segment="),
        "per-segment series retired, not zeroed:\n{render}"
    );
    assert!(render.contains("xrank_scrub_quarantined_segments 0"), "{render}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The background worker closes the loop alone: corrupt a page, wait,
/// and the pipeline heals — quarantine seen, repair done, serving again
/// — with no foreground call.
#[test]
fn background_scrubber_heals_without_foreground_help() {
    let dir = tmp_dir("auto");
    let e = Arc::new(UpdatableXRank::open(&dir, EngineConfig::default()).unwrap());
    e.add_xml("a", &doc("alpha")).unwrap();
    e.commit().unwrap();
    let victim = only_seg_id(&dir);
    corrupt_first_page(&dir, victim);

    let mut scrubber = Scrubber::spawn(
        &e,
        ScrubPolicy { interval: Duration::from_millis(5), pages_per_chunk: 64 },
    );
    scrubber.nudge();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let healed = e.metrics().snapshot().counter("xrank_scrub_repairs_total") >= 1
            && e.quarantined_segments().is_empty();
        if healed {
            break;
        }
        assert!(Instant::now() < deadline, "scrubber never healed the segment");
        std::thread::sleep(Duration::from_millis(10));
    }
    scrubber.shutdown();
    assert!(uris(&e, "shared corpus").contains("a"), "healed pipeline serves");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Boot-time self-repair: damage found by the open-time verification
/// scan is rebuilt before the pipeline comes up, so reopening a rotted
/// directory yields a serving engine, not an error.
#[test]
fn reopen_repairs_rotted_segment_before_serving() {
    let dir = tmp_dir("boot");
    {
        let e = UpdatableXRank::open(&dir, EngineConfig::default()).unwrap();
        e.add_xml("a", &doc("alpha")).unwrap();
        e.commit().unwrap();
    }
    let victim = only_seg_id(&dir);
    corrupt_first_page(&dir, victim);

    let e = UpdatableXRank::open(&dir, EngineConfig::default()).unwrap();
    assert!(uris(&e, "alpha").contains("a"), "rebuilt at open");
    assert_eq!(e.scrub_full().corrupt_segments, Vec::<u64>::new(), "store is clean again");
    assert_eq!(e.metrics().snapshot().counter("xrank_scrub_repairs_total"), 1);
    drop(e);

    // The repair was published, not just installed: the next open finds
    // the rebuilt segment through the manifest.
    let e = UpdatableXRank::open(&dir, EngineConfig::default()).unwrap();
    assert!(uris(&e, "alpha").contains("a"), "rebuilt segment survives a reopen");
    assert_eq!(e.metrics().snapshot().counter("xrank_scrub_repairs_total"), 0);
    drop(e);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every `MANIFEST-<seq>` file in the pipeline directory, ascending.
fn manifest_files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("MANIFEST-"))
        .collect();
    names.sort();
    names
}

/// Boot repair and WAL replay publish together: a delete whose publish
/// died after its manifest write comes back from the log, the rotted
/// segment is rebuilt under a fresh id that keeps the old tombstones and
/// serves bit-identical rankings, both land in one recovery manifest,
/// and the condemned directory is collected. A second reopen then has
/// nothing to repair and nothing to publish.
#[test]
fn boot_repair_and_wal_replay_share_one_recovery_manifest() {
    let dir = tmp_dir("boot-wal");
    let (victim, before, seq) = {
        let e = UpdatableXRank::open(&dir, EngineConfig::default()).unwrap();
        e.add_xml(
            "workshop",
            r#"<workshop><paper><title>XQL and Proximal Nodes</title>
               <body>At first sight the XQL query language looks</body></paper></workshop>"#,
        )
        .unwrap();
        e.add_xml("dead", &doc("ghostly")).unwrap();
        e.add_xml("doomed", &doc("doomed")).unwrap();
        e.commit().unwrap();
        e.delete("dead").unwrap(); // published tombstone
        let before = e.search("xql language", 10).unwrap();
        assert!(!before.hits.is_empty());
        let seq = e.pin().seq();
        e.inject_crash(CrashPoint::AfterManifestWrite);
        assert!(matches!(
            e.delete("doomed"),
            Err(UpdateError::InjectedCrash(CrashPoint::AfterManifestWrite))
        ));
        (only_seg_id(&dir), before, seq)
    };
    corrupt_first_page(&dir, victim);

    let e = UpdatableXRank::open(&dir, EngineConfig::default()).unwrap();
    let found = uris(&e, "shared corpus");
    assert!(!found.contains("doomed"), "replayed delete applies: {found:?}");
    assert!(!found.contains("dead"), "old tombstone survives the rebuild: {found:?}");
    assert_eq!(e.tombstone_count(), 2);
    let rebuilt = only_seg_id(&dir); // the condemned directory is gone
    assert!(rebuilt > victim, "rebuilt under a fresh id: {rebuilt} vs {victim}");
    assert_identical(&before, &e.search("xql language", 10).unwrap(), "boot-repaired rankings");
    // The crashed delete stranded MANIFEST-(seq+1); recovery published
    // exactly one manifest above it.
    assert_eq!(e.pin().seq(), seq + 2, "one recovery manifest");
    assert_eq!(e.metrics().snapshot().counter("xrank_scrub_repairs_total"), 1);
    let repairs = e.recorder().records().into_iter().filter(|r| r.kind == OpKind::Repair);
    assert_eq!(repairs.count(), 1, "the boot repair is on the timeline");
    let manifests = manifest_files(&dir);
    drop(e);

    let e = UpdatableXRank::open(&dir, EngineConfig::default()).unwrap();
    assert_eq!(e.metrics().snapshot().counter("xrank_scrub_repairs_total"), 0);
    assert_eq!(e.pin().seq(), seq + 2, "second reopen publishes nothing");
    assert_eq!(manifest_files(&dir), manifests);
    assert_eq!(only_seg_id(&dir), rebuilt);
    assert_identical(&before, &e.search("xql language", 10).unwrap(), "after second reopen");
    drop(e);
    std::fs::remove_dir_all(&dir).unwrap();
}
