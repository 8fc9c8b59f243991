//! Write-ahead-log durability contract tests.
//!
//! Three properties, each with its own failure injection:
//!
//! 1. **Acceptance is durable**: a mutation whose call returned `Ok` is
//!    recovered by reopen even if the process dies before the next
//!    `commit` — the log replays it back into the staged set.
//! 2. **Rejection is atomic**: when the log append itself fails (ENOSPC,
//!    EIO), the mutation is rejected with a typed
//!    [`UpdateError::WalAppend`] and NOTHING changed — not the staged
//!    set, not the tombstones, not the published snapshot — and the
//!    rejected document can never resurface, reopen or not.
//! 3. **Damage degrades, never corrupts**: a torn or bit-flipped log
//!    tail silently ends replay at the damage, losing at most a suffix
//!    of unpublished records; the published snapshot and every record
//!    before the damage survive, and the log stays appendable.

use proptest::prelude::*;
use std::collections::HashSet;
use std::path::PathBuf;
use xrank_core::{EngineConfig, SyncPolicy, UpdatableXRank, UpdateError, WalFault};

fn doc(word: &str) -> String {
    format!("<doc><title>{word} item</title><body>shared corpus text about {word}</body></doc>")
}

fn tmp_dir(tag: &str) -> PathBuf {
    let pid = std::process::id();
    let dir = std::env::temp_dir().join(format!("xrank-wal-{tag}-{pid}"));
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

/// One failed append rejects exactly that mutation — typed error, no
/// staged entry, no tombstone, no published change — and the pipeline
/// keeps accepting once the fault clears.
#[test]
fn wal_append_failure_rejects_the_mutation_atomically() {
    let dir = tmp_dir("enospc");
    let e = UpdatableXRank::open(&dir, EngineConfig::default()).unwrap();
    e.add_xml("a", &doc("alpha")).unwrap();
    e.commit().unwrap();

    e.wal_inject_fault(Some(WalFault { after: 0, times: 1, no_space: true }));
    match e.add_xml("x", &doc("xray")) {
        Err(UpdateError::WalAppend(inner)) => {
            let msg = format!("{}", UpdateError::WalAppend(inner));
            assert!(msg.contains("rejected"), "error names the contract: {msg}");
        }
        other => panic!("expected WalAppend rejection, got {other:?}"),
    }
    assert_eq!(e.doc_count(), 1, "nothing staged");
    assert_eq!(e.staged_count(), 0);
    assert!(!uris(&e, "shared corpus").contains("x"));
    assert!(e.metrics().snapshot().counter("xrank_wal_append_failures_total") >= 1);

    // The fault was one-shot: the very next append goes through.
    e.add_xml("x", &doc("xray")).unwrap();
    e.commit().unwrap();
    assert!(uris(&e, "shared corpus").contains("x"));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Deletes and replaces hit the log first too: a failed append leaves
/// the published document fully intact — still searchable, no tombstone.
#[test]
fn wal_append_failure_leaves_delete_and_replace_untouched() {
    let dir = tmp_dir("del-replace");
    let e = UpdatableXRank::open(&dir, EngineConfig::default()).unwrap();
    e.add_xml("a", &doc("alpha")).unwrap();
    e.commit().unwrap();

    e.wal_inject_fault(Some(WalFault { after: 0, times: 2, no_space: false }));
    assert!(matches!(e.delete("a"), Err(UpdateError::WalAppend(_))));
    assert_eq!(e.tombstone_count(), 0, "rejected delete left no tombstone");
    assert!(uris(&e, "alpha").contains("a"), "document still serves");

    assert!(matches!(e.add_xml("a", &doc("beta")), Err(UpdateError::WalAppend(_))));
    assert!(uris(&e, "alpha").contains("a"), "rejected replace kept the old version");
    assert_eq!(e.staged_count(), 0);

    // Fault exhausted: the replace now lands and supersedes cleanly.
    e.add_xml("a", &doc("beta")).unwrap();
    e.commit().unwrap();
    assert!(uris(&e, "beta").contains("a"));
    assert!(uris(&e, "alpha").is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A cleanly-rejected mutation must never resurface — not even through
/// recovery, which replays only *logged* (accepted) records.
#[test]
fn rejected_mutation_never_resurrects_after_reopen() {
    let dir = tmp_dir("ghost");
    {
        let e = UpdatableXRank::open(&dir, EngineConfig::default()).unwrap();
        e.add_xml("a", &doc("alpha")).unwrap();
        e.commit().unwrap();
        e.wal_inject_fault(Some(WalFault { after: 0, times: 1, no_space: true }));
        assert!(matches!(e.add_xml("ghost", &doc("spectral")), Err(UpdateError::WalAppend(_))));
    }
    let e = UpdatableXRank::open(&dir, EngineConfig::default()).unwrap();
    assert_eq!(e.doc_count(), 1, "no ghost in staged");
    e.commit().unwrap();
    assert!(uris(&e, "spectral").is_empty(), "rejected doc stays gone");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The headline guarantee: accepted-but-uncommitted mutations survive a
/// process death. Drop without commit, reopen, and the staged set is
/// back — including a replace's tombstone half and an uncommitted
/// delete.
#[test]
fn acked_mutations_survive_reopen_without_commit() {
    let dir = tmp_dir("acked");
    {
        let e = UpdatableXRank::open(&dir, EngineConfig::default()).unwrap();
        e.add_xml("a", &doc("alpha")).unwrap();
        e.add_xml("b", &doc("beta")).unwrap();
        e.commit().unwrap();
        // Acked, never committed: one fresh add, one replace, one delete.
        e.add_xml("c", &doc("gamma")).unwrap();
        e.add_xml("a", &doc("delta")).unwrap();
        e.delete("b").unwrap();
    } // process "dies" with the batch un-committed

    let e = UpdatableXRank::open(&dir, EngineConfig::default()).unwrap();
    assert_eq!(e.staged_count(), 2, "c + replacement of a");
    // The delete itself published its tombstone inline (and checkpointed
    // the log), so exactly the two still-staged adds replay.
    assert_eq!(e.metrics().snapshot().counter("xrank_wal_replayed_records_total"), 2);
    e.commit().unwrap();
    let found = uris(&e, "shared corpus");
    assert!(found.contains("c"), "uncommitted add recovered: {found:?}");
    assert!(uris(&e, "delta").contains("a"), "replace recovered the new version");
    assert!(uris(&e, "alpha").is_empty(), "replace tombstone recovered");
    assert!(!found.contains("b"), "uncommitted delete recovered: {found:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `wal.enabled = false` restores the pre-log pipeline bit-for-bit:
/// staged documents die with the process and no log file is created.
#[test]
fn disabled_wal_restores_pre_log_semantics() {
    let dir = tmp_dir("disabled");
    let cfg = EngineConfig { wal: xrank_core::WalConfig { enabled: false, ..Default::default() }, ..Default::default() };
    {
        let e = UpdatableXRank::open(&dir, cfg.clone()).unwrap();
        e.add_xml("a", &doc("alpha")).unwrap();
        e.commit().unwrap();
        e.add_xml("b", &doc("beta")).unwrap();
    }
    assert!(!dir.join("wal.log").exists(), "no log file without the feature");
    let e = UpdatableXRank::open(&dir, cfg).unwrap();
    assert_eq!(e.doc_count(), 1, "staged doc died with the process");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every sync policy accepts writes, checkpoints, and replays. (An
/// in-process drop flushes buffered writes on close, so `GroupCommit`
/// recovers here too — the policies differ only in what a hard kill can
/// lose.)
#[test]
fn all_sync_policies_accept_and_replay() {
    for (i, sync) in [
        SyncPolicy::Always,
        SyncPolicy::GroupCommit(std::time::Duration::from_millis(5)),
    ]
    .into_iter()
    .enumerate()
    {
        let dir = tmp_dir(&format!("policy-{i}"));
        let cfg = EngineConfig {
            wal: xrank_core::WalConfig { enabled: true, sync },
            ..Default::default()
        };
        {
            let e = UpdatableXRank::open(&dir, cfg.clone()).unwrap();
            e.add_xml("a", &doc("alpha")).unwrap();
            e.commit().unwrap();
            e.add_xml("b", &doc("beta")).unwrap();
            e.wal_sync().unwrap(); // manual flush is always available
        }
        let e = UpdatableXRank::open(&dir, cfg).unwrap();
        assert_eq!(e.staged_count(), 1, "{sync:?}");
        e.commit().unwrap();
        assert!(uris(&e, "beta").contains("b"), "{sync:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Truncate the log at EVERY byte prefix: reopen must always succeed,
/// the published snapshot must always survive, and the recovered staged
/// set must be a *prefix* of the acked sequence — a torn tail loses a
/// suffix of unpublished records, never a middle record, never
/// everything.
#[test]
fn every_byte_prefix_of_the_log_replays_a_prefix_of_acked_records() {
    let dir = tmp_dir("prefix");
    {
        let e = UpdatableXRank::open(&dir, EngineConfig::default()).unwrap();
        e.add_xml("a", &doc("alpha")).unwrap();
        e.commit().unwrap();
        e.add_xml("c1", &doc("one")).unwrap();
        e.add_xml("c2", &doc("two")).unwrap();
        e.add_xml("c3", &doc("three")).unwrap();
    }
    let full = std::fs::read(dir.join("wal.log")).unwrap();
    let staged_words = ["one", "two", "three"];

    let mut max_recovered = 0usize;
    let mut prev_recovered = 0usize;
    for len in 0..=full.len() {
        std::fs::write(dir.join("wal.log"), &full[..len]).unwrap();
        let e = UpdatableXRank::open(&dir, EngineConfig::default())
            .unwrap_or_else(|err| panic!("prefix {len}/{}: open failed: {err}", full.len()));
        let k = e.staged_count();
        assert!(k <= 3, "prefix {len}: staged {k}");
        assert!(
            k >= prev_recovered || k == 0,
            "prefix {len}: longer prefix recovered fewer records ({prev_recovered} -> {k})"
        );
        prev_recovered = k;
        max_recovered = max_recovered.max(k);

        // Publish whatever was recovered and check the prefix property
        // through search: c2 present implies c1 present, etc.
        e.commit().unwrap();
        let found = uris(&e, "shared corpus");
        assert!(found.contains("a"), "prefix {len}: published doc lost: {found:?}");
        let mut seen_gap = false;
        for (i, w) in staged_words.iter().enumerate() {
            let here = uris(&e, w).contains(&format!("c{}", i + 1));
            assert!(
                !(here && seen_gap),
                "prefix {len}: c{} recovered past a lost earlier record",
                i + 1
            );
            seen_gap |= !here;
        }
        // Reset the directory to published-doc-"a" + the full log for
        // the next prefix: tear down everything this iteration staged.
        drop(e);
        std::fs::remove_dir_all(&dir).unwrap();
        let e = UpdatableXRank::open(&dir, EngineConfig::default()).unwrap();
        e.add_xml("a", &doc("alpha")).unwrap();
        e.commit().unwrap();
        drop(e);
    }
    assert_eq!(max_recovered, 3, "the full log replays every record");
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Arbitrary single-byte corruption anywhere in the log — header
    /// included — never panics recovery, never loses the published
    /// snapshot, and never resurrects a document that was not acked.
    fn random_log_corruption_degrades_but_never_corrupts(
        pos_ppm in 0u32..1_000_000,
        xor in 1u32..=255,
    ) {
        let xor = xor as u8;
        let dir = tmp_dir(&format!("flip-{}", pos_ppm as u64 ^ xor as u64));
        {
            let e = UpdatableXRank::open(&dir, EngineConfig::default()).unwrap();
            e.add_xml("a", &doc("alpha")).unwrap();
            e.commit().unwrap();
            e.add_xml("c1", &doc("one")).unwrap();
            e.add_xml("c2", &doc("two")).unwrap();
        }
        let path = dir.join("wal.log");
        let mut bytes = std::fs::read(&path).unwrap();
        let pos = (pos_ppm as usize * bytes.len() / 1_000_000).min(bytes.len() - 1);
        bytes[pos] ^= xor;
        std::fs::write(&path, &bytes).unwrap();

        let e = UpdatableXRank::open(&dir, EngineConfig::default()).unwrap();
        prop_assert!(e.staged_count() <= 2, "replay invented records");
        e.commit().unwrap();
        let found = uris(&e, "shared corpus");
        prop_assert!(found.contains("a"), "published doc lost: {found:?}");
        prop_assert!(found.len() <= 3, "unacked doc appeared: {found:?}");
        // The damaged log was checkpointed at open: the pipeline stays
        // appendable afterwards.
        e.add_xml("d", &doc("fresh")).unwrap();
        e.commit().unwrap();
        prop_assert!(uris(&e, "fresh").contains("d"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
