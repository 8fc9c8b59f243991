//! Build → persist → reopen round-trip tests.

use xrank_core::{EngineBuilder, EngineConfig, Strategy, XRankEngine};
use xrank_query::QueryOptions;
use xrank_storage::FileStore;

const CORPUS: &[(&str, &str)] = &[
    (
        "w1",
        "<workshop><paper id=\"1\"><title>XQL and Proximal Nodes</title>\
         <body>the XQL query language looks</body><cite href=\"w2\">x</cite></paper></workshop>",
    ),
    ("w2", "<paper><title>Querying XML in Xyleme language</title></paper>"),
    ("w3", "<note><text>unrelated content here</text></note>"),
];

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("xrank-persist-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn build_persistent(dir: &std::path::Path, with_extras: bool) -> XRankEngine<FileStore> {
    let mut b = EngineBuilder::with_config(EngineConfig {
        with_rdil: with_extras,
        with_naive: with_extras,
        ..Default::default()
    });
    for (uri, xml) in CORPUS {
        b.add_xml(uri, xml).unwrap();
    }
    b.add_html("page", "<html><body>xql on the web</body></html>");
    b.build_persistent(dir).unwrap()
}

#[test]
fn reopened_engine_returns_identical_results() {
    let dir = tempdir("basic");
    let built = build_persistent(&dir, false);
    let before = built.search("xql language", 10).unwrap();
    assert!(!before.hits.is_empty());
    drop(built);

    let reopened = XRankEngine::open(&dir, EngineConfig::default()).unwrap();
    let after = reopened.search("xql language", 10).unwrap();
    assert_eq!(before.hits.len(), after.hits.len());
    for (a, b) in before.hits.iter().zip(after.hits.iter()) {
        assert_eq!(a.dewey, b.dewey);
        assert!((a.score - b.score).abs() < 1e-12);
        assert_eq!(a.path, b.path);
        assert_eq!(a.snippet, b.snippet);
        assert_eq!(a.doc_uri, b.doc_uri);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn all_strategies_survive_reopen() {
    let dir = tempdir("strategies");
    drop(build_persistent(&dir, true));
    let e = XRankEngine::open(&dir, EngineConfig::default()).unwrap();
    let opts = QueryOptions { top_m: 10, ..Default::default() };
    let dil = e.search_with("xql language", Strategy::Dil, &opts).unwrap();
    for strategy in [Strategy::Rdil, Strategy::Hdil, Strategy::NaiveId, Strategy::NaiveRank] {
        let res = e.search_with("xql language", strategy, &opts).unwrap();
        assert!(
            !res.hits.is_empty(),
            "strategy {strategy:?} returned nothing after reopen"
        );
        if matches!(strategy, Strategy::Rdil | Strategy::Hdil) {
            assert_eq!(res.hits.len(), dil.hits.len());
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn html_mode_survives_reopen() {
    let dir = tempdir("html");
    drop(build_persistent(&dir, false));
    let e = XRankEngine::open(&dir, EngineConfig::default()).unwrap();
    let res = e.search("web", 10).unwrap();
    assert_eq!(res.hits.len(), 1);
    assert_eq!(res.hits[0].doc_uri, "page");
    assert_eq!(res.hits[0].path.len(), 1, "HTML pages stay whole documents");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn elem_ranks_survive_reopen() {
    let dir = tempdir("ranks");
    let built = build_persistent(&dir, false);
    let n = built.collection().element_count();
    let expected: Vec<f64> = (0..n as u32).map(|i| built.elem_rank_of(i)).collect();
    drop(built);
    let e = XRankEngine::open(&dir, EngineConfig::default()).unwrap();
    assert!(e.rank_result().converged);
    for (i, &x) in expected.iter().enumerate() {
        assert_eq!(e.elem_rank_of(i as u32), x);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupted_meta_is_rejected() {
    let dir = tempdir("corrupt");
    drop(build_persistent(&dir, false));
    let meta = dir.join("store").join("xrank-meta.bin");
    let mut bytes = std::fs::read(&meta).unwrap();
    bytes[0] = b'Z';
    std::fs::write(&meta, &bytes).unwrap();
    assert!(XRankEngine::open(&dir, EngineConfig::default()).is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn missing_directory_is_a_clean_error() {
    let err = XRankEngine::open("/nonexistent/xrank-zzz", EngineConfig::default());
    assert!(err.is_err());
}

// --- Fault-tolerance validation (PR 3) -------------------------------------

#[test]
fn truncated_meta_is_rejected() {
    let dir = tempdir("truncmeta");
    drop(build_persistent(&dir, false));
    let meta = dir.join("store").join("xrank-meta.bin");
    let bytes = std::fs::read(&meta).unwrap();
    std::fs::write(&meta, &bytes[..bytes.len() / 2]).unwrap();
    let err = XRankEngine::open(&dir, EngineConfig::default());
    assert!(err.is_err(), "truncated meta must not open");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn other_meta_versions_are_rejected_naming_both_versions() {
    let dir = tempdir("otherver");
    drop(build_persistent(&dir, false));
    let meta = dir.join("store").join("xrank-meta.bin");
    let mut bytes = std::fs::read(&meta).unwrap();
    assert_eq!(bytes[4..8], 5u32.to_le_bytes(), "the version this build writes");
    // The four retired versions and one from the future.
    for version in [1u32, 2, 3, 4, 99] {
        bytes[4..8].copy_from_slice(&version.to_le_bytes()); // version after magic
        std::fs::write(&meta, &bytes).unwrap();
        let err = XRankEngine::open(&dir, EngineConfig::default()).err().expect("must fail");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(
            msg.contains(&format!("version {version} ")) && msg.contains("reads version 5 only"),
            "undescriptive error: {msg}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The meta file carries no checksum, so its counts are unchecked input:
/// a flipped one must end in an error, not in a 100 GB allocation.
#[test]
fn flipped_list_table_count_is_an_error_not_an_abort() {
    let dir = tempdir("hugecount");
    let built = build_persistent(&dir, false);
    let collection = built.collection();
    let mut serialized = Vec::new();
    collection.write_to(&mut serialized).unwrap();
    // magic + version, collection, rank vector (count, scores, iterations,
    // converged, residual), HTML set (count, one page), DIL segment id.
    let dil_count_at =
        8 + serialized.len() + (8 + 8 * collection.element_count() + 4 + 4 + 8) + (4 + 4) + 4;
    let terms = collection.vocabulary().len() as u32;
    drop(built);

    let meta = dir.join("store").join("xrank-meta.bin");
    let mut bytes = std::fs::read(&meta).unwrap();
    let count = &mut bytes[dil_count_at..dil_count_at + 4];
    assert_eq!(count, terms.to_le_bytes(), "the DIL list table has one slot per term");
    count.copy_from_slice(&u32::MAX.to_le_bytes());
    std::fs::write(&meta, &bytes).unwrap();
    assert!(XRankEngine::open(&dir, EngineConfig::default()).is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The collection's counts are unchecked input too: a flipped element or
/// token count must be `InvalidData`, not an allocation abort.
#[test]
fn flipped_collection_counts_are_errors_not_aborts() {
    let dir = tempdir("hugecollection");
    let built = build_persistent(&dir, false);
    let collection = built.collection();
    // Offset of the element count in the meta file: magic + version, then
    // the collection's magic, version, documents, vocabulary and
    // unresolved-link count. Every string here is shorter than 128 bytes,
    // so its length is a one-byte varint.
    let short = |s: &str| {
        assert!(s.len() < 128);
        1 + s.len()
    };
    let docs: usize = collection.docs().iter().map(|d| short(&d.uri) + 12).sum();
    let terms: usize = collection.vocabulary().iter().map(|(_, t)| short(t)).sum();
    let elements_at = 8 + 8 + 4 + docs + 4 + terms + 4;
    // The first element: document, tag name, parent, then its token count.
    let first = collection.element(0);
    let tokens_at = elements_at + 4 + 4 + short(&first.name) + 4;
    let (n_elements, n_tokens) = (collection.element_count() as u32, first.tokens.len() as u8);
    drop(built);

    let meta = dir.join("store").join("xrank-meta.bin");
    let original = std::fs::read(&meta).unwrap();
    assert_eq!(original[elements_at..elements_at + 4], n_elements.to_le_bytes());
    assert!(n_tokens > 0 && n_tokens < 128 && original[tokens_at] == n_tokens);

    let mut elements = original.clone();
    elements[elements_at..elements_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    let mut tokens = original[..tokens_at].to_vec();
    xrank_dewey::codec::write_component(u32::MAX, &mut tokens);
    tokens.extend(&original[tokens_at + 1..]);
    for (what, bytes) in [("element count", elements), ("token count", tokens)] {
        std::fs::write(&meta, &bytes).unwrap();
        let err = XRankEngine::open(&dir, EngineConfig::default()).err().expect(what);
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}: {err}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bit_flipped_segment_fails_open() {
    let dir = tempdir("bitflip");
    drop(build_persistent(&dir, false));
    let seg = dir.join("store").join("seg-0.pages");
    let mut bytes = std::fs::read(&seg).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&seg, &bytes).unwrap();
    let err = XRankEngine::open(&dir, EngineConfig::default());
    assert!(err.is_err(), "checksum verification must reject a flipped bit");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The checksum scan runs beside the meta decode; when both fail, the
/// meta error is reported, as when they ran one after the other.
#[test]
fn meta_error_wins_over_a_checksum_error() {
    let dir = tempdir("botherrors");
    drop(build_persistent(&dir, false));
    let seg = dir.join("store").join("seg-0.pages");
    let mut bytes = std::fs::read(&seg).unwrap();
    bytes[100] ^= 0x01;
    std::fs::write(&seg, &bytes).unwrap();
    let err = XRankEngine::open(&dir, EngineConfig::default()).err().expect("flipped bit");
    assert!(err.to_string().contains("checksum mismatch on segment 0 page 0"), "{err}");

    let meta = dir.join("store").join("xrank-meta.bin");
    let mut bytes = std::fs::read(&meta).unwrap();
    bytes[0] = b'Z';
    std::fs::write(&meta, &bytes).unwrap();
    let err = XRankEngine::open(&dir, EngineConfig::default()).err().expect("both damaged");
    assert!(err.to_string().contains("engine meta: bad magic"), "{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fresh_save_over_damaged_dir_succeeds() {
    let dir = tempdir("resave");
    drop(build_persistent(&dir, false));
    // Damage both the meta and a segment.
    let meta = dir.join("store").join("xrank-meta.bin");
    let mut bytes = std::fs::read(&meta).unwrap();
    bytes[0] = b'Z';
    std::fs::write(&meta, &bytes).unwrap();
    let seg = dir.join("store").join("seg-0.pages");
    std::fs::write(&seg, b"garbage").unwrap();
    assert!(XRankEngine::open(&dir, EngineConfig::default()).is_err());

    // A fresh save over the damaged directory fully replaces it.
    drop(build_persistent(&dir, false));
    let e = XRankEngine::open(&dir, EngineConfig::default()).unwrap();
    assert!(!e.search("xql language", 10).unwrap().hits.is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn crash_between_save_and_rename_leaves_previous_index_openable() {
    let dir = tempdir("crashsim");
    let built = build_persistent(&dir, false);
    let expected = built.search("xql language", 10).unwrap();
    drop(built);

    // Crash state A: a later save died while still writing store.tmp
    // (incomplete staging dir beside the intact live store).
    let tmp = dir.join("store.tmp");
    std::fs::create_dir_all(&tmp).unwrap();
    std::fs::write(tmp.join("seg-0.pages"), b"half-written").unwrap();
    let e = XRankEngine::open(&dir, EngineConfig::default()).unwrap();
    assert_eq!(e.search("xql language", 10).unwrap().hits.len(), expected.hits.len());
    drop(e);

    // Crash state B: killed between the two commit renames — the previous
    // index sits at store.old, there is no live store yet.
    std::fs::rename(dir.join("store"), dir.join("store.old")).unwrap();
    let e = XRankEngine::open(&dir, EngineConfig::default()).unwrap();
    let got = e.search("xql language", 10).unwrap();
    assert_eq!(got.hits.len(), expected.hits.len());
    for (a, b) in expected.hits.iter().zip(got.hits.iter()) {
        assert_eq!(a.dewey, b.dewey);
    }
    drop(e);

    // Recovery by a fresh save cleans up all crash debris.
    drop(build_persistent(&dir, false));
    assert!(!dir.join("store.tmp").exists(), "staging dir must be consumed");
    let e = XRankEngine::open(&dir, EngineConfig::default()).unwrap();
    assert!(!e.search("xql language", 10).unwrap().hits.is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
}
