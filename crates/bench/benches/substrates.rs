//! Criterion microbenchmarks for the substrates: Dewey codec, B+-tree
//! probes, posting-list reads, RDIL's and HDIL's Figure 7 loop, the two
//! halves of an engine open, one engine query with its envelope (result
//! presentation and the flight record), XML parsing, tokenization.
//!
//! Run with `cargo bench -p xrank-bench --bench substrates`. The shim
//! prints min / mean / max per benchmark; compare minimums, which see
//! through a host whose speed changes between runs.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use xrank_core::{EngineBuilder, EngineConfig, Strategy, XRankEngine};
use xrank_datagen::plant::{high_keyword, PlantConfig};
use xrank_dewey::{codec, DeweyId};
use xrank_graph::{Collection, CollectionBuilder, TermId};
use xrank_index::posting::Posting;
use xrank_index::{DilIndex, HdilIndex, RdilIndex};
use xrank_query::{dil_query, hdil_query, rdil_query, QueryOptions};
use xrank_storage::btree::SortedKv;
use xrank_storage::{BufferPool, CostModel, FileStore, MemStore, PageStore};

fn bench_dewey_codec(c: &mut Criterion) {
    let ids: Vec<DeweyId> = (0..1000u32)
        .map(|i| DeweyId::from([i % 64, 0, i % 9, i % 31, i % 5, i % 300]))
        .collect();
    let encoded: Vec<Vec<u8>> = ids.iter().map(codec::encode_id).collect();

    let mut g = c.benchmark_group("dewey");
    g.throughput(Throughput::Elements(ids.len() as u64));
    g.bench_function("encode-1k", |b| {
        b.iter(|| {
            let mut buf = Vec::with_capacity(16);
            for id in &ids {
                buf.clear();
                codec::encode_id_into(id, &mut buf);
                black_box(&buf);
            }
        })
    });
    g.bench_function("decode-1k", |b| {
        b.iter(|| {
            for e in &encoded {
                black_box(codec::decode_id(e).unwrap());
            }
        })
    });
    g.bench_function("compare-encoded-1k", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for w in encoded.windows(2) {
                if w[0] < w[1] {
                    acc += 1;
                }
            }
            black_box(acc)
        })
    });
    g.finish();
}

fn bench_btree_probe(c: &mut Criterion) {
    let mut pool = BufferPool::new(MemStore::new(), 1 << 16);
    let entries: Vec<(Vec<u8>, Vec<u8>)> = (0..200_000u32)
        .map(|i| (codec::encode_id(&DeweyId::from([i >> 10, 0, i & 1023])), vec![0u8; 8]))
        .collect();
    let tree = SortedKv::build(&mut pool, &entries).unwrap();

    let mut g = c.benchmark_group("btree");
    g.bench_function("lowest_geq/200k", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = (i.wrapping_mul(2654435761)) % 200_000;
            let key = codec::encode_id(&DeweyId::from([i >> 10, 0, i & 1023]));
            black_box(tree.lowest_geq(&pool, &key))
        })
    });
    // The same probe served three ways: a fresh root descent per call
    // (the pre-cursor hot path), a stateful cursor over a monotone target
    // sequence (the TA fast path: pinned leaf + short sibling walks), and
    // a stateful cursor over the random sequence above (worst case: the
    // cursor degrades to descents and must not cost more than they do).
    g.bench_function("cursor_monotone/200k", |b| {
        let mut i = 0u32;
        let mut cur = tree.cursor();
        b.iter(|| {
            i = (i + 17) % 200_000;
            if i < 17 {
                cur = tree.cursor(); // wrapped: reset so seeks stay forward
            }
            let key = codec::encode_id(&DeweyId::from([i >> 10, 0, i & 1023]));
            black_box(cur.seek_geq(&pool, &key))
        })
    });
    g.bench_function("cursor_random/200k", |b| {
        let mut i = 0u32;
        let mut cur = tree.cursor();
        b.iter(|| {
            i = (i.wrapping_mul(2654435761)) % 200_000;
            let key = codec::encode_id(&DeweyId::from([i >> 10, 0, i & 1023]));
            black_box(cur.seek_geq(&pool, &key))
        })
    });
    g.finish();
}

/// Two Dewey lists over 50 000 documents, cached in the pool: `alpha` in
/// four elements of every document (200 000 postings), `beta` in three
/// (150 000), two of them shared with `alpha`, so the two-keyword merge
/// finds results in every document.
fn bench_list(c: &mut Criterion) {
    const DOCS: u32 = 50_000;
    let list = |paths: &[&[u32]]| -> Vec<Posting> {
        (0..DOCS)
            .flat_map(|d| {
                paths.iter().enumerate().map(move |(k, path)| Posting {
                    elem: 0,
                    dewey: DeweyId::from_components([&[d, 0][..], path].concat()),
                    rank: ((d * 7 + k as u32) % 97 + 1) as f32 / 128.0,
                    positions: vec![d % 40 + k as u32, d % 40 + 9],
                })
            })
            .collect()
    };
    let alpha = list(&[&[0], &[1, 0], &[1, 2], &[3]]);
    let beta = list(&[&[1, 0], &[2], &[3]]);
    let mut pool = BufferPool::new(MemStore::new(), 1 << 14);
    let dil = DilIndex::build(&mut pool, &[alpha.clone(), beta]).unwrap();
    let (a, b) = (TermId(0), TermId(1));
    assert!(alpha.len() >= 200_000 && dil.meta(a).unwrap().page_count < 1 << 14);

    let mut g = c.benchmark_group("list");
    g.sample_size(25);
    g.throughput(Throughput::Elements(alpha.len() as u64));
    g.bench_function("scan-next/200k", |bch| {
        bch.iter(|| {
            let mut r = dil.reader(a).unwrap();
            while let Some(p) = r.next(&pool).unwrap() {
                black_box(p);
            }
        })
    });
    g.bench_function("scan-advance/200k", |bch| {
        bch.iter(|| {
            let mut r = dil.reader(a).unwrap();
            while r.advance(&pool).unwrap() {
                black_box(r.current());
            }
        })
    });
    let targets: Vec<&DeweyId> = alpha.iter().step_by(64).map(|p| &p.dewey).collect();
    g.throughput(Throughput::Elements(targets.len() as u64));
    g.bench_function("next_seek-stride64/200k", |bch| {
        bch.iter(|| {
            let mut r = dil.reader(a).unwrap();
            for t in &targets {
                r.next_seek(&pool, t).unwrap();
            }
            black_box(r.decoded())
        })
    });
    let opts = QueryOptions::default();
    g.throughput(Throughput::Elements(350_000));
    g.bench_function("dil-evaluate/2kw", |bch| {
        bch.iter(|| black_box(dil_query::evaluate(&pool, &dil, &[a, b], &opts).unwrap()))
    });
    g.finish();
}

/// RDIL's Figure 7 loop (§4.3.2) on two keyword pairs over 40 000
/// documents, one posting per keyword and document, cached in the pool;
/// each list spans about a hundred B+-tree leaves. `alpha` and `beta` sit
/// in disjoint documents except every 500th, which holds both: the
/// Fig. 11 regime, where nearly every consumed entry's probe kills it and
/// the TA loop runs deep. `gamma` and `delta` share an element in every
/// document: the Fig. 10 regime, where the loop stops after a few rounds.
/// The `hdil-` twins run the §4.4.2 strategy over an `HdilIndex` of the
/// same four lists: its probes and range scans search the keyword cursor's
/// decoded list block instead of a B+-tree leaf, and the uncorrelated pair
/// switches to DIL.
fn bench_rdil(c: &mut Criterion) {
    const DOCS: u32 = 40_000;
    let list = |keep: fn(u32) -> bool, path: &[u32], salt: u32| -> Vec<Posting> {
        (0..DOCS)
            .filter(|&d| keep(d))
            .map(|d| Posting {
                elem: 0,
                dewey: DeweyId::from_components([&[d, 0][..], path].concat()),
                rank: ((d.wrapping_mul(2_654_435_761) ^ salt) % 9973 + 1) as f32 / 16_384.0,
                positions: vec![d % 40 + salt, d % 40 + 9],
            })
            .collect()
    };
    let alpha = list(|d| d % 2 == 0 || d % 500 == 1, &[1], 1);
    let beta = list(|d| d % 2 == 1, &[2, 0], 2);
    let gamma = list(|_| true, &[3], 3);
    let delta = list(|_| true, &[3], 4);
    let entries = (alpha.len() + beta.len()) as u64;
    let lists = [alpha, beta, gamma, delta];
    let mut pool = BufferPool::new(MemStore::new(), 1 << 14);
    let rdil = RdilIndex::build(&mut pool, &lists).unwrap();
    assert!(rdil.tree.leaf_count >= 300, "{} leaves", rdil.tree.leaf_count);
    let hdil = HdilIndex::build(&mut pool, &lists).unwrap();
    let (opts, cost) = (QueryOptions::default(), CostModel::default());
    let (uncorrelated, correlated) = ([TermId(0), TermId(1)], [TermId(2), TermId(3)]);

    let mut g = c.benchmark_group("rdil");
    g.sample_size(10);
    g.throughput(Throughput::Elements(entries));
    g.bench_function("evaluate-uncorrelated/2kw", |bch| {
        bch.iter(|| black_box(rdil_query::evaluate(&pool, &rdil, &uncorrelated, &opts).unwrap()))
    });
    g.throughput(Throughput::Elements(1));
    g.bench_function("evaluate-correlated/2kw", |bch| {
        bch.iter(|| black_box(rdil_query::evaluate(&pool, &rdil, &correlated, &opts).unwrap()))
    });
    g.bench_function("hdil-evaluate-correlated/2kw", |bch| {
        bch.iter(|| {
            black_box(hdil_query::evaluate(&pool, &hdil, &correlated, &opts, &cost).unwrap())
        })
    });
    g.throughput(Throughput::Elements(entries));
    g.bench_function("hdil-evaluate-uncorrelated/2kw", |bch| {
        bch.iter(|| {
            black_box(hdil_query::evaluate(&pool, &hdil, &uncorrelated, &opts, &cost).unwrap())
        })
    });
    g.finish();
}

/// The two halves of `XRankEngine::open`, which run side by side: the
/// checksum scan of a 4 096-page `FileStore` (16 MiB of slots, page cache
/// warm after the first sample) and the decode of a dblp(2 000)
/// collection from memory.
fn bench_open(c: &mut Criterion) {
    const PAGES: u32 = 4096;
    let dir = std::env::temp_dir().join(format!("xrank-bench-open-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = FileStore::open(&dir).unwrap();
    let seg = store.create_segment().unwrap();
    for p in 0..PAGES {
        let page: Vec<u8> = (0..4096u32).map(|i| (i.wrapping_mul(p + 1) >> 3) as u8).collect();
        store.append_page(seg, &page).unwrap();
    }

    let ds = xrank_datagen::dblp::generate(&Default::default());
    let mut builder = CollectionBuilder::new();
    for (uri, xml) in &ds.docs {
        builder.add_xml_str(uri, xml).unwrap();
    }
    let mut serialized = Vec::new();
    builder.build().write_to(&mut serialized).unwrap();

    let mut g = c.benchmark_group("open");
    g.sample_size(20);
    g.throughput(Throughput::Elements(PAGES as u64));
    g.bench_function("verify/4096-pages", |b| b.iter(|| store.verify().unwrap()));
    g.throughput(Throughput::Bytes(serialized.len() as u64));
    g.bench_function("collection-read/dblp-2000", |b| {
        b.iter(|| black_box(Collection::read_from(&mut serialized.as_slice()).unwrap()))
    });
    g.finish();
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

fn planted_engine(docs: &[(String, String)]) -> XRankEngine {
    let mut b = EngineBuilder::with_config(EngineConfig { with_rdil: true, ..Default::default() });
    for (uri, xml) in docs {
        b.add_xml(uri, xml).unwrap();
    }
    b.build()
}

/// `XRankEngine::query` end to end on a warm pool: tokenize, evaluate,
/// present the top 10 (Dewey → element, path, snippet, URI) and, with
/// the recorder on, trace the query and hand the trace to the flight
/// recorder. `rdil-2kw` is one correlated two-keyword RDIL query over a
/// dblp(2 000) engine, timed with the recorder on and off; `hdil-deep`
/// is an HDIL query over xmark(0.2) whose hits sit at depth 5 and below.
fn bench_engine(c: &mut Criterion) {
    let plant = Some(PlantConfig::default());
    let dblp = planted_engine(
        &xrank_datagen::dblp::generate(&xrank_datagen::dblp::DblpConfig {
            plant,
            ..Default::default()
        })
        .docs,
    );
    let xmark = planted_engine(
        &xrank_datagen::xmark::generate(&xrank_datagen::xmark::XmarkConfig {
            scale: 0.2,
            plant,
            ..Default::default()
        })
        .docs,
    );
    let query = format!("{} {}", high_keyword(0, 0), high_keyword(0, 1));
    let opts = QueryOptions { top_m: 10, ..Default::default() };
    assert_eq!(dblp.query(&query, Strategy::Rdil, &opts).unwrap().hits.len(), 10);
    let deep = xmark.query(&query, Strategy::Hdil, &opts).unwrap();
    assert_eq!(deep.hits.len(), 10);
    assert!(deep.hits.iter().all(|h| h.path.len() >= 5), "shallow xmark hits");

    let mut g = c.benchmark_group("engine");
    g.sample_size(20);
    g.throughput(Throughput::Elements(1));
    for on in [true, false] {
        dblp.recorder().set_enabled(on);
        let id = format!("query-rdil-2kw/recorder-{}", if on { "on" } else { "off" });
        g.bench_function(id, |b| {
            b.iter(|| black_box(dblp.query(&query, Strategy::Rdil, &opts).unwrap()))
        });
    }
    g.bench_function("query-hdil-deep-xmark/recorder-on", |b| {
        b.iter(|| black_box(xmark.query(&query, Strategy::Hdil, &opts).unwrap()))
    });
    g.finish();
}

fn bench_xml_parse(c: &mut Criterion) {
    let ds = xrank_datagen::xmark::generate(&xrank_datagen::xmark::XmarkConfig {
        scale: 0.2,
        ..Default::default()
    });
    let xml = &ds.docs[0].1;
    let mut g = c.benchmark_group("xml");
    g.throughput(Throughput::Bytes(xml.len() as u64));
    g.bench_function("parse-xmark-0.2", |b| {
        b.iter(|| black_box(xrank_xml::parse(xml).unwrap()))
    });
    g.bench_function("tokenize-xmark-0.2", |b| {
        b.iter(|| black_box(xrank_graph::tokenize(xml)))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_dewey_codec,
    bench_btree_probe,
    bench_list,
    bench_rdil,
    bench_open,
    bench_engine,
    bench_xml_parse
);
criterion_main!(benches);
