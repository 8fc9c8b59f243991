//! The traced run (`--trace 1`): a rig owned by the benchmark calls the
//! layers in the engine's own order through their public constructors,
//! wraps every call in a span, and derives the per-layer metrics from the
//! spans and from the counters the calls return. Nothing inside the
//! engine is instrumented; end-to-end metrics never come from here.

use crate::check::{establish, Checked, Tally};
use crate::corpus::{dblp_corpus, xmark_corpus, Corpus, Rng, Sizes};
use crate::env::{out_dir, Scratch};
use crate::reads::{per_trial_latency, query_options, TOP_M, TRIALS};
use crate::spans::{chrome_trace, coverage_by_operation, layer_table, Tracer, RIG};
use crate::stats::{median, mix_latency, per_trial, Better, Summary};
use crate::store::{build_index, engine_config, open_index, POOL_FITS};
use crate::updates::{open_pipeline, Writer};
use crate::workloads::{corpus_for, pool_for, queries_for, update_stream, Outcome, Params};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use xrank::dewey::{codec, DeweyId};
use xrank::graph::{Collection, CollectionBuilder, TermId};
use xrank::index::posting::composite_key;
use xrank::index::{direct_postings, HdilIndex, Posting, RdilIndex};
use xrank::query::{dil_query, hdil_query, rdil_query, EvalStats};
use xrank::rank::{elem_rank, RankResult};
use xrank::storage::{BufferPool, FileStore, PageId, PageStore, PAGE_SIZE};
use xrank::{
    AdmissionPolicy, EngineConfig, ObsConfig, QueryExecutor, QueryRequest, RecorderConfig, Strategy,
};

/// Layer spans must cover at least this share of every operation's wall.
const MIN_COVERAGE: f64 = 0.95;

/// The rig's ingest wall must be within this share of `build_persistent`'s
/// — otherwise the rig is not measuring the engine's pipeline.
const RIG_TOLERANCE: f64 = 0.15;

/// Documents per `xml.parse` / `graph.add` span of the rig's ingest.
const INGEST_BATCH: usize = 256;

/// The trace file holds the first few operations of every kind, whole:
/// `validate_chrome_trace` parses strings in quadratic time, so a full
/// trace of a run (tens of thousands of spans) would take minutes to
/// check. Every span still counts in the metrics and the layer table.
const TRACED_OPERATIONS_PER_KIND: usize = 4;

/// Shares of `--seconds` the two sampled phases of a traced run get.
const EVAL_SHARE: f64 = 0.3;
const ENGINE_SHARE: f64 = 0.3;

type Metrics = Vec<(&'static str, Summary)>;

/// What a traced run accumulates: spans, checked operations, metrics.
struct Recording {
    tracer: Tracer,
    tally: Tally,
    metrics: Metrics,
}

/// Everything the engine's build produces, held by the rig itself.
struct Layers {
    collection: Collection,
    ranks: RankResult,
    hdil: HdilIndex,
    rdil: RdilIndex,
    postings: u64,
    store_bytes: u64,
    /// Postings of the workload's query terms, for the probes.
    query_postings: Vec<(TermId, Vec<Posting>)>,
    /// A spread of the corpus's own Dewey IDs, for the codec probe.
    dewey_sample: Vec<DeweyId>,
}

fn store_err(what: &str) -> impl Fn(xrank::storage::StorageError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// The engine's build pipeline, one span per layer call:
/// `xml::parse` → `CollectionBuilder` → `elem_rank` → `direct_postings` →
/// `HdilIndex::build` → `RdilIndex::build` → `FileStore::sync`.
fn ingest_through_layers(
    corpus: &Corpus,
    dir: &Path,
    config: &EngineConfig,
    query_terms: &[String],
    t: &mut Tracer,
) -> Result<Layers, String> {
    t.span("ingest", RIG, |t| {
        let mut builder = CollectionBuilder::with_spec(config.link_spec.clone());
        // The engine parses and adds document by document; the rig does
        // the same calls batch by batch, so that a span covers enough
        // work to outweigh its own clock reads and the trace stays small.
        for batch in corpus.docs.chunks(INGEST_BATCH) {
            let parsed = t
                .leaf("xml.parse", "xml", || {
                    batch
                        .iter()
                        .map(|(_, xml)| xrank::xml::parse(xml))
                        .collect::<Result<Vec<_>, _>>()
                })
                .map_err(|e| format!("{}: {e}", corpus.label))?;
            t.leaf("graph.add", "graph", || {
                for ((uri, _), doc) in batch.iter().zip(&parsed) {
                    builder.add_xml_document(uri, doc);
                }
            });
            t.leaf("xml.drop", "xml", || drop(parsed));
        }
        let collection = t.leaf("graph.build", "graph", || builder.build());
        let ranks = t.leaf("rank.elemrank", "rank", || {
            elem_rank(&collection, &config.rank_params)
        });
        let store = t
            .leaf("storage.open", "storage", || FileStore::open(dir))
            .map_err(store_err("rig store"))?;
        let mut pool = BufferPool::new(store, POOL_FITS);
        let direct = t.leaf("index.extract", "index", || {
            direct_postings(&collection, &ranks.scores)
        });
        let hdil = t
            .leaf("index.hdil_build", "index", || {
                HdilIndex::build(&mut pool, &direct)
            })
            .map_err(store_err("hdil"))?;
        let rdil = t
            .leaf("index.rdil_build", "index", || {
                RdilIndex::build(&mut pool, &direct)
            })
            .map_err(store_err("rdil"))?;
        t.leaf("storage.sync", "storage", || pool.store().sync())
            .map_err(store_err("sync"))?;

        // What the probes need from the postings, taken before they go.
        let (query_postings, dewey_sample, postings) = t.leaf("sample", RIG, || {
            let query_postings = query_terms
                .iter()
                .filter_map(|word| collection.vocabulary().lookup(word))
                .map(|term| (term, direct[term.index()].clone()))
                .collect();
            let postings: u64 = direct.iter().map(|list| list.len() as u64).sum();
            let stride = (postings as usize / 100_000).max(1);
            let dewey_sample = direct
                .iter()
                .flatten()
                .step_by(stride)
                .map(|p| p.dewey.clone())
                .collect();
            (query_postings, dewey_sample, postings)
        });
        t.leaf("index.drop_postings", "index", || drop(direct));
        // Queries run on reopened structures, as they do behind
        // `XRankEngine::open`: the list tables go through their
        // serialised form, the pages through a fresh pool.
        let (hdil, rdil) = t
            .leaf("index.reload_meta", "index", || -> std::io::Result<_> {
                let mut bytes = Vec::new();
                hdil.write_meta(&mut bytes)?;
                let reloaded_hdil = HdilIndex::read_meta(&mut bytes.as_slice())?;
                bytes.clear();
                rdil.write_meta(&mut bytes)?;
                Ok((reloaded_hdil, RdilIndex::read_meta(&mut bytes.as_slice())?))
            })
            .map_err(|e| format!("index meta round-trip: {e}"))?;
        let store_bytes = crate::env::dir_bytes(dir).map_err(|e| e.to_string())?;
        Ok(Layers {
            collection,
            ranks,
            hdil,
            rdil,
            postings,
            store_bytes,
            query_postings,
            dewey_sample,
        })
    })
}

/// Metrics of the build pipeline, from the spans of every `ingest`
/// operation recorded so far and the structures they produced.
fn ingest_metrics(t: &Tracer, built: &[(&Corpus, &Layers)], m: &mut Metrics) {
    let xml_mb: f64 = built.iter().map(|(c, _)| c.xml_mb()).sum();
    let elements: usize = built
        .iter()
        .map(|(_, l)| l.collection.element_count())
        .sum();
    let edges: usize = built
        .iter()
        .map(|(_, l)| l.collection.containment_count() + l.collection.hyperlink_count())
        .sum();
    let iterations: usize = built.iter().map(|(_, l)| l.ranks.iterations).sum();
    let postings: u64 = built.iter().map(|(_, l)| l.postings).sum();
    let store_bytes: u64 = built.iter().map(|(_, l)| l.store_bytes).sum();
    // Edges swept per second of one power-iteration sweep, summed over
    // the corpora in proportion to the sweeps each took.
    let edge_sweeps: f64 = built
        .iter()
        .map(|(_, l)| {
            (l.collection.containment_count() + l.collection.hyperlink_count()) as f64
                * l.ranks.iterations as f64
        })
        .sum();

    let exact = Summary::exact;
    let pack_s = t.total_s("index.hdil_build") + t.total_s("index.rdil_build");
    let index_s = pack_s + t.total_s("index.extract") + t.total_s("index.drop_postings");
    m.push(("xml.parse_mb_per_s", exact(xml_mb / t.total_s("xml.parse"))));
    m.push(("graph.add_s", exact(t.total_s("graph.add"))));
    m.push(("graph.build_s", exact(t.total_s("graph.build"))));
    m.push(("graph.elements", exact(elements as f64)));
    m.push(("graph.edges", exact(edges as f64)));
    m.push(("rank.elemrank_s", exact(t.total_s("rank.elemrank"))));
    m.push(("rank.iterations", exact(iterations as f64)));
    m.push((
        "rank.edges_per_s_per_sweep",
        exact(edge_sweeps / t.total_s("rank.elemrank")),
    ));
    m.push(("index.extract_s", exact(t.total_s("index.extract"))));
    m.push(("index.hdil_build_s", exact(t.total_s("index.hdil_build"))));
    m.push(("index.rdil_build_s", exact(t.total_s("index.rdil_build"))));
    m.push(("index.build_share", exact(index_s / t.total_s("ingest"))));
    m.push(("index.pack_postings_per_s", exact(postings as f64 / pack_s)));
    m.push((
        "index.bytes_per_posting",
        exact(store_bytes as f64 / postings as f64),
    ));
    m.push(("storage.sync_ms", exact(t.total_s("storage.sync") * 1e3)));
}

/// Repeats `body` for [`TRIALS`] spans called `name` and returns the
/// per-trial seconds.
fn timed_trials(
    t: &mut Tracer,
    name: &'static str,
    layer: &'static str,
    mut body: impl FnMut(),
) -> Vec<f64> {
    let before = t.spans().len();
    for _ in 0..TRIALS {
        t.leaf(name, layer, &mut body);
    }
    t.spans()[before..]
        .iter()
        .map(|s| s.duration_ns() as f64 / 1e9)
        .collect()
}

/// Micro-probes of `dewey`, `index` and `storage` on the rig's own pool:
/// each a fixed batch of calls per trial, after one untimed pass.
fn probe_layers(
    layers: &Layers,
    pool: &mut BufferPool<FileStore>,
    t: &mut Tracer,
    m: &mut Metrics,
) -> Result<(), String> {
    // dewey: the codec over the corpus's own IDs.
    let ids = &layers.dewey_sample;
    let mut encoded = Vec::new();
    let mut ends = Vec::with_capacity(ids.len());
    let encode_s = timed_trials(t, "dewey.encode", "dewey", || {
        encoded.clear();
        ends.clear();
        for id in ids {
            codec::encode_id_into(id, &mut encoded);
            ends.push(encoded.len());
        }
    });
    let decode_s = timed_trials(t, "dewey.decode", "dewey", || {
        let mut start = 0;
        for &end in &ends {
            std::hint::black_box(
                codec::decode_id(&encoded[start..end]).expect("own encoding decodes"),
            );
            start = end;
        }
    });
    let per_id_ns = |secs: &[f64]| {
        Summary::median_of(
            &secs
                .iter()
                .map(|s| s * 1e9 / ids.len() as f64)
                .collect::<Vec<_>>(),
        )
    };
    m.push(("dewey.encode_ns_per_id", per_id_ns(&encode_s)));
    m.push(("dewey.decode_ns_per_id", per_id_ns(&decode_s)));
    m.push((
        "dewey.bytes_per_id",
        Summary::exact(encoded.len() as f64 / ids.len() as f64),
    ));

    // index: full-list decode and skip-table seeks over the query terms'
    // Dewey-ordered lists.
    let lists = &layers.query_postings;
    let listed: usize = lists.iter().map(|(_, postings)| postings.len()).sum();
    let mut failure = None;
    let mut decode_all = || {
        for (term, _) in lists {
            let mut reader = layers
                .hdil
                .dewey_reader(*term)
                .expect("query term has a list");
            loop {
                match reader.next(pool) {
                    Ok(Some(posting)) => drop(std::hint::black_box(posting)),
                    Ok(None) => break,
                    Err(e) => {
                        failure = Some(format!("list decode: {e}"));
                        break;
                    }
                }
            }
        }
    };
    decode_all();
    let decode_s = timed_trials(t, "index.decode", "index", &mut decode_all);
    const SEEK_STRIDE: usize = 64;
    let seeks: usize = lists
        .iter()
        .map(|(_, postings)| postings.len().div_ceil(SEEK_STRIDE))
        .sum();
    let seek_s = timed_trials(t, "index.seek", "index", || {
        for (term, postings) in lists {
            let mut reader = layers
                .hdil
                .dewey_reader(*term)
                .expect("query term has a list");
            for target in postings.iter().step_by(SEEK_STRIDE) {
                if let Err(e) = reader.next_seek(pool, &target.dewey) {
                    failure = Some(format!("list seek: {e}"));
                }
            }
        }
    });
    if let Some(e) = failure {
        return Err(e);
    }
    m.push((
        "index.decode_postings_per_s",
        Summary::median_of(
            &decode_s
                .iter()
                .map(|s| listed as f64 / s)
                .collect::<Vec<_>>(),
        ),
    ));
    m.push((
        "index.seek_ns",
        Summary::median_of(
            &seek_s
                .iter()
                .map(|s| s * 1e9 / seeks.max(1) as f64)
                .collect::<Vec<_>>(),
        ),
    ));

    // storage: resident reads, reads after `clear_cache`, B+-tree probes
    // from the root and through a cursor, page appends.
    let segment = layers.rdil.segment;
    let pages = pool.store().page_count(segment);
    let resident = (pool.capacity() / 2).clamp(1, 16).min(pages as usize) as u32;
    const HIT_READS: u32 = 20_000;
    let mut read = |pool: &BufferPool<FileStore>, page: u32| {
        if let Err(e) = pool.read(PageId::new(segment, page)) {
            failure = Some(format!("pool read: {e}"));
        }
    };
    for page in 0..resident {
        read(pool, page);
    }
    let hit_s = timed_trials(t, "storage.pool_hit", "storage", || {
        for i in 0..HIT_READS {
            read(pool, i % resident);
        }
    });
    let cold_pages = pages.min(256);
    let miss_s = timed_trials(t, "storage.pool_miss", "storage", || {
        pool.clear_cache();
        for page in 0..cold_pages {
            read(pool, page);
        }
    });
    m.push((
        "storage.pool_hit_ns",
        Summary::median_of(
            &hit_s
                .iter()
                .map(|s| s * 1e9 / f64::from(HIT_READS))
                .collect::<Vec<_>>(),
        ),
    ));
    m.push((
        "storage.pool_miss_us",
        Summary::median_of(
            &miss_s
                .iter()
                .map(|s| s * 1e6 / f64::from(cold_pages))
                .collect::<Vec<_>>(),
        ),
    ));

    const PROBE_STRIDE: usize = 16;
    let keys: Vec<Vec<Vec<u8>>> = lists
        .iter()
        .map(|(term, postings)| {
            postings
                .iter()
                .step_by(PROBE_STRIDE)
                .map(|p| composite_key(term.0, &p.dewey))
                .collect()
        })
        .collect();
    let probes: usize = keys.iter().map(Vec::len).sum();
    let tree = &layers.rdil.tree;
    let before = pool.stats();
    let descend_s = timed_trials(t, "storage.btree_descend", "storage", || {
        for key in keys.iter().flatten() {
            if let Err(e) = tree.lowest_geq(pool, key) {
                failure = Some(format!("btree probe: {e}"));
            }
        }
    });
    let touched = pool.stats().since(&before).logical_reads();
    let cursor_s = timed_trials(t, "storage.btree_cursor_seek", "storage", || {
        for term_keys in &keys {
            let mut cursor = tree.cursor();
            for key in term_keys {
                if let Err(e) = cursor.seek_geq(pool, key) {
                    failure = Some(format!("btree cursor: {e}"));
                }
            }
        }
    });
    let per_probe_ns = |secs: &[f64]| {
        Summary::median_of(
            &secs
                .iter()
                .map(|s| s * 1e9 / probes.max(1) as f64)
                .collect::<Vec<_>>(),
        )
    };
    m.push(("storage.btree_descend_ns", per_probe_ns(&descend_s)));
    m.push(("storage.btree_cursor_seek_ns", per_probe_ns(&cursor_s)));
    m.push((
        "storage.btree_pages_per_probe",
        Summary::exact(touched as f64 / (probes * TRIALS).max(1) as f64),
    ));

    const APPENDS: usize = 128;
    let scratch_segment = pool
        .store_mut()
        .create_segment()
        .map_err(store_err("scratch segment"))?;
    let page = vec![0xa5u8; PAGE_SIZE];
    let append_s = timed_trials(t, "storage.append_page", "storage", || {
        for _ in 0..APPENDS {
            if let Err(e) = pool.append_page(scratch_segment, &page) {
                failure = Some(format!("append: {e}"));
            }
        }
    });
    m.push((
        "storage.append_page_us",
        Summary::median_of(
            &append_s
                .iter()
                .map(|s| s * 1e6 / APPENDS as f64)
                .collect::<Vec<_>>(),
        ),
    ));
    failure.map_or(Ok(()), Err)
}

/// The three processors on the rig's own pool and indexes: one operation
/// per (query, strategy), terms resolved through the vocabulary first.
/// Returns the HDIL median (µs) for the `core` subtraction.
fn evaluate_queries(
    layers: &Layers,
    pool: &BufferPool<FileStore>,
    config: &EngineConfig,
    queries: &[Checked],
    budget_s: f64,
    recording: &mut Recording,
) -> f64 {
    let Recording {
        tracer: t,
        tally,
        metrics: m,
    } = recording;
    let opts = query_options();
    let vocabulary = layers.collection.vocabulary();
    // A query with a keyword the corpus lacks is answered (empty) without
    // reaching the query layer, in the engine as here: it is left out, so
    // the series below cycle through the same queries every pass.
    let queries: Vec<&Checked> = queries
        .iter()
        .filter(|c| {
            c.query
                .keywords
                .iter()
                .all(|w| vocabulary.lookup(w).is_some())
        })
        .collect();
    let mut hdil_stats: Vec<EvalStats> = Vec::new();
    let mut results = 0usize;
    let mut evals = 0u64;
    let mut pass = |t: &mut Tracer, tally: &mut Tally, keep: bool| {
        for checked in &queries {
            for strategy in crate::check::STRATEGIES {
                t.span("query", RIG, |t| {
                    let terms: Option<Vec<TermId>> = t.leaf("graph.resolve", "graph", || {
                        checked
                            .query
                            .keywords
                            .iter()
                            .map(|w| vocabulary.lookup(w))
                            .collect()
                    });
                    let terms = terms.expect("every keyword of a kept query resolves");
                    let outcome = match strategy {
                        Strategy::Dil => t.leaf("query.dil_eval", "query", || {
                            dil_query::evaluate(pool, &layers.hdil.dil, &terms, &opts)
                        }),
                        Strategy::Rdil => t.leaf("query.rdil_eval", "query", || {
                            rdil_query::evaluate(pool, &layers.rdil, &terms, &opts)
                        }),
                        _ => t.leaf("query.hdil_eval", "query", || {
                            hdil_query::evaluate(
                                pool,
                                &layers.hdil,
                                &terms,
                                &opts,
                                &config.cost_model,
                            )
                        }),
                    };
                    let fine = outcome.as_ref().is_ok_and(|o| {
                        o.degraded.is_none()
                            && o.results.len() == checked.expected.len()
                            && o.results
                                .iter()
                                .zip(&checked.expected)
                                .all(|(r, want)| r.dewey == *want)
                    });
                    tally.record(fine, || {
                        format!("rig {strategy:?} {:?}", checked.query.text)
                    });
                    if let (true, Ok(outcome)) = (keep, outcome) {
                        evals += 1;
                        if strategy == Strategy::Hdil {
                            results += outcome.results.len();
                            hdil_stats.push(outcome.stats);
                        }
                    }
                });
            }
        }
    };

    let warm_up = Instant::now();
    pass(t, tally, false);
    let pass_s = warm_up.elapsed().as_secs_f64().max(1e-6);
    let first_timed = t.spans().len();
    let (io_before, evictions_before) = (pool.stats(), pool.eviction_counters().evictions);
    for _ in 0..((budget_s / pass_s) as usize / TRIALS).max(1) * TRIALS {
        pass(t, tally, true);
    }
    let io = pool.stats().since(&io_before);
    let evictions = pool.eviction_counters().evictions - evictions_before;

    let eval_us = |name: &str| {
        let durations: Vec<f64> = t.spans()[first_timed..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect();
        Summary::best_of(
            &per_trial_latency(&durations, queries.len(), |trial| trial.typical),
            Better::Lower,
        )
    };
    let hdil_us = eval_us("query.hdil_eval");
    m.push(("query.dil_eval_us", eval_us("query.dil_eval")));
    m.push(("query.rdil_eval_us", eval_us("query.rdil_eval")));
    m.push(("query.hdil_eval_us", hdil_us));

    let n = hdil_stats.len().max(1) as f64;
    let sum = |field: fn(&EvalStats) -> u64| hdil_stats.iter().map(field).sum::<u64>() as f64;
    let scanned = sum(|s| s.entries_scanned);
    let probes = sum(|s| s.btree_probes);
    let exact = Summary::exact;
    m.push(("query.entries_scanned_per_query", exact(scanned / n)));
    m.push(("query.btree_probes_per_query", exact(probes / n)));
    m.push((
        "query.cursor_descents_per_query",
        exact(sum(|s| s.cursor_descents) / n),
    ));
    m.push((
        "query.probe_memo_hit_ratio",
        exact(sum(|s| s.probe_memo_hits) / (probes + sum(|s| s.probe_memo_hits)).max(1.0)),
    ));
    m.push((
        "query.hdil_switch_share",
        exact(hdil_stats.iter().filter(|s| s.switched_to_dil).count() as f64 / n),
    ));
    m.push((
        "query.results_per_entry_scanned",
        exact(results as f64 / scanned.max(1.0)),
    ));
    m.push((
        "index.blocks_decoded_per_query",
        exact(sum(|s| s.blocks_decoded) / n),
    ));
    m.push((
        "index.blocks_skipped_per_query",
        exact(sum(|s| s.blocks_skipped) / n),
    ));

    let evals = evals.max(1) as f64;
    m.push((
        "storage.pool_hit_ratio",
        exact(io.cache_hits as f64 / io.logical_reads().max(1) as f64),
    ));
    m.push((
        "storage.evictions_per_query",
        exact(evictions as f64 / evals),
    ));
    m.push((
        "storage.seq_reads_per_query",
        exact(io.seq_reads as f64 / evals),
    ));
    m.push((
        "storage.rand_reads_per_query",
        exact(io.rand_reads as f64 / evals),
    ));
    hdil_us.value
}

/// The facade around the same queries: `XRankEngine::query` with
/// observability on and off, through the executor with one client, and
/// wrapped in a span — interleaved per query so a burst hits all alike.
fn engine_around_queries(
    dir: &Path,
    pool_pages: usize,
    queries: &[Checked],
    hdil_eval_us: f64,
    budget_s: f64,
    seed: u64,
    recording: &mut Recording,
) -> Result<(), String> {
    let Recording {
        tracer: t,
        tally,
        metrics: m,
    } = recording;
    let observed = engine_config(pool_pages);
    let dark = EngineConfig {
        obs: ObsConfig {
            metrics_enabled: false,
            recorder: RecorderConfig {
                enabled: false,
                ..Default::default()
            },
            ..Default::default()
        },
        ..observed.clone()
    };
    let (engine, _) = open_index(dir, &observed)?;
    let (engine_dark, _) = open_index(dir, &dark)?;
    let engine = Arc::new(engine);
    let executor = QueryExecutor::with_policy(Arc::clone(&engine), 1, 2, AdmissionPolicy::Block);
    let opts = query_options();

    // Four ways to ask the same query; `series[way]` collects its µs.
    const PLAIN: usize = 0;
    const DARK: usize = 1;
    const QUEUED: usize = 2;
    const SPANNED: usize = 3;
    let mut series: [Vec<f64>; 4] = Default::default();
    let mut order = [PLAIN, DARK, QUEUED, SPANNED];
    let mut rng = Rng::new(seed);
    let mut pass = |t: &mut Tracer, tally: &mut Tally, keep: bool| {
        for checked in queries {
            let text = checked.query.text.as_str();
            // Whatever runs right after the executor's worker thread finds
            // colder caches: shuffle the order per query so every way
            // follows every other equally often.
            rng.shuffle(&mut order);
            for way in order {
                let start = Instant::now();
                let reply = std::hint::black_box(match way {
                    PLAIN => engine.query(text, Strategy::Hdil, &opts),
                    DARK => engine_dark.query(text, Strategy::Hdil, &opts),
                    QUEUED => executor.execute(QueryRequest {
                        query: text.to_string(),
                        strategy: Strategy::Hdil,
                        opts: Some(opts.clone()),
                    }),
                    _ => t.span("facade.query", RIG, |t| {
                        t.leaf("core.query", "core", || {
                            engine.query(text, Strategy::Hdil, &opts)
                        })
                    }),
                });
                let micros = start.elapsed().as_secs_f64() * 1e6;
                tally.record(checked.accepts(&reply), || {
                    format!("facade way {way} {text:?}")
                });
                if keep {
                    series[way].push(micros);
                }
            }
        }
    };
    let warm_up = Instant::now();
    pass(t, tally, false);
    let pass_s = warm_up.elapsed().as_secs_f64().max(1e-6);
    for _ in 0..((budget_s / pass_s) as usize / TRIALS).max(1) * TRIALS {
        pass(t, tally, true);
    }
    executor.shutdown();

    // Per trial: the typical latency of each way, then the derived figure.
    let typical = |series: &[f64]| -> Vec<f64> {
        mix_latency(series, queries.len(), TRIALS)
            .iter()
            .map(|trial| trial.typical)
            .collect()
    };
    let [on, off, queued, spanned] =
        [PLAIN, DARK, QUEUED, SPANNED].map(|way| typical(&series[way]));
    let derive =
        |f: &dyn Fn(usize) -> f64| Summary::median_of(&(0..on.len()).map(f).collect::<Vec<_>>());
    m.push(("core.engine_self_us", derive(&|i| on[i] - hdil_eval_us)));
    m.push(("core.executor_overhead_us", derive(&|i| queued[i] - on[i])));
    m.push(("obs.enabled_over_disabled", derive(&|i| on[i] / off[i])));
    m.push(("trace.overhead_ratio", derive(&|i| spanned[i] / on[i])));
    Ok(())
}

/// Bytes that appeared under a directory between two looks: new files in
/// full, grown files by their growth. Rewrites in place are not seen, so
/// the write amplification built on this is a lower bound.
#[derive(Default)]
struct DirLedger {
    sizes: HashMap<PathBuf, u64>,
}

impl DirLedger {
    fn written_since_last(&mut self, dir: &Path) -> u64 {
        let mut written = 0;
        let mut pending = vec![dir.to_path_buf()];
        let mut seen = HashMap::new();
        while let Some(next) = pending.pop() {
            let Ok(entries) = std::fs::read_dir(&next) else {
                continue;
            };
            for entry in entries.flatten() {
                let Ok(meta) = entry.metadata() else { continue };
                if meta.is_dir() {
                    pending.push(entry.path());
                } else {
                    let old = self.sizes.get(&entry.path()).copied().unwrap_or(0);
                    written += meta.len().saturating_sub(old);
                    seen.insert(entry.path(), meta.len());
                }
            }
        }
        self.sizes = seen;
        written
    }
}

/// The update pipeline, one operation per round and per search:
/// `add_xml` → `commit` → `merge_small` → `search` → reopen. On
/// `update-mixed` the base and stream are the workload's own and the
/// rounds fill `budget_s`; on the other workloads it is a fixed small
/// scenario into an empty directory, there to keep every `core.*` update
/// metric defined (compare it only with itself).
fn update_through_layers(
    workload: &str,
    p: &Params,
    dir: &Path,
    budget_s: f64,
    recording: &mut Recording,
) -> Result<(), String> {
    let Recording {
        tracer: t,
        tally,
        metrics: m,
    } = recording;
    let config = engine_config(POOL_FITS);
    let own = workload == "update-mixed";
    let stream = update_stream(p);
    let (db, _) = open_pipeline(dir, &config)?;
    if own {
        for (uri, xml) in &corpus_for(workload, p).docs {
            db.add_xml(uri, xml)
                .map_err(|e| format!("base add_xml {uri}: {e}"))?;
        }
        db.commit().map_err(|e| format!("base commit: {e}"))?;
    }
    let mut ledger = DirLedger::default();
    ledger.written_since_last(dir);

    let queries = queries_for("update-mixed", p.seed);
    let mut writer = Writer::new(&stream, p.sizes, p.seed);
    let (min_rounds, deadline) = if own {
        (
            p.sizes.update_min_rounds,
            Instant::now() + std::time::Duration::from_secs_f64(budget_s),
        )
    } else {
        (p.sizes.rig_update_rounds, Instant::now())
    };
    let (mut commits, mut merges, mut segments, mut per_segment_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut xml_bytes, mut written) = (0usize, 0u64);
    while writer.has_input()
        && (commits.len() < min_rounds || Instant::now() < deadline || merges.is_empty())
    {
        let round = t.span("update.round", RIG, |t| writer.round(&db, t))?;
        commits.push(round.commit_ms);
        merges.extend(round.merge_ms);
        segments.push(round.segments_after as f64);
        xml_bytes += round.xml_bytes;
        written += ledger.written_since_last(dir);

        let query = &queries[commits.len() % queries.len()];
        let reply = t.span("update.search", RIG, |t| {
            t.leaf("core.search", "core", || db.search(&query.text, TOP_M))
        });
        let search_us = t
            .spans()
            .last()
            .map_or(0.0, |s| s.duration_ns() as f64 / 1e3);
        per_segment_us.push(search_us / round.segments_after.max(1) as f64);
        tally.record(reply.is_ok_and(|page| !page.is_degraded()), || {
            format!("rig search {:?}", query.text)
        });
    }
    if merges.is_empty() {
        return Err(
            "the update scenario never folded; core.merge_small_ms is undefined".to_string(),
        );
    }
    drop(db);
    let reopened = t.span("update.reopen", RIG, |t| {
        t.leaf("core.reopen", "core", || open_pipeline(dir, &config))
    })?;
    writer.audit(&reopened.0, tally);

    let add_us: Vec<f64> = t
        .durations_ns("core.add_xml")
        .iter()
        .map(|ns| ns / 1e3)
        .collect();
    m.push((
        "core.add_xml_us",
        Summary::median_of(&per_trial(&add_us, TRIALS, median)),
    ));
    m.push((
        "core.commit_ms",
        Summary::median_of(&per_trial(&commits, TRIALS, median)),
    ));
    m.push((
        "core.commit_p95_ms",
        Summary::exact(crate::stats::percentile(&commits, 0.95)),
    ));
    m.push(("core.merge_small_ms", Summary::median_of(&merges)));
    m.push(("core.segments_live_p50", Summary::exact(median(&segments))));
    m.push((
        "core.search_per_segment_us",
        Summary::median_of(&per_trial(&per_segment_us, TRIALS, median)),
    ));
    m.push(("core.reopen_ms", Summary::exact(reopened.1)));
    m.push((
        "core.write_amp",
        Summary::exact(written as f64 / xml_bytes.max(1) as f64),
    ));
    Ok(())
}

/// Corpora a workload's traced run builds.
fn corpora_for(workload: &str, p: &Params) -> Vec<Corpus> {
    let Sizes {
        ingest_dblp_docs,
        ingest_xmark_scale,
        ..
    } = p.sizes;
    if workload == "ingest" {
        vec![
            dblp_corpus(ingest_dblp_docs, p.seed),
            xmark_corpus(ingest_xmark_scale, p.seed),
        ]
    } else {
        vec![corpus_for(workload, p)]
    }
}

pub fn run(workload: &str, p: &Params) -> Result<Outcome, String> {
    let mut r = Recording {
        tracer: Tracer::new(),
        tally: Tally::default(),
        metrics: Vec::new(),
    };
    let scratch =
        Scratch::new(&format!("{workload}-traced{}", p.sizes.tag)).map_err(|e| e.to_string())?;
    let corpora = corpora_for(workload, p);
    let pool_pages = pool_for(workload);
    let config = engine_config(pool_pages);
    let queries = queries_for(workload, p.seed);
    let mut query_terms: Vec<String> = queries
        .iter()
        .flat_map(|q| q.keywords.iter().cloned())
        .collect();
    query_terms.sort();
    query_terms.dedup();

    // The build pipeline twice over each corpus: through the rig with
    // spans, and through `build_persistent` without.
    let mut built = Vec::new();
    let (mut rig_s, mut engine_s) = (0.0, 0.0);
    for (slot, corpus) in corpora.iter().enumerate() {
        let start = Instant::now();
        built.push(ingest_through_layers(
            corpus,
            &scratch.sub(&format!("rig{slot}")),
            &config,
            &query_terms,
            &mut r.tracer,
        )?);
        rig_s += start.elapsed().as_secs_f64();
        engine_s += build_index(corpus, &scratch.sub(&format!("engine{slot}")), &config)?;
    }
    ingest_metrics(
        &r.tracer,
        &corpora.iter().zip(&built).collect::<Vec<_>>(),
        &mut r.metrics,
    );
    let rig_over_build = rig_s / engine_s;
    r.metrics
        .push(("trace.rig_over_build", Summary::exact(rig_over_build)));
    let rig_faithful = (rig_over_build - 1.0).abs() <= RIG_TOLERANCE;

    // Reads run against the first corpus: the workload's own, or the
    // DBLP half of `ingest`.
    let layers = built.swap_remove(0);
    drop(built);
    let engine_dir = scratch.sub("engine0");
    let checked = {
        let (engine, _) = open_index(&engine_dir, &config)?;
        establish(&engine, &queries, &query_options(), &mut r.tally)
    };
    let store = FileStore::open(scratch.sub("rig0")).map_err(store_err("rig store reopen"))?;
    let mut pool = BufferPool::new(store, pool_pages);
    probe_layers(&layers, &mut pool, &mut r.tracer, &mut r.metrics)?;
    let hdil_eval_us = evaluate_queries(
        &layers,
        &pool,
        &config,
        &checked,
        p.seconds * EVAL_SHARE,
        &mut r,
    );
    drop((pool, layers));
    engine_around_queries(
        &engine_dir,
        pool_pages,
        &checked,
        hdil_eval_us,
        p.seconds * ENGINE_SHARE,
        p.seed,
        &mut r,
    )?;
    update_through_layers(
        workload,
        p,
        &scratch.sub("pipeline"),
        p.seconds * (1.0 - EVAL_SHARE - ENGINE_SHARE),
        &mut r,
    )?;
    let Recording {
        tracer: t,
        mut tally,
        metrics: mut m,
    } = r;

    // Invariant: layer spans cover the rig's wall, operation by operation.
    let coverage = coverage_by_operation(t.spans());
    let (weakest, share) = coverage
        .iter()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map(|(name, share)| (*name, *share))
        .ok_or("the rig recorded no operations")?;
    m.push(("trace.span_coverage", Summary::exact(share)));
    tally.record(share >= MIN_COVERAGE, || {
        format!(
            "layer spans cover only {:.1}% of operation {weakest:?}",
            100.0 * share
        )
    });

    std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
    let trace_path = out_dir().join(format!("trace-{workload}{}.json", p.sizes.tag));
    let trace = chrome_trace(&first_operations(t.spans()), &format!("rig {workload}")).render();
    std::fs::write(&trace_path, &trace).map_err(|e| format!("{}: {e}", trace_path.display()))?;
    let verdict = xrank::validate_chrome_trace(&trace);
    tally.record(verdict.is_ok(), || {
        format!("trace rejected: {}", verdict.unwrap_err())
    });

    // The per-layer table (self time = span − children) and the two
    // invariants. A rig that strays from `build_persistent` is reported,
    // not failed: both are single walls of seconds on a shared machine.
    let mut notes: Vec<_> = layer_table(t.spans())
        .into_iter()
        .map(|(layer, (self_s, _))| (layer_note(layer), Summary::exact(self_s), "s"))
        .collect();
    notes.push((
        "invariant.spans_cover_95pct",
        Summary::exact(f64::from(u8::from(share >= MIN_COVERAGE))),
        "ratio",
    ));
    notes.push((
        "invariant.rig_within_15pct_of_build",
        Summary::exact(f64::from(u8::from(rig_faithful))),
        "ratio",
    ));
    Ok(Outcome {
        metrics: m,
        notes,
        tally,
    })
}

/// The spans of the first [`TRACED_OPERATIONS_PER_KIND`] operations of
/// every name, in recording order.
fn first_operations(spans: &[crate::spans::Span]) -> Vec<crate::spans::Span> {
    let mut taken: HashMap<&str, usize> = HashMap::new();
    let mut keep = std::collections::HashSet::new();
    for root in spans.iter().filter(|s| s.parent.is_none()) {
        let count = taken.entry(root.name).or_default();
        if *count < TRACED_OPERATIONS_PER_KIND {
            *count += 1;
            keep.insert(root.op_id);
        }
    }
    spans
        .iter()
        .filter(|s| keep.contains(&s.op_id))
        .cloned()
        .collect()
}

/// Name of a layer's self-time line in the per-layer table.
fn layer_note(layer: &'static str) -> &'static str {
    match layer {
        "xml" => "self_time.xml",
        "graph" => "self_time.graph",
        "rank" => "self_time.rank",
        "dewey" => "self_time.dewey",
        "index" => "self_time.index",
        "storage" => "self_time.storage",
        "query" => "self_time.query",
        "core" => "self_time.core",
        _ => "self_time.bench",
    }
}
