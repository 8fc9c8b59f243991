//! The six workloads, untraced: set-up, checked timed phases, and the
//! end-to-end metrics of each.

use crate::check::{establish, Checked, Tally};
use crate::corpus::{
    dblp_corpus, natural_queries, planted_queries, xmark_corpus, Corpus, Query, Rng, Sizes,
};
use crate::env::{dir_bytes, peak_rss_mb, Scratch};
use crate::reads::{per_trial_latency, query_options, read_phase, Latencies, Pool, TOP_M, TRIALS};
use crate::spans::Tracer;
use crate::stats::{per_trial, percentile, Better, Summary};
use crate::store::{build_index, engine_config, open_index, POOL_COLD, POOL_FITS};
use crate::updates::{open_pipeline, Writer};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xrank::datagen::workload::Correlation;
use xrank::Strategy;

/// Inputs of one run.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    pub sizes: Sizes,
}

impl Params {
    /// `share` of the timed phase.
    pub fn budget(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }
}

/// What a run reports: metric values by name, extra lines for the human
/// reader (`name`, value, unit), and the operation tally.
pub struct Outcome {
    pub metrics: Vec<(&'static str, Summary)>,
    pub notes: Vec<(&'static str, Summary, &'static str)>,
    pub tally: Tally,
}

/// Share of the timed phase the single-client latency phase gets in the
/// query workloads; the closed-loop throughput phase gets the rest.
const LATENCY_SHARE: f64 = 0.65;

/// Times a built store is opened; `open_ms` is the best of them.
const OPENS: usize = 3;

/// Query set of each read workload, in the order the client cycles them.
pub fn queries_for(workload: &str, seed: u64) -> Vec<Query> {
    match workload {
        "warm-corr" => planted_queries(Correlation::High, &[2, 3]),
        "warm-uncorr" => planted_queries(Correlation::Low, &[2, 3]),
        "cold-pool" => {
            let mut all = planted_queries(Correlation::High, &[1, 2, 3, 4]);
            all.extend(planted_queries(Correlation::Low, &[1, 2, 3, 4]));
            all.extend(natural_queries(&[5, 50], &[1, 2, 3, 4]));
            Rng::new(seed).shuffle(&mut all);
            all
        }
        // Natural multi-keyword queries are left out here: on the one
        // big document HDIL takes 10–120 ms for them and the figure moves
        // fivefold with the seed's text.
        "deep-xmark" => {
            let mut all = planted_queries(Correlation::High, &[1, 2, 3, 4]);
            all.extend(natural_queries(&[20, 200], &[1]));
            all
        }
        // The check queries `ingest` runs after every open.
        "ingest" => {
            let mut all = planted_queries(Correlation::High, &[2, 3]);
            all.extend(planted_queries(Correlation::Low, &[2]));
            all.extend(natural_queries(&[20], &[1, 2]));
            all
        }
        // The reader's stream: the `warm-corr` queries and half as many
        // uncorrelated ones.
        "update-mixed" => {
            let mut all = planted_queries(Correlation::High, &[2, 3]);
            all.extend(planted_queries(Correlation::Low, &[2]));
            all
        }
        other => unreachable!("unknown workload {other}"),
    }
}

/// Corpus of each single-corpus workload.
pub fn corpus_for(workload: &str, p: &Params) -> Corpus {
    match workload {
        "deep-xmark" => xmark_corpus(p.sizes.xmark_scale, p.seed),
        "update-mixed" => dblp_corpus(p.sizes.update_base_docs, p.seed),
        _ => dblp_corpus(p.sizes.dblp_docs, p.seed),
    }
}

pub fn pool_for(workload: &str) -> usize {
    if workload == "cold-pool" {
        POOL_COLD
    } else {
        POOL_FITS
    }
}

pub fn run(workload: &str, p: &Params) -> Result<Outcome, String> {
    match workload {
        "warm-corr" | "warm-uncorr" | "cold-pool" | "deep-xmark" => query_workload(workload, p),
        "ingest" => ingest(p),
        "update-mixed" => update_mixed(p),
        other => Err(format!("unknown workload {other}")),
    }
}

fn read_metrics(
    latencies: &Latencies,
    queries: usize,
    qps: Summary,
    out: &mut Vec<(&'static str, Summary)>,
) {
    out.push(("dil_p50_us", latencies.typical(Strategy::Dil, queries)));
    out.push(("rdil_p50_us", latencies.typical(Strategy::Rdil, queries)));
    out.push(("hdil_p50_us", latencies.typical(Strategy::Hdil, queries)));
    out.push(("queries_per_s", qps));
    out.push(("sim_io_cost_per_query", latencies.io_cost_per_query()));
}

/// `warm-corr`, `warm-uncorr`, `cold-pool`, `deep-xmark`: build once,
/// reopen, then read.
fn query_workload(workload: &str, p: &Params) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let setup = Instant::now();
    let scratch = Scratch::new(&format!("{workload}{}", p.sizes.tag)).map_err(|e| e.to_string())?;
    let corpus = corpus_for(workload, p);
    let dir = scratch.sub("index");
    let build_s = build_index(&corpus, &dir, &engine_config(POOL_FITS))?;
    let index_bytes = dir_bytes(&dir).map_err(|e| e.to_string())?;
    let serving = engine_config(pool_for(workload));
    let mut opens = Vec::with_capacity(OPENS);
    let engine = loop {
        let (engine, open_ms) = open_index(&dir, &serving)?;
        opens.push(open_ms);
        if opens.len() == OPENS {
            break Arc::new(engine);
        }
    };
    let queries = establish(
        &engine,
        &queries_for(workload, p.seed),
        &query_options(),
        &mut tally,
    );
    let setup_s = setup.elapsed().as_secs_f64();

    let (latencies, qps) = read_phase(
        &engine,
        &queries,
        Pool::Shared,
        p.budget(1.0),
        LATENCY_SHARE,
        &mut tally,
    );

    let mut metrics = vec![("setup_s", Summary::exact(setup_s))];
    read_metrics(&latencies, queries.len(), qps, &mut metrics);
    metrics.push(("ingest_mb_per_s", Summary::exact(corpus.xml_mb() / build_s)));
    metrics.push(("open_ms", Summary::best_of(&opens, Better::Lower)));
    metrics.push((
        "index_bytes_per_xml_byte",
        Summary::exact(index_bytes as f64 / corpus.xml_bytes as f64),
    ));
    metrics.push(("peak_rss_mb", Summary::exact(peak_rss_mb())));
    let notes = vec![tail_note(&latencies, queries.len())];
    Ok(Outcome {
        metrics,
        notes,
        tally,
    })
}

/// The tail of the default path, for the reader: on a shared machine a
/// p95 mostly measures the neighbours, so it is printed, not gated.
fn tail_note(latencies: &Latencies, queries: usize) -> (&'static str, Summary, &'static str) {
    ("hdil_p95_us", latencies.p95(Strategy::Hdil, queries), "us")
}

/// Share of `ingest`'s timed phase spent reading the index it just built.
const INGEST_READ_SHARE: f64 = 0.2;

/// Times the generators run in `ingest`'s set-up (nothing else happens
/// there, so it is cheap enough to repeat and report the median).
const INGEST_SETUPS: usize = 5;

/// `ingest`: the timed phase is build + reopen, alternating a shallow
/// many-document corpus and a deep single-document one, each into a
/// fresh directory, with the check queries after every open.
fn ingest(p: &Params) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let scratch = Scratch::new(&format!("ingest{}", p.sizes.tag)).map_err(|e| e.to_string())?;
    let mut setups = Vec::new();
    let mut corpora = None;
    for _ in 0..INGEST_SETUPS {
        let start = Instant::now();
        corpora = Some([
            dblp_corpus(p.sizes.ingest_dblp_docs, p.seed),
            xmark_corpus(p.sizes.ingest_xmark_scale, p.seed),
        ]);
        setups.push(start.elapsed().as_secs_f64());
    }
    let corpora = corpora.expect("set-up ran");
    let setup_s = Summary::median_of(&setups);

    let config = engine_config(POOL_FITS);
    let check_queries = queries_for("ingest", p.seed);
    let phase = Instant::now();
    let build_budget = p.seconds * (1.0 - INGEST_READ_SHARE);
    let (mut rates, mut opens, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    let mut cycles = 0.0;
    // One cycle builds and reopens both corpora; at least one cycle,
    // then as many as the budget holds.
    while cycles == 0.0 || phase.elapsed().as_secs_f64() * (cycles + 1.0) / cycles < build_budget {
        let (mut bytes, mut build_wall, mut open_wall, mut stored) = (0, 0.0, 0.0, 0);
        for (slot, corpus) in corpora.iter().enumerate() {
            let dir = scratch.sub(&format!("cycle{cycles}-{slot}"));
            build_wall += build_index(corpus, &dir, &config)?;
            let (engine, open_ms) = open_index(&dir, &config)?;
            open_wall += open_ms;
            bytes += corpus.xml_bytes;
            stored += dir_bytes(&dir).map_err(|e| e.to_string())?;
            let checked = establish(&engine, &check_queries, &query_options(), &mut tally);
            // Keep the disk footprint flat: only the newest DBLP store
            // is still needed, for the read phase.
            let stale = if slot == 0 {
                last.replace((Arc::new(engine), checked, dir))
                    .map(|(_, _, old)| old)
            } else {
                drop(engine);
                Some(dir)
            };
            if let Some(old) = stale {
                let _ = std::fs::remove_dir_all(old);
            }
        }
        rates.push(bytes as f64 / 1e6 / build_wall);
        opens.push(open_wall / corpora.len() as f64);
        ratios.push(stored as f64 / bytes as f64);
        cycles += 1.0;
    }

    let (engine, checked, _) = last.expect("at least one cycle ran");
    // The reads get their share, and whatever the last cycle left over.
    let read_budget = p
        .budget(INGEST_READ_SHARE)
        .max(p.budget(1.0).saturating_sub(phase.elapsed()));
    let (latencies, qps) = read_phase(
        &engine,
        &checked,
        Pool::ClearedPerQuery,
        read_budget,
        LATENCY_SHARE,
        &mut tally,
    );

    let mut metrics = vec![("setup_s", setup_s)];
    read_metrics(&latencies, checked.len(), qps, &mut metrics);
    metrics.push(("ingest_mb_per_s", Summary::best_of(&rates, Better::Higher)));
    metrics.push(("open_ms", Summary::best_of(&opens, Better::Lower)));
    metrics.push(("index_bytes_per_xml_byte", Summary::median_of(&ratios)));
    metrics.push(("peak_rss_mb", Summary::exact(peak_rss_mb())));
    let notes = vec![tail_note(&latencies, checked.len())];
    Ok(Outcome {
        metrics,
        notes,
        tally,
    })
}

/// Rounds of documents generated for the writer beyond the base; the
/// writer stops when the stream or the time runs out.
const UPDATE_STREAM_ROUNDS: usize = 240;

/// The documents the writer adds: a corpus of its own (other seed, own
/// planting) under URIs that cannot collide with the base.
pub fn update_stream(p: &Params) -> Vec<(String, String)> {
    dblp_corpus(
        UPDATE_STREAM_ROUNDS * p.sizes.update_batch,
        p.seed.wrapping_add(1),
    )
    .docs
    .into_iter()
    .map(|(uri, xml)| (format!("stream/{uri}"), xml))
    .collect()
}

/// `update-mixed`: a writer thread commits rounds into a durable
/// pipeline while one reader thread cycles the correlated and
/// uncorrelated queries — HDIL through `UpdatableXRank::search` on the
/// pipeline, DIL and RDIL on a static index of the same base, so the
/// strategy latencies beside a committing writer have a fan-out-free
/// control. Ends with drop + reopen + audit.
fn update_mixed(p: &Params) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let sizes = p.sizes;
    let setup = Instant::now();
    let scratch =
        Scratch::new(&format!("update-mixed{}", p.sizes.tag)).map_err(|e| e.to_string())?;
    let base = corpus_for("update-mixed", p);
    let stream = update_stream(p);
    let config = engine_config(POOL_FITS);

    let static_dir = scratch.sub("static");
    build_index(&base, &static_dir, &config)?;
    let (static_engine, _) = open_index(&static_dir, &config)?;
    let queries = establish(
        &static_engine,
        &queries_for("update-mixed", p.seed),
        &query_options(),
        &mut tally,
    );

    let pipeline_dir = scratch.sub("pipeline");
    let (db, _) = open_pipeline(&pipeline_dir, &config)?;
    for (uri, xml) in &base.docs {
        db.add_xml(uri, xml)
            .map_err(|e| format!("base add_xml {uri}: {e}"))?;
    }
    db.commit().map_err(|e| format!("base commit: {e}"))?;
    // Space is read here, where it repeats: later it depends on how many
    // folds the run happened to fit.
    let stored = dir_bytes(&pipeline_dir).map_err(|e| e.to_string())?;
    let setup_s = setup.elapsed().as_secs_f64();

    let mut writer = Writer::new(&stream, sizes, p.seed);
    let writer_done = AtomicBool::new(false);
    let deadline = Instant::now() + p.budget(1.0);
    let (write_side, read_side) = std::thread::scope(|scope| {
        let writing = scope.spawn(|| {
            let mut tracer = Tracer::disabled();
            let mut rounds = Vec::new();
            // Past the deadline the writer runs on to its next fold, so
            // every run ends on a whole commit-and-fold cycle.
            let outcome = loop {
                let due = rounds.len() >= sizes.update_min_rounds && Instant::now() >= deadline;
                let folded = rounds
                    .last()
                    .is_some_and(|r: &crate::updates::Round| r.merge_ms.is_some());
                if !writer.has_input() || (due && folded) {
                    break Ok(());
                }
                match writer.round(&db, &mut tracer) {
                    Ok(round) => rounds.push(round),
                    Err(e) => break Err(e),
                }
            };
            writer_done.store(true, Ordering::SeqCst);
            outcome.map(|()| rounds)
        });
        let reading =
            scope.spawn(|| read_beside_writer(&static_engine, &db, &queries, &writer_done));
        (
            writing.join().expect("writer panicked"),
            reading.join().expect("reader panicked"),
        )
    });
    let rounds = write_side?;
    tally.absorb(read_side.tally);

    // Durability: only what reopening the directory gives back counts.
    drop(db);
    let mut reopen_ms = Vec::new();
    for _ in 0..OPENS {
        let (db, ms) = open_pipeline(&pipeline_dir, &config)?;
        reopen_ms.push(ms);
        if reopen_ms.len() == OPENS {
            writer.audit(&db, &mut tally);
        }
    }
    let stored_at_end = dir_bytes(&pipeline_dir).map_err(|e| e.to_string())?;
    let live_bytes = base.xml_bytes + writer.live_xml_bytes();

    let commits: Vec<f64> = rounds.iter().map(|r| r.commit_ms).collect();
    let merges: Vec<f64> = rounds.iter().filter_map(|r| r.merge_ms).collect();
    // Write throughput: XML bytes acknowledged over the writer's busy
    // time, folds included (the run ends on a fold, so whole cycles).
    let added_mb = rounds.iter().map(|r| r.xml_bytes).sum::<usize>() as f64 / 1e6;
    let busy_s = (commits.iter().sum::<f64>() + merges.iter().sum::<f64>()) / 1e3;

    // The reader's trials differ because the writer does different work
    // in them (commits, folds, more segments): the median, not the best.
    let beside_writer = |series: &[f64], figure: fn(&crate::stats::MixLatency) -> f64| {
        Summary::median_of(&per_trial_latency(series, queries.len(), figure))
    };
    let metrics = vec![
        ("setup_s", Summary::exact(setup_s)),
        (
            "dil_p50_us",
            beside_writer(&read_side.static_dil_us, |t| t.typical),
        ),
        (
            "rdil_p50_us",
            beside_writer(&read_side.static_rdil_us, |t| t.typical),
        ),
        (
            "hdil_p50_us",
            beside_writer(&read_side.search_us, |t| t.typical),
        ),
        (
            "queries_per_s",
            Summary::exact(read_side.operations as f64 / read_side.wall_s),
        ),
        (
            "sim_io_cost_per_query",
            Summary::exact(read_side.search_io_cost / read_side.search_us.len().max(1) as f64),
        ),
        ("ingest_mb_per_s", Summary::exact(added_mb / busy_s)),
        ("open_ms", Summary::best_of(&reopen_ms, Better::Lower)),
        (
            "index_bytes_per_xml_byte",
            Summary::exact(stored as f64 / base.xml_bytes as f64),
        ),
        ("peak_rss_mb", Summary::exact(peak_rss_mb())),
    ];
    let (live, dead) = writer.acknowledged();
    let mut notes = vec![
        (
            "hdil_p95_us",
            beside_writer(&read_side.search_us, |t| t.p95),
            "us",
        ),
        (
            "commit_p50_ms",
            Summary::median_of(&per_trial(&commits, TRIALS, |c| percentile(c, 0.5))),
            "ms",
        ),
        (
            "commit_p95_ms",
            Summary::exact(percentile(&commits, 0.95)),
            "ms",
        ),
        (
            "bytes_per_live_xml_byte_at_end",
            Summary::exact(stored_at_end as f64 / live_bytes as f64),
            "ratio",
        ),
        (
            "commit_rounds",
            Summary::exact(rounds.len() as f64),
            "count",
        ),
        ("acknowledged_live", Summary::exact(live as f64), "count"),
        ("acknowledged_gone", Summary::exact(dead as f64), "count"),
        (
            "segments_live_p50",
            Summary::median_of(
                &rounds
                    .iter()
                    .map(|r| r.segments_after as f64)
                    .collect::<Vec<_>>(),
            ),
            "count",
        ),
    ];
    if !merges.is_empty() {
        notes.push(("merge_small_ms", Summary::median_of(&merges), "ms"));
    }
    Ok(Outcome {
        metrics,
        notes,
        tally,
    })
}

struct ReadSide {
    static_dil_us: Vec<f64>,
    static_rdil_us: Vec<f64>,
    search_us: Vec<f64>,
    search_io_cost: f64,
    operations: u64,
    wall_s: f64,
    tally: Tally,
}

/// The reader of `update-mixed`: cycles the queries until the writer is
/// done; per query one DIL and one RDIL call on the static base index
/// and one `search` on the pipeline. The pipeline's answers grow as
/// documents arrive, so they are checked for shape (no error, not
/// degraded, non-empty); the static answers are checked exactly.
fn read_beside_writer<S: xrank::storage::PageStore>(
    static_engine: &xrank::XRankEngine<S>,
    db: &xrank::UpdatableXRank,
    queries: &[Checked],
    writer_done: &AtomicBool,
) -> ReadSide {
    let opts = query_options();
    let cost_model = db.config().cost_model;
    let mut out = ReadSide {
        static_dil_us: Vec::new(),
        static_rdil_us: Vec::new(),
        search_us: Vec::new(),
        search_io_cost: 0.0,
        operations: 0,
        wall_s: 0.0,
        tally: Tally::default(),
    };
    let start = Instant::now();
    'cycle: loop {
        for checked in queries {
            if writer_done.load(Ordering::SeqCst) {
                break 'cycle;
            }
            let text = &checked.query.text;
            for (strategy, series) in [
                (Strategy::Dil, &mut out.static_dil_us),
                (Strategy::Rdil, &mut out.static_rdil_us),
            ] {
                let call = Instant::now();
                let reply = std::hint::black_box(static_engine.query(text, strategy, &opts));
                series.push(call.elapsed().as_secs_f64() * 1e6);
                out.tally.record(checked.accepts(&reply), || {
                    format!("static {strategy:?} {text:?}")
                });
            }
            let call = Instant::now();
            let reply = std::hint::black_box(db.search(text, TOP_M));
            out.search_us.push(call.elapsed().as_secs_f64() * 1e6);
            let fine = match &reply {
                Ok(page) => {
                    out.search_io_cost += cost_model.cost(&page.io);
                    !page.is_degraded() && !page.hits.is_empty()
                }
                Err(_) => false,
            };
            out.tally
                .record(fine, || format!("pipeline search {text:?}"));
            out.operations += 3;
        }
    }
    out.wall_s = start.elapsed().as_secs_f64().max(1e-9);
    out
}
