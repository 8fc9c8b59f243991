//! Engine assembly and the search entry point.

use crate::results::{SearchHit, SearchResults};
use crate::telemetry::{
    strategy_label, EngineMetrics, Explain, ObsConfig, SlowQueryEntry, SlowQueryLog, ANY_SLOT,
};
use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use xrank_graph::{Collection, CollectionBuilder, ElemId, LinkSpec, TermId};
use xrank_index::{
    direct_postings_weighted, naive_postings, HdilIndex, NaiveIdIndex, NaiveRankIndex,
    RankWeighting, RdilIndex,
};
use xrank_obs::{
    EventData, FlightRecorder, MetricsRegistry, OpKind, OpOutcome, QueryTrace, Stage,
};
use xrank_query::{dil_query, hdil_query, naive_query, rdil_query, QueryError, QueryOptions};
use xrank_rank::{elem_rank_seeded, ElemRankParams, RankResult};
use xrank_storage::{
    BufferPool, CostModel, FileStore, MemStore, PageStore, StatsScope, StorageResult,
};

/// Flight-record label for a query op: `query[strategy] text`, with the
/// text clipped so a pathological query can't bloat the ring.
fn op_label(strategy: &str, query: &str) -> String {
    const MAX_QUERY: usize = 80;
    let clipped = match query.char_indices().nth(MAX_QUERY) {
        Some((i, _)) => &query[..i],
        None => query,
    };
    format!("query[{strategy}] {clipped}")
}

/// Stamps a query's counts onto its trace once it ran: the probe kinds of
/// its `EvalStats` as untimed stage counts, and its I/O ledger as
/// `pool_io` events, so the exported timeline shows the physical cost next
/// to the stages that incurred it.
fn attach_counts(trace: &QueryTrace, s: &xrank_query::EvalStats, io: &xrank_storage::IoStats) {
    for (stage, n) in [
        (Stage::ProbeMemoHit, s.probe_memo_hits),
        (Stage::CursorSeek, s.cursor_seeks),
        (Stage::CursorSeekBack, s.cursor_seeks_back),
        (Stage::CursorDescent, s.cursor_descents),
    ] {
        trace.add_count(stage, n);
    }
    for (what, n) in [
        ("seq_reads", io.seq_reads),
        ("rand_reads", io.rand_reads),
        ("cache_hits", io.cache_hits),
    ] {
        if n > 0 {
            trace.event(Stage::PoolIo, EventData::Count { what, n });
        }
    }
}

/// Which evaluation strategy [`XRankEngine::search_with`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Figure 5 single-pass merge over Dewey-sorted lists.
    Dil,
    /// Figure 7 Threshold-Algorithm evaluation (requires `with_rdil`).
    Rdil,
    /// Section 4.4.2 adaptive strategy (the default).
    Hdil,
    /// Naive equality merge baseline (requires `with_naive`).
    NaiveId,
    /// Naive TA + hash probes baseline (requires `with_naive`).
    NaiveRank,
}

/// Result filtering per Section 2.2.
#[derive(Debug, Clone, Default)]
pub enum AnswerNodes {
    /// Every element may be a result ("If such knowledge is not available,
    /// all XML elements can be treated as answer nodes").
    #[default]
    All,
    /// Only elements with these tag names may be results; deeper matches
    /// are promoted to their closest answer-node ancestor.
    Tags(HashSet<String>),
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// ElemRank parameters (paper defaults).
    pub rank_params: ElemRankParams,
    /// Default query options (decay, aggregation, proximity, m).
    pub query: QueryOptions,
    /// Buffer pool capacity in pages.
    pub pool_pages: usize,
    /// Simulated I/O cost model (drives HDIL's adaptive switch).
    pub cost_model: CostModel,
    /// Build the standalone RDIL index too (the engine always builds HDIL,
    /// which already serves the `Dil` strategy through its full list).
    pub with_rdil: bool,
    /// Build the naive baselines too (space-hungry; experiments only).
    pub with_naive: bool,
    /// Answer-node restriction.
    pub answer_nodes: AnswerNodes,
    /// Hyperlink attribute conventions.
    pub link_spec: LinkSpec,
    /// Rank source for postings (ElemRank, tf-idf, or a blend — the
    /// Section 7 tf-idf extension).
    pub weighting: RankWeighting,
    /// Observability: metrics gating, slow-query log threshold/capacity.
    pub obs: ObsConfig,
    /// Write-ahead log for sub-commit durability of staged documents
    /// (durable update pipelines only; see [`crate::SyncPolicy`]).
    pub wal: crate::wal::WalConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            rank_params: ElemRankParams::default(),
            query: QueryOptions::default(),
            pool_pages: 4096,
            cost_model: CostModel::default(),
            with_rdil: false,
            with_naive: false,
            answer_nodes: AnswerNodes::All,
            link_spec: LinkSpec::default(),
            weighting: RankWeighting::ElemRank,
            obs: ObsConfig::default(),
            wal: crate::wal::WalConfig::default(),
        }
    }
}

/// Accumulates documents, then builds an [`XRankEngine`].
pub struct EngineBuilder {
    config: EngineConfig,
    collection: CollectionBuilder,
    html_docs: HashSet<u32>,
    rank_seed: Option<std::collections::HashMap<String, Vec<f64>>>,
}

impl EngineBuilder {
    /// Builder with default configuration.
    pub fn new() -> Self {
        Self::with_config(EngineConfig::default())
    }

    /// Builder with explicit configuration.
    pub fn with_config(config: EngineConfig) -> Self {
        let collection = CollectionBuilder::with_spec(config.link_spec.clone());
        EngineBuilder { config, collection, html_docs: HashSet::new(), rank_seed: None }
    }

    /// Warm-starts the build-time ElemRank power iteration from a previous
    /// index generation's rank vector: `seed` maps a document URI to that
    /// document's per-element scores in element-id order (root first, the
    /// order [`xrank_graph::DocInfo::element_count`] spans). Documents
    /// absent from the map — and documents whose element count changed —
    /// start from the random-jump mass for their slice. The converged
    /// scores do not depend on the seed (the fixed point is unique); a good
    /// seed only reduces the number of sweeps. Used by the update
    /// pipeline's compactor, which folds segments whose contents mostly
    /// overlap the merged result.
    pub fn set_rank_seed(&mut self, seed: std::collections::HashMap<String, Vec<f64>>) {
        self.rank_seed = Some(seed);
    }

    /// Sets the worker-thread count for the ElemRank power iteration run
    /// at build time: `0` auto-detects (the `XRANK_THREADS` env var if
    /// set, else available parallelism scaled to the collection size),
    /// `1` forces the exact single-threaded computation. Scores are
    /// deterministic regardless of the value (see DESIGN.md, "ElemRank
    /// kernel").
    pub fn rank_threads(mut self, threads: usize) -> Self {
        self.config.rank_params.threads = threads;
        self
    }

    /// Adds an XML document.
    pub fn add_xml(&mut self, uri: &str, xml: &str) -> Result<(), xrank_xml::XmlError> {
        self.collection.add_xml_str(uri, xml)?;
        Ok(())
    }

    /// Adds an HTML page (flattened to a single element; only the whole
    /// page can be a result, per Section 2.2).
    pub fn add_html(&mut self, uri: &str, html: &str) {
        let page = xrank_xml::html::parse_html(html);
        let doc = self.collection.add_html_document(uri, "page", &page);
        self.html_docs.insert(doc);
    }

    /// Resolves links, computes ElemRank, and builds the indexes
    /// in memory.
    ///
    /// Panics on a document nested so deeply (thousands of levels) that
    /// one Dewey ID exceeds a page; [`EngineBuilder::build_with_store`]
    /// reports that as a typed error instead.
    pub fn build(self) -> XRankEngine {
        self.build_with_store(MemStore::new())
            .expect("in-memory build: no I/O faults, and every posting fits a page")
    }

    /// Builds into a persistent directory with a crash-safe commit: index
    /// pages and the engine metadata (`xrank-meta.bin`) are written to
    /// `dir/store.tmp/`, fsynced, and atomically renamed over `dir/store/`.
    /// A crash at any point leaves either the previous index or the new
    /// one openable with [`XRankEngine::open`] — never a half-written mix.
    pub fn build_persistent(
        self,
        dir: impl AsRef<std::path::Path>,
    ) -> std::io::Result<XRankEngine<FileStore>> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let tmp = dir.join(crate::persist::STORE_TMP);
        if tmp.exists() {
            // Leftover from an interrupted save; it was never committed.
            std::fs::remove_dir_all(&tmp)?;
        }
        let store = FileStore::open(&tmp)?;
        let engine = self.build_with_store(store)?;
        engine.write_meta_file(&tmp.join(crate::persist::META_FILE))?;
        engine.pool().store().sync()?;
        crate::persist::commit_store_swap(dir)?;
        Ok(engine)
    }

    /// Builds against an arbitrary page store. Fallible: every index page
    /// goes through the store, so a failing or full device surfaces as a
    /// typed [`xrank_storage::StorageError`] instead of a panic.
    pub fn build_with_store<S: PageStore>(self, store: S) -> StorageResult<XRankEngine<S>> {
        let collection = self.collection.build();
        let seed = self.rank_seed.as_ref().and_then(|map| {
            // Assemble the full-length start vector from per-document
            // slices: a document's elements are contiguous in ElemId order
            // (`[root, root + element_count)`), so the old scores drop
            // straight into place. Unmatched documents get uniform
            // per-document jump mass (the final formula's cold start for
            // that slice); if nothing matches, skip seeding entirely.
            let n = collection.element_count();
            let nd = collection.doc_count() as f64;
            let mut init = vec![0.0f64; n];
            let mut matched = false;
            for doc in collection.docs() {
                let lo = doc.root as usize;
                let hi = lo + doc.element_count as usize;
                match map.get(&doc.uri) {
                    Some(old) if old.len() == doc.element_count as usize => {
                        init[lo..hi].copy_from_slice(old);
                        matched = true;
                    }
                    _ => {
                        let mass = 1.0 / (nd * doc.element_count as f64);
                        init[lo..hi].fill(mass);
                    }
                }
            }
            matched.then_some(init)
        });
        let ranks = elem_rank_seeded(&collection, &self.config.rank_params, seed);
        let mut pool = BufferPool::new(store, self.config.pool_pages);

        let direct = direct_postings_weighted(&collection, &ranks.scores, self.config.weighting);
        let hdil = HdilIndex::build(&mut pool, &direct)?;
        let rdil = if self.config.with_rdil {
            Some(RdilIndex::build(&mut pool, &direct)?)
        } else {
            None
        };
        let (naive_id, naive_rank) = if self.config.with_naive {
            let naive = naive_postings(&collection, &ranks.scores);
            (
                Some(NaiveIdIndex::build(&mut pool, &naive)?),
                Some(NaiveRankIndex::build(&mut pool, &naive)?),
            )
        } else {
            (None, None)
        };

        Ok(XRankEngine::from_parts(
            self.config,
            collection,
            ranks,
            pool,
            hdil,
            rdil,
            naive_id,
            naive_rank,
            self.html_docs,
        ))
    }
}

impl Default for EngineBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// The built search engine (in memory by default; see
/// [`EngineBuilder::build_persistent`] / [`XRankEngine::open`] for the
/// file-backed form).
pub struct XRankEngine<S: PageStore = MemStore> {
    config: EngineConfig,
    collection: Collection,
    ranks: RankResult,
    pool: BufferPool<S>,
    hdil: HdilIndex,
    rdil: Option<RdilIndex>,
    naive_id: Option<NaiveIdIndex>,
    naive_rank: Option<NaiveRankIndex>,
    html_docs: HashSet<u32>,
    metrics: Arc<MetricsRegistry>,
    emetrics: EngineMetrics,
    slow_log: SlowQueryLog,
    recorder: Arc<FlightRecorder>,
    /// Per-segment gauge series published on the last scrape, so series
    /// whose segment has since disappeared can be retired.
    segment_series: Mutex<HashSet<String>>,
}

impl<S: PageStore> XRankEngine<S> {
    /// Searches with the default (HDIL adaptive) strategy. Like
    /// [`XRankEngine::search_with`], it empties the shared buffer pool
    /// first (a cold-start query, as in the paper's experiments), so it
    /// is not for concurrent callers; they use [`XRankEngine::query`].
    pub fn search(&self, query: &str, m: usize) -> Result<SearchResults, QueryError> {
        let opts = QueryOptions { top_m: m, ..self.config.query.clone() };
        self.search_with(query, Strategy::Hdil, &opts)
    }

    /// Disjunctive search (Section 2.2's "at least one keyword"
    /// semantics): a ranked union over the direct containers of each
    /// keyword. Unknown keywords are dropped instead of emptying the
    /// result. It empties the shared buffer pool first, like
    /// [`XRankEngine::search`], so it is not for concurrent callers;
    /// they use [`XRankEngine::query`] (conjunctive only).
    pub fn search_any(&self, query: &str, m: usize) -> Result<SearchResults, QueryError> {
        let opts = QueryOptions { top_m: m, ..self.config.query.clone() };
        let terms: Vec<TermId> = xrank_graph::tokenize(query)
            .iter()
            .filter_map(|w| self.collection.vocabulary().lookup(w))
            .collect();
        self.pool.clear_cache();
        let scope = StatsScope::begin();
        let start = std::time::Instant::now();
        let outcome =
            match xrank_query::disjunctive::evaluate(&self.pool, &self.hdil.dil, &terms, &opts) {
                Ok(o) => o,
                Err(e) => {
                    self.emetrics.record_err(&e);
                    return Err(e);
                }
            };
        let elapsed = start.elapsed();
        let io = scope.finish();
        let hits = self.present(outcome.results, opts.top_m);
        self.emetrics.record_ok(ANY_SLOT, elapsed);
        if let Some(reason) = outcome.degraded {
            self.emetrics.record_degraded(reason);
        }
        self.note_slow(query, "any", elapsed, hits.len());
        if self.recorder.is_enabled() {
            // The disjunctive path is untraced; record the op envelope so
            // it still lands on the timeline.
            let trace = xrank_obs::Trace { total: elapsed, ..Default::default() };
            let outcome_kind = if outcome.degraded.is_some() {
                OpOutcome::Degraded
            } else {
                OpOutcome::Ok
            };
            self.recorder.record(OpKind::Query, op_label("any", query), start, outcome_kind, trace);
        }
        Ok(SearchResults {
            hits,
            eval: outcome.stats,
            io,
            elapsed,
            trace: None,
            degraded: outcome.degraded,
        })
    }

    /// Searches with an explicit strategy and options. The buffer pool is
    /// cold-started per query, matching the paper's experimental setup.
    /// This is the single-stream benchmark entry point — the global cache
    /// clear makes it unsuitable to call concurrently; the serving path is
    /// [`XRankEngine::query`].
    pub fn search_with(
        &self,
        query: &str,
        strategy: Strategy,
        opts: &QueryOptions,
    ) -> Result<SearchResults, QueryError> {
        self.pool.clear_cache();
        self.query(query, strategy, opts)
    }

    /// Evaluates a query against the warm shared cache through `&self` —
    /// the concurrent serving entry point: any number of threads may call
    /// this on one engine simultaneously. Per-query I/O in the returned
    /// [`SearchResults::io`] is attributed via a thread-local
    /// [`StatsScope`], so it stays exact even with other queries in
    /// flight.
    /// A fault under any query — an I/O error, a checksum mismatch, a
    /// corrupt page — returns [`QueryError`] for *that query only*; the
    /// engine itself stays healthy and keeps serving.
    pub fn query(
        &self,
        query: &str,
        strategy: Strategy,
        opts: &QueryOptions,
    ) -> Result<SearchResults, QueryError> {
        self.query_inner(query, strategy, opts, QueryTrace::disabled())
    }

    /// [`XRankEngine::query`] with per-stage tracing: the returned
    /// [`SearchResults::trace`] holds the finished per-query timeline
    /// (stage timings, every probe and range scan, TA rounds, the HDIL
    /// switch decision). Tracing costs clock reads on the instrumented
    /// stages; an untraced query reads the clock only on the coarse stages,
    /// and only while the flight recorder is on.
    pub fn query_traced(
        &self,
        query: &str,
        strategy: Strategy,
        opts: &QueryOptions,
    ) -> Result<SearchResults, QueryError> {
        self.query_inner(query, strategy, opts, QueryTrace::enabled())
    }

    /// Runs `query` with tracing on and renders the [`Explain`] view: the
    /// per-stage timeline plus this query's I/O delta and work counters.
    pub fn explain(
        &self,
        query: &str,
        strategy: Strategy,
        opts: &QueryOptions,
    ) -> Result<Explain, QueryError> {
        let results = self.query_traced(query, strategy, opts)?;
        Ok(Explain {
            query: query.to_string(),
            strategy: strategy_label(strategy),
            hits: results.hits.len(),
            elapsed: results.elapsed,
            eval: results.eval,
            io: results.io,
            degraded: results.degraded,
            trace: results.trace.unwrap_or_default(),
        })
    }

    fn query_inner(
        &self,
        query: &str,
        strategy: Strategy,
        opts: &QueryOptions,
        trace: QueryTrace,
    ) -> Result<SearchResults, QueryError> {
        // The caller only gets a trace back if it asked for one, but the
        // flight recorder wants every operation traced — upgrade a
        // disabled trace to a stage-level one while recording is on: a
        // clock read per probe would cost more than the probe, and the
        // probe-kind counts come from `EvalStats` below instead.
        let explicit = trace.is_enabled();
        let record = self.recorder.is_enabled();
        let trace = if record && !explicit { QueryTrace::stage_level() } else { trace };
        let scope = StatsScope::begin();
        let start = std::time::Instant::now();
        let tokenize_span = trace.span(Stage::Tokenize);
        let terms = self.resolve_terms(query);
        drop(tokenize_span);

        // Answer-node promotion (and HTML-root collapsing) can merge many
        // raw results into one presented hit; over-fetch so the final list
        // can still fill up to the requested `top_m`.
        let requested = opts.top_m;
        let opts = &QueryOptions {
            top_m: if matches!(self.config.answer_nodes, AnswerNodes::Tags(_))
                || !self.html_docs.is_empty()
            {
                requested.saturating_mul(4).saturating_add(8)
            } else {
                requested
            },
            ..opts.clone()
        };

        let evaluated = match (strategy, terms.as_deref()) {
            (_, None) => Ok(xrank_query::QueryOutcome {
                results: Vec::new(),
                stats: Default::default(),
                degraded: None,
            }),
            (Strategy::Dil, Some(t)) => {
                dil_query::evaluate_traced(&self.pool, &self.hdil.dil, t, opts, &trace)
            }
            (Strategy::Rdil, Some(t)) => self
                .rdil
                .as_ref()
                .ok_or(QueryError::Unavailable("engine built without with_rdil"))
                .and_then(|rdil| rdil_query::evaluate_traced(&self.pool, rdil, t, opts, &trace)),
            (Strategy::Hdil, Some(t)) => hdil_query::evaluate_traced(
                &self.pool,
                &self.hdil,
                t,
                opts,
                &self.config.cost_model,
                &trace,
            ),
            (Strategy::NaiveId, Some(t)) => self
                .naive_id
                .as_ref()
                .ok_or(QueryError::Unavailable("engine built without with_naive"))
                .and_then(|idx| {
                    naive_query::evaluate_id_traced(
                        &self.pool,
                        idx,
                        &self.collection,
                        t,
                        opts,
                        &trace,
                    )
                }),
            (Strategy::NaiveRank, Some(t)) => self
                .naive_rank
                .as_ref()
                .ok_or(QueryError::Unavailable("engine built without with_naive"))
                .and_then(|idx| {
                    naive_query::evaluate_rank_traced(
                        &self.pool,
                        idx,
                        &self.collection,
                        t,
                        opts,
                        &trace,
                    )
                }),
        };
        let outcome = match evaluated {
            Ok(o) => o,
            Err(e) => {
                self.emetrics.record_err(&e);
                if record {
                    let _ = scope.finish();
                    let origin = trace.origin();
                    self.recorder.record(
                        OpKind::Query,
                        op_label(strategy_label(strategy), query),
                        origin,
                        OpOutcome::Error,
                        trace.finish(),
                    );
                }
                return Err(e);
            }
        };

        let present_span = trace.span(Stage::Present);
        let hits = self.present(outcome.results, requested);
        drop(present_span);
        let elapsed = start.elapsed();
        let io = scope.finish();

        self.emetrics.record_ok(EngineMetrics::slot_for(strategy), elapsed);
        self.emetrics.record_eval(&outcome.stats);
        if let Some(reason) = outcome.degraded {
            self.emetrics.record_degraded(reason);
        }
        self.note_slow(query, strategy_label(strategy), elapsed, hits.len());
        attach_counts(&trace, &outcome.stats, &io);
        let origin = trace.origin();
        let mut finished = trace.is_enabled().then(|| trace.finish());
        if record {
            // The recorder takes the finished trace; only a caller that
            // asked for it too makes the copy.
            let kept = if explicit { finished.clone() } else { finished.take() };
            if let Some(t) = kept {
                let outcome_kind = if outcome.degraded.is_some() {
                    OpOutcome::Degraded
                } else {
                    OpOutcome::Ok
                };
                self.recorder.record(
                    OpKind::Query,
                    op_label(strategy_label(strategy), query),
                    origin,
                    outcome_kind,
                    t,
                );
            }
        }
        Ok(SearchResults {
            hits,
            eval: outcome.stats,
            io,
            elapsed,
            trace: finished,
            degraded: outcome.degraded,
        })
    }

    fn note_slow(&self, query: &str, strategy: &'static str, elapsed: std::time::Duration, hits: usize) {
        if elapsed >= self.slow_log.threshold() {
            let captured = self.slow_log.offer(SlowQueryEntry {
                query: query.to_string(),
                strategy,
                elapsed,
                hits,
            });
            if captured {
                self.emetrics.record_slow();
            }
        }
    }

    /// Lowercases, tokenizes, and resolves the query keywords. `None` if
    /// any keyword is absent from the vocabulary (conjunctive semantics —
    /// no results possible).
    fn resolve_terms(&self, query: &str) -> Option<Vec<TermId>> {
        let words = xrank_graph::tokenize(query);
        if words.is_empty() {
            return None;
        }
        words
            .iter()
            .map(|w| self.collection.vocabulary().lookup(w))
            .collect()
    }

    /// Applies answer-node promotion/HTML-root filtering and renders at
    /// most `m` hits.
    fn present(
        &self,
        results: Vec<xrank_query::QueryResult>,
        m: usize,
    ) -> Vec<SearchHit> {
        let mut out: Vec<SearchHit> = Vec::with_capacity(m.min(results.len()));
        let mut seen: HashSet<ElemId> = HashSet::with_capacity(out.capacity());
        for r in results {
            if out.len() >= m {
                break;
            }
            let Some(elem) = self.collection.elem_by_dewey(&r.dewey) else { continue };
            let target = self.answer_node_for(elem);
            if !seen.insert(target) {
                continue; // two results promoted to the same answer node
            }
            let dewey = if target == elem {
                r.dewey
            } else {
                self.collection.element(target).dewey.clone()
            };
            out.push(self.hit(target, dewey, r.score));
        }
        out
    }

    /// The closest ancestor-or-self that may be presented as a result:
    /// HTML documents return their root (Section 2.2); `AnswerNodes::Tags`
    /// promotes to the nearest listed tag.
    fn answer_node_for(&self, elem: ElemId) -> ElemId {
        let e = self.collection.element(elem);
        if self.html_docs.contains(&e.doc) {
            return self.collection.doc(e.doc).root;
        }
        match &self.config.answer_nodes {
            AnswerNodes::All => elem,
            AnswerNodes::Tags(tags) => {
                let mut cur = elem;
                loop {
                    let node = self.collection.element(cur);
                    if tags.contains(&*node.name) {
                        return cur;
                    }
                    match node.parent {
                        Some(p) => cur = p,
                        None => return self.collection.doc(node.doc).root,
                    }
                }
            }
        }
    }

    fn hit(&self, elem: ElemId, dewey: xrank_dewey::DeweyId, score: f64) -> SearchHit {
        let mut path = Vec::new();
        let mut cur = Some(elem);
        while let Some(e) = cur {
            let node = self.collection.element(e);
            path.push(node.name.to_string());
            cur = node.parent;
        }
        path.reverse();
        let mut words = self.collection.subtree_term_iter(elem);
        let mut snippet = String::new();
        for (i, w) in words.by_ref().take(16).enumerate() {
            if i > 0 {
                snippet.push(' ');
            }
            snippet.push_str(w);
        }
        if words.next().is_some() {
            snippet.push_str(" …");
        }
        let doc_uri = self
            .collection
            .doc(self.collection.element(elem).doc)
            .uri
            .clone();
        SearchHit { dewey, elem, score, path, snippet, doc_uri }
    }

    /// The underlying collection.
    pub fn collection(&self) -> &Collection {
        &self.collection
    }

    /// An element's ElemRank.
    pub fn elem_rank_of(&self, elem: ElemId) -> f64 {
        self.ranks.score(elem)
    }

    /// ElemRank convergence metadata.
    pub fn rank_result(&self) -> &RankResult {
        &self.ranks
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The engine's shared page cache (global I/O ledger, cache control).
    pub fn pool(&self) -> &BufferPool<S> {
        &self.pool
    }

    /// Storage accounting for the block-compressed DIL posting lists:
    /// `(compressed_bytes, flat_bytes, postings)` — the byte-granular
    /// on-disk footprint, the flat uncompressed baseline the same
    /// postings would take (full Dewey per entry, no delta blocks), and
    /// the posting count. Scans every list; bench/diagnostic use.
    pub fn dil_storage(&self) -> StorageResult<(u64, u64, u64)> {
        let dil = &self.hdil.dil;
        Ok((dil.used_bytes(), dil.flat_bytes(&self.pool)?, dil.total_entries()))
    }

    /// The engine's metrics registry. Shared with the
    /// [`crate::QueryExecutor`] so serving-path metrics land in one place;
    /// gate hot-path recording with
    /// [`MetricsRegistry::set_enabled`].
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Publishes pool-level gauges (hit ratio, evictions, per-segment
    /// sequential/random read split) into the registry. Called by
    /// [`XRankEngine::render_metrics`] and
    /// [`XRankEngine::metrics_snapshot`]; call directly before scraping
    /// the registry through [`XRankEngine::metrics`].
    pub fn publish_pool_metrics(&self) {
        let io = self.pool.stats();
        let ev = self.pool.eviction_counters();
        let m = &self.metrics;
        m.gauge("xrank_pool_seq_reads").set(io.seq_reads as i64);
        m.gauge("xrank_pool_rand_reads").set(io.rand_reads as i64);
        m.gauge("xrank_pool_cache_hits").set(io.cache_hits as i64);
        m.gauge("xrank_pool_writes").set(io.writes as i64);
        m.gauge("xrank_pool_evictions").set(ev.evictions as i64);
        m.gauge("xrank_pool_hand_steps").set(ev.hand_steps as i64);
        let ratio_ppm = io
            .cache_hits
            .saturating_mul(1_000_000)
            .checked_div(io.logical_reads())
            .unwrap_or(0) as i64;
        m.gauge("xrank_pool_hit_ratio_ppm").set(ratio_ppm);
        let (notable, normal) = self.recorder.depth();
        m.gauge("xrank_recorder_notable_depth").set(notable as i64);
        m.gauge("xrank_recorder_normal_depth").set(normal as i64);
        m.gauge("xrank_recorder_dropped").set(self.recorder.dropped() as i64);
        // Per-segment series carry a transient identity: publish the
        // current set, then retire series for segments that no longer
        // exist so a scrape never reports deleted segments.
        let mut fresh = HashSet::new();
        for (seg, sio) in self.pool.segment_io() {
            for (kind, reads) in [("seq", sio.seq_reads), ("rand", sio.rand_reads)] {
                let name = format!(
                    "xrank_pool_segment_reads{{segment=\"{}\",kind=\"{kind}\"}}",
                    seg.0
                );
                m.gauge(&name).set(reads as i64);
                fresh.insert(name);
            }
        }
        let mut prev = self.segment_series.lock().unwrap_or_else(|e| e.into_inner());
        for stale in prev.difference(&fresh) {
            m.retire(stale);
        }
        *prev = fresh;
    }

    /// Prometheus text exposition of every metric, with pool gauges
    /// freshly published.
    pub fn render_metrics(&self) -> String {
        self.publish_pool_metrics();
        self.metrics.render_prometheus()
    }

    /// A typed snapshot of every metric, with pool gauges freshly
    /// published.
    pub fn metrics_snapshot(&self) -> xrank_obs::MetricsSnapshot {
        self.publish_pool_metrics();
        self.metrics.snapshot()
    }

    /// The captured slow queries (queries at least
    /// [`ObsConfig::slow_query_threshold`] slow), oldest first.
    pub fn slow_queries(&self) -> Vec<SlowQueryEntry> {
        self.slow_log.snapshot()
    }

    /// The engine's flight recorder (see [`FlightRecorder`]): the bounded
    /// ring of recent finished operation traces.
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// Renders the flight recorder's retained operations as Chrome
    /// trace-event JSON, loadable in `ui.perfetto.dev`.
    pub fn dump_trace_json(&self) -> String {
        xrank_obs::render_chrome_trace(&self.recorder.records())
    }

    // --- crate-internal accessors for the persistence layer ---

    pub(crate) fn collection_ref(&self) -> &Collection {
        &self.collection
    }

    pub(crate) fn hdil_ref(&self) -> &HdilIndex {
        &self.hdil
    }

    pub(crate) fn rdil_ref(&self) -> Option<&RdilIndex> {
        self.rdil.as_ref()
    }

    pub(crate) fn naive_id_ref(&self) -> Option<&NaiveIdIndex> {
        self.naive_id.as_ref()
    }

    pub(crate) fn naive_rank_ref(&self) -> Option<&NaiveRankIndex> {
        self.naive_rank.as_ref()
    }

    pub(crate) fn html_docs_ref(&self) -> &HashSet<u32> {
        &self.html_docs
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        config: EngineConfig,
        collection: Collection,
        ranks: RankResult,
        pool: BufferPool<S>,
        hdil: HdilIndex,
        rdil: Option<RdilIndex>,
        naive_id: Option<NaiveIdIndex>,
        naive_rank: Option<NaiveRankIndex>,
        html_docs: HashSet<u32>,
    ) -> Self {
        let metrics = Arc::new(if config.obs.metrics_enabled {
            MetricsRegistry::new()
        } else {
            MetricsRegistry::disabled()
        });
        let emetrics = EngineMetrics::new(&metrics);
        let slow_log = SlowQueryLog::new(&config.obs);
        let recorder = Arc::new(FlightRecorder::new(config.obs.recorder.clone()));
        XRankEngine {
            config,
            collection,
            ranks,
            pool,
            hdil,
            rdil,
            naive_id,
            naive_rank,
            html_docs,
            metrics,
            emetrics,
            slow_log,
            recorder,
            segment_series: Mutex::new(HashSet::new()),
        }
    }

    /// Replaces this engine's flight recorder — used by the update
    /// pipeline so every per-segment engine records into the pipeline's
    /// shared ring (queries and background work on one timeline).
    pub(crate) fn set_recorder(&mut self, recorder: Arc<FlightRecorder>) {
        self.recorder = recorder;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The thread knob reaches the rank kernel and does not perturb the
    /// computed ElemRanks (within the cross-thread-count tolerance).
    #[test]
    fn rank_threads_plumbs_through_without_changing_scores() {
        let xml = r#"<r><a id="1"><b>alpha beta</b><c>gamma</c></a><d ref="1">cite</d></r>"#;
        let build = |threads: usize| {
            let mut b = EngineBuilder::new().rank_threads(threads);
            b.add_xml("doc", xml).unwrap();
            b.build()
        };
        let single = build(1);
        assert_eq!(single.config().rank_params.threads, 1);
        let dual = build(2);
        assert_eq!(dual.config().rank_params.threads, 2);
        let (a, b) = (&single.rank_result().scores, &dual.rank_result().scores);
        assert_eq!(a.len(), b.len());
        assert!(a.iter().zip(b).all(|(x, y)| (x - y).abs() <= 1e-12));
    }
}
