//! The RDIL query processing algorithm — Figure 7 of the paper.
//!
//! Rank-sorted lists are consumed round-robin; for each consumed entry the
//! longest common prefix that contains all query keywords is found by
//! B+-tree probes (`lowest_geq` + predecessor, Section 4.3.2, each answered
//! as the prefix length it keeps); the prefix is scored by range scans
//! that *exclude sub-elements already containing all keywords* (Figure 7
//! line 20, matching the Section 2.2 semantics);
//! and the provably-safe Threshold Algorithm stopping condition ends the
//! scan early ("since we only overestimate the threshold, the top m
//! results are still guaranteed to be optimal").
//!
//! The evaluation is exposed as a resumable [`RdilRun`] so the HDIL
//! adaptive strategy (Section 4.4.2) can interleave progress checks.

use crate::access::{ProbeCursor, RankedAccess};
use crate::dil_query::occurrence_rank;
use crate::score::{Aggregation, QueryOptions, TopM};
use crate::{EvalGuard, EvalStats, QueryError, QueryOutcome};
use std::collections::HashSet;
use xrank_dewey::DeweyId;
use xrank_obs::{EventData, QueryTrace, Stage};
use xrank_graph::TermId;
use xrank_index::listio::ListReader;
use xrank_index::posting::{Posting, PostingRun};
use xrank_storage::{BufferPool, PageStore};

/// What one [`RdilRun::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// An entry was consumed; evaluation continues.
    Continue,
    /// The TA stopping condition fired (or all complete lists drained):
    /// the heap provably holds the top-m results.
    Done,
    /// A rank reader drained but covers only a prefix of its list (HDIL):
    /// the caller must fall back to the DIL algorithm.
    PrefixExhausted,
    /// The deadline or I/O budget tripped with `allow_partial` set: the
    /// heap holds the best results confirmed so far (each with its exact
    /// score — candidates are scored atomically by `score_candidate`).
    Degraded,
}

/// Resumable Figure 7 evaluation state.
pub struct RdilRun<'a, S: PageStore, A: RankedAccess<S>> {
    access: &'a A,
    trace: &'a QueryTrace,
    terms: Vec<TermId>,
    opts: QueryOptions,
    readers: Vec<ListReader>,
    /// One stateful probe cursor per keyword, held across all TA rounds.
    /// When consecutive targets creep forward in Dewey order the seek is a
    /// bounded forward leaf walk, not a root re-descent; the keyword's
    /// range scans start from the same cursor.
    cursors: Vec<A::Cursor>,
    /// The candidate of the current step: the consumed entry's ID, cut
    /// down by each probe in place. Cloned only into `seen` and the heap.
    lcp: DeweyId,
    /// One reused posting run per keyword for the range scans.
    scans: Vec<PostingRun>,
    /// ElemRank of the last entry consumed from each list (threshold term).
    frontier: Vec<f64>,
    heap: TopM,
    /// Scores of all results found so far, kept ascending so the HDIL
    /// progress estimate (`confirmed_results`) is a binary search instead
    /// of a full rescan on every check.
    result_scores: Vec<f64>,
    seen: HashSet<DeweyId>,
    next_list: usize,
    stats: EvalStats,
    done: bool,
    guard: EvalGuard,
    _store: std::marker::PhantomData<S>,
}

impl<'a, S: PageStore, A: RankedAccess<S>> RdilRun<'a, S, A> {
    /// Prepares a run. Queries with a keyword absent from the vocabulary
    /// or the index finish immediately with no results. Fallible: seeding
    /// the threshold frontier peeks each list's first page. List opening
    /// and frontier seeding are timed into `trace`, which the run keeps
    /// for per-step recording (B+-tree probes, range scans, TA rounds).
    pub fn new(
        pool: &BufferPool<S>,
        access: &'a A,
        terms: &[TermId],
        opts: &QueryOptions,
        trace: &'a QueryTrace,
    ) -> Result<Self, QueryError> {
        let open_span = trace.span(Stage::ListOpen);
        let mut readers = Vec::with_capacity(terms.len());
        let mut viable = !terms.is_empty();
        for &t in terms {
            match access.rank_reader(t) {
                Some(r) => readers.push(r),
                None => {
                    viable = false;
                    break;
                }
            }
        }
        // Initialize the threshold frontier with each list's best rank.
        // `rank_bound` answers from the skip table's per-block max rank
        // (the first block's bound *is* the first entry's rank on a
        // rank-sorted list), so seeding costs no page reads.
        let mut frontier = vec![0.0f64; readers.len()];
        if viable {
            for (i, r) in readers.iter_mut().enumerate() {
                frontier[i] = r.rank_bound(pool)?.map(|b| b as f64).unwrap_or(0.0);
            }
        }
        drop(open_span);
        let cursors = terms.iter().map(|&t| access.probe_cursor(t)).collect();
        Ok(RdilRun {
            access,
            trace,
            terms: terms.to_vec(),
            opts: opts.clone(),
            readers,
            cursors,
            lcp: DeweyId::default(),
            scans: terms.iter().map(|_| PostingRun::default()).collect(),
            frontier,
            heap: TopM::new(opts.top_m),
            result_scores: Vec::new(),
            seen: HashSet::new(),
            next_list: 0,
            stats: EvalStats::default(),
            done: !viable,
            guard: EvalGuard::new(opts),
            _store: std::marker::PhantomData,
        })
    }

    /// The current TA threshold: Σ over lists of the (weighted) last-seen
    /// ElemRank (decay and proximity overestimated at their maximum of 1).
    pub fn threshold(&self) -> f64 {
        self.frontier
            .iter()
            .enumerate()
            .map(|(i, r)| self.opts.keyword_weight(i) * r)
            .sum()
    }

    /// Results found so far whose score already clears the current
    /// threshold — the `r` of the Section 4.4.2 estimate.
    pub fn confirmed_results(&self) -> usize {
        let t = self.threshold();
        // `result_scores` is kept ascending; everything from the first
        // score >= t clears the threshold.
        self.result_scores.len() - self.result_scores.partition_point(|&s| s < t)
    }

    /// True when the run has provably produced the top-m results.
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Work counters so far, including the readers' block decode/skip
    /// tallies and the readers' and cursors' decode counts (collected on
    /// demand — they own the live counts; range scans are tallied as they
    /// run).
    pub fn stats(&self) -> EvalStats {
        let mut s = self.stats;
        for r in &self.readers {
            s.blocks_decoded += r.blocks_decoded();
            s.blocks_skipped += r.blocks_skipped();
            s.postings_decoded += r.decoded();
        }
        for c in &self.cursors {
            s.blocks_decoded += c.blocks_decoded();
            s.postings_decoded += c.postings_decoded();
        }
        s
    }

    /// Consumes one list entry (round-robin) and processes it.
    pub fn step(&mut self, pool: &BufferPool<S>) -> Result<StepOutcome, QueryError> {
        if self.done {
            return Ok(StepOutcome::Done);
        }
        if self.guard.should_stop()? {
            self.done = true;
            return Ok(StepOutcome::Degraded);
        }
        // With f = sum the overall rank is not bounded by the ElemRank sum,
        // so TA early termination is unsound; scan to the end instead.
        let ta_safe = self.opts.aggregation == Aggregation::Max;

        // Pick the next non-exhausted list round-robin. Exhaustion is a
        // pure entry-count check — no page read just to learn a list is
        // (not) finished.
        let n = self.readers.len();
        let mut picked = None;
        for off in 0..n {
            let i = (self.next_list + off) % n;
            if !self.readers[i].at_end() {
                picked = Some(i);
                break;
            }
        }
        let Some(il) = picked else {
            // Every list drained. For complete lists this means every
            // result has been discovered (each result is discovered via
            // its relevant occurrences, all of which have been consumed).
            self.done = true;
            return Ok(if self.access.rank_lists_complete() {
                StepOutcome::Done
            } else {
                StepOutcome::PrefixExhausted
            });
        };
        self.next_list = (il + 1) % n;

        // The count-based pick says the list still has entries, so `pop`
        // cannot be `None`. The entry is read in place: only its rank and
        // (into the reused `lcp`) its ID leave the reader.
        let Some(current) = self.readers[il].pop(pool)? else {
            self.done = true;
            return Ok(StepOutcome::Done);
        };
        let rank = current.rank as f64;
        self.lcp.clone_from(&current.dewey);
        self.stats.entries_scanned += 1;
        self.frontier[il] = if !self.readers[il].at_end() {
            rank
        } else if self.access.rank_lists_complete() {
            // List fully consumed: nothing below can contribute.
            0.0
        } else {
            rank
        };

        // Lines 11-16: shrink the lcp through each other keyword's B+-tree.
        let mut dead = false;
        for j in 0..n {
            if j == il {
                continue;
            }
            self.stats.btree_probes += 1;
            let keep = match self.cursors[j].remembered(&self.lcp) {
                Some(keep) => {
                    self.stats.probe_memo_hits += 1;
                    keep
                }
                None => {
                    let before = self.cursors[j].stats();
                    let probe_span = self.trace.span(Stage::BtreeProbe);
                    let keep = self.cursors[j].kept_prefix(pool, &self.lcp)?;
                    drop(probe_span);
                    // One seek is exactly one forward walk, one backward
                    // walk, or one descent.
                    let after = self.cursors[j].stats();
                    if after.descents > before.descents {
                        self.stats.cursor_descents += 1;
                    } else if after.seeks_backward > before.seeks_backward {
                        self.stats.cursor_seeks_back += 1;
                    } else {
                        self.stats.cursor_seeks += 1;
                    }
                    keep
                }
            };
            if keep < 2 {
                // No common element (documents differ or only the
                // artificial collection root is shared).
                dead = true;
                break;
            }
            self.lcp.truncate(keep);
        }

        if !dead && !self.seen.contains(&self.lcp) {
            self.seen.insert(self.lcp.clone());
            if let Some(score) = self.score_candidate(pool)? {
                self.heap.offer_with(score, || self.lcp.clone());
                let at = self.result_scores.partition_point(|&s| s < score);
                self.result_scores.insert(at, score);
            }
        }

        // One TA "round" = one full round-robin cycle over the keyword
        // lists; record its threshold for the EXPLAIN timeline (the
        // quantity the Figure 7 stopping rule compares against).
        if self.trace.is_full() && self.stats.entries_scanned.is_multiple_of(n as u64) {
            self.trace.event(
                Stage::TaRound,
                EventData::TaRound {
                    entries: self.stats.entries_scanned,
                    threshold: self.threshold(),
                    confirmed: self.confirmed_results(),
                },
            );
        }

        // Lines 26-28: the stopping condition.
        if ta_safe {
            if let Some(mth) = self.heap.mth_score() {
                if mth >= self.threshold() {
                    self.done = true;
                    return Ok(StepOutcome::Done);
                }
            }
        }
        Ok(StepOutcome::Continue)
    }

    /// Figure 7 lines 17-24: score `lcp` as a candidate result. Range-scans
    /// each keyword's postings under `lcp`, drops occurrences inside child
    /// subtrees that contain all keywords (they are more specific results
    /// themselves), and requires every keyword to retain at least one
    /// relevant occurrence.
    fn score_candidate(&mut self, pool: &BufferPool<S>) -> Result<Option<f64>, QueryError> {
        let (lcp, opts, n) = (&self.lcp, &self.opts, self.terms.len());
        let scan_span = self.trace.span(Stage::RangeScan);
        for (cursor, run) in self.cursors.iter_mut().zip(&mut self.scans) {
            self.stats.range_scans += 1;
            self.stats.postings_decoded += self.access.scan_prefix(pool, cursor, lcp, run)?;
        }
        drop(scan_span);
        let per_kw: Vec<&[Posting]> = self.scans.iter().map(PostingRun::as_slice).collect();

        // Which direct children of lcp contain all keywords? A range scan
        // returns its postings in Dewey order, so each keyword's child
        // components under lcp come out ascending: keep one de-duplicated run
        // per keyword and intersect the runs in one forward merge.
        let depth = lcp.len();
        let mut runs = per_kw.iter().map(|list| {
            let mut run: Vec<u32> = Vec::new();
            for c in list.iter().filter_map(|p| p.dewey.components().get(depth)) {
                if run.last() != Some(c) {
                    run.push(*c);
                }
            }
            run
        });
        let mut complete = runs.next().unwrap_or_default();
        let rest: Vec<Vec<u32>> = runs.collect();
        let mut at = vec![0usize; rest.len()];
        complete.retain(|&c| {
            rest.iter().zip(at.iter_mut()).all(|(run, i)| {
                while run.get(*i).is_some_and(|&x| x < c) {
                    *i += 1;
                }
                run.get(*i) == Some(&c)
            })
        });

        // Aggregate relevant occurrences per keyword.
        let mut ranks = vec![0.0f64; n];
        let mut pos_lists: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, list) in per_kw.iter().enumerate() {
            for p in list.iter() {
                let relevant = match p.dewey.components().get(depth) {
                    None => true, // direct value occurrence
                    Some(c) => complete.binary_search(c).is_err(),
                };
                if !relevant {
                    continue;
                }
                let levels = (p.dewey.len() - depth) as i32;
                let contribution = occurrence_rank(p, opts) * opts.decay.powi(levels);
                ranks[i] = opts.aggregation.combine(ranks[i], contribution);
                pos_lists[i].extend_from_slice(&p.positions);
            }
            if pos_lists[i].is_empty() {
                // Keyword has no relevant occurrence → not a result.
                return Ok(None);
            }
            pos_lists[i].sort_unstable();
        }
        let refs: Vec<&[u32]> = pos_lists.iter().map(|l| l.as_slice()).collect();
        Ok(Some(opts.overall_rank(&ranks, &refs)))
    }

    /// Runs to completion (RDIL use; HDIL drives `step` itself).
    pub fn run_to_end(&mut self, pool: &BufferPool<S>) -> Result<StepOutcome, QueryError> {
        loop {
            match self.step(pool)? {
                StepOutcome::Continue => continue,
                other => return Ok(other),
            }
        }
    }

    /// Finishes, returning the ranked results (marked degraded when the
    /// run stopped early on its deadline or I/O budget).
    pub fn finish(self) -> QueryOutcome {
        self.guard.note(self.trace);
        let stats = self.stats();
        QueryOutcome {
            results: self.heap.into_sorted(),
            stats,
            degraded: self.guard.degraded(),
        }
    }
}

/// Evaluates a conjunctive query with the Figure 7 algorithm, running the
/// TA loop to completion.
pub fn evaluate<S: PageStore, A: RankedAccess<S>>(
    pool: &BufferPool<S>,
    access: &A,
    terms: &[TermId],
    opts: &QueryOptions,
) -> Result<QueryOutcome, QueryError> {
    evaluate_traced(pool, access, terms, opts, &QueryTrace::disabled())
}

/// [`evaluate`] with per-stage timings and TA-round events recorded into
/// `trace`.
pub fn evaluate_traced<S: PageStore, A: RankedAccess<S>>(
    pool: &BufferPool<S>,
    access: &A,
    terms: &[TermId],
    opts: &QueryOptions,
    trace: &QueryTrace,
) -> Result<QueryOutcome, QueryError> {
    let mut run = RdilRun::new(pool, access, terms, opts, trace)?;
    let ta_span = trace.span(Stage::TaLoop);
    run.run_to_end(pool)?;
    drop(ta_span);
    Ok(run.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrank_graph::{Collection, CollectionBuilder};
    use xrank_index::extract::direct_postings;
    use xrank_index::{DilIndex, RdilIndex};
    use xrank_storage::MemStore;

    fn setup(xml: &str) -> (BufferPool<MemStore>, DilIndex, RdilIndex, Collection) {
        let mut b = CollectionBuilder::new();
        b.add_xml_str("d", xml).unwrap();
        let c = b.build();
        let r = xrank_rank::elem_rank(&c, &xrank_rank::ElemRankParams::default());
        let postings = direct_postings(&c, &r.scores);
        let mut pool = BufferPool::new(MemStore::new(), 8192);
        let dil = DilIndex::build(&mut pool, &postings).unwrap();
        let rdil = RdilIndex::build(&mut pool, &postings).unwrap();
        (pool, dil, rdil, c)
    }

    fn terms(c: &Collection, kws: &[&str]) -> Vec<TermId> {
        kws.iter().map(|k| c.vocabulary().lookup(k).unwrap()).collect()
    }

    /// RDIL must return exactly DIL's results with equal scores — DIL is
    /// the executable specification.
    #[test]
    fn agrees_with_dil_on_nested_corpus() {
        let xml = r#"<workshop>
          <proceedings>
            <paper><title>XQL and Proximal Nodes</title>
              <abstract>We consider the recently proposed language</abstract>
              <body><section>
                <subsection>At first sight the XQL query language looks</subsection>
              </section></body>
            </paper>
            <paper><title>Querying XML language</title><body>no xql here</body></paper>
          </proceedings>
        </workshop>"#;
        let (pool, dil, rdil, c) = setup(xml);
        let q = terms(&c, &["xql", "language"]);
        let opts = QueryOptions { top_m: 50, ..Default::default() };
        let d = crate::dil_query::evaluate(&pool, &dil, &q, &opts).unwrap();
        let r = evaluate(&pool, &rdil, &q, &opts).unwrap();
        assert_eq!(d.results.len(), r.results.len(), "result sets differ");
        for (a, b) in d.results.iter().zip(r.results.iter()) {
            assert_eq!(a.dewey, b.dewey);
            assert!((a.score - b.score).abs() < 1e-9, "{} vs {}", a.score, b.score);
        }
    }

    #[test]
    fn single_keyword_top_m_without_full_scan() {
        // Many elements contain 'common'; with m=1 the TA condition should
        // fire long before the list is drained.
        let mut xml = String::from("<r>");
        for i in 0..300 {
            xml.push_str(&format!("<e{i}>common text</e{i}>"));
        }
        xml.push_str("</r>");
        let (pool, _, rdil, c) = setup(&xml);
        let q = terms(&c, &["common"]);
        let opts = QueryOptions { top_m: 1, ..Default::default() };
        let out = evaluate(&pool, &rdil, &q, &opts).unwrap();
        assert_eq!(out.results.len(), 1);
        let total = rdil.meta(q[0]).unwrap().entry_count as u64;
        assert!(
            out.stats.entries_scanned < total / 2,
            "scanned {} of {} — TA should stop early",
            out.stats.entries_scanned,
            total
        );
    }

    /// The stateful-cursor + gap-memo probe path must change only *how*
    /// probes are answered, never how many the algorithm issues — and the
    /// expensive kind (full root re-descents) must stay under a fixed
    /// budget on the worked corpus where the old path descended on every
    /// single probe.
    #[test]
    fn probe_budget_on_worked_corpus() {
        let mut xml = String::from("<corpus>");
        for i in 0..150 {
            xml.push_str(&format!(
                "<doc{i}><h>alpha title {i}</h><p>beta body text {}</p><q>alpha beta</q></doc{i}>",
                i % 13
            ));
        }
        xml.push_str("</corpus>");
        let (pool, _, rdil, c) = setup(&xml);
        let q = terms(&c, &["alpha", "beta"]);
        let opts = QueryOptions { top_m: 10, ..Default::default() };
        let out = evaluate(&pool, &rdil, &q, &opts).unwrap();
        let s = out.stats;
        // Every probe is classified exactly once.
        assert_eq!(
            s.btree_probes,
            s.probe_memo_hits + s.cursor_seeks + s.cursor_seeks_back + s.cursor_descents,
            "probe classification leaked: {s:?}"
        );
        assert!(s.btree_probes > 30, "worked example should probe heavily: {s:?}");
        // The regression gate: before this path existed every probe was a
        // descent (descents == btree_probes). The memo + cursor must now
        // absorb the overwhelming majority.
        assert!(
            s.cursor_descents <= s.btree_probes / 10,
            "descents {} vs {} probes — cursor/memo path regressed",
            s.cursor_descents,
            s.btree_probes
        );
        assert!(
            s.cursor_descents <= 40,
            "fixed descent budget exceeded: {} descents",
            s.cursor_descents
        );
    }

    #[test]
    fn missing_keyword_returns_nothing() {
        let (pool, _, rdil, c) = setup("<r><a>present word</a></r>");
        let present = c.vocabulary().lookup("present").unwrap();
        let out =
            evaluate(&pool, &rdil, &[present, TermId(40_000)], &QueryOptions::default()).unwrap();
        assert!(out.results.is_empty());
    }

    #[test]
    fn threshold_is_sound_for_top_m() {
        // Verify top-m equals DIL's top-m, not just set equality.
        let mut xml = String::from("<corpus>");
        for i in 0..150 {
            xml.push_str(&format!(
                "<doc{i}><h>alpha title {i}</h><p>beta body text {}</p><q>alpha beta</q></doc{i}>",
                i % 13
            ));
        }
        xml.push_str("</corpus>");
        let (pool, dil, rdil, c) = setup(&xml);
        let q = terms(&c, &["alpha", "beta"]);
        for m in [1usize, 3, 10] {
            let opts = QueryOptions { top_m: m, ..Default::default() };
            let d = crate::dil_query::evaluate(&pool, &dil, &q, &opts).unwrap();
            let r = evaluate(&pool, &rdil, &q, &opts).unwrap();
            assert_eq!(d.results.len(), r.results.len(), "m={m}");
            for (a, b) in d.results.iter().zip(r.results.iter()) {
                assert!((a.score - b.score).abs() < 1e-9, "m={m}: scores diverge");
                assert_eq!(a.dewey, b.dewey, "m={m}");
            }
        }
    }

    /// Keyword weights (Section 2.3.2.2's last paragraph) shift the
    /// ranking toward the up-weighted keyword, identically in DIL and
    /// RDIL (the TA threshold scales by the weights too).
    #[test]
    fn keyword_weights_shift_ranking_consistently() {
        let xml = "<r><heavy>alpha alpha alpha beta</heavy><light>alpha beta beta beta</light></r>";
        let (pool, dil, rdil, c) = setup(xml);
        let q = terms(&c, &["alpha", "beta"]);
        for weights in [vec![10.0, 1.0], vec![1.0, 10.0]] {
            let opts = QueryOptions {
                top_m: 10,
                aggregation: Aggregation::Sum,
                keyword_weights: Some(weights.clone()),
                ..Default::default()
            };
            let d = crate::dil_query::evaluate(&pool, &dil, &q, &opts).unwrap();
            let r = evaluate(&pool, &rdil, &q, &opts).unwrap();
            assert_eq!(d.results.len(), r.results.len());
            for (a, b) in d.results.iter().zip(r.results.iter()) {
                assert_eq!(a.dewey, b.dewey, "weights {weights:?}");
                assert!((a.score - b.score).abs() < 1e-9);
            }
            // The element dense in the up-weighted keyword wins.
            let top = c.elem_by_dewey(&d.results[0].dewey).unwrap();
            let expect = if weights[0] > weights[1] { "heavy" } else { "light" };
            assert_eq!(&*c.element(top).name, expect, "weights {weights:?}");
        }
    }

    #[test]
    fn zero_timeout_with_allow_partial_degrades() {
        let (pool, _, rdil, c) = setup("<r><a>tick tock</a></r>");
        let q = terms(&c, &["tick"]);
        let opts = QueryOptions {
            timeout: Some(std::time::Duration::ZERO),
            allow_partial: true,
            ..Default::default()
        };
        let out = evaluate(&pool, &rdil, &q, &opts).unwrap();
        assert_eq!(out.degraded, Some(xrank_obs::DegradeReason::Deadline));
        // Without the flag the same deadline is a hard error.
        let hard = QueryOptions {
            timeout: Some(std::time::Duration::ZERO),
            ..Default::default()
        };
        assert!(matches!(evaluate(&pool, &rdil, &q, &hard), Err(QueryError::Timeout)));
    }

    #[test]
    fn sum_aggregation_disables_early_stop_but_stays_correct() {
        let xml = "<r><a>w w w v</a><b>w v</b></r>";
        let (pool, dil, rdil, c) = setup(xml);
        let q = terms(&c, &["w", "v"]);
        let opts = QueryOptions {
            aggregation: Aggregation::Sum,
            top_m: 5,
            ..Default::default()
        };
        let d = crate::dil_query::evaluate(&pool, &dil, &q, &opts).unwrap();
        let r = evaluate(&pool, &rdil, &q, &opts).unwrap();
        assert_eq!(d.results.len(), r.results.len());
        for (a, b) in d.results.iter().zip(r.results.iter()) {
            assert!((a.score - b.score).abs() < 1e-9);
        }
    }
}
