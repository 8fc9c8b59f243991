//! Query evaluation for the naive baselines (Sections 4.1 and 5.1).
//!
//! * **Naive-ID**: "a simple equality merge of the inverted lists" —
//!   because ancestors are stored explicitly, the intersection directly
//!   yields every element containing all keywords, *including all the
//!   spurious ancestors* (limitation 2 of Section 4.1). No result
//!   specificity is applied (limitation 3): an entry's score is its own
//!   ElemRank sum times proximity, with no decay.
//! * **Naive-Rank**: rank-ordered lists + hash-index membership probes
//!   with the same Threshold Algorithm stopping rule RDIL uses.
//!
//! Results are reported by Dewey ID (resolved through the in-memory
//! collection — presentation only, no I/O is charged) so they can be
//! compared against the DIL family in tests and experiments.

use crate::score::{Aggregation, QueryOptions, TopM};
use crate::{EvalGuard, EvalStats, QueryError, QueryOutcome};
use std::collections::HashSet;
use xrank_graph::{Collection, ElemId, TermId};
use xrank_index::posting::NaivePosting;
use xrank_index::{NaiveIdIndex, NaiveRankIndex};
use xrank_obs::{EventData, QueryTrace, Stage};
use xrank_storage::{BufferPool, PageStore};

fn naive_occurrence_rank(p: &NaivePosting, opts: &QueryOptions) -> f64 {
    match opts.aggregation {
        Aggregation::Max => p.rank as f64,
        Aggregation::Sum => p.rank as f64 * p.positions.len() as f64,
    }
}

fn score_group(entries: &[NaivePosting], opts: &QueryOptions) -> f64 {
    let ranks: Vec<f64> = entries.iter().map(|p| naive_occurrence_rank(p, opts)).collect();
    let refs: Vec<&[u32]> = entries.iter().map(|p| p.positions.as_slice()).collect();
    opts.overall_rank(&ranks, &refs)
}

/// Naive-ID evaluation: k-way equality merge-join on element id.
pub fn evaluate_id<S: PageStore>(
    pool: &BufferPool<S>,
    index: &NaiveIdIndex,
    collection: &Collection,
    terms: &[TermId],
    opts: &QueryOptions,
) -> Result<QueryOutcome, QueryError> {
    evaluate_id_traced(pool, index, collection, terms, opts, &QueryTrace::disabled())
}

/// [`evaluate_id`] with the merge-join phase timed into `trace`.
pub fn evaluate_id_traced<S: PageStore>(
    pool: &BufferPool<S>,
    index: &NaiveIdIndex,
    collection: &Collection,
    terms: &[TermId],
    opts: &QueryOptions,
    trace: &QueryTrace,
) -> Result<QueryOutcome, QueryError> {
    let mut guard = EvalGuard::new(opts);
    let mut stats = EvalStats::default();
    let mut heap = TopM::new(opts.top_m);
    if terms.is_empty() {
        return Ok(QueryOutcome { results: heap.into_sorted(), stats, degraded: None });
    }
    let open_span = trace.span(Stage::ListOpen);
    let mut readers = Vec::with_capacity(terms.len());
    for &t in terms {
        match index.reader(t) {
            Some(r) => readers.push(r),
            None => {
                return Ok(QueryOutcome { results: heap.into_sorted(), stats, degraded: None })
            }
        }
    }
    drop(open_span);

    let merge_span = trace.span(Stage::MergeJoin);
    // A group is offered to the heap only once every list has delivered
    // its posting for the target element, so stopping between groups
    // leaves nothing half-scored: a degraded stop still returns exact
    // scores for everything already offered.
    'merge: loop {
        if guard.should_stop()? {
            break 'merge;
        }
        // Find the maximum head element id; advance every other list to it.
        let mut target: Option<ElemId> = None;
        for r in readers.iter_mut() {
            match r.peek(pool)? {
                Some(p) => target = Some(target.map_or(p.elem, |t: ElemId| t.max(p.elem))),
                None => break 'merge,
            }
        }
        let Some(target) = target else { break };

        let mut group: Vec<NaivePosting> = Vec::with_capacity(readers.len());
        let mut aligned = true;
        for r in readers.iter_mut() {
            // Leapfrog: jump straight to the first posting at or past the
            // merge target. The skip table lets whole blocks below the
            // target go undecoded.
            r.next_seek(pool, &target)?;
            match r.peek(pool)? {
                Some(p) if p.elem == target => {
                    // The peek just buffered this entry.
                    let Some(p) = r.next(pool)? else { break 'merge };
                    group.push(p);
                    stats.entries_scanned += 1;
                }
                Some(_) => aligned = false,
                None => break 'merge,
            }
        }
        if aligned && group.len() == readers.len() {
            let dewey = collection.element(target).dewey.clone();
            heap.offer(dewey, score_group(&group, opts));
        }
    }
    drop(merge_span);
    for r in &readers {
        stats.blocks_decoded += r.blocks_decoded();
        stats.blocks_skipped += r.blocks_skipped();
        stats.postings_decoded += r.decoded();
    }
    trace.event(
        Stage::MergeJoin,
        EventData::Count { what: "entries_scanned", n: stats.entries_scanned },
    );
    guard.note(trace);

    Ok(QueryOutcome { results: heap.into_sorted(), stats, degraded: guard.degraded() })
}

/// Naive-Rank evaluation: Threshold Algorithm over rank-ordered lists with
/// hash-index membership probes.
pub fn evaluate_rank<S: PageStore>(
    pool: &BufferPool<S>,
    index: &NaiveRankIndex,
    collection: &Collection,
    terms: &[TermId],
    opts: &QueryOptions,
) -> Result<QueryOutcome, QueryError> {
    evaluate_rank_traced(pool, index, collection, terms, opts, &QueryTrace::disabled())
}

/// [`evaluate_rank`] with the TA loop and hash probes timed into `trace`.
pub fn evaluate_rank_traced<S: PageStore>(
    pool: &BufferPool<S>,
    index: &NaiveRankIndex,
    collection: &Collection,
    terms: &[TermId],
    opts: &QueryOptions,
    trace: &QueryTrace,
) -> Result<QueryOutcome, QueryError> {
    let mut guard = EvalGuard::new(opts);
    let mut stats = EvalStats::default();
    let mut heap = TopM::new(opts.top_m);
    if terms.is_empty() {
        return Ok(QueryOutcome { results: heap.into_sorted(), stats, degraded: None });
    }
    let open_span = trace.span(Stage::ListOpen);
    let mut readers = Vec::with_capacity(terms.len());
    for &t in terms {
        match index.reader(t) {
            Some(r) => readers.push(r),
            None => {
                return Ok(QueryOutcome { results: heap.into_sorted(), stats, degraded: None })
            }
        }
    }
    drop(open_span);
    let n = readers.len();
    let ta_safe = opts.aggregation == Aggregation::Max;
    let mut frontier: Vec<f64> = Vec::with_capacity(n);
    for r in readers.iter_mut() {
        frontier.push(r.peek(pool)?.map(|p| p.rank as f64).unwrap_or(0.0));
    }
    let mut seen: HashSet<ElemId> = HashSet::new();
    let mut next_list = 0usize;

    let ta_span = trace.span(Stage::TaLoop);
    // Each TA step probes every other list before offering an element, so
    // a degraded stop between steps leaves only exactly-scored results.
    loop {
        if guard.should_stop()? {
            break;
        }
        // Round-robin over non-exhausted lists (pure count check, no I/O).
        let mut picked = None;
        for off in 0..n {
            let i = (next_list + off) % n;
            if !readers[i].at_end() {
                picked = Some(i);
                break;
            }
        }
        // Any fully-drained list implies every intersection member was
        // seen through that list — done.
        let Some(il) = picked else { break };
        if readers.iter().enumerate().any(|(i, r)| i != il && r.at_end()) {
            break;
        }
        next_list = (il + 1) % n;

        // The count-based pick says the list still has entries.
        let Some(current) = readers[il].next(pool)? else { break };
        stats.entries_scanned += 1;
        frontier[il] = if readers[il].at_end() { 0.0 } else { current.rank as f64 };

        if seen.insert(current.elem) {
            // Probe the other lists for this element.
            let mut group: Vec<NaivePosting> = vec![current.clone()];
            let mut complete = true;
            for (j, &t) in terms.iter().enumerate() {
                if j == il {
                    continue;
                }
                stats.hash_probes += 1;
                let probe_span = trace.span(Stage::HashProbe);
                let probed = index.lookup(pool, t, current.elem)?;
                drop(probe_span);
                match probed {
                    Some((rank, positions)) => {
                        stats.postings_decoded += 1;
                        group.push(NaivePosting { elem: current.elem, rank, positions })
                    }
                    None => {
                        complete = false;
                        break;
                    }
                }
            }
            if complete {
                let dewey = collection.element(current.elem).dewey.clone();
                heap.offer(dewey, score_group(&group, opts));
            }
        }

        if trace.is_full() && stats.entries_scanned.is_multiple_of(n as u64) {
            trace.event(
                Stage::TaRound,
                EventData::TaRound {
                    entries: stats.entries_scanned,
                    threshold: frontier.iter().sum::<f64>(),
                    confirmed: heap.len(),
                },
            );
        }

        if ta_safe {
            if let Some(mth) = heap.mth_score() {
                if mth >= frontier.iter().sum::<f64>() {
                    break;
                }
            }
        }
    }
    drop(ta_span);
    for r in &readers {
        stats.blocks_decoded += r.blocks_decoded();
        stats.blocks_skipped += r.blocks_skipped();
        stats.postings_decoded += r.decoded();
    }
    guard.note(trace);

    Ok(QueryOutcome { results: heap.into_sorted(), stats, degraded: guard.degraded() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrank_graph::CollectionBuilder;
    use xrank_index::extract::{direct_postings, naive_postings};
    use xrank_index::DilIndex;
    use xrank_storage::MemStore;

    fn setup(
        xml: &str,
    ) -> (
        BufferPool<MemStore>,
        NaiveIdIndex,
        NaiveRankIndex,
        DilIndex,
        Collection,
    ) {
        let mut b = CollectionBuilder::new();
        b.add_xml_str("d", xml).unwrap();
        let c = b.build();
        let r = xrank_rank::elem_rank(&c, &xrank_rank::ElemRankParams::default());
        let naive = naive_postings(&c, &r.scores);
        let direct = direct_postings(&c, &r.scores);
        let mut pool = BufferPool::new(MemStore::new(), 8192);
        let id_idx = NaiveIdIndex::build(&mut pool, &naive).unwrap();
        let rank_idx = NaiveRankIndex::build(&mut pool, &naive).unwrap();
        let dil = DilIndex::build(&mut pool, &direct).unwrap();
        (pool, id_idx, rank_idx, dil, c)
    }

    fn terms(c: &Collection, kws: &[&str]) -> Vec<TermId> {
        kws.iter().map(|k| c.vocabulary().lookup(k).unwrap()).collect()
    }

    const XML: &str = r#"<workshop>
      <paper><title>XQL and Proximal Nodes</title>
        <abstract>We consider the recently proposed language</abstract>
        <body><section><subsection>the XQL query language looks</subsection></section></body>
      </paper>
    </workshop>"#;

    /// The defining flaw the paper ascribes to the naive scheme: it
    /// returns spurious ancestors.
    #[test]
    fn naive_returns_spurious_ancestors() {
        let (pool, id_idx, _, dil, c) = setup(XML);
        let q = terms(&c, &["xql", "language"]);
        let opts = QueryOptions { top_m: 50, ..Default::default() };
        let naive = evaluate_id(&pool, &id_idx, &c, &q, &opts).unwrap();
        let xrank = crate::dil_query::evaluate(&pool, &dil, &q, &opts).unwrap();
        assert!(
            naive.results.len() > xrank.results.len(),
            "naive {} results should exceed XRANK {}",
            naive.results.len(),
            xrank.results.len()
        );
        // naive set ⊇ XRANK set (as deweys)
        let naive_set: HashSet<_> = naive.results.iter().map(|r| r.dewey.clone()).collect();
        for r in &xrank.results {
            assert!(naive_set.contains(&r.dewey), "missing {}", r.dewey);
        }
        // and the spurious entries are exactly ancestors of real results
        for nr in &naive.results {
            let legit = xrank.results.iter().any(|r| {
                nr.dewey == r.dewey || nr.dewey.is_ancestor_of(&r.dewey)
            });
            assert!(legit, "{} is neither a result nor an ancestor of one", nr.dewey);
        }
    }

    /// Naive-ID and Naive-Rank must agree with each other (same semantics,
    /// different access paths).
    #[test]
    fn id_and_rank_agree() {
        let (pool, id_idx, rank_idx, _, c) = setup(XML);
        let q = terms(&c, &["xql", "language"]);
        let opts = QueryOptions { top_m: 50, ..Default::default() };
        let a = evaluate_id(&pool, &id_idx, &c, &q, &opts).unwrap();
        let b = evaluate_rank(&pool, &rank_idx, &c, &q, &opts).unwrap();
        assert_eq!(a.results.len(), b.results.len());
        for (x, y) in a.results.iter().zip(b.results.iter()) {
            assert_eq!(x.dewey, y.dewey);
            assert!((x.score - y.score).abs() < 1e-9);
        }
    }

    #[test]
    fn rank_variant_stops_early_on_selective_top1() {
        let mut xml = String::from("<r>");
        for i in 0..300 {
            xml.push_str(&format!("<e{i}>pair one two {i}</e{i}>"));
        }
        xml.push_str("</r>");
        let (pool, _, rank_idx, _, c) = setup(&xml);
        let q = terms(&c, &["one", "two"]);
        let opts = QueryOptions { top_m: 1, ..Default::default() };
        let out = evaluate_rank(&pool, &rank_idx, &c, &q, &opts).unwrap();
        assert_eq!(out.results.len(), 1);
        let total: u64 = q
            .iter()
            .map(|&t| rank_idx.meta(t).unwrap().entry_count as u64)
            .sum();
        assert!(
            out.stats.entries_scanned < total,
            "TA should terminate before scanning all {total} entries"
        );
    }

    #[test]
    fn missing_keyword_and_empty_query() {
        let (pool, id_idx, rank_idx, _, c) = setup("<r><a>hello world</a></r>");
        let hello = c.vocabulary().lookup("hello").unwrap();
        let opts = QueryOptions::default();
        assert!(evaluate_id(&pool, &id_idx, &c, &[hello, TermId(7777)], &opts)
            .unwrap()
            .results
            .is_empty());
        assert!(evaluate_rank(&pool, &rank_idx, &c, &[hello, TermId(7777)], &opts)
            .unwrap()
            .results
            .is_empty());
        assert!(evaluate_id(&pool, &id_idx, &c, &[], &opts).unwrap().results.is_empty());
        assert!(evaluate_rank(&pool, &rank_idx, &c, &[], &opts)
            .unwrap()
            .results
            .is_empty());
    }

    #[test]
    fn single_keyword_merge() {
        let (pool, id_idx, _, _, c) = setup("<r><a>solo</a><b><c>solo</c></b></r>");
        let q = terms(&c, &["solo"]);
        let opts = QueryOptions { top_m: 20, ..Default::default() };
        let out = evaluate_id(&pool, &id_idx, &c, &q, &opts).unwrap();
        // naive single-keyword = every element containing it: a, c, b, r
        assert_eq!(out.results.len(), 4);
    }
}
