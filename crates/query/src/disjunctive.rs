//! Disjunctive keyword query semantics.
//!
//! Section 2.2 defines both semantics: "Under *disjunctive* keyword query
//! semantics, elements that contain *at least one* of the query keywords
//! are returned", while the paper (and the rest of this crate) focuses on
//! the conjunctive case. This module supplies the disjunctive evaluator as
//! the natural extension.
//!
//! Under disjunction the most-specific result for every occurrence is the
//! element *directly* containing it, so evaluation is a single ranked
//! union merge of the keyword lists: postings of the same element combine
//! their per-keyword ranks; the overall rank is `Σ r̂(v, kᵢ)` over the
//! *present* keywords, scaled by the proximity of those keywords (absent
//! keywords do not penalize the window — an element matching one keyword
//! of a two-keyword query has proximity 1 but only one rank term, so full
//! conjunctive matches still dominate).

use crate::dil_query::occurrence_rank;
use crate::score::{QueryOptions, TopM};
use crate::{EvalGuard, EvalStats, QueryError, QueryOutcome};
use xrank_dewey::DeweyId;
use xrank_graph::TermId;
use xrank_index::listio::ListReader;
use xrank_index::DilIndex;
use xrank_obs::{EventData, QueryTrace, Stage};
use xrank_storage::{BufferPool, PageStore};

/// Evaluates a disjunctive query over the Dewey-sorted lists: one merge
/// pass, grouping postings by element.
pub fn evaluate<S: PageStore>(
    pool: &BufferPool<S>,
    index: &DilIndex,
    terms: &[TermId],
    opts: &QueryOptions,
) -> Result<QueryOutcome, QueryError> {
    evaluate_traced(pool, index, terms, opts, &QueryTrace::disabled())
}

/// [`evaluate`] with the union-merge phase timed into `trace`.
pub fn evaluate_traced<S: PageStore>(
    pool: &BufferPool<S>,
    index: &DilIndex,
    terms: &[TermId],
    opts: &QueryOptions,
    trace: &QueryTrace,
) -> Result<QueryOutcome, QueryError> {
    let mut guard = EvalGuard::new(opts);
    let mut stats = EvalStats::default();
    let mut heap = TopM::new(opts.top_m);
    let open_span = trace.span(Stage::ListOpen);
    // Unlike the conjunctive case, keywords without a list simply drop out.
    let mut readers: Vec<(usize, ListReader)> = terms
        .iter()
        .enumerate()
        .filter_map(|(i, &t)| index.reader(t).map(|r| (i, r)))
        .collect();
    drop(open_span);
    if readers.is_empty() {
        return Ok(QueryOutcome { results: heap.into_sorted(), stats, degraded: None });
    }
    let n = terms.len();

    let union_span = trace.span(Stage::UnionMerge);
    let mut current: Option<DeweyId> = None;
    let mut ranks = vec![0.0f64; n];
    let mut pos_lists: Vec<Vec<u32>> = vec![Vec::new(); n];

    loop {
        if guard.should_stop()? {
            break;
        }
        // Smallest Dewey among the reader heads.
        let mut smallest: Option<(usize, DeweyId)> = None;
        for (slot, (_, r)) in readers.iter_mut().enumerate() {
            if let Some(p) = r.peek(pool)? {
                let d = p.dewey.clone();
                match &smallest {
                    Some((_, best)) if *best <= d => {}
                    _ => smallest = Some((slot, d)),
                }
            }
        }
        let Some((slot, dewey)) = smallest else { break };

        // Flush the completed group when the element changes.
        if let Some(cur) = &current {
            if *cur != dewey {
                let done = cur.clone();
                flush(done, &mut ranks, &mut pos_lists, opts, &mut heap);
                current = Some(dewey);
            }
        } else {
            current = Some(dewey);
        }

        let (kw, reader) = &mut readers[slot];
        // The peek above buffered this entry, so `next` cannot be `None`.
        let Some(posting) = reader.next(pool)? else { break };
        stats.entries_scanned += 1;
        ranks[*kw] = opts.aggregation.combine(ranks[*kw], occurrence_rank(&posting, opts));
        pos_lists[*kw].extend_from_slice(&posting.positions);
    }
    // The trailing group is flushed only after a complete merge: on a
    // degraded stop it may still be missing postings from other lists, and
    // flushing it would emit an understated score. Skipping it keeps every
    // degraded hit exact.
    if guard.degraded().is_none() {
        if let Some(cur) = current {
            flush(cur, &mut ranks, &mut pos_lists, opts, &mut heap);
        }
    }
    drop(union_span);
    stats.postings_decoded = readers.iter().map(|(_, r)| r.decoded()).sum();
    trace.event(
        Stage::UnionMerge,
        EventData::Count { what: "entries_scanned", n: stats.entries_scanned },
    );
    guard.note(trace);

    Ok(QueryOutcome { results: heap.into_sorted(), stats, degraded: guard.degraded() })
}

/// Scores one element group: present keywords only.
fn flush(
    dewey: DeweyId,
    ranks: &mut [f64],
    pos_lists: &mut [Vec<u32>],
    opts: &QueryOptions,
    heap: &mut TopM,
) {
    let present: Vec<&[u32]> = pos_lists
        .iter()
        .filter(|l| !l.is_empty())
        .map(|l| l.as_slice())
        .collect();
    if !present.is_empty() {
        // Per-keyword weights apply here exactly as in the conjunctive
        // overall rank (Section 2.3.2.2).
        let sum: f64 = ranks
            .iter()
            .enumerate()
            .map(|(i, r)| opts.keyword_weight(i) * r)
            .sum();
        let score = sum * opts.proximity_factor(&present);
        heap.offer(dewey, score);
    }
    ranks.iter_mut().for_each(|r| *r = 0.0);
    pos_lists.iter_mut().for_each(|l| l.clear());
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrank_graph::{Collection, CollectionBuilder};
    use xrank_index::extract::direct_postings;
    use xrank_storage::MemStore;

    fn setup(xml: &str) -> (BufferPool<MemStore>, DilIndex, Collection) {
        let mut b = CollectionBuilder::new();
        b.add_xml_str("d", xml).unwrap();
        let c = b.build();
        let r = xrank_rank::elem_rank(&c, &xrank_rank::ElemRankParams::default());
        let postings = direct_postings(&c, &r.scores);
        let mut pool = BufferPool::new(MemStore::new(), 1024);
        let idx = DilIndex::build(&mut pool, &postings).unwrap();
        (pool, idx, c)
    }

    fn terms(c: &Collection, kws: &[&str]) -> Vec<TermId> {
        kws.iter()
            .filter_map(|k| c.vocabulary().lookup(k))
            .collect()
    }

    #[test]
    fn returns_partial_matches() {
        let (pool, idx, c) =
            setup("<r><a>apple banana</a><b>apple only</b><x>banana</x><z>neither</z></r>");
        let q = terms(&c, &["apple", "banana"]);
        let opts = QueryOptions { top_m: 10, ..Default::default() };
        let out = evaluate(&pool, &idx, &q, &opts).unwrap();
        // a (both), b (apple), x (banana) — not z
        assert_eq!(out.results.len(), 3);
    }

    #[test]
    fn full_matches_outrank_partial_with_equal_elemrank() {
        let (pool, idx, c) =
            setup("<r><both>apple banana</both><one>apple word</one><two>banana word</two></r>");
        let q = terms(&c, &["apple", "banana"]);
        let opts = QueryOptions { top_m: 10, ..Default::default() };
        let out = evaluate(&pool, &idx, &q, &opts).unwrap();
        let top = c.elem_by_dewey(&out.results[0].dewey).unwrap();
        assert_eq!(&*c.element(top).name, "both");
    }

    #[test]
    fn missing_keyword_does_not_kill_the_query() {
        let (pool, idx, c) = setup("<r><a>present</a></r>");
        let present = c.vocabulary().lookup("present").unwrap();
        let out = evaluate(
            &pool,
            &idx,
            &[present, TermId(9999)],
            &QueryOptions::default(),
        )
        .unwrap();
        assert_eq!(out.results.len(), 1);
    }

    #[test]
    fn disjunctive_covers_every_conjunctive_result() {
        let xml = "<r><a>x y</a><b>x</b><c>y</c><d>x z y</d></r>";
        let (pool, idx, c) = setup(xml);
        let q = terms(&c, &["x", "y"]);
        let opts = QueryOptions { top_m: 100, ..Default::default() };
        let dis = evaluate(&pool, &idx, &q, &opts).unwrap();
        let con = crate::dil_query::evaluate(&pool, &idx, &q, &opts).unwrap();
        // Disjunctive returns the direct containers (a, b, c, d);
        // conjunctive returns a, d, and <r> (independent occurrences via b
        // and c). Every conjunctive result is an ancestor-or-self of some
        // disjunctive one.
        assert_eq!(dis.results.len(), 4);
        for cr in &con.results {
            assert!(
                dis.results.iter().any(|dr| cr.dewey.is_ancestor_or_self_of(&dr.dewey)),
                "conjunctive result {} not covered",
                cr.dewey
            );
        }
        assert!(dis.results.len() > con.results.len());
    }

    #[test]
    fn empty_query() {
        let (pool, idx, _) = setup("<r><a>word</a></r>");
        let out = evaluate(&pool, &idx, &[], &QueryOptions::default()).unwrap();
        assert!(out.results.is_empty());
    }
}
