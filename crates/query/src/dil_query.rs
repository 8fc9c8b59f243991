//! The DIL query processing algorithm — Figure 5 of the paper.
//!
//! A single pass merges the query keywords' Dewey-sorted lists while a
//! *Dewey stack* tracks the longest common prefix seen so far. Popped
//! stack entries whose position lists are non-empty for **all** keywords
//! are results; entries that are not results and do not dominate a
//! complete descendant propagate their decayed ranks and position lists to
//! their parent; entries that contain a complete descendant mark their
//! parent `containsAll`, suppressing the spurious-ancestor results of the
//! naive scheme (Section 4.2.2's worked example, reproduced in the tests).

use crate::score::{QueryOptions, TopM};
use crate::{EvalGuard, EvalStats, QueryError, QueryOutcome};
use xrank_dewey::DeweyId;
use xrank_obs::{EventData, QueryTrace, Stage};
use xrank_graph::TermId;
use xrank_index::listio::ListReader;
use xrank_index::posting::Posting;
use xrank_index::DilIndex;
use xrank_storage::{BufferPool, PageStore};

/// One Dewey-stack frame (per component of the current Dewey ID).
struct StackEntry {
    /// Aggregated rank per keyword (`0` = keyword absent so far).
    ranks: Vec<f64>,
    /// Relevant positions per keyword.
    pos_lists: Vec<Vec<u32>>,
    /// True when a descendant already contained all keywords.
    contains_all: bool,
}

impl StackEntry {
    fn new(n: usize) -> Self {
        StackEntry { ranks: vec![0.0; n], pos_lists: vec![Vec::new(); n], contains_all: false }
    }

    fn has_all(&self) -> bool {
        self.pos_lists.iter().all(|l| !l.is_empty())
    }

    /// Clears the frame for reuse, keeping every buffer's capacity.
    fn reset(&mut self) {
        self.ranks.iter_mut().for_each(|r| *r = 0.0);
        self.pos_lists.iter_mut().for_each(Vec::clear);
        self.contains_all = false;
    }
}

/// The rank one posting contributes at its own element (distance 0):
/// `max` keeps the ElemRank, `sum` multiplies by occurrence count.
pub(crate) fn occurrence_rank(p: &Posting, opts: &QueryOptions) -> f64 {
    match opts.aggregation {
        crate::score::Aggregation::Max => p.rank as f64,
        crate::score::Aggregation::Sum => p.rank as f64 * p.positions.len() as f64,
    }
}

/// Evaluates a conjunctive query over a [`DilIndex`], returning the top
/// `opts.top_m` results. A damaged page in any touched list surfaces as
/// [`QueryError::Storage`]; an elapsed [`QueryOptions::timeout`] as
/// [`QueryError::Timeout`].
pub fn evaluate<S: PageStore>(
    pool: &BufferPool<S>,
    index: &DilIndex,
    terms: &[TermId],
    opts: &QueryOptions,
) -> Result<QueryOutcome, QueryError> {
    evaluate_traced(pool, index, terms, opts, &QueryTrace::disabled())
}

/// [`evaluate`] with per-stage tracing: list opening and the Figure 5
/// merge loop are timed into `trace`, and the entry-consumption total is
/// recorded as a [`xrank_obs::EventData::Count`] event.
pub fn evaluate_traced<S: PageStore>(
    pool: &BufferPool<S>,
    index: &DilIndex,
    terms: &[TermId],
    opts: &QueryOptions,
    trace: &QueryTrace,
) -> Result<QueryOutcome, QueryError> {
    let n = terms.len();
    let mut guard = EvalGuard::new(opts);
    let mut stats = EvalStats::default();
    let mut heap = TopM::new(opts.top_m);
    if n == 0 {
        return Ok(QueryOutcome { results: heap.into_sorted(), stats, degraded: None });
    }

    // Conjunctive semantics: a keyword with no list means no results.
    let mut readers: Vec<ListReader> = Vec::with_capacity(n);
    {
        let _open = trace.span(Stage::ListOpen);
        for &t in terms {
            match index.reader(t) {
                Some(r) => readers.push(r),
                None => {
                    return Ok(QueryOutcome {
                        results: heap.into_sorted(),
                        stats,
                        degraded: None,
                    })
                }
            }
        }
    }
    let merge_span = trace.span(Stage::DeweyMerge);

    let mut stack: Vec<StackEntry> = Vec::new();
    let mut path: Vec<u32> = Vec::new();
    // Retired frames, reset and ready for reuse: the merge pushes and pops
    // one frame per Dewey component, so recycling them keeps the hot loop
    // allocation-free once the deepest path has been visited.
    let mut spare: Vec<StackEntry> = Vec::new();

    // Pops one frame, emitting it as a result when appropriate and
    // propagating to its parent per lines 12-24 of Figure 5.
    let pop = |stack: &mut Vec<StackEntry>,
               path: &mut Vec<u32>,
               heap: &mut TopM,
               spare: &mut Vec<StackEntry>,
               opts: &QueryOptions| {
        let mut entry = stack.pop().expect("pop on non-empty stack");

        // Frames shallower than [doc, root] are bookkeeping, not elements.
        // Scoring reads the frame's position lists in place; the window
        // sweep needs them ascending, and a frame holds its own positions
        // ahead of its children's. The Dewey ID is built only for a score
        // the heap keeps.
        if entry.has_all() && path.len() >= 2 {
            entry.pos_lists.iter_mut().for_each(|l| l.sort_unstable());
            let score = opts.overall_rank(&entry.ranks, &entry.pos_lists);
            heap.offer_with(score, || DeweyId::from(path.as_slice()));
            entry.contains_all = true;
        }
        path.pop();
        if let Some(parent) = stack.last_mut() {
            if entry.contains_all {
                parent.contains_all = true;
            } else {
                for i in 0..entry.ranks.len() {
                    parent.ranks[i] = opts
                        .aggregation
                        .combine(parent.ranks[i], entry.ranks[i] * opts.decay);
                    parent.pos_lists[i].append(&mut entry.pos_lists[i]);
                }
            }
        }
        entry.reset();
        spare.push(entry);
    };

    // The reader whose head the last iteration attached to the stack. It
    // is stepped past only after the next guard check, so a stop leaves
    // the page reads and decode counts where consuming it lazily would.
    let mut attached: Option<usize> = None;
    // The leapfrog's seek target, refilled in place.
    let mut seek_to = DeweyId::default();

    loop {
        if guard.should_stop()? {
            break;
        }
        // Every reader shows its head from here on (or is exhausted): the
        // first pass loads them all, later ones step past the one head
        // consumed, and a leapfrog seek lands on a loaded head.
        match attached.take() {
            Some(il) => _ = readers[il].advance(pool)?,
            None => {
                for reader in readers.iter_mut() {
                    reader.peek(pool)?;
                }
            }
        }
        // Document-granularity leapfrog. Every posting consumed so far has
        // a document at or before the stack's, so a document strictly
        // between the stack's and the largest head document is missing the
        // keyword whose head sits at that largest document — it cannot be
        // a result, and its postings can only be pushed and fruitlessly
        // popped. Readers lagging in such documents jump straight to the
        // largest head document; the skip table turns the
        // jump into whole-block skips instead of a decode-and-drop scan.
        // Readers still inside the stack's document are never moved: their
        // postings feed the frames currently being assembled.
        if n > 1 {
            let stack_doc = path.first().copied();
            let mut max_doc = 0u32;
            let mut min_doc = u32::MAX;
            let mut any_exhausted = false;
            for reader in &readers {
                match reader.current() {
                    Some(p) => {
                        let doc = p.dewey.components()[0];
                        max_doc = max_doc.max(doc);
                        min_doc = min_doc.min(doc);
                    }
                    None => any_exhausted = true,
                }
            }
            if any_exhausted {
                // A keyword's list is finished: no later document can
                // contain all keywords. Keep merging only while some head
                // is still inside the stack's document, then stop and let
                // the flush below emit what the stack already holds.
                if min_doc == u32::MAX || stack_doc != Some(min_doc) {
                    break;
                }
            } else if min_doc < max_doc {
                let target = seek_to.components_mut();
                target.clear();
                target.push(max_doc);
                for reader in readers.iter_mut() {
                    let Some(p) = reader.current() else { continue };
                    let doc = p.dewey.components()[0];
                    if doc < max_doc && stack_doc != Some(doc) {
                        reader.next_seek(pool, &seek_to)?;
                    }
                }
            }
        }
        // Line 8: the reader whose head has the smallest Dewey ID, compared
        // where it lies; ties keep the lowest reader index.
        let mut smallest: Option<(usize, &Posting)> = None;
        for (i, reader) in readers.iter().enumerate() {
            let Some(p) = reader.current() else { continue };
            if smallest.is_none_or(|(_, best)| p.dewey.components() < best.dewey.components()) {
                smallest = Some((i, p));
            }
        }
        let Some((il, current)) = smallest else { break };
        attached = Some(il);
        stats.entries_scanned += 1;

        // Lines 10-11: longest common prefix with the stack.
        let lcp = path
            .iter()
            .zip(current.dewey.components())
            .take_while(|(a, b)| a == b)
            .count();

        // Lines 12-24: pop non-matching frames.
        while stack.len() > lcp {
            pop(&mut stack, &mut path, &mut heap, &mut spare, opts);
        }

        // Lines 25-28: push the non-matching suffix (reusing retired
        // frames instead of allocating fresh ones).
        for &component in &current.dewey.components()[lcp..] {
            stack.push(spare.pop().unwrap_or_else(|| StackEntry::new(n)));
            path.push(component);
        }

        // Lines 29-31: attach this posting to the top frame.
        let top = stack.last_mut().expect("just pushed");
        top.ranks[il] = opts
            .aggregation
            .combine(top.ranks[il], occurrence_rank(current, opts));
        top.pos_lists[il].extend_from_slice(&current.positions);
    }

    // Line 33: flush — but only after a *complete* merge. On a degraded
    // stop the live frames have seen only a prefix of their subtrees'
    // postings: flushing them would emit elements with understated
    // scores. Skipping the flush keeps every returned hit exact (an
    // element reaches the heap only via `pop`, which fires once the merge
    // has moved past its entire subtree), so a degraded result set is an
    // order-consistent subset of the full ranking.
    if guard.degraded().is_none() {
        while !stack.is_empty() {
            pop(&mut stack, &mut path, &mut heap, &mut spare, opts);
        }
    }
    drop(merge_span);
    for reader in &readers {
        stats.blocks_decoded += reader.blocks_decoded();
        stats.blocks_skipped += reader.blocks_skipped();
        stats.postings_decoded += reader.decoded();
    }
    trace.event(
        Stage::DeweyMerge,
        EventData::Count { what: "entries_scanned", n: stats.entries_scanned },
    );
    guard.note(trace);

    Ok(QueryOutcome { results: heap.into_sorted(), stats, degraded: guard.degraded() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::score::Proximity;
    use xrank_graph::{Collection, CollectionBuilder};
    use xrank_index::extract::direct_postings;
    use xrank_storage::MemStore;

    pub(crate) fn setup(xml: &str) -> (BufferPool<MemStore>, DilIndex, Collection) {
        let mut b = CollectionBuilder::new();
        b.add_xml_str("d", xml).unwrap();
        let c = b.build();
        let r = xrank_rank::elem_rank(&c, &xrank_rank::ElemRankParams::default());
        let postings = direct_postings(&c, &r.scores);
        let mut pool = BufferPool::new(MemStore::new(), 8192);
        let idx = DilIndex::build(&mut pool, &postings).unwrap();
        (pool, idx, c)
    }

    pub(crate) fn run(
        pool: &BufferPool<MemStore>,
        idx: &DilIndex,
        c: &Collection,
        keywords: &[&str],
        opts: &QueryOptions,
    ) -> QueryOutcome {
        let terms: Vec<TermId> = keywords
            .iter()
            .filter_map(|k| c.vocabulary().lookup(k))
            .collect();
        if terms.len() != keywords.len() {
            return QueryOutcome {
                results: Vec::new(),
                stats: EvalStats::default(),
                degraded: None,
            };
        }
        evaluate(pool, idx, &terms, opts).unwrap()
    }

    fn names_of(results: &[crate::QueryResult], c: &Collection) -> Vec<String> {
        results
            .iter()
            .map(|r| {
                c.elem_by_dewey(&r.dewey)
                    .map(|e| c.element(e).name.to_string())
                    .unwrap_or_else(|| format!("?{}", r.dewey))
            })
            .collect()
    }

    /// The paper's running example: 'XQL language' must return the
    /// <subsection> (most specific), not its <section>/<body> ancestors,
    /// but also the <paper> (independent occurrences in title + abstract).
    #[test]
    fn paper_query_semantics_example() {
        // Mirrors Figure 1: the <title> contains only 'XQL', the
        // <abstract> only 'language', the <subsection> both.
        let xml = r#"<workshop>
          <wtitle>XML and IR a Workshop</wtitle>
          <proceedings>
            <paper>
              <title>XQL and Proximal Nodes</title>
              <abstract>We consider the recently proposed language</abstract>
              <body>
                <section>
                  <subsection>At first sight the XQL query language looks</subsection>
                </section>
              </body>
            </paper>
          </proceedings>
        </workshop>"#;
        let (pool, idx, c) = setup(xml);
        let opts = QueryOptions { top_m: 10, ..Default::default() };
        let out = run(&pool, &idx, &c, &["xql", "language"], &opts);
        let names = names_of(&out.results, &c);
        // The most specific result.
        assert!(names.contains(&"subsection".to_string()), "most specific result: {names:?}");
        // "the <paper> element also contains independent occurrences of the
        // query keywords in the sub-elements <title> and <abstract> ...
        // hence, the <paper> element is also a query result."
        assert!(names.contains(&"paper".to_string()), "independent occurrences: {names:?}");
        // "the <section> and <body> ancestors of the <subsection> will NOT
        // be returned."
        assert!(!names.contains(&"section".to_string()), "spurious ancestor: {names:?}");
        assert!(!names.contains(&"body".to_string()), "spurious ancestor: {names:?}");
        assert!(!names.contains(&"workshop".to_string()), "spurious ancestor: {names:?}");
        assert_eq!(out.results.len(), 2);
    }

    #[test]
    fn single_keyword_returns_direct_containers() {
        let (pool, idx, c) =
            setup("<r><a>solo here</a><b><c>solo again</c></b></r>");
        let opts = QueryOptions { top_m: 10, ..Default::default() };
        let out = run(&pool, &idx, &c, &["solo"], &opts);
        let names = names_of(&out.results, &c);
        assert_eq!(names.len(), 2);
        assert!(names.contains(&"a".to_string()) && names.contains(&"c".to_string()));
    }

    #[test]
    fn missing_keyword_returns_nothing() {
        let (pool, idx, c) = setup("<r><a>alpha beta</a></r>");
        let opts = QueryOptions::default();
        let out = run(&pool, &idx, &c, &["alpha", "nonexistent"], &opts);
        assert!(out.results.is_empty());
    }

    #[test]
    fn cross_document_keywords_do_not_join() {
        let mut b = CollectionBuilder::new();
        b.add_xml_str("d1", "<r><a>foo only</a></r>").unwrap();
        b.add_xml_str("d2", "<r><a>bar only</a></r>").unwrap();
        let c = b.build();
        let r = xrank_rank::elem_rank(&c, &xrank_rank::ElemRankParams::default());
        let postings = direct_postings(&c, &r.scores);
        let mut pool = BufferPool::new(MemStore::new(), 1024);
        let idx = DilIndex::build(&mut pool, &postings).unwrap();
        let out = run(&pool, &idx, &c, &["foo", "bar"], &QueryOptions::default());
        assert!(out.results.is_empty(), "keywords in different documents share no element");
    }

    #[test]
    fn specificity_beats_spread_with_equal_ranks() {
        // Both <tight> and <loose> contain both keywords; <tight> holds
        // them in one element, <loose> spreads them across children (so
        // its rank is decayed and its window wider).
        let xml = "<r><tight>alpha beta</tight><loose><x>alpha filler</x><y>filler beta</y></loose></r>";
        let (pool, idx, c) = setup(xml);
        let opts = QueryOptions { top_m: 10, proximity: Proximity::One, ..Default::default() };
        let out = run(&pool, &idx, &c, &["alpha", "beta"], &opts);
        let names = names_of(&out.results, &c);
        assert_eq!(names[0], "tight", "results: {names:?}");
    }

    #[test]
    fn proximity_demotes_distant_keywords() {
        let xml = "<r><near>alpha beta</near><far>alpha w1 w2 w3 w4 w5 w6 w7 w8 w9 beta</far></r>";
        let (pool, idx, c) = setup(xml);
        let opts = QueryOptions { top_m: 10, ..Default::default() };
        let out = run(&pool, &idx, &c, &["alpha", "beta"], &opts);
        let names = names_of(&out.results, &c);
        assert_eq!(names[0], "near");
        // with proximity disabled the two tie on rank structure
        let opts1 = QueryOptions { proximity: Proximity::One, ..opts };
        let out1 = run(&pool, &idx, &c, &["alpha", "beta"], &opts1);
        assert!((out1.results[0].score - out1.results[1].score).abs() < 1e-12);
    }

    #[test]
    fn mixed_content_window_counts_positions_in_document_order() {
        // <p>'s frame collects its own 'alpha' (position 5) before its
        // child's (position 0); the window is 'alpha beta' at 0..1, so the
        // proximity factor is exactly 1.
        let xml = "<r><p><b>alpha</b> beta w1 w2 w3 alpha</p></r>";
        let (pool, idx, c) = setup(xml);
        let opts = QueryOptions { top_m: 10, ..Default::default() };
        let out = run(&pool, &idx, &c, &["alpha", "beta"], &opts);
        let flat = QueryOptions { proximity: Proximity::One, ..opts.clone() };
        let out_flat = run(&pool, &idx, &c, &["alpha", "beta"], &flat);
        assert_eq!(names_of(&out.results, &c), ["p"]);
        assert_eq!(out.results[0].score.to_bits(), out_flat.results[0].score.to_bits());
    }

    #[test]
    fn scans_every_list_entirely() {
        let (pool, idx, c) = setup("<r><a>x y</a><b>x</b><c>y</c></r>");
        let tx = c.vocabulary().lookup("x").unwrap();
        let ty = c.vocabulary().lookup("y").unwrap();
        let expected =
            idx.meta(tx).unwrap().entry_count as u64 + idx.meta(ty).unwrap().entry_count as u64;
        let out = evaluate(&pool, &idx, &[tx, ty], &QueryOptions::default()).unwrap();
        assert_eq!(out.stats.entries_scanned, expected, "DIL always scans fully");
    }

    #[test]
    fn empty_query() {
        let (pool, idx, _) = setup("<r><a>word</a></r>");
        let out = evaluate(&pool, &idx, &[], &QueryOptions::default()).unwrap();
        assert!(out.results.is_empty());
    }

    #[test]
    fn zero_timeout_yields_typed_timeout_error() {
        let (pool, idx, c) = setup("<r><a>tick tock</a></r>");
        let t = c.vocabulary().lookup("tick").unwrap();
        let opts = QueryOptions {
            timeout: Some(std::time::Duration::ZERO),
            ..Default::default()
        };
        let err = evaluate(&pool, &idx, &[t], &opts).unwrap_err();
        assert!(matches!(err, QueryError::Timeout), "{err}");
    }

    #[test]
    fn zero_timeout_with_allow_partial_degrades_instead() {
        let (pool, idx, c) = setup("<r><a>tick tock</a></r>");
        let t = c.vocabulary().lookup("tick").unwrap();
        let opts = QueryOptions {
            timeout: Some(std::time::Duration::ZERO),
            allow_partial: true,
            ..Default::default()
        };
        let out = evaluate(&pool, &idx, &[t], &opts).unwrap();
        assert_eq!(out.degraded, Some(xrank_obs::DegradeReason::Deadline));
        assert!(out.results.is_empty(), "nothing was popped before the stop");
    }

    #[test]
    fn zero_io_budget_degrades_or_errors_by_flag() {
        let (pool, idx, c) = setup("<r><a>tick tock</a></r>");
        let t = c.vocabulary().lookup("tick").unwrap();
        let hard = QueryOptions { io_budget: Some(0), ..Default::default() };
        // The guard trips only after I/O is charged, so the first loop
        // iteration reads a page and the second boundary stops.
        let err = evaluate(&pool, &idx, &[t], &hard).unwrap_err();
        assert!(matches!(err, QueryError::BudgetExhausted), "{err}");
        let soft = QueryOptions { io_budget: Some(0), allow_partial: true, ..Default::default() };
        let out = evaluate(&pool, &idx, &[t], &soft).unwrap();
        assert_eq!(out.degraded, Some(xrank_obs::DegradeReason::IoBudget));
    }

    #[test]
    fn degraded_events_land_in_trace() {
        let (pool, idx, c) = setup("<r><a>tick tock</a></r>");
        let t = c.vocabulary().lookup("tick").unwrap();
        let opts = QueryOptions {
            timeout: Some(std::time::Duration::ZERO),
            allow_partial: true,
            ..Default::default()
        };
        let trace = QueryTrace::enabled();
        evaluate_traced(&pool, &idx, &[t], &opts, &trace).unwrap();
        let done = trace.finish();
        let e = done.degraded_event().expect("degraded event recorded");
        assert!(matches!(
            e.data,
            EventData::Degraded { reason: xrank_obs::DegradeReason::Deadline }
        ));
    }

    #[test]
    fn cancelled_token_surfaces_unavailable() {
        let (pool, idx, c) = setup("<r><a>tick tock</a></r>");
        let t = c.vocabulary().lookup("tick").unwrap();
        let token = crate::CancelToken::new();
        token.cancel();
        let opts = QueryOptions { cancel: Some(token), ..Default::default() };
        let err = evaluate(&pool, &idx, &[t], &opts).unwrap_err();
        assert!(matches!(err, QueryError::Unavailable(_)), "{err}");
    }

    #[test]
    fn repeated_keyword_in_query() {
        // Degenerate but legal: same term twice behaves like once (both
        // lists are identical).
        let (pool, idx, c) = setup("<r><a>dup text</a></r>");
        let t = c.vocabulary().lookup("dup").unwrap();
        let out = evaluate(&pool, &idx, &[t, t], &QueryOptions::default()).unwrap();
        assert_eq!(out.results.len(), 1);
    }
}
