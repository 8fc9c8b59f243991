//! Ranking machinery: options, proximity windows, occurrence aggregation,
//! and the bounded top-m result heap.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use xrank_dewey::DeweyId;

/// How multiple relevant occurrences of one keyword combine into
/// `r̂(v₁, kᵢ)` (Section 2.3.2.1: "We set f = max by default, but other
/// choices (such as f = sum) are also supported").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Aggregation {
    /// `f = max` (paper default).
    #[default]
    Max,
    /// `f = sum`.
    Sum,
}

impl Aggregation {
    /// Combines an existing aggregate with a new occurrence rank.
    pub fn combine(self, acc: f64, rank: f64) -> f64 {
        match self {
            Aggregation::Max => acc.max(rank),
            Aggregation::Sum => acc + rank,
        }
    }
}

/// The keyword proximity factor `p(v₁, k₁ … k_n)` (Section 2.3.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Proximity {
    /// Inversely proportional to the smallest document-order word window
    /// containing at least one relevant occurrence of every keyword
    /// (paper default): `p = n / window`, which is 1 when the keywords
    /// are adjacent and decays toward 0 as they spread.
    #[default]
    MinWindow,
    /// Always 1 — "for highly structured XML data sets, where the distance
    /// between query keywords may not always be an important factor".
    One,
}

/// Query evaluation options.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOptions {
    /// Per-level decay of Section 2.3.2.1, in `(0, 1]`.
    pub decay: f64,
    /// Occurrence aggregation `f`.
    pub aggregation: Aggregation,
    /// Proximity factor.
    pub proximity: Proximity,
    /// Number of results to return (`m`).
    pub top_m: usize,
    /// Optional per-keyword weights (Section 2.3.2.2: "users may also
    /// wish to assign different weights to different keywords, in which
    /// case the individual keyword ranks can be weighted accordingly").
    /// Indexed parallel to the query's keyword list; missing entries
    /// default to 1. Weights must be non-negative (TA's threshold
    /// overestimate scales each frontier rank by its weight).
    pub keyword_weights: Option<Vec<f64>>,
    /// Wall-clock budget for one evaluation. Checked at processor loop
    /// boundaries; on expiry the processor returns
    /// [`crate::QueryError::Timeout`] — unless [`Self::allow_partial`] is
    /// set, in which case the best top-k so far comes back marked
    /// degraded.
    pub timeout: Option<std::time::Duration>,
    /// Absolute deadline for the evaluation. When both this and
    /// [`Self::timeout`] are set the earlier instant wins, which is how
    /// one deadline is shared across multi-pass evaluations (e.g. the
    /// updatable engine's main + delta passes) instead of each pass
    /// getting a fresh timeout.
    pub deadline_at: Option<std::time::Instant>,
    /// I/O budget for one evaluation, in *logical* page reads (cache hits
    /// count — the budget bounds work, not just disk traffic). Checked at
    /// the same loop boundaries as the deadline; on exhaustion the
    /// processor returns [`crate::QueryError::BudgetExhausted`] — unless
    /// [`Self::allow_partial`] is set.
    pub io_budget: Option<u64>,
    /// Degrade instead of failing: when a deadline or I/O budget trips,
    /// return the best top-k accumulated so far (marked degraded, with
    /// the trigger recorded in the query trace) instead of an error.
    pub allow_partial: bool,
    /// Cooperative cancellation signal, observed at loop boundaries. The
    /// executor injects its shutdown token here; cancellation surfaces as
    /// [`crate::QueryError::Unavailable`].
    pub cancel: Option<crate::CancelToken>,
}

impl Default for QueryOptions {
    fn default() -> Self {
        QueryOptions {
            decay: 0.75,
            aggregation: Aggregation::Max,
            proximity: Proximity::MinWindow,
            top_m: 10,
            keyword_weights: None,
            timeout: None,
            deadline_at: None,
            io_budget: None,
            allow_partial: false,
            cancel: None,
        }
    }
}

impl QueryOptions {
    /// Materializes the per-evaluation deadline: the earlier of
    /// [`Self::deadline_at`] and now + [`Self::timeout`]. Callers that run
    /// *multiple* evaluations as one logical query should resolve this
    /// once, store it back into [`Self::deadline_at`], and clear
    /// [`Self::timeout`] — otherwise each pass would mint itself a fresh
    /// allowance.
    pub fn deadline(&self) -> Option<std::time::Instant> {
        let relative = self.timeout.map(|t| std::time::Instant::now() + t);
        match (relative, self.deadline_at) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

impl QueryOptions {
    /// Computes the proximity factor for per-keyword relevant position
    /// lists (each must be non-empty and ascending). Generic over the list
    /// representation so callers can pass `&[Vec<u32>]` holders directly
    /// instead of materializing a `Vec<&[u32]>` per scored element.
    pub fn proximity_factor<L: AsRef<[u32]>>(&self, pos_lists: &[L]) -> f64 {
        match self.proximity {
            Proximity::One => 1.0,
            Proximity::MinWindow => {
                let n = pos_lists.len();
                if n <= 1 {
                    return 1.0;
                }
                match min_window(pos_lists) {
                    Some(window) => n as f64 / window as f64,
                    None => 1.0,
                }
            }
        }
    }

    /// The weight of keyword `i` (1 when unspecified).
    pub fn keyword_weight(&self, i: usize) -> f64 {
        self.keyword_weights
            .as_ref()
            .and_then(|w| w.get(i).copied())
            .unwrap_or(1.0)
    }

    /// The overall rank `R(v₁, Q)` from per-keyword aggregated ranks and
    /// relevant positions: `Σ wᵢ · r̂(v₁, kᵢ)`, scaled by proximity.
    pub fn overall_rank<L: AsRef<[u32]>>(&self, keyword_ranks: &[f64], pos_lists: &[L]) -> f64 {
        let sum: f64 = keyword_ranks
            .iter()
            .enumerate()
            .map(|(i, r)| self.keyword_weight(i) * r)
            .sum();
        sum * self.proximity_factor(pos_lists)
    }
}

/// Queries up to this many keywords keep [`min_window`]'s cursors on the
/// stack; longer ones put them in a `Vec`.
const WINDOW_CURSORS: usize = 8;

/// Smallest window (in words, inclusive span) containing at least one
/// position from every list; each list must be ascending. One k-pointer
/// sweep: every window whose left end is some list's head is measured,
/// then that list steps forward, until one runs out — the optimal window
/// is measured when its leftmost witness is the smallest head. Returns
/// `None` when some list is empty (or there are none).
pub fn min_window<L: AsRef<[u32]>>(pos_lists: &[L]) -> Option<u64> {
    let k = pos_lists.len();
    if k == 0 || pos_lists.iter().any(|l| l.as_ref().is_empty()) {
        return None;
    }
    debug_assert!(pos_lists.iter().all(|l| l.as_ref().is_sorted()), "unsorted positions");
    let mut on_stack = [0usize; WINDOW_CURSORS];
    let mut on_heap = Vec::new();
    let at: &mut [usize] = if k <= WINDOW_CURSORS {
        &mut on_stack[..k]
    } else {
        on_heap.resize(k, 0);
        &mut on_heap
    };
    let mut best = u64::MAX;
    loop {
        let (mut lo, mut lo_list, mut hi) = (u32::MAX, 0, 0);
        for (i, list) in pos_lists.iter().enumerate() {
            let p = list.as_ref()[at[i]];
            if p < lo {
                (lo, lo_list) = (p, i);
            }
            hi = hi.max(p);
        }
        best = best.min((hi - lo) as u64 + 1);
        at[lo_list] += 1;
        if at[lo_list] == pos_lists[lo_list].as_ref().len() {
            return Some(best);
        }
    }
}

/// One ranked query result.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// The result element's Dewey ID.
    pub dewey: DeweyId,
    /// Overall rank `R(v₁, Q)`.
    pub score: f64,
}

/// Total-ordered f64 for heap storage.
#[derive(Debug, Clone, Copy, PartialEq)]
struct F64Ord(f64);

impl Eq for F64Ord {}
impl PartialOrd for F64Ord {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for F64Ord {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Bounded top-m heap over (score, Dewey). Ties break toward the smaller
/// Dewey (document order), keeping results deterministic.
#[derive(Debug)]
pub struct TopM {
    m: usize,
    // Min-heap: the worst retained result is on top.
    heap: BinaryHeap<Reverse<(F64Ord, Reverse<DeweyId>)>>,
}

impl TopM {
    /// A heap retaining the best `m` results.
    pub fn new(m: usize) -> Self {
        TopM { m, heap: BinaryHeap::with_capacity(m + 1) }
    }

    /// Offers a result; keeps it only if it is among the best `m` so far.
    pub fn offer(&mut self, dewey: DeweyId, score: f64) {
        if self.m == 0 {
            return;
        }
        self.heap.push(Reverse((F64Ord(score), Reverse(dewey))));
        if self.heap.len() > self.m {
            self.heap.pop();
        }
    }

    /// [`TopM::offer`] that builds the result's ID only when the heap
    /// would keep it: a full heap turns away a score strictly below its
    /// worst without calling `dewey`. An equal score still goes in — the
    /// tie is broken by ID.
    pub fn offer_with(&mut self, score: f64, dewey: impl FnOnce() -> DeweyId) {
        let beaten = self.heap.len() >= self.m
            && self.heap.peek().is_none_or(|Reverse((worst, _))| F64Ord(score) < *worst);
        if !beaten {
            self.offer(dewey(), score);
        }
    }

    /// Score of the m-th best result, or `None` while fewer than `m`
    /// results are held — the left side of the TA stopping test
    /// ("if rank of top m elements in result heap ≥ threshold").
    pub fn mth_score(&self) -> Option<f64> {
        if self.heap.len() < self.m {
            None
        } else {
            self.heap.peek().map(|Reverse((F64Ord(s), _))| *s)
        }
    }

    /// Results held so far.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no results are held.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drains into a descending-score result vector.
    pub fn into_sorted(self) -> Vec<QueryResult> {
        let mut v: Vec<QueryResult> = self
            .heap
            .into_iter()
            .map(|Reverse((F64Ord(score), Reverse(dewey)))| QueryResult { dewey, score })
            .collect();
        v.sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.dewey.cmp(&b.dewey)));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn min_window_adjacent_keywords() {
        // "xql language" right next to each other: window = 2.
        assert_eq!(min_window(&[&[10], &[11]]), Some(2));
    }

    #[test]
    fn min_window_picks_best_pairing() {
        let a = [2u32, 50, 97];
        let b = [40u32, 54, 200];
        // best is 50..54 → 5
        assert_eq!(min_window(&[&a, &b]), Some(5));
    }

    #[test]
    fn min_window_three_lists() {
        let a = [1u32, 100];
        let b = [3u32, 102];
        let c = [5u32, 104];
        assert_eq!(min_window(&[&a, &b, &c]), Some(5));
    }

    #[test]
    fn min_window_empty_list_is_none() {
        let full: &[u32] = &[1, 2];
        let empty: &[u32] = &[];
        assert_eq!(min_window(&[full, empty]), None);
        assert_eq!(min_window::<&[u32]>(&[]), None);
    }

    #[test]
    fn min_window_shared_positions() {
        // A keyword repeated in the query: both lists hold position 4.
        assert_eq!(min_window(&[&[4, 9], &[4, 9]]), Some(1));
        assert_eq!(min_window(&[&[1, 4][..], &[4], &[2, 4]]), Some(1));
    }

    #[test]
    fn proximity_factor_ranges() {
        let o = QueryOptions::default();
        // adjacent: p = 2/2 = 1
        assert_eq!(o.proximity_factor(&[&[5], &[6]]), 1.0);
        // spread: p = 2/101
        let p = o.proximity_factor(&[&[0], &[100]]);
        assert!((p - 2.0 / 101.0).abs() < 1e-12);
        // single keyword: always 1
        assert_eq!(o.proximity_factor(&[&[7, 9]]), 1.0);
        // Proximity::One ignores spread
        let one = QueryOptions { proximity: Proximity::One, ..Default::default() };
        assert_eq!(one.proximity_factor(&[&[0], &[100]]), 1.0);
    }

    #[test]
    fn aggregation_semantics() {
        assert_eq!(Aggregation::Max.combine(0.4, 0.9), 0.9);
        assert_eq!(Aggregation::Max.combine(0.9, 0.4), 0.9);
        assert_eq!(Aggregation::Sum.combine(0.4, 0.9), 1.3);
    }

    #[test]
    fn top_m_keeps_best() {
        let mut h = TopM::new(2);
        assert_eq!(h.mth_score(), None);
        h.offer(DeweyId::from([0, 0, 1]), 0.5);
        h.offer(DeweyId::from([0, 0, 2]), 0.9);
        assert_eq!(h.mth_score(), Some(0.5));
        h.offer(DeweyId::from([0, 0, 3]), 0.7);
        assert_eq!(h.mth_score(), Some(0.7));
        let out = h.into_sorted();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].score, 0.9);
        assert_eq!(out[1].score, 0.7);
    }

    #[test]
    fn top_m_tie_breaks_by_document_order() {
        let mut h = TopM::new(1);
        h.offer(DeweyId::from([0, 0, 9]), 0.5);
        h.offer(DeweyId::from([0, 0, 1]), 0.5);
        let out = h.into_sorted();
        assert_eq!(out[0].dewey, DeweyId::from([0, 0, 1]));
    }

    #[test]
    fn top_zero_is_inert() {
        let mut h = TopM::new(0);
        h.offer(DeweyId::from([0, 0]), 1.0);
        h.offer_with(1.0, || unreachable!("a zero-size heap keeps nothing"));
        assert!(h.is_empty());
        assert!(h.into_sorted().is_empty());
    }

    #[test]
    fn offer_with_builds_ids_only_for_kept_scores() {
        let mut h = TopM::new(1);
        h.offer_with(0.5, || DeweyId::from([0, 0, 9]));
        h.offer_with(0.4, || unreachable!("strictly below the worst kept score"));
        // An equal score is a tie broken by ID, so it must be built.
        h.offer_with(0.5, || DeweyId::from([0, 0, 1]));
        assert_eq!(h.into_sorted()[0].dewey, DeweyId::from([0, 0, 1]));
    }

    #[test]
    fn overall_rank_composes() {
        let o = QueryOptions { proximity: Proximity::One, ..Default::default() };
        let r = o.overall_rank(&[0.3, 0.2], &[&[1], &[2]]);
        assert!((r - 0.5).abs() < 1e-12);
    }
}
