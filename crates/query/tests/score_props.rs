//! Property tests for the scoring machinery: the window sweep against a
//! brute-force oracle, and top-m heap invariants.

use proptest::prelude::*;
use xrank_dewey::DeweyId;
use xrank_query::score::min_window;
use xrank_query::TopM;

/// O(total²) brute force: try every pair of merged positions as a window.
fn brute_force_window(lists: &[Vec<u32>]) -> Option<u64> {
    if lists.iter().any(|l| l.is_empty()) {
        return None;
    }
    let mut all: Vec<u32> = lists.iter().flatten().copied().collect();
    all.sort_unstable();
    all.dedup();
    let mut best: Option<u64> = None;
    for &lo in &all {
        for &hi in &all {
            if hi < lo {
                continue;
            }
            let covered = lists
                .iter()
                .all(|l| l.iter().any(|&p| p >= lo && p <= hi));
            if covered {
                let span = (hi - lo) as u64 + 1;
                best = Some(best.map_or(span, |b| b.min(span)));
            }
        }
    }
    best
}

/// 1–12 keywords (past the sweep's 8 cursors on the stack), up to 40
/// positions each; a narrow range makes lists share positions.
fn pos_lists() -> impl Strategy<Value = Vec<Vec<u32>>> {
    proptest::collection::vec(
        proptest::collection::vec(0u32..300, 1..41).prop_map(|mut v| {
            v.sort_unstable();
            v.dedup();
            v
        }),
        1..13,
    )
}

proptest! {
    #[test]
    fn min_window_matches_brute_force(lists in pos_lists()) {
        let refs: Vec<&[u32]> = lists.iter().map(|l| l.as_slice()).collect();
        prop_assert_eq!(min_window(&refs), brute_force_window(&lists));
    }

    #[test]
    fn min_window_bounds(lists in pos_lists()) {
        let refs: Vec<&[u32]> = lists.iter().map(|l| l.as_slice()).collect();
        let w = min_window(&refs).expect("non-empty lists have a window");
        // At least the number of distinct lists... no: overlapping
        // positions allow smaller; but at least 1, and at most the full
        // span of all positions.
        let min_pos = lists.iter().flatten().min().copied().unwrap() as u64;
        let max_pos = lists.iter().flatten().max().copied().unwrap() as u64;
        prop_assert!(w >= 1);
        prop_assert!(w <= max_pos - min_pos + 1);
    }

    /// The top-m heap returns exactly the m best (score, dewey) pairs in
    /// descending order, matching a full sort.
    #[test]
    fn top_m_matches_full_sort(
        items in proptest::collection::vec((0u32..1000, 0u32..100), 0..60),
        m in 0usize..12,
    ) {
        let mut heap = TopM::new(m);
        let mut reference: Vec<(f64, DeweyId)> = Vec::new();
        for (score_raw, id) in &items {
            let dewey = DeweyId::from([0, *id]);
            let score = *score_raw as f64 / 7.0;
            heap.offer(dewey.clone(), score);
            reference.push((score, dewey));
        }
        // Deduplicate exact (score, dewey) duplicates the way the heap
        // keeps them: it doesn't dedupe, so neither do we.
        reference.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
        reference.truncate(m);
        let got = heap.into_sorted();
        prop_assert_eq!(got.len(), reference.len());
        for (g, (score, dewey)) in got.iter().zip(reference.iter()) {
            prop_assert_eq!(g.score, *score);
            prop_assert_eq!(&g.dewey, dewey);
        }
    }

    /// The lazy offer keeps exactly what the eager one keeps — scores
    /// drawn from a handful of values, so equal scores meet a full heap
    /// and their ties are broken by ID — and it builds an ID only for a
    /// score that is not strictly below a full heap's worst.
    #[test]
    fn lazy_offer_keeps_what_offer_keeps(
        items in proptest::collection::vec((0u32..6, 0u32..100), 0..60),
        m in 0usize..12,
    ) {
        let (mut eager, mut lazy) = (TopM::new(m), TopM::new(m));
        for (score_raw, id) in &items {
            let dewey = DeweyId::from([0, *id]);
            let score = *score_raw as f64 / 4.0;
            let worst = if eager.len() == m { eager.mth_score() } else { None };
            let mut built = false;
            lazy.offer_with(score, || {
                built = true;
                dewey.clone()
            });
            eager.offer(dewey, score);
            let needed = m > 0 && worst.is_none_or(|w| score >= w);
            prop_assert_eq!(built, needed, "score {} against worst {:?}", score, worst);
        }
        prop_assert_eq!(lazy.into_sorted(), eager.into_sorted());
    }
}
