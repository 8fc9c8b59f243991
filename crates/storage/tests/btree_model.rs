//! Model-based property tests: the disk B+-tree against
//! `std::collections::BTreeMap` as the executable specification.

use proptest::prelude::*;
use std::collections::BTreeMap;
use xrank_storage::btree::SortedKv;
use xrank_storage::{BufferPool, MemStore};

fn keys() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::btree_set(proptest::collection::vec(any::<u8>(), 1..12), 1..200)
        .prop_map(|set| set.into_iter().collect())
}

fn build(keys: &[Vec<u8>]) -> (BufferPool<MemStore>, SortedKv, BTreeMap<Vec<u8>, Vec<u8>>) {
    let mut pool = BufferPool::new(MemStore::new(), 1 << 14);
    let entries: Vec<(Vec<u8>, Vec<u8>)> = keys
        .iter()
        .enumerate()
        .map(|(i, k)| (k.clone(), format!("v{i}").into_bytes()))
        .collect();
    let tree = SortedKv::build(&mut pool, &entries).unwrap();
    let model: BTreeMap<Vec<u8>, Vec<u8>> = entries.into_iter().collect();
    (pool, tree, model)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn get_matches_model(keys in keys(), probes in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..12), 1..40)) {
        let (pool, tree, model) = build(&keys);
        for k in keys.iter().take(25) {
            prop_assert_eq!(tree.get(&pool, k).unwrap(), model.get(k).cloned(), "present key");
        }
        for p in &probes {
            prop_assert_eq!(tree.get(&pool, p).unwrap(), model.get(p).cloned(), "probe key");
        }
    }

    #[test]
    fn lowest_geq_matches_model(keys in keys(), probes in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..12), 1..40)) {
        let (pool, tree, model) = build(&keys);
        for p in &probes {
            let (entry, pred) = tree.lowest_geq(&pool, p).unwrap();
            let expect_entry = model.range::<[u8], _>((
                std::ops::Bound::Included(p.as_slice()),
                std::ops::Bound::Unbounded,
            )).next();
            let expect_pred = model.range::<[u8], _>((
                std::ops::Bound::Unbounded,
                std::ops::Bound::Excluded(p.as_slice()),
            )).next_back();
            prop_assert_eq!(
                entry.as_ref().map(|e| (&e.key, &e.value)),
                expect_entry,
                "entry for probe {:?}", p
            );
            prop_assert_eq!(
                pred.as_ref().map(|e| (&e.key, &e.value)),
                expect_pred,
                "pred for probe {:?}", p
            );
        }
    }

    #[test]
    fn range_matches_model(keys in keys(), lo in proptest::collection::vec(any::<u8>(), 0..10), hi in proptest::collection::vec(any::<u8>(), 0..10)) {
        let (pool, tree, model) = build(&keys);
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        let got: Vec<(Vec<u8>, Vec<u8>)> = tree
            .range(&pool, &lo, &hi)
            .unwrap()
            .into_iter()
            .map(|e| (e.key, e.value))
            .collect();
        let expect: Vec<(Vec<u8>, Vec<u8>)> = model
            .range::<[u8], _>((
                std::ops::Bound::Included(lo.as_slice()),
                std::ops::Bound::Excluded(hi.as_slice()),
            ))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        prop_assert_eq!(got, expect);
    }

    /// The stateful probe cursor is a pure optimization: over any key set
    /// and any seek sequence (monotone, backward, repeated, off-the-end),
    /// `TreeCursor::seek_geq` must return exactly what a fresh
    /// root-descent `lowest_geq` returns, and classify every probe as
    /// exactly one of forward seek, backward seek, or descent.
    #[test]
    fn cursor_seeks_match_fresh_descents(
        keys in keys(),
        seeks in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..12), 1..60),
    ) {
        let (pool, tree, _model) = build(&keys);
        let mut cur = tree.cursor();
        for s in &seeks {
            let fresh = tree.lowest_geq(&pool, s).unwrap();
            let seeked = cur.seek_geq(&pool, s).unwrap();
            prop_assert_eq!(&seeked, &fresh, "seek {:?} diverged from descent", s);
        }
        let stats = cur.stats();
        prop_assert_eq!(stats.probes, seeks.len() as u64);
        prop_assert_eq!(
            stats.probes,
            stats.seeks_forward + stats.seeks_backward + stats.descents
        );
        prop_assert!(stats.descents >= 1, "first seek must descend");
    }

    /// Sorted seek sequences are the TA hot path: after the first descent
    /// the cursor must stay on the forward path (descents never exceed
    /// what long forward jumps past the sibling-walk bound force).
    #[test]
    fn monotone_seeks_rarely_descend(keys in keys()) {
        let (pool, tree, model) = build(&keys);
        let mut cur = tree.cursor();
        let sorted: Vec<&Vec<u8>> = model.keys().collect();
        for k in &sorted {
            let fresh = tree.lowest_geq(&pool, k).unwrap();
            let seeked = cur.seek_geq(&pool, k).unwrap();
            prop_assert_eq!(&seeked, &fresh);
        }
        let stats = cur.stats();
        // Walking every key in order visits each leaf once; a descent can
        // only happen on the cold first seek (adjacent keys are never more
        // than one leaf apart).
        prop_assert_eq!(stats.descents, 1, "in-order walk re-descended: {:?}", stats);
    }

    /// The mirror image: walking every key in *descending* order keeps
    /// the cursor on the backward sibling walk — adjacent keys are never
    /// more than one leaf apart, so only the cold first seek descends.
    #[test]
    fn reverse_monotone_seeks_rarely_descend(keys in keys()) {
        let (pool, tree, model) = build(&keys);
        let mut cur = tree.cursor();
        let sorted: Vec<&Vec<u8>> = model.keys().collect();
        for k in sorted.iter().rev() {
            let fresh = tree.lowest_geq(&pool, k).unwrap();
            let seeked = cur.seek_geq(&pool, k).unwrap();
            prop_assert_eq!(&seeked, &fresh);
        }
        let stats = cur.stats();
        prop_assert_eq!(stats.descents, 1, "reverse walk re-descended: {:?}", stats);
    }

    /// The cursor-started range walk is `SortedKv::range` served from
    /// wherever earlier seeks left the cursor: any key set, any seek
    /// history, any `[low, high)`.
    #[test]
    fn cursor_range_walk_matches_range(
        keys in keys(),
        seeks in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..12), 0..20),
        bounds in proptest::collection::vec(
            (proptest::collection::vec(any::<u8>(), 0..10), proptest::collection::vec(any::<u8>(), 0..10)),
            1..8,
        ),
    ) {
        let (pool, tree, _model) = build(&keys);
        let mut cur = tree.cursor();
        for s in &seeks {
            cur.seek_geq(&pool, s).unwrap();
        }
        for (lo, hi) in &bounds {
            let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
            let mut walked: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
            cur.walk_from(&pool, lo, |k, v| {
                let inside = k < hi.as_slice();
                if inside {
                    walked.push((k.to_vec(), v.to_vec()));
                }
                Ok(inside)
            })
            .unwrap();
            let expect: Vec<(Vec<u8>, Vec<u8>)> = tree
                .range(&pool, lo, hi)
                .unwrap()
                .into_iter()
                .map(|e| (e.key, e.value))
                .collect();
            prop_assert_eq!(walked, expect, "walk [{:?}, {:?})", lo, hi);
        }
        let stats = cur.stats();
        prop_assert_eq!(stats.probes, (seeks.len() + bounds.len()) as u64);
        prop_assert_eq!(stats.probes, stats.seeks_forward + stats.seeks_backward + stats.descents);
    }

    #[test]
    fn cursor_walk_enumerates_model_in_order(keys in keys()) {
        let (pool, tree, model) = build(&keys);
        let (mut cur, _) = tree.lowest_geq(&pool, b"").unwrap();
        let mut walked = Vec::new();
        while let Some(e) = cur {
            walked.push(e.key.clone());
            cur = tree.next(&pool, e.loc).unwrap();
        }
        let expect: Vec<Vec<u8>> = model.keys().cloned().collect();
        prop_assert_eq!(walked, expect);
    }
}
