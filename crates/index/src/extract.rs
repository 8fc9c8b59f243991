//! Posting extraction from a [`Collection`].
//!
//! [`direct_postings`] produces the DIL/RDIL/HDIL posting data: one entry
//! per (term, element that *directly* contains the term). Because elements
//! are iterated in `ElemId` order — which equals global Dewey order — each
//! term's postings come out already Dewey-sorted.
//!
//! [`naive_postings`] produces the naive baselines' data: one entry per
//! (term, element that directly **or indirectly** contains the term), i.e.
//! every ancestor is replicated with the union of its descendants'
//! position lists. This is precisely the space blowup Section 4.1 calls
//! out ("each inverted list would ... redundantly contain *all* of its
//! ancestors").

use crate::posting::{NaivePosting, Posting};
use std::collections::BTreeMap;
use xrank_graph::{Collection, ElemId, TermId};

/// Cap on positions stored per posting. An ancestor entry of the naive
/// scheme near the root of a large document unions *every* descendant
/// occurrence, and an element may repeat one word thousands of times in
/// its own text; unbounded, either would not fit a disk page. The first
/// `MAX_POSITIONS` document-order positions are kept — enough for the
/// proximity window of any query that would rank the entry meaningfully.
pub const MAX_POSITIONS: usize = 512;

/// How a posting's rank field is derived. The paper ranks by ElemRank but
/// notes its index structures and algorithms "are applicable to other ways
/// of ranking XML elements, such as those using text tf-idf measures"
/// (Section 4 intro; Section 7 lists tf-idf as future work) — this enum
/// realizes that extension point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RankWeighting {
    /// The element's ElemRank (paper default). Identical rank for every
    /// keyword of the element.
    ElemRank,
    /// Per-(term, element) tf-idf: `(1 + ln tf) · ln(1 + N_e / df)`,
    /// normalized to (0, 1] by the collection-wide maximum.
    TfIdf,
    /// Geometric blend: `ElemRank^alpha · TfIdf^(1-alpha)` (both
    /// max-normalized). `alpha = 1` ≡ ElemRank, `alpha = 0` ≡ TfIdf.
    Blend(f64),
}

/// Per-term postings for elements that directly contain the term, in Dewey
/// order. Indexed by `TermId::index()`; terms that never occur have empty
/// lists.
pub fn direct_postings(collection: &Collection, scores: &[f64]) -> Vec<Vec<Posting>> {
    direct_postings_weighted(collection, scores, RankWeighting::ElemRank)
}

/// As [`direct_postings`] with an explicit rank source.
pub fn direct_postings_weighted(
    collection: &Collection,
    scores: &[f64],
    weighting: RankWeighting,
) -> Vec<Vec<Posting>> {
    let mut lists: Vec<Vec<Posting>> = vec![Vec::new(); collection.vocabulary().len()];
    for (id, elem) in collection.elements() {
        if elem.tokens.is_empty() {
            continue;
        }
        // Group this element's tokens by term, positions ascending (token
        // order is document order, so they arrive ascending).
        let mut by_term: BTreeMap<TermId, Vec<u32>> = BTreeMap::new();
        for t in &elem.tokens {
            by_term.entry(t.term).or_default().push(t.pos);
        }
        for (term, positions) in by_term {
            lists[term.index()].push(Posting {
                elem: id,
                dewey: elem.dewey.clone(),
                rank: scores[id as usize] as f32,
                positions,
            });
        }
    }
    match weighting {
        RankWeighting::ElemRank => {}
        RankWeighting::TfIdf => apply_weighting(&mut lists, collection, scores, 0.0),
        RankWeighting::Blend(alpha) => {
            apply_weighting(&mut lists, collection, scores, alpha.clamp(0.0, 1.0))
        }
    }
    // Only now: tf-idf above reads the full occurrence count.
    for p in lists.iter_mut().flatten() {
        p.positions.truncate(MAX_POSITIONS);
    }
    lists
}

/// Rewrites posting ranks as the `alpha`-blend of max-normalized ElemRank
/// and tf-idf (`alpha = 0` ⇒ pure tf-idf).
fn apply_weighting(
    lists: &mut [Vec<Posting>],
    collection: &Collection,
    scores: &[f64],
    alpha: f64,
) {
    let n_elements = collection.element_count().max(1) as f64;
    let max_elemrank = scores.iter().cloned().fold(f64::MIN_POSITIVE, f64::max);
    // Pass 1: raw tf-idf, tracking the maximum for normalization.
    let mut max_tfidf = f64::MIN_POSITIVE;
    for list in lists.iter() {
        let df = list.len().max(1) as f64;
        let idf = (1.0 + n_elements / df).ln();
        for p in list {
            let tf = p.positions.len() as f64;
            max_tfidf = max_tfidf.max((1.0 + tf.ln()) * idf);
        }
    }
    // Pass 2: blended, normalized ranks.
    for list in lists.iter_mut() {
        let df = list.len().max(1) as f64;
        let idf = (1.0 + n_elements / df).ln();
        for p in list.iter_mut() {
            let tf = p.positions.len() as f64;
            let tfidf = ((1.0 + tf.ln()) * idf / max_tfidf).max(f64::MIN_POSITIVE);
            let er = (scores[p.elem as usize] / max_elemrank).max(f64::MIN_POSITIVE);
            p.rank = (er.powf(alpha) * tfidf.powf(1.0 - alpha)) as f32;
        }
    }
}

/// Per-term postings with ancestors replicated (the naive scheme), sorted
/// by element id. Each entry's rank is the *entry element's own* ElemRank —
/// the naive approach has no notion of result specificity (Section 4.1,
/// limitation 3).
pub fn naive_postings(collection: &Collection, scores: &[f64]) -> Vec<Vec<NaivePosting>> {
    // (term -> elem -> positions), using BTreeMap for deterministic order.
    let mut acc: Vec<BTreeMap<ElemId, Vec<u32>>> =
        vec![BTreeMap::new(); collection.vocabulary().len()];
    for (id, elem) in collection.elements() {
        if elem.tokens.is_empty() {
            continue;
        }
        let mut by_term: BTreeMap<TermId, Vec<u32>> = BTreeMap::new();
        for t in &elem.tokens {
            by_term.entry(t.term).or_default().push(t.pos);
        }
        for (term, positions) in by_term {
            // Credit the element and every ancestor.
            let mut cur = Some(id);
            while let Some(e) = cur {
                acc[term.index()]
                    .entry(e)
                    .or_default()
                    .extend_from_slice(&positions);
                cur = collection.element(e).parent;
            }
        }
    }
    acc.into_iter()
        .map(|by_elem| {
            by_elem
                .into_iter()
                .map(|(elem, mut positions)| {
                    positions.sort_unstable();
                    positions.dedup();
                    positions.truncate(MAX_POSITIONS);
                    NaivePosting { elem, rank: scores[elem as usize] as f32, positions }
                })
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrank_graph::CollectionBuilder;

    fn sample() -> (Collection, Vec<f64>) {
        let mut b = CollectionBuilder::new();
        b.add_xml_str(
            "d",
            "<root><paper><title>xql nodes</title><body>xql here</body></paper></root>",
        )
        .unwrap();
        let c = b.build();
        let n = c.element_count();
        (c, vec![1.0 / n as f64; n])
    }

    fn term(c: &Collection, s: &str) -> usize {
        c.vocabulary().lookup(s).unwrap().index()
    }

    #[test]
    fn direct_postings_only_direct_containers() {
        let (c, scores) = sample();
        let lists = direct_postings(&c, &scores);
        let xql = &lists[term(&c, "xql")];
        // 'xql' occurs directly in <title> and <body>, not in ancestors.
        assert_eq!(xql.len(), 2);
        let names: Vec<&str> = xql.iter().map(|p| &*c.element(p.elem).name).collect();
        assert_eq!(names, vec!["title", "body"]);
        // Dewey order.
        assert!(xql[0].dewey < xql[1].dewey);
    }

    #[test]
    fn naive_postings_replicate_ancestors() {
        let (c, scores) = sample();
        let lists = naive_postings(&c, &scores);
        let xql = &lists[term(&c, "xql")];
        // root, paper, title, body all "contain" xql → 4 entries.
        assert_eq!(xql.len(), 4);
        // ancestor entries union descendant positions
        let root_entry = &xql[0];
        assert_eq!(root_entry.elem, 0);
        assert_eq!(root_entry.positions.len(), 2);
        // element-id (= Dewey) order
        let ids: Vec<_> = xql.iter().map(|p| p.elem).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);
    }

    #[test]
    fn naive_is_strictly_larger() {
        let (c, scores) = sample();
        let direct: usize = direct_postings(&c, &scores).iter().map(|l| l.len()).sum();
        let naive: usize = naive_postings(&c, &scores).iter().map(|l| l.len()).sum();
        assert!(naive > direct, "naive {naive} should exceed direct {direct}");
    }

    #[test]
    fn multiple_occurrences_in_one_element_collapse_to_one_posting() {
        let mut b = CollectionBuilder::new();
        b.add_xml_str("d", "<t>dup word dup word dup</t>").unwrap();
        let c = b.build();
        let scores = vec![1.0];
        let lists = direct_postings(&c, &scores);
        let dup = &lists[term(&c, "dup")];
        assert_eq!(dup.len(), 1);
        assert_eq!(dup[0].positions.len(), 3);
        let mut asc = dup[0].positions.clone();
        asc.sort_unstable();
        assert_eq!(asc, dup[0].positions, "positions ascending");
    }

    #[test]
    fn direct_positions_are_capped_after_tf_is_read() {
        let mut b = CollectionBuilder::new();
        let many = "zero ".repeat(6000);
        b.add_xml_str("d", &format!("<doc><p>{many}</p><q>{}</q></doc>", "zero ".repeat(600)))
            .unwrap();
        let c = b.build();
        let scores = vec![1.0 / c.element_count() as f64; c.element_count()];
        let zero = term(&c, "zero");
        for weighting in [RankWeighting::ElemRank, RankWeighting::TfIdf] {
            let lists = direct_postings_weighted(&c, &scores, weighting);
            let lens: Vec<usize> = lists[zero].iter().map(|p| p.positions.len()).collect();
            assert_eq!(lens, [MAX_POSITIONS, MAX_POSITIONS]);
        }
        // 6 000 occurrences still outrank 600 under tf-idf: the cap did
        // not flatten tf.
        let tfidf = direct_postings_weighted(&c, &scores, RankWeighting::TfIdf);
        assert!(tfidf[zero][0].rank > tfidf[zero][1].rank);
    }

    #[test]
    fn tfidf_weighting_favors_term_density_and_rarity() {
        let mut b = CollectionBuilder::new();
        b.add_xml_str(
            "d",
            "<r><dense>rare rare rare rare</dense><sparse>rare filler</sparse>\
             <common1>filler</common1><common2>filler</common2></r>",
        )
        .unwrap();
        let c = b.build();
        let scores = vec![1.0 / c.element_count() as f64; c.element_count()];
        let lists = direct_postings_weighted(&c, &scores, RankWeighting::TfIdf);
        let rare = &lists[term(&c, "rare")];
        assert_eq!(rare.len(), 2);
        // 4 occurrences beat 1 occurrence (tf)
        assert!(rare[0].rank > rare[1].rank, "tf should raise the dense element");
        // rare term beats common term at equal tf (idf)
        let filler = &lists[term(&c, "filler")];
        let rare_single = rare[1].rank;
        let filler_single = filler.iter().map(|p| p.rank).fold(f32::MIN, f32::max);
        assert!(rare_single > filler_single, "idf should favor the rarer term");
        // normalized into (0, 1]
        assert!(rare[0].rank <= 1.0 && rare[0].rank > 0.0);
    }

    #[test]
    fn blend_interpolates_between_sources() {
        let (c, mut scores) = sample();
        // make ElemRank wildly uneven so the blend direction is visible
        for (i, s) in scores.iter_mut().enumerate() {
            *s = 1.0 / (i + 1) as f64;
        }
        let er = direct_postings_weighted(&c, &scores, RankWeighting::Blend(1.0));
        let ti = direct_postings_weighted(&c, &scores, RankWeighting::Blend(0.0));
        let pure_ti = direct_postings_weighted(&c, &scores, RankWeighting::TfIdf);
        let t = term(&c, "xql");
        // alpha = 0 equals pure tf-idf
        for (a, b) in ti[t].iter().zip(pure_ti[t].iter()) {
            assert!((a.rank - b.rank).abs() < 1e-6);
        }
        // alpha = 1 preserves ElemRank *order*
        let order_er: Vec<_> = er[t].iter().map(|p| p.rank.total_cmp(&er[t][0].rank)).collect();
        let raw: Vec<f32> = er[t].iter().map(|p| scores[p.elem as usize] as f32).collect();
        let order_raw: Vec<_> = raw.iter().map(|r| r.total_cmp(&raw[0])).collect();
        assert_eq!(order_er, order_raw);
    }

    #[test]
    fn tag_name_tokens_are_indexed() {
        let (c, scores) = sample();
        let lists = direct_postings(&c, &scores);
        let title = &lists[term(&c, "title")];
        assert_eq!(title.len(), 1, "the tag name itself is a posting");
    }
}
