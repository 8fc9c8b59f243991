//! The Ranked Dewey Inverted List (RDIL) — paper, Section 4.3.
//!
//! Lists are ordered by ElemRank (descending) so that top-ranked entries
//! surface first, and each keyword additionally has a B+-tree on the Dewey
//! ID for the longest-common-prefix probes of Figure 7. Following the
//! Section 4.3.1 space note ("we store multiple B+-trees (over short
//! inverted lists) on the same disk page"), all per-keyword trees are
//! realized as **one** B+-tree over the composite key `(term, dewey)` —
//! equivalent to per-term trees with perfect page sharing.

use crate::listio::{self, ListInfo, ListMeta, ListReader, PostingCodec};
use crate::posting::{self, Posting, PostingRun};
use crate::SpaceBreakdown;
use xrank_dewey::{codec, DeweyId};
use xrank_graph::TermId;
use xrank_storage::btree::{CursorStats, SortedKv, SortedKvBuilder, TreeCursor};
use xrank_storage::{BufferPool, PageStore, SegmentId, StorageError, StorageResult, PAGE_SIZE};

/// A built RDIL: rank-ordered lists + the composite Dewey B+-tree.
#[derive(Debug)]
pub struct RdilIndex {
    /// Segment holding the rank-ordered lists.
    pub segment: SegmentId,
    lists: Vec<Option<ListInfo>>,
    /// Composite `(term, dewey) → payload` B+-tree.
    pub tree: SortedKv,
}

/// Sorts postings the way RDIL lists are laid out: ElemRank descending,
/// Dewey ascending on ties (deterministic).
pub fn rank_order(postings: &mut [Posting]) {
    postings.sort_by(|a, b| b.rank.total_cmp(&a.rank).then_with(|| a.dewey.cmp(&b.dewey)));
}

impl RdilIndex {
    /// Bulk-builds from per-term Dewey-sorted postings.
    pub fn build<S: PageStore>(
        pool: &mut BufferPool<S>,
        postings: &[Vec<Posting>],
    ) -> StorageResult<RdilIndex> {
        Self::build_with(pool, postings, PAGE_SIZE)
    }

    /// As [`RdilIndex::build`] with an explicit per-page byte budget for
    /// the rank-ordered lists (the B+-tree keeps full pages; probe costs
    /// are unaffected by the scale-emulation knob).
    pub fn build_with<S: PageStore>(
        pool: &mut BufferPool<S>,
        postings: &[Vec<Posting>],
        page_budget: usize,
    ) -> StorageResult<RdilIndex> {
        let segment = pool.store_mut().create_segment()?;
        let mut lists = Vec::with_capacity(postings.len());
        for term_postings in postings {
            if term_postings.is_empty() {
                lists.push(None);
                continue;
            }
            let mut by_rank = term_postings.clone();
            rank_order(&mut by_rank);
            lists.push(Some(listio::write_list(
                pool,
                segment,
                PostingCodec,
                &by_rank,
                page_budget,
            )?));
        }

        // Composite B+-tree: terms ascending, Dewey ascending within each —
        // exactly the iteration order of `postings`. The leaf level shares
        // the scale-emulation budget so probe costs scale with the lists.
        let mut builder = SortedKvBuilder::with_leaf_budget(pool, page_budget)?;
        let mut value = Vec::new();
        for (term, term_postings) in postings.iter().enumerate() {
            for p in term_postings {
                value.clear();
                posting::encode_payload(p.rank, &p.positions, &mut value);
                builder.push(&posting::composite_key(term as u32, &p.dewey), &value)?;
            }
        }
        let tree = builder.finish()?;
        Ok(RdilIndex { segment, lists, tree })
    }

    /// Metadata of a term's rank-ordered list.
    pub fn meta(&self, term: TermId) -> Option<ListMeta> {
        self.info(term).map(|i| i.meta)
    }

    /// Full list info (meta + skip table).
    pub fn info(&self, term: TermId) -> Option<&ListInfo> {
        self.lists.get(term.index()).and_then(|i| i.as_ref())
    }

    /// Streaming reader over a term's list (rank order).
    pub fn reader(&self, term: TermId) -> Option<ListReader> {
        self.info(term)
            .map(|info| ListReader::new(self.segment, info, PostingCodec))
    }

    /// The Figure 7 probe (`getLongestCommonPrefix` building block): the
    /// smallest Dewey ID ≥ `target` in `term`'s list and its predecessor,
    /// both restricted to `term` — one probe of a fresh
    /// [`RdilProbeCursor`], so there is exactly one probe implementation.
    pub fn lowest_geq<S: PageStore>(
        &self,
        pool: &BufferPool<S>,
        term: TermId,
        target: &DeweyId,
    ) -> StorageResult<(Option<DeweyId>, Option<DeweyId>)> {
        self.probe_cursor(term).lowest_geq(pool, target)
    }

    /// Opens a stateful probe cursor for `term` — the hot-path form of
    /// [`RdilIndex::lowest_geq`]. One cursor per keyword, held across all
    /// TA rounds, turns the ~monotone probe sequence of Figure 7 into
    /// forward seeks on a pinned leaf instead of a root descent each, and
    /// starts the keyword's range scans from the same pinned leaf.
    pub fn probe_cursor(&self, term: TermId) -> RdilProbeCursor {
        let mut term_key = Vec::new();
        codec::write_component(term.0, &mut term_key);
        let key = term_key.clone();
        RdilProbeCursor { term_key, key, cursor: self.tree.cursor(), decoded: 0 }
    }

    /// Serializes the index directory.
    pub fn write_meta<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        use xrank_storage::wire::{put_u32, put_u64};
        put_u32(w, self.segment.0)?;
        listio::write_list_table(w, &self.lists)?;
        put_u32(w, self.tree.segment.0)?;
        put_u32(w, self.tree.leaf_count)?;
        put_u32(w, self.tree.interior.segment.0)?;
        put_u32(w, self.tree.interior.root)?;
        put_u32(w, self.tree.interior.height)?;
        put_u64(w, self.tree.entry_count)
    }

    /// Deserializes a directory written by [`RdilIndex::write_meta`].
    pub fn read_meta<R: std::io::Read>(r: &mut R) -> std::io::Result<RdilIndex> {
        use xrank_storage::btree::Interior;
        use xrank_storage::wire::{get_u32, get_u64};
        let segment = SegmentId(get_u32(r)?);
        let lists = listio::read_list_table(r)?;
        let tree_segment = SegmentId(get_u32(r)?);
        let leaf_count = get_u32(r)?;
        let interior = Interior {
            segment: SegmentId(get_u32(r)?),
            root: get_u32(r)?,
            height: get_u32(r)?,
        };
        let entry_count = get_u64(r)?;
        Ok(RdilIndex {
            segment,
            lists,
            tree: SortedKv { segment: tree_segment, leaf_count, interior, entry_count },
        })
    }

    /// Table 1 space: rank lists (byte-granular) + the composite B+-tree
    /// (page-granular — its pages are bulk-packed near full).
    pub fn space<S: PageStore>(&self, pool: &BufferPool<S>) -> SpaceBreakdown {
        SpaceBreakdown {
            list_bytes: self.lists.iter().flatten().map(|i| i.meta.used_bytes).sum(),
            index_bytes: self.tree.total_pages(pool) as u64 * PAGE_SIZE as u64,
        }
    }
}

/// A per-keyword stateful probe cursor over the composite B+-tree: a
/// [`TreeCursor`] whose answers are restricted to one term's key space.
/// Serves the TA loop's advancing probes from the pinned leaf instead of
/// re-descending from the root, and reads the answers there: a probe
/// compares the encoded Dewey suffix of each answering key with the
/// target's, component by component, and decodes no ID; the payload (rank
/// and positions) is read only by the range scans.
#[derive(Debug, Clone)]
pub struct RdilProbeCursor {
    /// The term's composite-key prefix (its ordered-varint id). The code
    /// is prefix-free, so a key starts with it exactly when it is `term`'s.
    term_key: Vec<u8>,
    /// Reused seek-key buffer: `term_key`, then the target's encoding.
    key: Vec<u8>,
    cursor: TreeCursor,
    decoded: u64,
}

impl RdilProbeCursor {
    /// Seek-forward / re-descent counters since the cursor was opened
    /// (range scans count one seek each).
    pub fn stats(&self) -> CursorStats {
        self.cursor.stats()
    }

    /// The term's answering keys the probes so far read (the leaf search
    /// itself compares encoded keys and reads none).
    pub fn postings_decoded(&self) -> u64 {
        self.decoded
    }

    /// Points the seek key at `target` within the term's key space.
    fn seek_key(&mut self, target: &DeweyId) {
        self.key.truncate(self.term_key.len());
        codec::encode_id_into(target, &mut self.key);
    }

    /// One seek for `target`, reading the Dewey suffix of the answer and
    /// of its predecessor with `read(suffix, target's encoding)` while the
    /// leaf is pinned; `None` for an answer outside the term's key space.
    fn probe<S: PageStore, T>(
        &mut self,
        pool: &BufferPool<S>,
        target: &DeweyId,
        read: impl Fn(&[u8], &[u8]) -> Result<T, codec::DecodeError>,
    ) -> StorageResult<(Option<T>, Option<T>)> {
        self.seek_key(target);
        let (term_key, key) = (self.term_key.as_slice(), self.key.as_slice());
        let target = &key[term_key.len()..];
        let (entry, pred) = self.cursor.seek_geq_by(pool, key, |leaf, loc| {
            match leaf.key(loc.slot as usize)?.strip_prefix(term_key) {
                Some(dewey) => read(dewey, target)
                    .map(Some)
                    .map_err(|e| StorageError::corrupt(format!("RDIL tree key: {e}"))),
                None => Ok(None),
            }
        })?;
        let (entry, pred) = (entry.flatten(), pred.flatten());
        self.decoded += entry.is_some() as u64 + pred.is_some() as u64;
        Ok((entry, pred))
    }

    /// The Figure 7 probe, reduced to the one number it reads: how many
    /// leading components `target` shares with the smallest Dewey ID
    /// `>= target` in the term's list or with that entry's predecessor,
    /// whichever shares more (Section 4.3.2: one of the two shares the
    /// longest prefix). An answer outside the term's key space shares
    /// nothing. Computed on the pinned leaf from the encoded keys; a key
    /// that does not decode is [`StorageError::Corrupt`].
    pub fn kept_prefix<S: PageStore>(
        &mut self,
        pool: &BufferPool<S>,
        target: &DeweyId,
    ) -> StorageResult<usize> {
        let (entry, pred) = self.probe(pool, target, codec::common_prefix_len)?;
        Ok(entry.unwrap_or(0).max(pred.unwrap_or(0)))
    }

    /// The smallest Dewey ID ≥ `target` in the term's list, and its
    /// predecessor; `None` past either end of the term's key space. The
    /// decoded form of [`RdilProbeCursor::kept_prefix`], kept as its
    /// oracle.
    pub fn lowest_geq<S: PageStore>(
        &mut self,
        pool: &BufferPool<S>,
        target: &DeweyId,
    ) -> StorageResult<(Option<DeweyId>, Option<DeweyId>)> {
        self.probe(pool, target, |dewey, _| codec::decode_id(dewey))
    }

    /// The "range scan over btree[i]" of Figure 7 line 19: every posting
    /// of the term whose Dewey ID has `prefix` as a prefix, in Dewey order,
    /// decoded into `out`'s kept slots. A walk from the cursor — no root
    /// descent when the subtree starts near the pinned leaf — that stops
    /// at the first key outside the subtree: the Dewey code is prefix-free
    /// per component, so a key lies in the subtree exactly when its bytes
    /// start with the prefix's. Returns the entries decoded.
    pub fn scan_prefix<S: PageStore>(
        &mut self,
        pool: &BufferPool<S>,
        prefix: &DeweyId,
        out: &mut PostingRun,
    ) -> StorageResult<u64> {
        self.seek_key(prefix);
        out.clear();
        let (low, dewey_at) = (self.key.as_slice(), self.term_key.len());
        let bad = |e| StorageError::corrupt(format!("RDIL tree entry: {e}"));
        self.cursor.walk_from(pool, low, |key, value| {
            if !key.starts_with(low) {
                return Ok(false);
            }
            let p = out.push_slot();
            codec::decode_id_into(&key[dewey_at..], p.dewey.components_mut()).map_err(bad)?;
            p.rank = posting::decode_payload_into(value, &mut p.positions).map_err(bad)?.0;
            p.elem = 0;
            Ok(true)
        })?;
        Ok(out.as_slice().len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::direct_postings;
    use proptest::prelude::*;
    use xrank_graph::CollectionBuilder;
    use xrank_storage::MemStore;

    fn build() -> (BufferPool<MemStore>, RdilIndex, xrank_graph::Collection) {
        let mut b = CollectionBuilder::new();
        b.add_xml_str(
            "d",
            "<proc>
               <paper><title>xql nodes</title><body>ricardo writes xql</body></paper>
               <paper><title>other topic</title><body>ricardo again</body></paper>
             </proc>",
        )
        .unwrap();
        let c = b.build();
        // Distinct, deterministic scores so rank order is testable.
        let scores: Vec<f64> = (0..c.element_count()).map(|i| 1.0 / (i + 1) as f64).collect();
        let postings = direct_postings(&c, &scores);
        let mut pool = BufferPool::new(MemStore::new(), 1024);
        let idx = RdilIndex::build(&mut pool, &postings).unwrap();
        (pool, idx, c)
    }

    #[test]
    fn lists_stream_in_rank_order() {
        let (pool, idx, c) = build();
        let term = c.vocabulary().lookup("ricardo").unwrap();
        let mut r = idx.reader(term).unwrap();
        let mut prev = f32::INFINITY;
        let mut count = 0;
        while let Some(p) = r.next(&pool).unwrap() {
            assert!(p.rank <= prev, "rank order violated");
            prev = p.rank;
            count += 1;
        }
        assert_eq!(count, 2);
    }

    #[test]
    fn lowest_geq_respects_term_boundaries() {
        let (pool, idx, c) = build();
        let xql = c.vocabulary().lookup("xql").unwrap();
        // Probe beyond all xql postings: entry must not leak into the next
        // term's key space.
        let (entry, pred) = idx.lowest_geq(&pool, xql, &DeweyId::from([99, 0])).unwrap();
        assert!(entry.is_none());
        assert!(pred.is_some(), "predecessor is xql's last posting");
        // Probe before all: predecessor must not leak backwards.
        let (entry, pred) = idx.lowest_geq(&pool, xql, &DeweyId::from([0])).unwrap();
        assert!(entry.is_some());
        // the predecessor, if any, must belong to this term
        if let Some(p) = pred {
            assert!(p.doc().is_some());
        }
    }

    #[test]
    fn lowest_geq_finds_exact_and_following() {
        let (pool, idx, c) = build();
        let term = c.vocabulary().lookup("xql").unwrap();
        // Find xql's first posting by probing the document root.
        let (entry, _) = idx.lowest_geq(&pool, term, &DeweyId::from([0])).unwrap();
        let first = entry.unwrap();
        // Probing exactly that Dewey returns it again.
        let (again, pred) = idx.lowest_geq(&pool, term, &first).unwrap();
        assert_eq!(again.unwrap(), first);
        assert!(pred.is_none() || pred.unwrap() < first);
    }

    #[test]
    fn scan_prefix_scans_subtrees() {
        let (pool, idx, c) = build();
        let term = c.vocabulary().lookup("ricardo").unwrap();
        let mut cur = idx.probe_cursor(term);
        let mut out = PostingRun::default();
        // Whole document prefix: both occurrences.
        assert_eq!(cur.scan_prefix(&pool, &DeweyId::from([0]), &mut out).unwrap(), 2);
        let all = out.as_slice().to_vec();
        assert_eq!(all.len(), 2);
        assert!(all.iter().all(|p| p.positions.len() == 1 && p.rank > 0.0), "{all:?}");
        // First paper subtree only, into the same slots.
        cur.scan_prefix(&pool, &DeweyId::from([0, 0, 0]), &mut out).unwrap();
        assert_eq!(out.as_slice(), &all[..1]);
        // Foreign subtree: nothing.
        assert_eq!(cur.scan_prefix(&pool, &DeweyId::from([1]), &mut out).unwrap(), 0);
        assert!(out.as_slice().is_empty());
    }

    /// A Dewey-sorted list of term 1 between two fence terms 0 and 2, in a
    /// composite tree with small leaves, so the list spans several and the
    /// neighbours sit on its first and last leaf.
    fn fenced(list: &[DeweyId]) -> (BufferPool<MemStore>, RdilIndex) {
        let postings = |ids: &[DeweyId]| -> Vec<Posting> {
            ids.iter()
                .enumerate()
                .map(|(i, d)| Posting {
                    elem: 0,
                    dewey: d.clone(),
                    rank: 1.0 / (i + 1) as f32,
                    positions: vec![i as u32, i as u32 + 3],
                })
                .collect()
        };
        let fence = [DeweyId::from([0]), DeweyId::from([3, 3]), DeweyId::from([9, 9, 9])];
        let mut pool = BufferPool::new(MemStore::new(), 256);
        let rdil = RdilIndex::build_with(
            &mut pool,
            &[postings(&fence), postings(list), postings(&fence)],
            256,
        )
        .unwrap();
        (pool, rdil)
    }

    /// A probe target, resolved against the generated list.
    #[derive(Debug, Clone)]
    enum Target {
        /// The `i % len`-th posting itself: the top of the gap below it.
        Posting(usize),
        /// Below the first posting.
        BelowFirst,
        /// Past the last posting.
        PastLast,
        /// Anywhere in (and around) the list's ID space.
        Any(DeweyId),
    }

    fn target() -> impl Strategy<Value = Target> {
        prop_oneof![
            3 => (0usize..1000).prop_map(Target::Posting),
            1 => Just(Target::BelowFirst),
            1 => Just(Target::PastLast),
            4 => proptest::collection::vec(0u32..6, 0..5)
                .prop_map(|c| Target::Any(DeweyId::from_components(c))),
        ]
    }

    fn resolve(t: &Target, list: &[DeweyId]) -> DeweyId {
        match (t, list.first(), list.last()) {
            (Target::Posting(i), Some(_), _) => list[i % list.len()].clone(),
            (Target::BelowFirst, Some(first), _) => first.prefix(first.len() - 1),
            (Target::PastLast, _, Some(last)) => last.child(0),
            (Target::Any(d), _, _) => d.clone(),
            _ => DeweyId::from([1]),
        }
    }

    fn dewey_list() -> impl Strategy<Value = Vec<DeweyId>> {
        proptest::collection::btree_set(
            proptest::collection::vec(0u32..6, 1..5).prop_map(DeweyId::from_components),
            0..120,
        )
        .prop_map(|ids| ids.into_iter().collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// The prefix length a probe reads in place on the leaf is the one
        /// computed from the decoded answers of a fresh cursor — gap tops,
        /// targets below the first posting and past the last included, and
        /// the fence terms' keys on the list's first and last leaf never
        /// leak in. Range scans from the same cursor, interleaved, return
        /// the list's subtree under each target with payloads intact.
        #[test]
        fn kept_prefix_equals_decoded_prefix(
            list in dewey_list(),
            targets in proptest::collection::vec(target(), 1..60),
        ) {
            let (pool, rdil) = fenced(&list);
            let term = TermId(1);
            let mut cursor = rdil.probe_cursor(term);
            let mut run = PostingRun::default();
            for (i, t) in targets.iter().enumerate() {
                let target = resolve(t, &list);
                let (entry, pred) = rdil.probe_cursor(term).lowest_geq(&pool, &target).unwrap();
                let via = |id: Option<DeweyId>| id.map_or(0, |id| id.common_prefix_len(&target));
                let expect = via(entry).max(via(pred));
                prop_assert_eq!(cursor.kept_prefix(&pool, &target).unwrap(), expect, "at {}", target);
                if i % 3 == 0 {
                    cursor.scan_prefix(&pool, &target, &mut run).unwrap();
                    let under: Vec<&DeweyId> =
                        list.iter().filter(|d| target.is_ancestor_or_self_of(d)).collect();
                    let got: Vec<&DeweyId> = run.as_slice().iter().map(|p| &p.dewey).collect();
                    prop_assert_eq!(got, under, "scan under {}", target);
                    for p in run.as_slice() {
                        let at = list.binary_search(&p.dewey).unwrap();
                        prop_assert_eq!(&p.positions, &vec![at as u32, at as u32 + 3]);
                        prop_assert_eq!(p.rank, 1.0 / (at + 1) as f32);
                    }
                }
            }
        }
    }

    /// A flipped byte in a tree key reaches the probe as `Corrupt`, never
    /// as a panic or a silently wrong prefix length.
    #[test]
    fn damaged_tree_key_is_corrupt_through_kept_prefix() {
        let list: Vec<DeweyId> =
            (0..200u32).map(|i| DeweyId::from([1 + i / 40, 0, i % 40, 2])).collect();
        let (mut pool, rdil) = fenced(&list);
        let term = TermId(1);
        // The leaf and slot of term 1's last key; every byte of its Dewey
        // suffix is a one-byte component, so 0xFF there is no valid tag.
        let mut term_key = Vec::new();
        codec::write_component(term.0, &mut term_key);
        let (leaf, slot) = (0..rdil.tree.leaf_count)
            .flat_map(|leaf| {
                let view = rdil.tree.leaf_view(&pool, leaf).unwrap();
                (0..view.len())
                    .filter(|&s| view.key(s).unwrap().starts_with(&term_key))
                    .map(|s| (leaf, s))
                    .collect::<Vec<_>>()
            })
            .last()
            .unwrap();
        let id = xrank_storage::PageId::new(rdil.tree.segment, leaf);
        let mut page = pool.read(id).unwrap().to_vec();
        let start = u16::from_le_bytes([page[2 * slot], page[2 * slot + 1]]) as usize;
        let klen = u16::from_le_bytes([page[start], page[start + 1]]) as usize;
        page[start + 2 + klen - 1] = 0xFF;
        pool.write_page(id, &page).unwrap();

        let last = list.last().unwrap();
        let corrupt = |r: StorageResult<usize>| matches!(r, Err(StorageError::Corrupt { .. }));
        // Answered by the damaged key as the entry (the first two targets)
        // and as the predecessor (the third).
        for target in [last.clone(), last.child(0), DeweyId::from([99])] {
            assert!(corrupt(rdil.probe_cursor(term).kept_prefix(&pool, &target)), "at {target}");
            assert!(corrupt(rdil.probe_cursor(term).lowest_geq(&pool, &target).map(|_| 0)));
        }
        let mut run = PostingRun::default();
        assert!(matches!(
            rdil.probe_cursor(term).scan_prefix(&pool, &DeweyId::from([5]), &mut run),
            Err(StorageError::Corrupt { .. })
        ));
        // Keys away from the damage still answer.
        let first = &list[0];
        assert_eq!(rdil.probe_cursor(term).kept_prefix(&pool, first).unwrap(), first.len());
    }

    #[test]
    fn probe_cursor_agrees_with_fresh_probes() {
        let (pool, idx, c) = build();
        let term = c.vocabulary().lookup("xql").unwrap();
        let mut cur = idx.probe_cursor(term);
        let probes = [
            DeweyId::from([0]),
            DeweyId::from([0, 0, 0]),
            DeweyId::from([0, 0, 0, 1, 2]),
            DeweyId::from([0, 0, 0]), // backward seek
            DeweyId::from([99, 0]),
        ];
        for probe in &probes {
            let fresh = idx.lowest_geq(&pool, term, probe).unwrap();
            let seeked = cur.lowest_geq(&pool, probe).unwrap();
            assert_eq!(fresh, seeked, "cursor diverged at {probe}");
        }
        let s = cur.stats();
        assert_eq!(s.probes, probes.len() as u64);
        assert_eq!(s.probes, s.seeks_forward + s.seeks_backward + s.descents);
        assert!(s.descents >= 1, "first probe must descend");
    }

    #[test]
    fn space_reports_both_components() {
        let (pool, idx, _) = build();
        let s = idx.space(&pool);
        assert!(s.list_bytes > 0);
        assert!(s.index_bytes > 0, "RDIL stores explicit B+-tree pages");
    }
}
