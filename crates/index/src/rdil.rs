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
use crate::posting::{self, Posting};
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
    /// forward seeks on a pinned leaf instead of a root descent each.
    pub fn probe_cursor(&self, term: TermId) -> RdilProbeCursor {
        let mut term_key = Vec::new();
        codec::write_component(term.0, &mut term_key);
        RdilProbeCursor { term_key, key: Vec::new(), cursor: self.tree.cursor(), decoded: 0 }
    }

    /// All postings of `term` whose Dewey has `prefix` as a prefix — the
    /// "range scan over btree[i]" of Figure 7 line 19.
    pub fn prefix_postings<S: PageStore>(
        &self,
        pool: &BufferPool<S>,
        term: TermId,
        prefix: &DeweyId,
    ) -> StorageResult<Vec<Posting>> {
        let low = posting::composite_key(term.0, prefix);
        let high = match prefix.subtree_upper_bound() {
            Some(ub) => posting::composite_key(term.0, &ub),
            None => posting::composite_key(term.0 + 1, &DeweyId::default()),
        };
        Ok(self
            .tree
            .range(pool, &low, &high)?
            .into_iter()
            .filter_map(|e| decode_tree_entry(term, &e.key, &e.value))
            .collect())
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
/// re-descending from the root. An answer is the Dewey ID decoded from the
/// entry's key, read in place on the pinned leaf; the payload (rank and
/// positions) is never decoded — Figure 7 reads only the common prefix.
#[derive(Debug, Clone)]
pub struct RdilProbeCursor {
    /// The term's composite-key prefix (its ordered-varint id). The code
    /// is prefix-free, so a key starts with it exactly when it is `term`'s.
    term_key: Vec<u8>,
    /// Reused probe-key buffer: `term_key` then the target's encoding.
    key: Vec<u8>,
    cursor: TreeCursor,
    decoded: u64,
}

impl RdilProbeCursor {
    /// Seek-forward / re-descent counters since the cursor was opened.
    pub fn stats(&self) -> CursorStats {
        self.cursor.stats()
    }

    /// Tree keys decoded into Dewey IDs by the probes so far (the leaf
    /// search itself compares encoded keys and decodes nothing).
    pub fn postings_decoded(&self) -> u64 {
        self.decoded
    }

    /// The smallest Dewey ID ≥ `target` in the term's list, and its
    /// predecessor; `None` past either end of the term's key space.
    pub fn lowest_geq<S: PageStore>(
        &mut self,
        pool: &BufferPool<S>,
        target: &DeweyId,
    ) -> StorageResult<(Option<DeweyId>, Option<DeweyId>)> {
        self.key.clear();
        self.key.extend_from_slice(&self.term_key);
        codec::encode_id_into(target, &mut self.key);
        let term_key = self.term_key.as_slice();
        let (entry, pred) = self.cursor.seek_geq_by(pool, &self.key, |leaf, loc| {
            match leaf.key(loc.slot as usize)?.strip_prefix(term_key) {
                Some(dewey) => codec::decode_id(dewey)
                    .map(Some)
                    .map_err(|e| StorageError::corrupt(format!("RDIL tree key: {e}"))),
                None => Ok(None),
            }
        })?;
        let (entry, pred) = (entry.flatten(), pred.flatten());
        self.decoded += entry.is_some() as u64 + pred.is_some() as u64;
        Ok((entry, pred))
    }
}

fn decode_tree_entry(term: TermId, key: &[u8], value: &[u8]) -> Option<Posting> {
    let (entry_term, dewey) = posting::split_composite_key(key).ok()?;
    if entry_term != term.0 {
        return None;
    }
    let (rank, positions, _) = posting::decode_payload(value).ok()?;
    Some(Posting { elem: 0, dewey, rank, positions })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::direct_postings;
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
    fn prefix_postings_scans_subtrees() {
        let (pool, idx, c) = build();
        let term = c.vocabulary().lookup("ricardo").unwrap();
        // Whole document prefix: both occurrences.
        let all = idx.prefix_postings(&pool, term, &DeweyId::from([0])).unwrap();
        assert_eq!(all.len(), 2);
        // First paper subtree only.
        let first_paper = idx.prefix_postings(&pool, term, &DeweyId::from([0, 0, 0])).unwrap();
        assert_eq!(first_paper.len(), 1);
        // Foreign subtree: nothing.
        let none = idx.prefix_postings(&pool, term, &DeweyId::from([1])).unwrap();
        assert!(none.is_empty());
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
