//! The naive baselines of Section 4.1 / 5.1.
//!
//! Both store, for every keyword, an entry for **every element that
//! contains the keyword — ancestors included**. [`NaiveIdIndex`] sorts by
//! element id and answers queries with an equality merge-join;
//! [`NaiveRankIndex`] sorts by ElemRank and pairs the lists with a paged
//! hash index on `(term, element id)` so a Threshold-Algorithm evaluation
//! can probe for the other keywords ("a hash-index is sufficient" since
//! ancestor ids are explicit and no common-prefix computation is needed).

use crate::listio::{self, ListInfo, ListMeta, ListReader, NaiveCodec};
use crate::posting::{self, NaivePosting};
use crate::SpaceBreakdown;
use xrank_graph::{ElemId, TermId};
use xrank_storage::hash::HashIndex;
use xrank_storage::{BufferPool, PageStore, SegmentId, StorageResult, PAGE_SIZE};

/// Composite hash key: term in the high half, element id in the low half.
fn hash_key(term: TermId, elem: ElemId) -> u64 {
    ((term.0 as u64) << 32) | elem as u64
}

/// Naive-ID: element-id-ordered lists with replicated ancestors.
#[derive(Debug)]
pub struct NaiveIdIndex {
    /// Segment holding the lists.
    pub segment: SegmentId,
    lists: Vec<Option<ListInfo>>,
}

impl NaiveIdIndex {
    /// Bulk-builds from [`crate::extract::naive_postings`] output (element-
    /// id ascending per term).
    pub fn build<S: PageStore>(
        pool: &mut BufferPool<S>,
        postings: &[Vec<NaivePosting>],
    ) -> StorageResult<NaiveIdIndex> {
        Self::build_with(pool, postings, PAGE_SIZE)
    }

    /// As [`NaiveIdIndex::build`] with an explicit per-page byte budget.
    pub fn build_with<S: PageStore>(
        pool: &mut BufferPool<S>,
        postings: &[Vec<NaivePosting>],
        page_budget: usize,
    ) -> StorageResult<NaiveIdIndex> {
        let segment = pool.store_mut().create_segment()?;
        let mut lists = Vec::with_capacity(postings.len());
        for list in postings {
            if list.is_empty() {
                lists.push(None);
            } else {
                debug_assert!(list.windows(2).all(|w| w[0].elem < w[1].elem));
                lists.push(Some(listio::write_list(
                    pool,
                    segment,
                    NaiveCodec { delta: true },
                    list,
                    page_budget,
                )?));
            }
        }
        Ok(NaiveIdIndex { segment, lists })
    }

    /// Metadata of a term's list.
    pub fn meta(&self, term: TermId) -> Option<ListMeta> {
        self.info(term).map(|i| i.meta)
    }

    /// Full list descriptor of a term.
    pub fn info(&self, term: TermId) -> Option<&ListInfo> {
        self.lists.get(term.index()).and_then(|i| i.as_ref())
    }

    /// Streaming reader (element-id order).
    pub fn reader(&self, term: TermId) -> Option<ListReader<NaiveCodec>> {
        self.info(term)
            .map(|info| ListReader::new(self.segment, info, NaiveCodec { delta: true }))
    }

    /// Serializes the index directory.
    pub fn write_meta<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        xrank_storage::wire::put_u32(w, self.segment.0)?;
        listio::write_list_table(w, &self.lists)
    }

    /// Deserializes a directory written by [`NaiveIdIndex::write_meta`].
    pub fn read_meta<R: std::io::Read>(r: &mut R) -> std::io::Result<NaiveIdIndex> {
        Ok(NaiveIdIndex {
            segment: SegmentId(xrank_storage::wire::get_u32(r)?),
            lists: listio::read_list_table(r)?,
        })
    }

    /// Table 1 space: lists only (byte-granular).
    pub fn space<S: PageStore>(&self, _pool: &BufferPool<S>) -> SpaceBreakdown {
        SpaceBreakdown {
            list_bytes: self.lists.iter().flatten().map(|i| i.meta.used_bytes).sum(),
            index_bytes: 0,
        }
    }
}

/// Naive-Rank: rank-ordered replicated lists + hash index for membership
/// probes.
#[derive(Debug)]
pub struct NaiveRankIndex {
    /// Segment holding the lists.
    pub segment: SegmentId,
    lists: Vec<Option<ListInfo>>,
    /// `(term, elem)` → payload hash index.
    pub hash: HashIndex,
}

impl NaiveRankIndex {
    /// Bulk-builds from [`crate::extract::naive_postings`] output.
    pub fn build<S: PageStore>(
        pool: &mut BufferPool<S>,
        postings: &[Vec<NaivePosting>],
    ) -> StorageResult<NaiveRankIndex> {
        Self::build_with(pool, postings, PAGE_SIZE)
    }

    /// As [`NaiveRankIndex::build`] with an explicit per-page byte budget.
    pub fn build_with<S: PageStore>(
        pool: &mut BufferPool<S>,
        postings: &[Vec<NaivePosting>],
        page_budget: usize,
    ) -> StorageResult<NaiveRankIndex> {
        let segment = pool.store_mut().create_segment()?;
        let mut lists = Vec::with_capacity(postings.len());
        let mut hash_entries: Vec<(u64, Vec<u8>)> = Vec::new();
        for (term, list) in postings.iter().enumerate() {
            if list.is_empty() {
                lists.push(None);
                continue;
            }
            let mut by_rank = list.clone();
            by_rank.sort_by(|a, b| b.rank.total_cmp(&a.rank).then(a.elem.cmp(&b.elem)));
            lists.push(Some(listio::write_list(
                pool,
                segment,
                NaiveCodec { delta: false },
                &by_rank,
                page_budget,
            )?));
            for p in list {
                let mut value = Vec::new();
                posting::encode_payload(p.rank, &p.positions, &mut value);
                hash_entries.push((hash_key(TermId(term as u32), p.elem), value));
            }
        }
        let hash = HashIndex::build(pool, &hash_entries)?;
        Ok(NaiveRankIndex { segment, lists, hash })
    }

    /// Metadata of a term's list.
    pub fn meta(&self, term: TermId) -> Option<ListMeta> {
        self.info(term).map(|i| i.meta)
    }

    /// Full list descriptor of a term.
    pub fn info(&self, term: TermId) -> Option<&ListInfo> {
        self.lists.get(term.index()).and_then(|i| i.as_ref())
    }

    /// Streaming reader (rank order).
    pub fn reader(&self, term: TermId) -> Option<ListReader<NaiveCodec>> {
        self.info(term)
            .map(|info| ListReader::new(self.segment, info, NaiveCodec { delta: false }))
    }

    /// Membership probe: does `elem` appear in `term`'s list? Returns the
    /// entry's rank and positions.
    pub fn lookup<S: PageStore>(
        &self,
        pool: &BufferPool<S>,
        term: TermId,
        elem: ElemId,
    ) -> StorageResult<Option<(f32, Vec<u32>)>> {
        let Some(value) = self.hash.get(pool, hash_key(term, elem))? else {
            return Ok(None);
        };
        let (rank, positions, _) = posting::decode_payload(&value)
            .map_err(|e| xrank_storage::StorageError::corrupt(format!("naive hash payload: {e}")))?;
        Ok(Some((rank, positions)))
    }

    /// Serializes the index directory.
    pub fn write_meta<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        use xrank_storage::wire::put_u32;
        put_u32(w, self.segment.0)?;
        listio::write_list_table(w, &self.lists)?;
        put_u32(w, self.hash.segment.0)?;
        put_u32(w, self.hash.n_buckets)?;
        put_u32(w, self.hash.dir_start)
    }

    /// Deserializes a directory written by [`NaiveRankIndex::write_meta`].
    pub fn read_meta<R: std::io::Read>(r: &mut R) -> std::io::Result<NaiveRankIndex> {
        use xrank_storage::wire::get_u32;
        Ok(NaiveRankIndex {
            segment: SegmentId(get_u32(r)?),
            lists: listio::read_list_table(r)?,
            hash: HashIndex {
                segment: SegmentId(get_u32(r)?),
                n_buckets: get_u32(r)?,
                dir_start: get_u32(r)?,
            },
        })
    }

    /// Table 1 space: lists (byte-granular) + hash index (page-granular).
    pub fn space<S: PageStore>(&self, pool: &BufferPool<S>) -> SpaceBreakdown {
        SpaceBreakdown {
            list_bytes: self.lists.iter().flatten().map(|i| i.meta.used_bytes).sum(),
            index_bytes: self.hash.total_pages(pool) as u64 * PAGE_SIZE as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::{direct_postings, naive_postings};
    use xrank_graph::CollectionBuilder;
    use xrank_storage::MemStore;

    fn build() -> (
        BufferPool<MemStore>,
        NaiveIdIndex,
        NaiveRankIndex,
        xrank_graph::Collection,
    ) {
        let mut b = CollectionBuilder::new();
        b.add_xml_str(
            "d",
            "<proc><paper><title>xql nodes</title><body>deep <sec>xql here</sec></body></paper></proc>",
        )
        .unwrap();
        let c = b.build();
        let scores: Vec<f64> = (0..c.element_count()).map(|i| 1.0 / (i + 1) as f64).collect();
        let naive = naive_postings(&c, &scores);
        let mut pool = BufferPool::new(MemStore::new(), 1024);
        let id_idx = NaiveIdIndex::build(&mut pool, &naive).unwrap();
        let rank_idx = NaiveRankIndex::build(&mut pool, &naive).unwrap();
        (pool, id_idx, rank_idx, c)
    }

    #[test]
    fn id_lists_include_ancestors_in_order() {
        let (pool, idx, _, c) = build();
        let term = c.vocabulary().lookup("xql").unwrap();
        let mut r = idx.reader(term).unwrap();
        let mut elems = Vec::new();
        while let Some(p) = r.next(&pool).unwrap() {
            elems.push(p.elem);
        }
        // xql is in <title> and <sec>; ancestors proc, paper, body, plus
        // the two direct containers → at least 5 entries.
        assert!(elems.len() >= 5, "got {elems:?}");
        let mut sorted = elems.clone();
        sorted.sort_unstable();
        assert_eq!(elems, sorted);
        assert_eq!(elems[0], 0, "root contains everything");
    }

    #[test]
    fn rank_lists_descend() {
        let (pool, _, idx, c) = build();
        let term = c.vocabulary().lookup("xql").unwrap();
        let mut r = idx.reader(term).unwrap();
        let mut prev = f32::INFINITY;
        while let Some(p) = r.next(&pool).unwrap() {
            assert!(p.rank <= prev);
            prev = p.rank;
        }
    }

    #[test]
    fn hash_lookup_finds_members_only() {
        let (pool, _, idx, c) = build();
        let term = c.vocabulary().lookup("xql").unwrap();
        // Root (elem 0) contains xql.
        let (rank, positions) = idx.lookup(&pool, term, 0).unwrap().unwrap();
        assert!(rank > 0.0);
        assert_eq!(positions.len(), 2);
        // The <title> element's direct posting has one position.
        let title = c
            .elements()
            .find(|(_, e)| &*e.name == "title")
            .map(|(id, _)| id)
            .unwrap();
        let (_, tpos) = idx.lookup(&pool, term, title).unwrap().unwrap();
        assert_eq!(tpos.len(), 1);
        // An element not containing xql misses.
        let nodes_term = c.vocabulary().lookup("nodes").unwrap();
        let sec = c
            .elements()
            .find(|(_, e)| &*e.name == "sec")
            .map(|(id, _)| id)
            .unwrap();
        assert!(idx.lookup(&pool, nodes_term, sec).unwrap().is_none());
    }

    #[test]
    fn naive_space_exceeds_dil_space() {
        let (_, id_idx, _, c) = build();
        let scores: Vec<f64> = (0..c.element_count()).map(|i| 1.0 / (i + 1) as f64).collect();
        let mut pool2 = BufferPool::new(MemStore::new(), 1024);
        let dil = crate::DilIndex::build(&mut pool2, &direct_postings(&c, &scores)).unwrap();
        // entry counts are the honest comparison at tiny scale (page
        // rounding hides byte differences)
        let naive_entries: u64 = c
            .vocabulary()
            .iter()
            .filter_map(|(t, _)| id_idx.meta(t))
            .map(|m| m.entry_count as u64)
            .sum();
        assert!(naive_entries > dil.total_entries());
    }
}
