//! The Dewey Inverted List (DIL) — paper, Section 4.2.
//!
//! For each keyword the list holds the Dewey IDs of the elements that
//! *directly* contain it, sorted by Dewey ID, each entry carrying the
//! element's ElemRank and the keyword's position list (Figure 4). Because
//! ancestors are implicit in the Dewey encoding, the list is much smaller
//! than the naive one — Table 1's headline result.

use crate::listio::{self, ListInfo, ListMeta, ListReader, PostingCodec};
use crate::posting::Posting;
use crate::SpaceBreakdown;
use xrank_graph::TermId;
use xrank_storage::{BufferPool, PageStore, SegmentId, StorageResult, PAGE_SIZE};

/// A built DIL: one Dewey-sorted list per term, packed into one segment.
#[derive(Debug)]
pub struct DilIndex {
    /// Segment holding every list.
    pub segment: SegmentId,
    lists: Vec<Option<ListInfo>>,
}

impl DilIndex {
    /// Bulk-builds from per-term Dewey-sorted postings (the output of
    /// [`crate::extract::direct_postings`]).
    pub fn build<S: PageStore>(
        pool: &mut BufferPool<S>,
        postings: &[Vec<Posting>],
    ) -> StorageResult<DilIndex> {
        Self::build_with(pool, postings, PAGE_SIZE)
    }

    /// As [`DilIndex::build`] with an explicit per-page byte budget (the
    /// experiment harness's dataset-scale emulation knob; see
    /// [`crate::listio::write_list`]).
    pub fn build_with<S: PageStore>(
        pool: &mut BufferPool<S>,
        postings: &[Vec<Posting>],
        page_budget: usize,
    ) -> StorageResult<DilIndex> {
        let segment = pool.store_mut().create_segment()?;
        let mut lists = Vec::with_capacity(postings.len());
        for term_postings in postings {
            if term_postings.is_empty() {
                lists.push(None);
                continue;
            }
            debug_assert!(
                term_postings.windows(2).all(|w| w[0].dewey < w[1].dewey),
                "DIL postings must be strictly Dewey-ascending"
            );
            lists.push(Some(listio::write_list(
                pool,
                segment,
                PostingCodec,
                term_postings,
                page_budget,
            )?));
        }
        Ok(DilIndex { segment, lists })
    }

    /// Metadata of a term's list.
    pub fn meta(&self, term: TermId) -> Option<ListMeta> {
        self.info(term).map(|i| i.meta)
    }

    /// Full list info (meta + skip table) of a term's list.
    pub fn info(&self, term: TermId) -> Option<&ListInfo> {
        self.lists.get(term.index()).and_then(|i| i.as_ref())
    }

    /// Streaming reader over a term's list (Dewey order).
    pub fn reader(&self, term: TermId) -> Option<ListReader> {
        self.info(term)
            .map(|info| ListReader::new(self.segment, info, PostingCodec))
    }

    /// Table 1 space: DIL is lists only. Byte-granular (page padding
    /// excluded), like the filesystem-resident lists the paper measured.
    pub fn space<S: PageStore>(&self, _pool: &BufferPool<S>) -> SpaceBreakdown {
        SpaceBreakdown { list_bytes: self.used_bytes(), index_bytes: 0 }
    }

    /// Byte-granular size of all lists.
    pub fn used_bytes(&self) -> u64 {
        self.lists.iter().flatten().map(|i| i.meta.used_bytes).sum()
    }

    /// Serialized size of the skip tables of lists with more than one
    /// block — the part of the list directory that serves HDIL as the
    /// non-leaf levels of its per-keyword B+-trees.
    pub fn skip_index_bytes(&self) -> u64 {
        self.lists
            .iter()
            .flatten()
            .filter(|i| i.skip.blocks.len() > 1)
            .map(|i| i.skip.serialized_len())
            .sum()
    }

    /// Bytes the same postings would occupy uncompressed — every entry in
    /// the fixed-width layout the paper's C++ implementation stores (and
    /// the layout [`crate::listio::write_list`]'s budget knob
    /// emulates): a full `u32` per Dewey component plus a 4-byte
    /// rank, 4-byte position count and 4 bytes per position, no deltas,
    /// no varints, no block framing. This is the baseline the E8
    /// `storage_bytes` report measures the block format's compression
    /// ratio against. Scans every list, so it is a bench/diagnostic path,
    /// not a serving one.
    pub fn flat_bytes<S: PageStore>(&self, pool: &BufferPool<S>) -> StorageResult<u64> {
        let mut total = 0u64;
        for info in self.lists.iter().flatten() {
            let mut r = ListReader::new(self.segment, info, PostingCodec);
            while let Some(p) = r.next(pool)? {
                total += 4 * p.dewey.components().len() as u64
                    + 4
                    + 4
                    + 4 * p.positions.len() as u64;
            }
        }
        Ok(total)
    }

    /// Serializes the index directory (pages stay in the store).
    pub fn write_meta<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        xrank_storage::wire::put_u32(w, self.segment.0)?;
        listio::write_list_table(w, &self.lists)
    }

    /// Deserializes a directory written by [`DilIndex::write_meta`].
    pub fn read_meta<R: std::io::Read>(r: &mut R) -> std::io::Result<DilIndex> {
        Ok(DilIndex {
            segment: SegmentId(xrank_storage::wire::get_u32(r)?),
            lists: listio::read_list_table(r)?,
        })
    }

    /// Total posting count across all lists.
    pub fn total_entries(&self) -> u64 {
        self.lists
            .iter()
            .flatten()
            .map(|i| i.meta.entry_count as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::direct_postings;
    use xrank_graph::CollectionBuilder;
    use xrank_storage::MemStore;

    fn build() -> (BufferPool<MemStore>, DilIndex, xrank_graph::Collection) {
        let mut b = CollectionBuilder::new();
        b.add_xml_str(
            "d",
            "<proc><paper><title>xql nodes</title><body>xql appears here and xql again</body></paper></proc>",
        )
        .unwrap();
        let c = b.build();
        let scores = vec![0.25; c.element_count()];
        let postings = direct_postings(&c, &scores);
        let mut pool = BufferPool::new(MemStore::new(), 1024);
        let idx = DilIndex::build(&mut pool, &postings).unwrap();
        (pool, idx, c)
    }

    #[test]
    fn lists_stream_in_dewey_order() {
        let (pool, idx, c) = build();
        let term = c.vocabulary().lookup("xql").unwrap();
        let mut r = idx.reader(term).unwrap();
        let mut deweys = Vec::new();
        while let Some(p) = r.next(&pool).unwrap() {
            deweys.push(p.dewey);
        }
        assert_eq!(deweys.len(), 2, "title and body directly contain 'xql'");
        assert!(deweys[0] < deweys[1]);
    }

    #[test]
    fn absent_term_has_no_list() {
        let (_, idx, _) = build();
        assert!(idx.meta(xrank_graph::TermId(9999)).is_none());
        assert!(idx.reader(xrank_graph::TermId(9999)).is_none());
    }

    #[test]
    fn space_counts_only_lists() {
        let (pool, idx, _) = build();
        let s = idx.space(&pool);
        assert!(s.list_bytes > 0);
        assert_eq!(s.index_bytes, 0);
    }

    #[test]
    fn multiple_positions_preserved() {
        let (pool, idx, c) = build();
        let term = c.vocabulary().lookup("xql").unwrap();
        let mut r = idx.reader(term).unwrap();
        r.next(&pool).unwrap(); // title
        let body = r.next(&pool).unwrap().unwrap();
        assert_eq!(body.positions.len(), 2, "xql occurs twice in body text");
    }
}
