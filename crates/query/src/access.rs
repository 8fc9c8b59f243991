//! Uniform access to rank-sorted lists + Dewey probes, so the Figure 7
//! algorithm can drive both RDIL and HDIL's rank-sorted prefix.

use xrank_dewey::DeweyId;
use xrank_graph::TermId;
use xrank_index::listio::ListReader;
use xrank_index::posting::PostingRun;
use xrank_index::{HdilIndex, HdilProbeCursor, RdilIndex, RdilProbeCursor};
use xrank_storage::{BufferPool, CursorStats, PageStore, StorageResult};

/// A stateful probe handle for one keyword — the only way the Figure 7 TA
/// loop probes an index.
///
/// A cursor pins its current leaf (RDIL) or page (HDIL) and serves
/// targets near its last position without re-descending from the root.
/// The TA loop holds one cursor per keyword across all rounds, so the
/// common case (probe targets that stay within a few leaves) costs a
/// bounded leaf walk instead of a full descent. Answers are identical to
/// a fresh cursor's for *every* target.
pub trait ProbeCursor<S: PageStore> {
    /// The Section 4.3.2 probe, reduced to the one number Figure 7 reads:
    /// how many leading components `target` shares with the smallest
    /// Dewey ID `>= target` in the keyword's list or with that ID's
    /// predecessor, whichever shares more (0 past either end).
    fn kept_prefix(&mut self, pool: &BufferPool<S>, target: &DeweyId) -> StorageResult<usize>;

    /// The same number without a probe, when an earlier probe's answer
    /// already certifies it (HDIL's gap memo); `None` means "probe".
    fn remembered(&self, _target: &DeweyId) -> Option<usize> {
        None
    }

    /// Probe counters so far
    /// (`probes = seeks_forward + seeks_backward + descents`).
    fn stats(&self) -> CursorStats;

    /// Posting entries the probes so far decoded to find their answers.
    fn postings_decoded(&self) -> u64;

    /// Compressed list blocks the probes and range scans so far decoded
    /// (HDIL, whose leaves are list blocks; a B+-tree leaf is not one).
    fn blocks_decoded(&self) -> u64 {
        0
    }
}

impl<S: PageStore> ProbeCursor<S> for RdilProbeCursor {
    fn kept_prefix(&mut self, pool: &BufferPool<S>, target: &DeweyId) -> StorageResult<usize> {
        RdilProbeCursor::kept_prefix(self, pool, target)
    }

    fn stats(&self) -> CursorStats {
        RdilProbeCursor::stats(self)
    }

    fn postings_decoded(&self) -> u64 {
        RdilProbeCursor::postings_decoded(self)
    }
}

impl<S: PageStore> ProbeCursor<S> for HdilProbeCursor {
    fn kept_prefix(&mut self, pool: &BufferPool<S>, target: &DeweyId) -> StorageResult<usize> {
        HdilProbeCursor::kept_prefix(self, pool, target)
    }

    fn remembered(&self, target: &DeweyId) -> Option<usize> {
        HdilProbeCursor::remembered(self, target)
    }

    fn stats(&self) -> CursorStats {
        HdilProbeCursor::stats(self)
    }

    fn postings_decoded(&self) -> u64 {
        HdilProbeCursor::postings_decoded(self)
    }

    fn blocks_decoded(&self) -> u64 {
        HdilProbeCursor::blocks_decoded(self)
    }
}

/// Per-term list statistics, gathered once per query so hot loops (TA
/// accounting, HDIL's switch-cost check) stop re-asking the index for
/// quantities that cannot change mid-query.
#[derive(Debug, Clone, Default)]
pub struct TermStats {
    /// `full_list_entries` per query keyword, positionally aligned.
    pub entries: Vec<u32>,
    /// `full_list_pages` per query keyword, positionally aligned.
    pub pages: Vec<u32>,
    /// Sum of `entries`.
    pub total_entries: u64,
    /// Sum of `pages`.
    pub total_pages: u64,
}

impl TermStats {
    /// Collects the stats for `terms` with one accessor call per keyword.
    pub fn gather<S: PageStore, A: RankedAccess<S>>(access: &A, terms: &[TermId]) -> TermStats {
        let entries: Vec<u32> = terms.iter().map(|&t| access.full_list_entries(t)).collect();
        let pages: Vec<u32> = terms.iter().map(|&t| access.full_list_pages(t)).collect();
        TermStats {
            total_entries: entries.iter().map(|&e| e as u64).sum(),
            total_pages: pages.iter().map(|&p| p as u64).sum(),
            entries,
            pages,
        }
    }
}

/// What the RDIL-style evaluator needs from an index.
pub trait RankedAccess<S: PageStore> {
    /// The stateful probe handle type for this index.
    type Cursor: ProbeCursor<S>;

    /// Opens a probe cursor for `term` (cold: the first seek descends).
    fn probe_cursor(&self, term: TermId) -> Self::Cursor;

    /// Reader over the rank-sorted list (RDIL: the full list; HDIL: the
    /// stored prefix).
    fn rank_reader(&self, term: TermId) -> Option<ListReader>;

    /// Whether [`RankedAccess::rank_reader`] covers the *entire* list.
    /// When `false` (HDIL), exhausting a reader does not mean the keyword
    /// has no further postings — the evaluator must fall back to DIL.
    fn rank_lists_complete(&self) -> bool;

    /// Entries in the full list of `term` (for DIL cost estimation and TA
    /// accounting).
    fn full_list_entries(&self, term: TermId) -> u32;

    /// Pages in the full Dewey list of `term` (DIL cost estimate).
    fn full_list_pages(&self, term: TermId) -> u32;

    /// Range scan (Figure 7 line 19): every posting of the keyword under
    /// `prefix`, in Dewey order, into `out`; returns the entries decoded
    /// to produce them. `cursor` is the keyword's probe cursor, which the
    /// scan starts from (RDIL: its pinned leaf; HDIL: its decoded block).
    fn scan_prefix(
        &self,
        pool: &BufferPool<S>,
        cursor: &mut Self::Cursor,
        prefix: &DeweyId,
        out: &mut PostingRun,
    ) -> StorageResult<u64>;
}

impl<S: PageStore> RankedAccess<S> for RdilIndex {
    type Cursor = RdilProbeCursor;

    fn probe_cursor(&self, term: TermId) -> RdilProbeCursor {
        RdilIndex::probe_cursor(self, term)
    }

    fn rank_reader(&self, term: TermId) -> Option<ListReader> {
        self.reader(term)
    }

    fn rank_lists_complete(&self) -> bool {
        true
    }

    fn full_list_entries(&self, term: TermId) -> u32 {
        self.meta(term).map_or(0, |m| m.entry_count)
    }

    fn full_list_pages(&self, term: TermId) -> u32 {
        self.meta(term).map_or(0, |m| m.page_count)
    }

    fn scan_prefix(
        &self,
        pool: &BufferPool<S>,
        cursor: &mut RdilProbeCursor,
        prefix: &DeweyId,
        out: &mut PostingRun,
    ) -> StorageResult<u64> {
        // A walk from the keyword's cursor decodes exactly the entries in
        // range.
        cursor.scan_prefix(pool, prefix, out)
    }
}

impl<S: PageStore> RankedAccess<S> for HdilIndex {
    type Cursor = HdilProbeCursor;

    fn probe_cursor(&self, term: TermId) -> HdilProbeCursor {
        HdilIndex::probe_cursor(self, term)
    }

    fn rank_reader(&self, term: TermId) -> Option<ListReader> {
        self.rank_prefix_reader(term)
    }

    fn rank_lists_complete(&self) -> bool {
        false
    }

    fn full_list_entries(&self, term: TermId) -> u32 {
        self.meta(term).map_or(0, |m| m.entry_count)
    }

    fn full_list_pages(&self, term: TermId) -> u32 {
        self.meta(term).map_or(0, |m| m.page_count)
    }

    fn scan_prefix(
        &self,
        pool: &BufferPool<S>,
        cursor: &mut HdilProbeCursor,
        prefix: &DeweyId,
        out: &mut PostingRun,
    ) -> StorageResult<u64> {
        // From the block the skip table names, through the cursor's
        // decoded column of it.
        cursor.scan_prefix(pool, prefix, out)
    }
}
