//! The Hybrid Dewey Inverted List (HDIL) — paper, Section 4.4.
//!
//! HDIL stores the *full* inverted list sorted by Dewey ID (usable by the
//! DIL algorithm) plus only a small rank-sorted **prefix** of each list
//! (usable by the RDIL algorithm until it is exhausted). Because the full
//! list is Dewey-sorted, it doubles as the leaf level of the per-keyword
//! B+-tree: "only the non-leaf part of the B+-tree needs to be explicitly
//! stored" (Section 4.4.1). That non-leaf part is the list's
//! [`SkipTable`] — one `(first key, page, offset)` entry per block of
//! ≤ 127 postings, kept in memory with the list directory — so a probe is
//! a binary search in the table plus a search of one block off the list
//! page, and HDIL writes no index pages of its own. This is why HDIL's
//! *index* column in Table 1 is orders of magnitude smaller than RDIL's
//! while its *list* column is only slightly larger than DIL's.

use crate::block::{self, RankDict, SkipTable};
use crate::dil::DilIndex;
use crate::listio::{self, pin_page, ListInfo, ListMeta, ListReader, PostingCodec};
use crate::posting::{self, Posting, PostingRun};
use crate::rdil::rank_order;
use crate::SpaceBreakdown;
use std::collections::BTreeMap;
use std::ops::Bound::{Included, Unbounded};
use std::sync::Arc;
use xrank_dewey::codec::{self, DecodeError};
use xrank_dewey::DeweyId;
use xrank_graph::TermId;
use xrank_storage::btree::CursorStats;
use xrank_storage::{
    BufferPool, PageRef, PageStore, SegmentId, StorageError, StorageResult, PAGE_SIZE,
};

/// Fraction of each list stored rank-sorted (the "small fraction of the
/// inverted list sorted by rank" of Section 4.4.1).
pub const DEFAULT_PREFIX_FRACTION: f64 = 0.10;
/// Rank-sorted prefix floor: short lists are stored in full.
pub const MIN_PREFIX_ENTRIES: usize = 16;

/// A built HDIL.
#[derive(Debug)]
pub struct HdilIndex {
    /// The full Dewey-sorted lists (shared with the DIL algorithm).
    pub dil: DilIndex,
    /// Segment holding the rank-sorted prefixes.
    pub prefix_segment: SegmentId,
    prefix_lists: Vec<Option<ListInfo>>,
}

impl HdilIndex {
    /// Bulk-builds with the default prefix sizing.
    pub fn build<S: PageStore>(
        pool: &mut BufferPool<S>,
        postings: &[Vec<Posting>],
    ) -> StorageResult<HdilIndex> {
        Self::build_full(pool, postings, DEFAULT_PREFIX_FRACTION, MIN_PREFIX_ENTRIES, PAGE_SIZE)
    }

    /// Fully-parameterized build: prefix sizing (ablation knob) plus the
    /// per-page byte budget scale-emulation knob.
    pub fn build_full<S: PageStore>(
        pool: &mut BufferPool<S>,
        postings: &[Vec<Posting>],
        prefix_fraction: f64,
        min_prefix: usize,
        page_budget: usize,
    ) -> StorageResult<HdilIndex> {
        let dil = DilIndex::build_with(pool, postings, page_budget)?;
        let prefix_segment = pool.store_mut().create_segment()?;
        let mut prefix_lists = Vec::with_capacity(postings.len());
        for term_postings in postings {
            if term_postings.is_empty() {
                prefix_lists.push(None);
                continue;
            }
            let mut by_rank = term_postings.clone();
            rank_order(&mut by_rank);
            let keep = ((term_postings.len() as f64 * prefix_fraction).ceil() as usize)
                .max(min_prefix)
                .min(term_postings.len());
            by_rank.truncate(keep);
            prefix_lists.push(Some(listio::write_list(
                pool,
                prefix_segment,
                PostingCodec,
                &by_rank,
                page_budget,
            )?));
        }
        Ok(HdilIndex { dil, prefix_segment, prefix_lists })
    }

    /// Metadata of a term's full (Dewey-sorted) list.
    pub fn meta(&self, term: TermId) -> Option<ListMeta> {
        self.dil.meta(term)
    }

    /// Reader over the full Dewey-sorted list (the DIL fallback path).
    pub fn dewey_reader(&self, term: TermId) -> Option<ListReader> {
        self.dil.reader(term)
    }

    /// Reader over the rank-sorted prefix (the RDIL starting path). The
    /// reader ends when the prefix is exhausted — the query processor must
    /// then switch to the DIL algorithm.
    pub fn rank_prefix_reader(&self, term: TermId) -> Option<ListReader> {
        self.prefix_lists
            .get(term.index())
            .and_then(|i| i.as_ref())
            .map(|info| ListReader::new(self.prefix_segment, info, PostingCodec))
    }

    /// Entries in the rank-sorted prefix of `term`.
    pub fn prefix_len(&self, term: TermId) -> u32 {
        self.prefix_lists
            .get(term.index())
            .and_then(|i| i.as_ref())
            .map_or(0, |i| i.meta.entry_count)
    }

    /// The Section 4.3.2 probe against the Dewey-sorted list: the
    /// smallest Dewey ID `>= target` in `term`'s list and its predecessor
    /// — one probe of a fresh [`HdilProbeCursor`], so there is exactly one
    /// probe implementation.
    pub fn lowest_geq<S: PageStore>(
        &self,
        pool: &BufferPool<S>,
        term: TermId,
        target: &DeweyId,
    ) -> StorageResult<(Option<DeweyId>, Option<DeweyId>)> {
        self.probe_cursor(term).lowest_geq(pool, target)
    }

    /// Opens a stateful probe cursor for `term`. The list is probed
    /// through its in-memory skip table, one block at a time, and the
    /// cursor keeps its current page across probes, so the TA loop's
    /// clustered targets cost no further page reads.
    pub fn probe_cursor(&self, term: TermId) -> HdilProbeCursor {
        HdilProbeCursor {
            segment: self.dil.segment,
            skip: self.dil.info(term).map(|info| info.skip.clone()),
            key: Vec::new(),
            pinned: None,
            at: 0,
            column: DeweyColumn::default(),
            neighbour: DeweyColumn::default(),
            stats: CursorStats::default(),
            decoded: 0,
            blocks: 0,
            memo: ProbeMemo::default(),
        }
    }

    /// Serializes the index directory.
    pub fn write_meta<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        self.dil.write_meta(w)?;
        xrank_storage::wire::put_u32(w, self.prefix_segment.0)?;
        listio::write_list_table(w, &self.prefix_lists)
    }

    /// Deserializes a directory written by [`HdilIndex::write_meta`].
    pub fn read_meta<R: std::io::Read>(r: &mut R) -> std::io::Result<HdilIndex> {
        Ok(HdilIndex {
            dil: DilIndex::read_meta(r)?,
            prefix_segment: SegmentId(xrank_storage::wire::get_u32(r)?),
            prefix_lists: listio::read_list_table(r)?,
        })
    }

    /// Table 1 space: lists = full Dewey list + rank prefixes
    /// (byte-granular); index = the stored non-leaf part of the per-keyword
    /// B+-trees, i.e. the serialized skip tables of the Dewey lists. A
    /// one-block list has no non-leaf level (its one leaf is the root), so
    /// only tables with more than one entry count.
    pub fn space<S: PageStore>(&self, _pool: &BufferPool<S>) -> SpaceBreakdown {
        let prefix_bytes: u64 =
            self.prefix_lists.iter().flatten().map(|i| i.meta.used_bytes).sum();
        SpaceBreakdown {
            list_bytes: self.dil.used_bytes() + prefix_bytes,
            index_bytes: self.dil.skip_index_bytes(),
        }
    }
}

/// Memo of one keyword's probe answers, keyed by the *gap* each answer
/// proves empty: a probe returning `(entry, pred)` certifies the list
/// holds no posting inside the interval `(pred, entry)`, so any later
/// target in `(pred, entry]` has the identical answer — the index is
/// immutable for the life of the query. Rank-ordered list consumption
/// makes probe targets jump around Dewey space; gap keying turns every
/// pair of targets that land between the same two adjacent postings into
/// one block search plus a free lookup, where an exact-target memo would
/// miss.
#[derive(Debug, Clone, Default)]
struct ProbeMemo {
    /// Answering entry → its predecessor: the gap `(pred, entry]`.
    gaps: BTreeMap<DeweyId, Option<DeweyId>>,
    /// The predecessor of a past-the-end answer (no entry ≥ the target):
    /// the gap `(pred, ∞)`, unbounded below when the inner `Option` is
    /// `None` (an empty list).
    past_end: Option<Option<DeweyId>>,
}

impl ProbeMemo {
    /// The memoized `(entry, pred)` covering `target`, if some earlier
    /// probe's gap contains it (`pred < target <= entry`, with open ends
    /// at `None`). Every recorded entry is a posting, so a target above
    /// all of them can only be in the past-the-end gap.
    fn lookup(&self, target: &DeweyId) -> Option<(Option<&DeweyId>, Option<&DeweyId>)> {
        let above = self.gaps.range::<DeweyId, _>((Included(target), Unbounded)).next();
        let (entry, pred) = match above {
            Some((entry, pred)) => (Some(entry), pred.as_ref()),
            None => (None, self.past_end.as_ref()?.as_ref()),
        };
        pred.is_none_or(|p| target > p).then_some((entry, pred))
    }

    /// Records a fresh probe answer under the gap it certifies empty.
    fn insert(&mut self, (entry, pred): (Option<DeweyId>, Option<DeweyId>)) {
        match entry {
            Some(entry) => {
                self.gaps.insert(entry, pred);
            }
            None => self.past_end = Some(pred),
        }
    }
}

/// How many leading components of `target` a probe answer keeps: the
/// longer common prefix through the entry or its predecessor (Section
/// 4.3.2: one of the two shares the longest prefix with the target).
fn kept(target: &[u32], entry: Option<&[u32]>, pred: Option<&[u32]>) -> usize {
    let via = |id: Option<&[u32]>| {
        id.map_or(0, |id| id.iter().zip(target).take_while(|(a, b)| a == b).count())
    };
    via(entry).max(via(pred))
}

/// One block of a Dewey-sorted list, decoded as far as some probe or
/// range scan needed and no further: the IDs as one flat component
/// column, and where each entry's rank index sits on the page, so a range
/// scan reads rank and positions of the entries it returns without
/// decoding their IDs again. Filled lazily, one entry at a time, from
/// whatever pin of the block's page the caller holds; the list is
/// immutable for the life of a query, so a block's decoded part stays
/// valid until another block is loaded over it.
#[derive(Debug, Clone, Default)]
struct DeweyColumn {
    /// Index of the block held; `None` before the first load.
    block: Option<usize>,
    /// Entries in the block (its count varint).
    count: usize,
    /// The block's rank dictionary.
    ranks: Vec<f32>,
    /// Components of the decoded entries, end to end.
    components: Vec<u32>,
    /// Entry `i`'s components are `components[starts[i]..starts[i + 1]]`.
    starts: Vec<u32>,
    /// Page offset of each decoded entry's rank index.
    payloads: Vec<u32>,
    /// Page offset of the first entry not yet decoded.
    resume: usize,
    /// Reused buffer the next entry's ID decodes into.
    scratch: Vec<u32>,
}

/// The page bytes from `off`, or a typed error when `off` overruns them.
fn rest(page: &[u8], off: usize) -> StorageResult<&[u8]> {
    page.get(off..).ok_or_else(|| StorageError::corrupt("list block overruns its page"))
}

fn bad(e: DecodeError) -> StorageError {
    StorageError::corrupt(format!("list block: {e}"))
}

impl DeweyColumn {
    fn holds(&self, block: usize) -> bool {
        self.block == Some(block)
    }

    /// Entries decoded so far.
    fn len(&self) -> usize {
        self.payloads.len()
    }

    /// The ID of decoded entry `i`.
    fn id(&self, i: usize) -> &[u32] {
        &self.components[self.starts[i] as usize..self.starts[i + 1] as usize]
    }

    /// Starts holding `block`, whose count varint sits at `page[offset..]`:
    /// reads its header and decodes no entry.
    fn load(&mut self, block: usize, page: &[u8], offset: usize) -> StorageResult<()> {
        self.block = None;
        let (count, n) = codec::read_component(rest(page, offset)?).map_err(bad)?;
        // Writers emit 1..=127 entries per block (the count is one byte).
        if count == 0 || count as usize > block::MAX_BLOCK_ENTRIES {
            return Err(StorageError::corrupt(format!("list block of {count} entries")));
        }
        let dict = offset + n;
        self.resume = dict + RankDict::read(rest(page, dict)?, &mut self.ranks).map_err(bad)?;
        self.count = count as usize;
        self.components.clear();
        self.starts.clear();
        self.starts.push(0);
        self.payloads.clear();
        self.block = Some(block);
        Ok(())
    }

    /// Decodes the next entry's ID (skipping its rank and positions);
    /// `false` once the block is decoded whole. Nothing is kept of an
    /// entry that fails to decode, so the column stays consistent.
    fn extend(&mut self, page: &[u8]) -> StorageResult<bool> {
        let i = self.len();
        if i == self.count {
            return Ok(false);
        }
        let prev = if i == 0 { &[][..] } else { &self.components[self.starts[i - 1] as usize..] };
        let payload = self.resume
            + block::decode_dewey_into(prev, rest(page, self.resume)?, &mut self.scratch)
                .map_err(bad)?;
        let (_, n) = codec::read_component(rest(page, payload)?).map_err(bad)?;
        self.resume = payload + n + posting::skip_positions(rest(page, payload + n)?).map_err(bad)?;
        self.components.extend_from_slice(&self.scratch);
        self.starts.push(self.components.len() as u32);
        self.payloads.push(payload as u32);
        Ok(true)
    }

    /// Index of the block's first entry `>= target` (`count` when there
    /// is none): a binary search of the decoded part, extended past its end
    /// only while every decoded entry sorts below `target` — exactly as far
    /// as a scan from the block's start would go.
    fn lower_bound(&mut self, page: &[u8], target: &[u32]) -> StorageResult<usize> {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.id(mid) < target {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if lo < self.len() {
            return Ok(lo);
        }
        while self.extend(page)? {
            if self.id(self.len() - 1) >= target {
                return Ok(self.len() - 1);
            }
        }
        Ok(self.count)
    }

    /// Decodes the whole block; returns the index of its last entry.
    fn last(&mut self, page: &[u8]) -> StorageResult<usize> {
        while self.extend(page)? {}
        Ok(self.count - 1)
    }

    /// Decoded entry `i` as a posting into `out`: its ID from the column,
    /// its rank and positions off the page.
    fn posting(&self, page: &[u8], i: usize, out: &mut Posting) -> StorageResult<()> {
        let payload = self.payloads[i] as usize;
        let (rank, n) = codec::read_component(rest(page, payload)?).map_err(bad)?;
        out.rank = *self.ranks.get(rank as usize).ok_or_else(|| bad(DecodeError::Truncated))?;
        posting::decode_positions_into(rest(page, payload + n)?, &mut out.positions)
            .map_err(bad)?;
        let dewey = out.dewey.components_mut();
        dewey.clear();
        dewey.extend_from_slice(self.id(i));
        out.elem = 0;
        Ok(())
    }
}

/// Where a probe found an answer: an entry of the landing block's column
/// or of the neighbour block's.
#[derive(Debug, Clone, Copy)]
enum Found {
    Landing(usize),
    Neighbour(usize),
}

/// A per-keyword stateful probe cursor over HDIL's Dewey-sorted list.
///
/// HDIL's B+-tree leaves *are* the list pages (Section 4.4.1), and the
/// skip table already names the one block (≤ 127 entries) that can hold
/// the target. The cursor keeps the block it last landed in decoded as a
/// column of Dewey IDs, so a probe is a binary search in the skip table,
/// then one in the column, which is extended only past its end; the
/// keyword's range scans ([`HdilProbeCursor::scan_prefix`]) read the same
/// column. Answers are compared as component slices; no rank or positions
/// are read, and only the gap memo's answers are built as owned IDs. The
/// §4.4.2 work clock counts what a scan from the landing block's start
/// would pass, cached or not, so the Figure 7 path also remembers each
/// answer's gap ([`HdilProbeCursor::remembered`]) and probes no block
/// twice for targets in it.
#[derive(Debug, Clone)]
pub struct HdilProbeCursor {
    segment: SegmentId,
    /// The term's skip table; `None` for absent terms.
    skip: Option<Arc<SkipTable>>,
    /// Reused skip-table search key.
    key: Vec<u8>,
    /// `(page offset, page)` of the last landing block.
    pinned: Option<(u32, PageRef)>,
    /// Index of the last landing block.
    at: usize,
    /// The last block a probe landed in or a range scan entered.
    column: DeweyColumn,
    /// The last neighbour block a probe borrowed a boundary entry from.
    neighbour: DeweyColumn,
    stats: CursorStats,
    decoded: u64,
    /// Blocks loaded into either column.
    blocks: u64,
    /// The gaps [`HdilProbeCursor::kept_prefix`]'s answers certified.
    memo: ProbeMemo,
}

impl HdilProbeCursor {
    /// The Figure 7 probe answered from the gaps earlier
    /// [`HdilProbeCursor::kept_prefix`] probes certified empty: `Some`
    /// prefix length when one covers `target`. Touches no page and decodes
    /// nothing.
    pub fn remembered(&self, target: &DeweyId) -> Option<usize> {
        let (entry, pred) = self.memo.lookup(target)?;
        let (entry, pred) = (entry.map(DeweyId::components), pred.map(DeweyId::components));
        Some(kept(target.components(), entry, pred))
    }

    /// The Figure 7 probe, reduced to the one number it reads: how many
    /// leading components `target` shares with its lowest-geq entry or that
    /// entry's predecessor, whichever shares more. The probe of
    /// [`HdilProbeCursor::lowest_geq`], read off the columns; its answer's
    /// gap is then remembered.
    pub fn kept_prefix<S: PageStore>(
        &mut self,
        pool: &BufferPool<S>,
        target: &DeweyId,
    ) -> StorageResult<usize> {
        let (entry, pred) = self.probe(pool, target)?;
        let keep = kept(target.components(), self.answer(entry), self.answer(pred));
        self.memo.insert((self.owned(entry), self.owned(pred)));
        Ok(keep)
    }

    /// How the probes so far were served: off the pinned page
    /// (`seeks_forward` / `seeks_backward`, by direction from the previous
    /// landing position) or by pinning another page (`descents`). Range
    /// scans count nothing here.
    pub fn stats(&self) -> CursorStats {
        self.stats
    }

    /// List entries the probes so far passed, counted from each landing
    /// block's first entry through the answer (plus a neighbour's boundary
    /// entries), whether the column already held them or not.
    pub fn postings_decoded(&self) -> u64 {
        self.decoded
    }

    /// List blocks the probes and range scans so far loaded into a column.
    pub fn blocks_decoded(&self) -> u64 {
        self.blocks
    }

    /// Smallest Dewey ID `>= target` in the list, and its predecessor.
    pub fn lowest_geq<S: PageStore>(
        &mut self,
        pool: &BufferPool<S>,
        target: &DeweyId,
    ) -> StorageResult<(Option<DeweyId>, Option<DeweyId>)> {
        let (entry, pred) = self.probe(pool, target)?;
        Ok((self.owned(entry), self.owned(pred)))
    }

    fn answer(&self, found: Option<Found>) -> Option<&[u32]> {
        found.map(|found| match found {
            Found::Landing(i) => self.column.id(i),
            Found::Neighbour(i) => self.neighbour.id(i),
        })
    }

    fn owned(&self, found: Option<Found>) -> Option<DeweyId> {
        self.answer(found).map(|id| DeweyId::from_components(id.to_vec()))
    }

    /// One probe: where the smallest ID `>= target` and its predecessor
    /// sit in the columns. The landing page stays pinned; a neighbour's
    /// page is pinned only for its boundary entry.
    fn probe<S: PageStore>(
        &mut self,
        pool: &BufferPool<S>,
        target: &DeweyId,
    ) -> StorageResult<(Option<Found>, Option<Found>)> {
        let Some(skip) = self.skip.as_deref() else {
            return Ok((None, None));
        };
        self.stats.probes += 1;
        let blocks = skip.blocks.len();
        if blocks == 0 {
            self.stats.seeks_forward += 1;
            return Ok((None, None));
        }
        // The only block that can hold `target`; a target before the whole
        // list is answered by the first posting of block 0.
        self.key.clear();
        codec::encode_id_into(target, &mut self.key);
        let landing = skip.last_leq(&self.key).unwrap_or(0);
        let t = target.components();
        let e = &skip.blocks[landing];
        let mut pinned_another = false;
        let page = match &self.pinned {
            Some((page_no, page)) if *page_no == e.page => page.clone(),
            _ => {
                pinned_another = true;
                let page = pin_page(pool, self.segment, e.page)?;
                self.pinned = Some((e.page, page.clone()));
                page
            }
        };
        if !self.column.holds(landing) {
            self.column.load(landing, &page, e.offset as usize)?;
            self.blocks += 1;
        }
        let at = self.column.lower_bound(&page, t)?;
        let count = self.column.count;
        self.decoded += (at + 1).min(count) as u64;
        // Boundary cases reach into the neighbour block: the successor of a
        // block that sorts wholly below `target` is the next block's first
        // posting, the predecessor of a block's first posting the previous
        // block's last. A block holds at least one entry, so one probe
        // reaches into at most one neighbour.
        let mut neighbour = |block: usize| -> StorageResult<PageRef> {
            let n = &skip.blocks[block];
            let page = if n.page == e.page {
                page.clone()
            } else {
                pinned_another = true;
                pin_page(pool, self.segment, n.page)?
            };
            if !self.neighbour.holds(block) {
                self.neighbour.load(block, &page, n.offset as usize)?;
                self.blocks += 1;
            }
            Ok(page)
        };
        let (entry, pred) = if at == count && landing + 1 < blocks {
            let page = neighbour(landing + 1)?;
            let first = self.neighbour.lower_bound(&page, t)?;
            self.decoded += (first + 1).min(self.neighbour.count) as u64;
            let entry = (first < self.neighbour.count).then_some(Found::Neighbour(first));
            (entry, Some(Found::Landing(at - 1)))
        } else if at == 0 && landing > 0 {
            let page = neighbour(landing - 1)?;
            let last = self.neighbour.last(&page)?;
            self.decoded += self.neighbour.count as u64;
            (Some(Found::Landing(0)), Some(Found::Neighbour(last)))
        } else {
            let entry = (at < count).then_some(Found::Landing(at));
            (entry, at.checked_sub(1).map(Found::Landing))
        };
        if pinned_another {
            self.stats.descents += 1;
        } else if landing < self.at {
            self.stats.seeks_backward += 1;
        } else {
            self.stats.seeks_forward += 1;
        }
        self.at = landing;
        Ok((entry, pred))
    }

    /// The "range scan over btree\[i\]" of Figure 7 line 19: every posting
    /// of the term whose Dewey ID has `prefix` as a prefix, in Dewey order,
    /// decoded into `out`'s kept slots; returns the entries a scan from the
    /// landing block's start passes on the way (the work clock's count,
    /// cached or not). The landing block is the one the skip table names
    /// for `prefix`; its ID column is the cursor's, so a scan after a probe
    /// of the same block binary-searches what the probe decoded, and reads
    /// rank and positions only of the entries it returns. The scan stops at
    /// the first ID outside the subtree — descendants are contiguous in
    /// Dewey order — and pins each page it enters, as a reader opened for
    /// the scan would; the probes' pinned page and counters are left alone.
    pub fn scan_prefix<S: PageStore>(
        &mut self,
        pool: &BufferPool<S>,
        prefix: &DeweyId,
        out: &mut PostingRun,
    ) -> StorageResult<u64> {
        out.clear();
        let Some(skip) = self.skip.as_deref() else {
            return Ok(0);
        };
        self.key.clear();
        codec::encode_id_into(prefix, &mut self.key);
        let landing = skip.last_leq(&self.key).unwrap_or(0);
        let p = prefix.components();
        let mut frame: Option<(u32, PageRef)> = None;
        let mut decoded = 0u64;
        for (b, e) in skip.blocks.iter().enumerate().skip(landing) {
            if frame.as_ref().is_none_or(|(page_no, _)| *page_no != e.page) {
                frame = Some((e.page, pin_page(pool, self.segment, e.page)?));
            }
            let page = &frame.as_ref().expect("entered page pinned").1;
            if !self.column.holds(b) {
                self.column.load(b, page, e.offset as usize)?;
                self.blocks += 1;
            }
            let mut i = self.column.lower_bound(page, p)?;
            while i < self.column.len() || self.column.extend(page)? {
                if !self.column.id(i).starts_with(p) {
                    return Ok(decoded + i as u64 + 1);
                }
                self.column.posting(page, i, out.push_slot())?;
                i += 1;
            }
            decoded += self.column.count as u64;
        }
        Ok(decoded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::direct_postings;
    use crate::rdil::RdilIndex;
    use proptest::prelude::*;
    use xrank_graph::CollectionBuilder;
    use xrank_storage::{FaultAt, FaultKind, FaultRule, FaultStore, MemStore, PageId, StorageError};

    /// A corpus big enough to force multi-page lists.
    fn build_large() -> (BufferPool<MemStore>, HdilIndex, RdilIndex, xrank_graph::Collection)
    {
        let mut xml = String::from("<corpus>");
        for i in 0..400 {
            xml.push_str(&format!(
                "<paper><title>common word{i}</title><body>common text about topic{} repeated common</body></paper>",
                i % 7
            ));
        }
        xml.push_str("</corpus>");
        let mut b = CollectionBuilder::new();
        b.add_xml_str("d", &xml).unwrap();
        let c = b.build();
        let scores: Vec<f64> = (0..c.element_count())
            .map(|i| 1.0 / ((i % 97) + 1) as f64)
            .collect();
        let postings = direct_postings(&c, &scores);
        let mut pool = BufferPool::new(MemStore::new(), 8192);
        let hdil = HdilIndex::build(&mut pool, &postings).unwrap();
        let rdil = RdilIndex::build(&mut pool, &postings).unwrap();
        (pool, hdil, rdil, c)
    }

    #[test]
    fn lowest_geq_agrees_with_rdil() {
        let (pool, hdil, rdil, c) = build_large();
        let term = c.vocabulary().lookup("common").unwrap();
        let probes = [
            DeweyId::from([0]),
            DeweyId::from([0, 0, 100]),
            DeweyId::from([0, 0, 250, 1]),
            DeweyId::from([0, 0, 399, 9, 9]),
            DeweyId::from([5, 0]),
        ];
        for probe in &probes {
            let (he, hp) = hdil.lowest_geq(&pool, term, probe).unwrap();
            let (re, rp) = rdil.lowest_geq(&pool, term, probe).unwrap();
            assert_eq!(he, re, "entry mismatch at {probe}");
            assert_eq!(hp, rp, "pred mismatch at {probe}");
        }
    }

    #[test]
    fn probe_cursor_agrees_with_fresh_probes() {
        let (pool, hdil, _, c) = build_large();
        let term = c.vocabulary().lookup("common").unwrap();
        let mut cur = hdil.probe_cursor(term);
        let probes = [
            DeweyId::from([0]),
            DeweyId::from([0, 0, 17]),
            DeweyId::from([0, 0, 100]),
            DeweyId::from([0, 0, 250, 1]),
            DeweyId::from([0, 0, 30]), // backward seek
            DeweyId::from([0, 0, 399, 9, 9]),
            DeweyId::from([5, 0]),
        ];
        for probe in &probes {
            let fresh = hdil.lowest_geq(&pool, term, probe).unwrap();
            let seeked = cur.lowest_geq(&pool, probe).unwrap();
            assert_eq!(fresh, seeked, "cursor diverged at {probe}");
        }
        let s = cur.stats();
        assert_eq!(s.probes, probes.len() as u64);
        assert_eq!(s.probes, s.seeks_forward + s.seeks_backward + s.descents);
        assert!(s.descents >= 1);

        // Absent terms answer without touching storage.
        let mut none = hdil.probe_cursor(TermId(u32::MAX - 1));
        let (e, p) = none.lowest_geq(&pool, &DeweyId::from([0])).unwrap();
        assert!(e.is_none() && p.is_none());
    }

    #[test]
    fn scan_prefix_agrees_with_rdil() {
        let (pool, hdil, rdil, c) = build_large();
        let term = c.vocabulary().lookup("common").unwrap();
        let (mut h, mut r) = (hdil.probe_cursor(term), rdil.probe_cursor(term));
        let (mut hrun, mut rrun) = (PostingRun::default(), PostingRun::default());
        for prefix in [DeweyId::from([0]), DeweyId::from([0, 0, 42]), DeweyId::from([0, 0, 399])]
        {
            let decoded = h.scan_prefix(&pool, &prefix, &mut hrun).unwrap();
            r.scan_prefix(&pool, &prefix, &mut rrun).unwrap();
            assert_eq!(hrun.as_slice(), rrun.as_slice(), "under {prefix}");
            assert!(decoded >= hrun.as_slice().len() as u64, "every returned posting was decoded");
        }
    }

    #[test]
    fn rank_prefix_is_a_subset_in_rank_order() {
        let (pool, hdil, _, c) = build_large();
        let term = c.vocabulary().lookup("common").unwrap();
        let full = hdil.meta(term).unwrap().entry_count;
        let prefix = hdil.prefix_len(term);
        assert!(prefix > 0 && prefix < full, "prefix {prefix} of {full}");
        let mut r = hdil.rank_prefix_reader(term).unwrap();
        let mut prev = f32::INFINITY;
        while let Some(p) = r.next(&pool).unwrap() {
            assert!(p.rank <= prev);
            prev = p.rank;
        }
    }

    #[test]
    fn short_lists_stored_whole_in_prefix() {
        let (pool, hdil, _, c) = build_large();
        let term = c.vocabulary().lookup("word3").unwrap(); // occurs once
        assert_eq!(hdil.prefix_len(term), hdil.meta(term).unwrap().entry_count);
        let mut r = hdil.rank_prefix_reader(term).unwrap();
        assert!(r.next(&pool).unwrap().is_some());
    }

    #[test]
    fn index_is_tiny_compared_to_rdil() {
        let (pool, hdil, rdil, _) = build_large();
        let h = hdil.space(&pool);
        let r = rdil.space(&pool);
        assert!(
            h.index_bytes < r.index_bytes,
            "HDIL index {} should be far below RDIL {}",
            h.index_bytes,
            r.index_bytes
        );
    }

    #[test]
    fn absent_term() {
        let (pool, hdil, _, _) = build_large();
        let t = TermId(u32::MAX - 1);
        assert!(hdil.meta(t).is_none());
        let (e, p) = hdil.lowest_geq(&pool, t, &DeweyId::from([0])).unwrap();
        assert!(e.is_none() && p.is_none());
        let mut run = PostingRun::default();
        let mut cur = hdil.probe_cursor(t);
        assert_eq!(cur.scan_prefix(&pool, &DeweyId::from([0]), &mut run).unwrap(), 0);
        assert!(run.as_slice().is_empty());
    }

    /// The one keyword of [`block_list`].
    const TERM: TermId = TermId(0);

    /// One synthetic Dewey list of ≥ 20 blocks over ≥ 3 pages, IDs of
    /// mixed depth with a gap after every posting (so "between two
    /// postings" targets exist everywhere), behind a [`FaultStore`].
    fn block_list() -> (BufferPool<FaultStore<MemStore>>, HdilIndex, Vec<Posting>) {
        let postings: Vec<Posting> = (0..3000u32)
            .map(|i| {
                let mut dewey = vec![i / 50, 0, (i % 50) * 2];
                if i % 7 == 0 {
                    dewey.push(1 + i % 3);
                }
                Posting {
                    elem: 0,
                    dewey: DeweyId::from_components(dewey),
                    rank: 1.0 / ((i % 89) + 1) as f32,
                    positions: vec![i, i + 2],
                }
            })
            .collect();
        let mut pool = BufferPool::new(FaultStore::new(MemStore::new()), 256);
        let hdil = HdilIndex::build(&mut pool, std::slice::from_ref(&postings)).unwrap();
        let info = hdil.dil.info(TERM).unwrap();
        assert!(info.meta.page_count >= 3, "{:?}", info.meta);
        assert!(info.skip.blocks.len() >= 20);
        (pool, hdil, postings)
    }

    /// [`kept`] of an owned `(entry, pred)` answer.
    fn keep_of(target: &DeweyId, (entry, pred): &(Option<DeweyId>, Option<DeweyId>)) -> usize {
        let (entry, pred) = (entry.as_ref(), pred.as_ref());
        kept(target.components(), entry.map(DeweyId::components), pred.map(DeweyId::components))
    }

    /// Brute-force `lowest_geq` over the decoded list.
    fn oracle(postings: &[Posting], target: &DeweyId) -> (Option<DeweyId>, Option<DeweyId>) {
        let at = postings.partition_point(|p| p.dewey < *target);
        let id = |i: usize| postings.get(i).map(|p| p.dewey.clone());
        (id(at), at.checked_sub(1).and_then(id))
    }

    /// Probes `targets` in order through one cursor, checking every answer
    /// against the oracle and the classification invariant at every step.
    fn check_walk(
        pool: &BufferPool<FaultStore<MemStore>>,
        hdil: &HdilIndex,
        postings: &[Posting],
        targets: &[DeweyId],
    ) -> Result<(), String> {
        let mut cur = hdil.probe_cursor(TERM);
        for (i, t) in targets.iter().enumerate() {
            let before = cur.postings_decoded();
            let got = cur.lowest_geq(pool, t).map_err(|e| format!("probe {t}: {e}"))?;
            if got != oracle(postings, t) {
                return Err(format!("probe {i} at {t}: got {got:?}"));
            }
            let s = cur.stats();
            if s.probes != i as u64 + 1 || s.probes != s.seeks_forward + s.seeks_backward + s.descents
            {
                return Err(format!("probe {i} at {t}: classification leaked: {s:?}"));
            }
            // The landing block plus at most one whole neighbour.
            let scanned = cur.postings_decoded() - before;
            if scanned == 0 || scanned > 2 * crate::block::MAX_BLOCK_ENTRIES as u64 + 1 {
                return Err(format!("probe {i} at {t}: scanned {scanned} entries"));
            }
        }
        Ok(())
    }

    #[test]
    fn block_probe_boundaries_match_brute_force() {
        let (pool, hdil, postings) = block_list();
        let skip = hdil.dil.info(TERM).unwrap().skip.clone();
        let mut targets = vec![
            DeweyId::default(),                       // before everything
            DeweyId::from([0]),                       // before the first key
            postings[0].dewey.clone(),                // the first key itself
            postings.last().unwrap().dewey.clone(),   // the last key
            postings.last().unwrap().dewey.child(0),  // past the end
            DeweyId::from([u32::MAX]),
        ];
        // Every block's first key exactly (predecessor = previous block's
        // last posting), and a target strictly between the last posting of
        // block i and the first of block i+1 (successor = next block's
        // first posting).
        let mut crossed_a_page = false;
        for (i, b) in skip.blocks.iter().enumerate() {
            let first = codec::decode_id(&b.first_key).unwrap();
            let at = postings.partition_point(|p| p.dewey < first);
            assert_eq!(postings[at].dewey, first);
            targets.push(first);
            if i > 0 {
                let between = postings[at - 1].dewey.child(7);
                assert!(postings[at - 1].dewey < between && between < postings[at].dewey);
                targets.push(between);
                crossed_a_page |= skip.blocks[i - 1].page != b.page;
            }
        }
        assert!(crossed_a_page, "some block boundary must also be a page boundary");
        check_walk(&pool, &hdil, &postings, &targets).unwrap();
        targets.reverse();
        check_walk(&pool, &hdil, &postings, &targets).unwrap();
        // One-probe form: same implementation, fresh cursor each time.
        for t in &targets {
            assert_eq!(hdil.lowest_geq(&pool, TERM, t).unwrap(), oracle(&postings, t));
        }

        // Absent term: no list, no probe, no storage touched.
        pool.reset_stats();
        let mut none = hdil.probe_cursor(TermId(7));
        assert_eq!(none.lowest_geq(&pool, &targets[0]).unwrap(), (None, None));
        assert_eq!(none.stats(), CursorStats::default());
        assert_eq!(pool.stats().logical_reads(), 0);
    }

    /// A probe scans its block off the page the cursor holds: probes that
    /// stay on one page cost one pool read in total, not one per block
    /// scan (which would bill a cache hit per probe to the I/O ledger).
    #[test]
    fn block_probes_on_the_pinned_page_read_nothing() {
        let (pool, hdil, postings) = block_list();
        let skip = hdil.dil.info(TERM).unwrap().skip.clone();
        let first_page = skip.blocks[0].page;
        let on_first: Vec<DeweyId> = skip
            .blocks
            .iter()
            .take_while(|b| b.page == first_page)
            .map(|b| codec::decode_id(&b.first_key).unwrap().child(9))
            .collect();
        assert!(on_first.len() >= 3, "several blocks share the first page");
        pool.reset_stats();
        let mut cur = hdil.probe_cursor(TERM);
        for t in on_first.iter().chain(on_first.iter().rev()) {
            assert_eq!(cur.lowest_geq(&pool, t).unwrap(), oracle(&postings, t));
        }
        assert_eq!(pool.stats().logical_reads(), 1, "one pin serves every probe");
        let s = cur.stats();
        assert_eq!((s.descents, s.probes), (1, 2 * on_first.len() as u64));
        assert!(s.seeks_forward > 0 && s.seeks_backward > 0, "{s:?}");
        // Landing on another page is the one thing that pins again.
        cur.lowest_geq(&pool, &postings.last().unwrap().dewey).unwrap();
        assert_eq!(cur.stats().descents, 2);
        assert_eq!(pool.stats().logical_reads(), 2);
    }

    #[test]
    fn bit_flip_under_a_probe_is_typed_and_cached_pages_are_not_rechecked() {
        let (pool, hdil, postings) = block_list();
        let meta = hdil.dil.info(TERM).unwrap().meta;
        let targets: Vec<DeweyId> =
            postings.iter().step_by(97).map(|p| p.dewey.child(3)).collect();
        let store = pool.store();
        let mut failed = 0u32;
        for page_no in meta.start_page..meta.start_page + meta.page_count {
            let page = PageId::new(hdil.dil.segment, page_no);
            store.inject(FaultRule::new(FaultKind::BitFlip, FaultAt::Page(page)));
            pool.clear_cache();
            // The probe is the first to touch the flipped page: its CRC
            // pass must catch the flip wherever it landed.
            for t in &targets {
                match hdil.lowest_geq(&pool, TERM, t) {
                    Ok(got) => assert_eq!(got, oracle(&postings, t), "silent damage at {t}"),
                    Err(StorageError::Corrupt { .. }) => failed += 1,
                    Err(other) => panic!("untyped failure at {t}: {other:?}"),
                }
                pool.clear_cache();
            }
            store.clear_faults();
        }
        assert!(failed >= meta.page_count, "every page's flip reaches some probe");

        // Clean first touch, then the medium rots underneath: the cached
        // pages keep serving — no physical read, so no second CRC pass and
        // nothing for the fault to bite.
        pool.clear_cache();
        check_walk(&pool, &hdil, &postings, &targets).unwrap();
        let (physical, injected) = (pool.stats().physical_reads(), store.injected_count());
        store.inject(FaultRule::new(FaultKind::BitFlip, FaultAt::Segment(hdil.dil.segment)));
        check_walk(&pool, &hdil, &postings, &targets).unwrap();
        assert_eq!(pool.stats().physical_reads(), physical);
        assert_eq!(store.injected_count(), injected);
    }

    /// A probe walk decodes a block into the cursor's column once per
    /// stay: every run of probes that land in the same block costs one
    /// load, and a return to a block left earlier costs another.
    #[test]
    fn blocks_decoded_counts_each_block_load() {
        let (pool, hdil, postings) = block_list();
        let skip = hdil.dil.info(TERM).unwrap().skip.clone();
        let starts = block_starts(&skip, &postings);
        // Postings strictly inside a block: neither the first (whose
        // predecessor is in the previous block) nor a gap past the last.
        let inside = |b: usize, k: usize| postings[starts[b] + 1 + k].dewey.clone();
        let visits = [0usize, 0, 1, 1, 1, 5, 6, 6, 1, 0, 19, 19, 2];
        let mut cur = hdil.probe_cursor(TERM);
        let mut loads = 0;
        for (i, &b) in visits.iter().enumerate() {
            let target = inside(b, i % 5);
            assert_eq!(cur.lowest_geq(&pool, &target).unwrap(), oracle(&postings, &target));
            loads += (i == 0 || visits[i - 1] != b) as u64;
            assert_eq!(cur.blocks_decoded(), loads, "after probe {i} into block {b}");
        }
        assert_eq!(loads, 8);
        // A range scan from the block held into the next ones loads each
        // block it enters but the first.
        let prefix = postings[starts[3] - 1].dewey.prefix(1);
        let inside = |p: &Posting| prefix.is_ancestor_or_self_of(&p.dewey);
        let stop = postings.partition_point(|p| p.dewey < prefix || inside(p));
        let entered = starts.partition_point(|&s| s <= stop) - 1 - 2;
        assert!(entered >= 1, "the subtree crosses out of block 2");
        let mut run = PostingRun::default();
        cur.scan_prefix(&pool, &prefix, &mut run).unwrap();
        assert_eq!(cur.blocks_decoded(), loads + entered as u64);
    }

    /// The column against the whole-block reference decoder: for every
    /// block, every posting and the gap right after it, the first entry at
    /// or above the target and the posting read back through the column.
    #[test]
    fn column_matches_a_full_block_decode() {
        let (pool, hdil, _) = block_list();
        for (b, e) in hdil.dil.info(TERM).unwrap().skip.blocks.iter().enumerate() {
            let page = pin_page(&pool, hdil.dil.segment, e.page).unwrap();
            let mut block = Vec::new();
            block::decode_block(&page, e.offset as usize, &mut block).unwrap();
            for (i, p) in block.iter().enumerate() {
                for (target, at) in [(p.dewey.clone(), i), (p.dewey.child(0), i + 1)] {
                    let mut col = DeweyColumn::default();
                    col.load(b, &page, e.offset as usize).unwrap();
                    assert_eq!(col.lower_bound(&page, target.components()).unwrap(), at);
                    assert_eq!(col.len(), (at + 1).min(block.len()), "decoded past the answer");
                }
            }
            let mut col = DeweyColumn::default();
            col.load(b, &page, e.offset as usize).unwrap();
            assert_eq!(col.last(&page).unwrap(), block.len() - 1);
            for (i, p) in block.iter().enumerate() {
                let mut got = Posting { elem: 7, ..Posting::default() };
                col.posting(&page, i, &mut got).unwrap();
                assert_eq!(got, Posting { elem: 0, ..p.clone() });
            }
        }
    }

    #[test]
    fn column_on_damaged_bytes_is_an_error_not_a_panic() {
        let (pool, hdil, _) = block_list();
        let e = hdil.dil.info(TERM).unwrap().skip.blocks[1].clone();
        let clean = pin_page(&pool, hdil.dil.segment, e.page).unwrap().to_vec();
        let (off, mut typed) = (e.offset as usize, 0);
        for at in off..(off + 400).min(PAGE_SIZE) {
            for flip in [0x80u8, 0x7f, 0xff] {
                let mut page = clean.clone();
                page[at] ^= flip;
                // The CRC would have caught this; the column must still
                // not trust what it reads.
                let mut col = DeweyColumn::default();
                let whole = col.load(1, &page, off).and_then(|()| col.last(&page)).and_then(|last| {
                    let mut p = Posting::default();
                    (0..=last).try_for_each(|i| col.posting(&page, i, &mut p))
                });
                typed += whole.is_err() as u32;
            }
        }
        assert!(typed > 0, "some damage must be detectable by the decoder itself");
        // A block that claims to run past the page ends in an error.
        let mut col = DeweyColumn::default();
        let short = &clean[..off + 20];
        assert!(col.load(1, short, off).and_then(|()| col.last(short)).is_err());
        assert!(col.load(1, &clean, PAGE_SIZE + 1).is_err());
    }

    fn target() -> impl Strategy<Value = DeweyId> {
        // Around the list's ID space: [0..60, 0, 0..100(, 1..4)], plus
        // shallower and deeper neighbours and IDs off both ends.
        proptest::collection::vec(
            prop_oneof![6 => 0u32..62, 2 => 0u32..4, 1 => 90u32..110],
            0..6,
        )
        .prop_map(DeweyId::from_components)
    }

    /// A probe target for the memo, resolved against the generated list.
    #[derive(Debug, Clone)]
    enum MemoTarget {
        /// The `i % len`-th posting itself: the top of the gap below it.
        Posting(usize),
        /// Below the first posting.
        BelowFirst,
        /// Past the last posting.
        PastLast,
        /// Anywhere in (and around) the list's ID space.
        Any(DeweyId),
    }

    fn memo_target() -> impl Strategy<Value = MemoTarget> {
        prop_oneof![
            3 => (0usize..1000).prop_map(MemoTarget::Posting),
            1 => Just(MemoTarget::BelowFirst),
            1 => Just(MemoTarget::PastLast),
            4 => proptest::collection::vec(0u32..6, 0..5)
                .prop_map(|c| MemoTarget::Any(DeweyId::from_components(c))),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// The gap memo of a cursor answers exactly what a fresh cursor
        /// answers, for every target it claims to cover — gap tops,
        /// targets below the first posting and past the last included —
        /// and a probe's own target is covered once it is remembered.
        #[test]
        fn memo_hits_equal_fresh_probes(
            ids in proptest::collection::btree_set(
                proptest::collection::vec(0u32..6, 1..5).prop_map(DeweyId::from_components),
                0..120,
            ),
            targets in proptest::collection::vec(memo_target(), 1..60),
        ) {
            let list: Vec<DeweyId> = ids.into_iter().collect();
            let postings = |ids: &[DeweyId]| -> Vec<Posting> {
                ids.iter()
                    .map(|d| Posting { elem: 0, dewey: d.clone(), rank: 1.0, positions: vec![0] })
                    .collect()
            };
            let fence = [DeweyId::from([0]), DeweyId::from([3, 3]), DeweyId::from([9, 9, 9])];
            let mut pool = BufferPool::new(MemStore::new(), 256);
            let hdil = HdilIndex::build_full(
                &mut pool,
                &[postings(&fence), postings(&list), postings(&fence)],
                DEFAULT_PREFIX_FRACTION,
                MIN_PREFIX_ENTRIES,
                256, // small pages: the list spans several blocks and pages
            )
            .unwrap();
            let term = TermId(1);
            let mut cursor = hdil.probe_cursor(term);
            for t in &targets {
                let target = match (t, list.first(), list.last()) {
                    (MemoTarget::Posting(i), Some(_), _) => list[i % list.len()].clone(),
                    (MemoTarget::BelowFirst, Some(first), _) => first.prefix(first.len() - 1),
                    (MemoTarget::PastLast, _, Some(last)) => last.child(0),
                    (MemoTarget::Any(d), _, _) => d.clone(),
                    _ => DeweyId::from([1]),
                };
                let fresh = hdil.probe_cursor(term).lowest_geq(&pool, &target).unwrap();
                let keep = keep_of(&target, &fresh);
                match cursor.memo.lookup(&target) {
                    Some((entry, pred)) => {
                        let hit = (entry.cloned(), pred.cloned());
                        prop_assert_eq!(hit, fresh, "hit at {}", target);
                        prop_assert_eq!(cursor.remembered(&target), Some(keep));
                    }
                    None => {
                        prop_assert_eq!(cursor.remembered(&target), None);
                        let decoded = cursor.postings_decoded();
                        prop_assert_eq!(cursor.kept_prefix(&pool, &target).unwrap(), keep);
                        prop_assert!(list.is_empty() || cursor.postings_decoded() > decoded);
                        let covered = cursor.remembered(&target) == Some(keep);
                        prop_assert!(covered, "own answer not covered at {}", target);
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        /// Random, monotone and reverse target walks through one cursor
        /// agree with a brute-force scan of the decoded list.
        #[test]
        fn block_probe_walks_match_brute_force(
            targets in proptest::collection::vec(target(), 1..80)
        ) {
            let (pool, hdil, postings) = block_list();
            let mut targets = targets;
            if let Err(e) = check_walk(&pool, &hdil, &postings, &targets) {
                prop_assert!(false, "random walk: {e}");
            }
            targets.sort();
            if let Err(e) = check_walk(&pool, &hdil, &postings, &targets) {
                prop_assert!(false, "monotone walk: {e}");
            }
            targets.reverse();
            if let Err(e) = check_walk(&pool, &hdil, &postings, &targets) {
                prop_assert!(false, "reverse walk: {e}");
            }
        }
    }

    /// Index in `postings` of each block's first entry, and the list's
    /// length last.
    fn block_starts(skip: &SkipTable, postings: &[Posting]) -> Vec<usize> {
        let first = |b: &crate::block::SkipEntry| codec::decode_id(&b.first_key).unwrap();
        let mut starts: Vec<usize> =
            skip.blocks.iter().map(|b| postings.partition_point(|p| p.dewey < first(b))).collect();
        starts.push(postings.len());
        starts
    }

    /// One step of a cursor's life in the Figure 7 loop.
    #[derive(Debug, Clone)]
    enum Op {
        Remembered(Target),
        Kept(Target),
        Scan(Target),
    }

    /// A probe target or scan prefix, resolved against [`block_list`].
    #[derive(Debug, Clone)]
    enum Target {
        /// Anywhere in (and around) the list's ID space.
        Any(DeweyId),
        /// The first key of block `i % blocks` (its predecessor is the
        /// previous block's last posting).
        BlockFirst(usize),
        /// Strictly between block `i % blocks`'s last posting and the next
        /// block's first.
        BlockGap(usize),
        /// The `i % len`-th posting, or a prefix of it.
        Posting(usize, usize),
        BelowFirst,
        PastLast,
    }

    impl Target {
        fn resolve(&self, postings: &[Posting], skip: &SkipTable) -> DeweyId {
            let blocks = skip.blocks.len();
            let first = |i: usize| codec::decode_id(&skip.blocks[i % blocks].first_key).unwrap();
            match self {
                Target::Any(d) => d.clone(),
                Target::BlockFirst(i) => first(*i),
                Target::BlockGap(i) => {
                    let next = first(*i + 1);
                    postings[postings.partition_point(|p| p.dewey < next).max(1) - 1].dewey.child(7)
                }
                Target::Posting(i, cut) => {
                    let d = &postings[i % postings.len()].dewey;
                    d.prefix(d.len().saturating_sub(*cut))
                }
                Target::BelowFirst => DeweyId::default(),
                Target::PastLast => postings.last().unwrap().dewey.child(0),
            }
        }
    }

    fn cursor_target() -> impl Strategy<Value = Target> {
        prop_oneof![
            4 => target().prop_map(Target::Any),
            1 => (0usize..64).prop_map(Target::BlockFirst),
            1 => (0usize..64).prop_map(Target::BlockGap),
            3 => (0usize..3000, 0usize..4).prop_map(|(i, cut)| Target::Posting(i, cut)),
            1 => Just(Target::BelowFirst),
            1 => Just(Target::PastLast),
        ]
    }

    fn cursor_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            1 => cursor_target().prop_map(Op::Remembered),
            3 => cursor_target().prop_map(Op::Kept),
            2 => cursor_target().prop_map(Op::Scan),
        ]
    }

    /// Runs `ops` through one cursor and checks every answer, every work
    /// clock increment and every range scan's page reads against a
    /// brute-force reading of the list.
    fn check_ops(
        pool: &BufferPool<FaultStore<MemStore>>,
        hdil: &HdilIndex,
        postings: &[Posting],
        ops: &[Op],
    ) -> Result<(), String> {
        let skip = hdil.dil.info(TERM).unwrap().skip.clone();
        let starts = block_starts(&skip, postings);
        let block_of = |i: usize| starts.partition_point(|&s| s <= i) - 1;
        let landing = |t: &DeweyId| skip.last_leq(&codec::encode_id(t)).unwrap_or(0);
        let mut cur = hdil.probe_cursor(TERM);
        let mut run = PostingRun::default();
        for (n, op) in ops.iter().enumerate() {
            let (decoded, stats, reads) =
                (cur.postings_decoded(), cur.stats(), pool.stats().logical_reads());
            match op {
                Op::Remembered(t) => {
                    let t = t.resolve(postings, &skip);
                    if let Some(keep) = cur.remembered(&t) {
                        if keep != keep_of(&t, &oracle(postings, &t)) {
                            return Err(format!("op {n}: remembered {keep} at {t}"));
                        }
                    }
                    if (cur.postings_decoded(), pool.stats().logical_reads()) != (decoded, reads) {
                        return Err(format!("op {n}: a memo lookup did work at {t}"));
                    }
                }
                Op::Kept(t) => {
                    let t = t.resolve(postings, &skip);
                    let keep = cur.kept_prefix(pool, &t).map_err(|e| format!("op {n}: {e}"))?;
                    if keep != keep_of(&t, &oracle(postings, &t)) {
                        return Err(format!("op {n}: kept {keep} at {t}"));
                    }
                    // From the landing block's start through the answer,
                    // plus a neighbour's boundary entries.
                    let b = landing(&t);
                    let (first, end) = (starts[b], starts[b + 1]);
                    let at = postings.partition_point(|p| p.dewey < t);
                    let mut want = if at < end { at - first + 1 } else { end - first };
                    want += (at >= end && b + 1 < skip.blocks.len()) as usize;
                    want += if at == first && b > 0 { first - starts[b - 1] } else { 0 };
                    if cur.postings_decoded() - decoded != want as u64 {
                        let got = cur.postings_decoded() - decoded;
                        return Err(format!("op {n}: probe at {t} counted {got}, want {want}"));
                    }
                    if cur.stats().probes != stats.probes + 1 {
                        return Err(format!("op {n}: probe not counted"));
                    }
                }
                Op::Scan(t) => {
                    let prefix = t.resolve(postings, &skip);
                    let got = cur
                        .scan_prefix(pool, &prefix, &mut run)
                        .map_err(|e| format!("op {n}: {e}"))?;
                    let inside = |p: &Posting| prefix.is_ancestor_or_self_of(&p.dewey);
                    let want: Vec<Posting> = postings
                        .iter()
                        .filter(|p| inside(p))
                        .map(|p| Posting { elem: 0, ..p.clone() })
                        .collect();
                    if run.as_slice() != want.as_slice() {
                        return Err(format!("op {n}: scan under {prefix} differs"));
                    }
                    let b = landing(&prefix);
                    let stop = postings.partition_point(|p| p.dewey < prefix || inside(p));
                    let count = (stop + 1).min(postings.len()) - starts[b];
                    if got != count as u64 {
                        let want = format!("counted {got}, want {count}");
                        return Err(format!("op {n}: scan under {prefix} {want}"));
                    }
                    // A page read per page entered, as a fresh reader's.
                    let last = block_of(stop.min(postings.len() - 1));
                    let pages = (b..=last)
                        .filter(|&i| i == b || skip.blocks[i].page != skip.blocks[i - 1].page)
                        .count() as u64;
                    if pool.stats().logical_reads() - reads != pages {
                        return Err(format!("op {n}: scan under {prefix} read off the ledger"));
                    }
                    if (cur.stats(), cur.postings_decoded()) != (stats, decoded) {
                        return Err(format!("op {n}: a scan moved the probe counters"));
                    }
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

        /// Random interleavings of the three cursor operations — forward
        /// and backward targets, block and page boundaries, targets off
        /// both ends — agree with a brute-force decode of the list, with
        /// the work clock of a scan from each landing block's start, and
        /// with a fresh reader's page reads.
        #[test]
        fn cursor_ops_match_brute_force(ops in proptest::collection::vec(cursor_op(), 1..60)) {
            let (pool, hdil, postings) = block_list();
            if let Err(e) = check_ops(&pool, &hdil, &postings, &ops) {
                prop_assert!(false, "{e}");
            }
        }

        /// Damage under a warm cursor is a typed error, never a panic:
        /// bytes flipped on the medium fail the checksum of the next pin
        /// that reads them, and bytes flipped and re-sealed under a
        /// partly decoded column fail the decoder or decode to something
        /// — but never crash it.
        #[test]
        fn flipped_bytes_under_a_cached_column_are_corrupt(
            warm in proptest::collection::vec(cursor_op(), 1..20),
            after in proptest::collection::vec(cursor_op(), 1..20),
            page_at in 0u32..64,
            byte in 6usize..PAGE_SIZE,
            flip in 1u8..=255,
            resealed in any::<bool>(),
        ) {
            let (mut pool, hdil, postings) = block_list();
            let skip = hdil.dil.info(TERM).unwrap().skip.clone();
            let meta = hdil.dil.info(TERM).unwrap().meta;
            let id = PageId::new(hdil.dil.segment, meta.start_page + page_at % meta.page_count);
            let mut cur = hdil.probe_cursor(TERM);
            let mut run = PostingRun::default();
            let mut apply = |pool: &BufferPool<FaultStore<MemStore>>, op: &Op| match op {
                Op::Remembered(t) => {
                    cur.remembered(&t.resolve(&postings, &skip));
                    Ok(())
                }
                Op::Kept(t) => cur.kept_prefix(pool, &t.resolve(&postings, &skip)).map(drop),
                Op::Scan(t) => {
                    cur.scan_prefix(pool, &t.resolve(&postings, &skip), &mut run).map(drop)
                }
            };
            for op in &warm {
                apply(&pool, op).unwrap();
            }
            if resealed {
                let mut page = pool.read(id).unwrap().to_vec();
                page[byte] ^= flip;
                listio::reseal(&mut page);
                pool.write_page(id, &page).unwrap();
            } else {
                pool.store().inject(FaultRule::new(FaultKind::BitFlip, FaultAt::Page(id)));
                pool.clear_cache();
            }
            for op in &after {
                match apply(&pool, op) {
                    Ok(()) | Err(StorageError::Corrupt { .. }) => {}
                    Err(other) => prop_assert!(false, "untyped failure: {other:?}"),
                }
            }
        }
    }
}
