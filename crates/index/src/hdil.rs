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
//! a binary search in the table plus one block scan off the list page, and
//! HDIL writes no index pages of its own. This is why HDIL's *index*
//! column in Table 1 is orders of magnitude smaller than RDIL's while its
//! *list* column is only slightly larger than DIL's.

use crate::block::SkipTable;
use crate::dil::DilIndex;
use crate::listio::{
    self, pin_page, scan_block, BlockScan, ListInfo, ListMeta, ListReader, PostingCodec,
};
use crate::posting::Posting;
use crate::rdil::rank_order;
use crate::SpaceBreakdown;
use std::collections::BTreeMap;
use std::ops::Bound::{Included, Unbounded};
use std::sync::Arc;
use xrank_dewey::{codec, DeweyId};
use xrank_graph::TermId;
use xrank_storage::btree::CursorStats;
use xrank_storage::{BufferPool, PageRef, PageStore, SegmentId, StorageResult, PAGE_SIZE};

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
            pinned: None,
            at: 0,
            stats: CursorStats::default(),
            decoded: 0,
            memo: ProbeMemo::default(),
        }
    }

    /// All postings of `term` whose Dewey has `prefix` as a prefix, and
    /// the number of list entries decoded to produce them (a landing
    /// block is decoded from its start, so this is at least the number
    /// returned).
    ///
    /// Answered from the in-memory skip table: jump straight to the block
    /// that can contain `prefix` (no page touched outside the subtree's
    /// range) and decode entries until the first one past the subtree —
    /// descendants are contiguous in Dewey order, so that entry ends the
    /// scan. This is the TA loop's `range_scan` hot path; block
    /// granularity (≤ 127 entries) is what keeps each candidate check from
    /// decoding whole pages.
    pub fn prefix_postings<S: PageStore>(
        &self,
        pool: &BufferPool<S>,
        term: TermId,
        prefix: &DeweyId,
    ) -> StorageResult<(Vec<Posting>, u64)> {
        let Some(mut r) = self.dil.reader(term) else {
            return Ok((Vec::new(), 0));
        };
        r.next_seek(pool, prefix)?;
        let mut out = Vec::new();
        while let Some(p) = r.peek(pool)? {
            if !prefix.is_ancestor_or_self_of(&p.dewey) {
                break;
            }
            out.push(r.next(pool)?.expect("peeked entry present"));
        }
        Ok((out, r.decoded()))
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
/// one block scan plus a free lookup, where an exact-target memo would
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
fn kept(target: &DeweyId, entry: Option<&DeweyId>, pred: Option<&DeweyId>) -> usize {
    let via = |id: Option<&DeweyId>| id.map_or(0, |id| id.common_prefix_len(target));
    via(entry).max(via(pred))
}

/// A per-keyword stateful probe cursor over HDIL's Dewey-sorted list.
///
/// HDIL's B+-tree leaves *are* the list pages (Section 4.4.1), and the
/// skip table already names the one block (≤ 127 entries) that can hold
/// the target, so a probe is a binary search in memory plus one block scan
/// off the pinned page. Answers are the Dewey IDs the scan decodes anyway;
/// no rank or positions are read. A block scan decodes postings, and the
/// §4.4.2 work clock counts them, so the Figure 7 path remembers each
/// answer's gap ([`HdilProbeCursor::remembered`]) and scans no block twice
/// for targets in it.
#[derive(Debug, Clone)]
pub struct HdilProbeCursor {
    segment: SegmentId,
    /// The term's skip table; `None` for absent terms.
    skip: Option<Arc<SkipTable>>,
    /// `(page offset, page)` of the last landing block.
    pinned: Option<(u32, PageRef)>,
    /// Index of the last landing block.
    at: usize,
    stats: CursorStats,
    decoded: u64,
    /// The gaps [`HdilProbeCursor::kept_prefix`]'s answers certified.
    memo: ProbeMemo,
}

impl HdilProbeCursor {
    /// The Figure 7 probe answered from the gaps earlier
    /// [`HdilProbeCursor::kept_prefix`] probes certified empty: `Some`
    /// prefix length when one covers `target`. Touches no page and decodes
    /// nothing.
    pub fn remembered(&self, target: &DeweyId) -> Option<usize> {
        self.memo.lookup(target).map(|(entry, pred)| kept(target, entry, pred))
    }

    /// The Figure 7 probe, reduced to the one number it reads: how many
    /// leading components `target` shares with its lowest-geq entry or that
    /// entry's predecessor, whichever shares more. One
    /// [`HdilProbeCursor::lowest_geq`] probe, whose answer's gap is then
    /// remembered.
    pub fn kept_prefix<S: PageStore>(
        &mut self,
        pool: &BufferPool<S>,
        target: &DeweyId,
    ) -> StorageResult<usize> {
        let (entry, pred) = self.lowest_geq(pool, target)?;
        let keep = kept(target, entry.as_ref(), pred.as_ref());
        self.memo.insert((entry, pred));
        Ok(keep)
    }

    /// How the probes so far were served: off the pinned page
    /// (`seeks_forward` / `seeks_backward`, by direction from the previous
    /// landing position) or by pinning another page (`descents`).
    pub fn stats(&self) -> CursorStats {
        self.stats
    }

    /// List entries examined by the probes so far.
    pub fn postings_decoded(&self) -> u64 {
        self.decoded
    }

    /// Smallest Dewey ID `>= target` in the list, and its predecessor.
    pub fn lowest_geq<S: PageStore>(
        &mut self,
        pool: &BufferPool<S>,
        target: &DeweyId,
    ) -> StorageResult<(Option<DeweyId>, Option<DeweyId>)> {
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
        let landing = skip.last_leq(&codec::encode_id(target)).unwrap_or(0);
        let (segment, pinned, decoded) = (self.segment, &mut self.pinned, &mut self.decoded);
        let mut pinned_another = false;
        let mut scan = |block: usize, target: Option<&DeweyId>| -> StorageResult<BlockScan> {
            let e = &skip.blocks[block];
            let scanned = match &*pinned {
                Some((page_no, page)) if *page_no == e.page => {
                    scan_block(page, e.offset as usize, target)?
                }
                _ => {
                    pinned_another = true;
                    let page = pin_page(pool, segment, e.page)?;
                    let scanned = scan_block(&page, e.offset as usize, target)?;
                    // Keep the landing page; a neighbour's page is only
                    // borrowed for its boundary posting.
                    if block == landing {
                        *pinned = Some((e.page, page));
                    }
                    scanned
                }
            };
            *decoded += scanned.decoded as u64;
            Ok(scanned)
        };
        let BlockScan { below, at_or_above, .. } = scan(landing, Some(target))?;
        // Boundary cases reach into the neighbour block: the successor of a
        // block that sorts wholly below `target` is the next block's first
        // posting, the predecessor of a block's first posting the previous
        // block's last.
        let entry = match at_or_above {
            None if landing + 1 < blocks => scan(landing + 1, Some(target))?.at_or_above,
            found => found,
        };
        let pred = match below {
            None if landing > 0 => scan(landing - 1, None)?.below,
            found => found,
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
    fn prefix_postings_agree_with_rdil() {
        let (pool, hdil, rdil, c) = build_large();
        let term = c.vocabulary().lookup("common").unwrap();
        let mut cursor = rdil.probe_cursor(term);
        let mut run = crate::posting::PostingRun::default();
        for prefix in [DeweyId::from([0]), DeweyId::from([0, 0, 42]), DeweyId::from([0, 0, 399])]
        {
            let (h, decoded) = hdil.prefix_postings(&pool, term, &prefix).unwrap();
            cursor.scan_prefix(&pool, &prefix, &mut run).unwrap();
            let r = run.as_slice();
            assert_eq!(h.len(), r.len(), "count mismatch under {prefix}");
            assert!(decoded >= h.len() as u64, "every returned posting was decoded");
            for (a, b) in h.iter().zip(r.iter()) {
                assert_eq!(a.dewey, b.dewey);
                assert_eq!(a.positions, b.positions);
            }
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
        assert!(hdil.prefix_postings(&pool, t, &DeweyId::from([0])).unwrap().0.is_empty());
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
                let keep = kept(&target, fresh.0.as_ref(), fresh.1.as_ref());
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
}
