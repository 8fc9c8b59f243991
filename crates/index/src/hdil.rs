//! The Hybrid Dewey Inverted List (HDIL) — paper, Section 4.4.
//!
//! HDIL stores the *full* inverted list sorted by Dewey ID (usable by the
//! DIL algorithm) plus only a small rank-sorted **prefix** of each list
//! (usable by the RDIL algorithm until it is exhausted). Because the full
//! list is Dewey-sorted, it doubles as the leaf level of the per-keyword
//! B+-tree: "only the non-leaf part of the B+-tree needs to be explicitly
//! stored" (Section 4.4.1) — realized here with
//! [`xrank_storage::btree::Interior`] built over the list's pages. This is
//! why HDIL's *index* column in Table 1 is orders of magnitude smaller than
//! RDIL's while its *list* column is only slightly larger than DIL's.

use crate::block::SkipTable;
use crate::dil::DilIndex;
use crate::listio::{
    self, decode_dewey_page, pin_v2_page, scan_block, BlockScan, ListFormat, ListInfo, ListKind,
    ListMeta, ListReader,
};
use crate::posting::Posting;
use crate::rdil::rank_order;
use crate::SpaceBreakdown;
use std::sync::Arc;
use xrank_dewey::{codec, DeweyId};
use xrank_graph::TermId;
use xrank_storage::btree::{CursorStats, Interior, MAX_SIBLING_HOPS};
use xrank_storage::{
    BufferPool, PageId, PageRef, PageStore, SegmentId, StorageResult, PAGE_SIZE,
};

/// A located v1 Dewey-list entry: list meta, page offset, slot index
/// within the decoded page, and the page's postings.
type LocatedEntry = (ListMeta, u32, usize, Vec<Posting>);

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
    /// Segment holding the interior B+-tree pages of all terms.
    pub interior_segment: SegmentId,
    interiors: Vec<Option<Interior>>,
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

    /// Bulk-builds with explicit prefix sizing (ablation knob).
    pub fn build_with<S: PageStore>(
        pool: &mut BufferPool<S>,
        postings: &[Vec<Posting>],
        prefix_fraction: f64,
        min_prefix: usize,
    ) -> StorageResult<HdilIndex> {
        Self::build_full(pool, postings, prefix_fraction, min_prefix, PAGE_SIZE)
    }

    /// Fully-parameterized build: prefix sizing plus the per-page byte
    /// budget scale-emulation knob.
    pub fn build_full<S: PageStore>(
        pool: &mut BufferPool<S>,
        postings: &[Vec<Posting>],
        prefix_fraction: f64,
        min_prefix: usize,
        page_budget: usize,
    ) -> StorageResult<HdilIndex> {
        let (dil, firsts) = DilIndex::build_capturing(pool, postings, page_budget)?;
        let interior_segment = pool.store_mut().create_segment()?;
        let mut interiors = Vec::with_capacity(postings.len());
        for page_firsts in &firsts {
            if page_firsts.is_empty() {
                interiors.push(None);
            } else {
                interiors.push(Some(Interior::build(pool, interior_segment, page_firsts)?));
            }
        }

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
            prefix_lists.push(Some(listio::write_rank_list_budgeted(
                pool,
                prefix_segment,
                &by_rank,
                page_budget,
            )?));
        }

        Ok(HdilIndex { dil, interior_segment, interiors, prefix_segment, prefix_lists })
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
            .map(|info| ListReader::new(self.prefix_segment, info, ListKind::Rank))
    }

    /// Entries in the rank-sorted prefix of `term`.
    pub fn prefix_len(&self, term: TermId) -> u32 {
        self.prefix_lists
            .get(term.index())
            .and_then(|i| i.as_ref())
            .map_or(0, |i| i.meta.entry_count)
    }

    /// Locates the first posting with `dewey >= target` in a v1 Dewey list
    /// (the range scan's entry point; v2 lists seek by skip table):
    /// returns the page offset, slot, and the decoded page.
    fn locate<S: PageStore>(
        &self,
        pool: &BufferPool<S>,
        term: TermId,
        target: &DeweyId,
    ) -> StorageResult<Option<LocatedEntry>> {
        let (Some(info), Some(interior)) =
            (self.dil.info(term), self.interiors.get(term.index()).copied().flatten())
        else {
            return Ok(None);
        };
        let meta = info.meta;
        let key = codec::encode_id(target);
        let mut page_off = interior.descend(pool, &key)?;
        loop {
            // Decode straight off the pinned frame — no staging copy.
            let page = pool.read(PageId::new(self.dil.segment, page_off))?;
            let postings = decode_dewey_page(&page, ListFormat::V1)?;
            if let Some(slot) = postings.iter().position(|p| &p.dewey >= target) {
                return Ok(Some((meta, page_off, slot, postings)));
            }
            // Everything on this page sorts below target: advance.
            if page_off + 1 >= meta.start_page + meta.page_count {
                return Ok(Some((meta, page_off, postings.len(), postings)));
            }
            page_off += 1;
        }
    }

    /// The Section 4.3.2 probe against the Dewey-sorted list: smallest
    /// posting with `dewey >= target` and its predecessor — one probe of a
    /// fresh [`HdilProbeCursor`], so each list format has exactly one
    /// probe implementation.
    pub fn lowest_geq<S: PageStore>(
        &self,
        pool: &BufferPool<S>,
        term: TermId,
        target: &DeweyId,
    ) -> StorageResult<(Option<Posting>, Option<Posting>)> {
        self.probe_cursor(term).lowest_geq(pool, target)
    }

    /// Opens a stateful probe cursor for `term`. A v2 list is probed
    /// through its in-memory skip table, one block at a time; a v1 list
    /// (no skip table) through the stored interior levels, one page at a
    /// time. Either way the cursor keeps its current page across probes,
    /// so the TA loop's clustered targets cost no further page reads.
    pub fn probe_cursor(&self, term: TermId) -> HdilProbeCursor {
        let list = self.dil.info(term).and_then(|info| match (&info.skip, info.format) {
            (Some(skip), ListFormat::V2) => {
                Some(ProbeList::Blocks(BlockProbe { skip: skip.clone(), pinned: None, at: 0 }))
            }
            _ => self.interiors.get(term.index()).copied().flatten().map(|interior| {
                ProbeList::Pages(PageProbe { meta: info.meta, interior, current: None })
            }),
        });
        HdilProbeCursor { segment: self.dil.segment, list, stats: CursorStats::default(), decoded: 0 }
    }

    /// All postings of `term` whose Dewey has `prefix` as a prefix, and
    /// the number of list entries decoded to produce them (a landing
    /// block or page is decoded from its start, so this is at least the
    /// number returned).
    ///
    /// v2 lists answer this from the in-memory skip table: jump straight
    /// to the block that can contain `prefix` (no interior descent, no
    /// page touched outside the subtree's range) and decode entries until
    /// the first one past the subtree — descendants are contiguous in
    /// Dewey order, so that entry ends the scan. This is the TA loop's
    /// `range_scan` hot path; block granularity (≤ 127 entries) is what
    /// keeps each candidate check from decoding whole pages. v1 lists
    /// keep the interior-descent page walk.
    pub fn prefix_postings<S: PageStore>(
        &self,
        pool: &BufferPool<S>,
        term: TermId,
        prefix: &DeweyId,
    ) -> StorageResult<(Vec<Posting>, u64)> {
        let Some(info) = self.dil.info(term) else {
            return Ok((Vec::new(), 0));
        };
        if info.format == ListFormat::V2 {
            let mut r = ListReader::new(self.dil.segment, info, ListKind::Dewey);
            r.next_seek(pool, prefix)?;
            let mut out = Vec::new();
            while let Some(p) = r.peek(pool)? {
                if !prefix.is_ancestor_or_self_of(&p.dewey) {
                    break;
                }
                out.push(r.next(pool)?.expect("peeked entry present"));
            }
            return Ok((out, r.decoded()));
        }
        let Some((meta, mut page_off, mut slot, mut postings)) =
            self.locate(pool, term, prefix)?
        else {
            return Ok((Vec::new(), 0));
        };
        let mut out = Vec::new();
        let mut decoded = postings.len() as u64;
        loop {
            while slot < postings.len() {
                let p = &postings[slot];
                if !prefix.is_ancestor_or_self_of(&p.dewey) {
                    return Ok((out, decoded));
                }
                out.push(p.clone());
                slot += 1;
            }
            page_off += 1;
            if page_off >= meta.start_page + meta.page_count {
                return Ok((out, decoded));
            }
            let page = pool.read(PageId::new(self.dil.segment, page_off))?;
            postings = decode_dewey_page(&page, ListFormat::V1)?;
            decoded += postings.len() as u64;
            slot = 0;
        }
    }

    /// Serializes the index directory.
    pub fn write_meta<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        use xrank_storage::wire::put_u32;
        self.dil.write_meta(w)?;
        put_u32(w, self.interior_segment.0)?;
        put_u32(w, self.interiors.len() as u32)?;
        for entry in &self.interiors {
            match entry {
                Some(i) => {
                    put_u32(w, 1)?;
                    put_u32(w, i.segment.0)?;
                    put_u32(w, i.root)?;
                    put_u32(w, i.height)?;
                }
                None => put_u32(w, 0)?,
            }
        }
        put_u32(w, self.prefix_segment.0)?;
        listio::write_list_table(w, &self.prefix_lists)
    }

    /// Deserializes a directory written by [`HdilIndex::write_meta`].
    pub fn read_meta<R: std::io::Read>(r: &mut R) -> std::io::Result<HdilIndex> {
        use xrank_storage::wire::get_u32;
        let dil = DilIndex::read_meta(r)?;
        let interior_segment = SegmentId(get_u32(r)?);
        let n = get_u32(r)?;
        let mut interiors = Vec::with_capacity(n as usize);
        for _ in 0..n {
            interiors.push(match get_u32(r)? {
                0 => None,
                1 => Some(Interior {
                    segment: SegmentId(get_u32(r)?),
                    root: get_u32(r)?,
                    height: get_u32(r)?,
                }),
                k => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("bad interior tag {k}"),
                    ))
                }
            });
        }
        let prefix_segment = SegmentId(get_u32(r)?);
        let prefix_lists = listio::read_list_table(r)?;
        Ok(HdilIndex { dil, interior_segment, interiors, prefix_segment, prefix_lists })
    }

    /// Table 1 space: lists = full Dewey list + rank prefixes
    /// (byte-granular); index = interior pages only.
    pub fn space<S: PageStore>(&self, pool: &BufferPool<S>) -> SpaceBreakdown {
        let dil_bytes = self.dil.used_bytes();
        let prefix_bytes: u64 =
            self.prefix_lists.iter().flatten().map(|i| i.meta.used_bytes).sum();
        SpaceBreakdown {
            list_bytes: dil_bytes + prefix_bytes,
            index_bytes: pool.store().page_count(self.interior_segment) as u64
                * PAGE_SIZE as u64,
        }
    }
}

/// A per-keyword stateful probe cursor over HDIL's Dewey-sorted list.
///
/// HDIL's B+-tree leaves *are* the list pages (Section 4.4.1). On a v2
/// list the skip table already names the one block (≤ 127 entries) that
/// can hold the target, so a probe is a binary search in memory plus one
/// block scan off the pinned page — the stored interior levels are not
/// read. A v1 list has no skip table: its probes descend the interior and
/// decode whole pages, walking sibling pages forward from the cached one.
#[derive(Debug, Clone)]
pub struct HdilProbeCursor {
    segment: SegmentId,
    /// The term's list; `None` for absent terms.
    list: Option<ProbeList>,
    stats: CursorStats,
    decoded: u64,
}

#[derive(Debug, Clone)]
enum ProbeList {
    Blocks(BlockProbe),
    Pages(PageProbe),
}

impl HdilProbeCursor {
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

    /// Smallest posting with `dewey >= target`, and its predecessor.
    pub fn lowest_geq<S: PageStore>(
        &mut self,
        pool: &BufferPool<S>,
        target: &DeweyId,
    ) -> StorageResult<(Option<Posting>, Option<Posting>)> {
        let Some(list) = &mut self.list else {
            return Ok((None, None));
        };
        self.stats.probes += 1;
        match list {
            ProbeList::Blocks(b) => {
                b.lowest_geq(pool, self.segment, target, &mut self.stats, &mut self.decoded)
            }
            ProbeList::Pages(p) => {
                p.lowest_geq(pool, self.segment, target, &mut self.stats, &mut self.decoded)
            }
        }
    }
}

/// v2 probe state: the skip table, the pinned page, and the block the
/// last probe landed in.
#[derive(Debug, Clone)]
struct BlockProbe {
    skip: Arc<SkipTable>,
    /// `(page offset, page)` of the last landing block.
    pinned: Option<(u32, PageRef)>,
    /// Index of the last landing block.
    at: usize,
}

impl BlockProbe {
    fn lowest_geq<S: PageStore>(
        &mut self,
        pool: &BufferPool<S>,
        segment: SegmentId,
        target: &DeweyId,
        stats: &mut CursorStats,
        decoded: &mut u64,
    ) -> StorageResult<(Option<Posting>, Option<Posting>)> {
        let blocks = self.skip.blocks.len();
        if blocks == 0 {
            stats.seeks_forward += 1;
            return Ok((None, None));
        }
        // The only block that can hold `target`; a target before the whole
        // list is answered by the first posting of block 0.
        let landing = self.skip.last_leq(&codec::encode_id(target)).unwrap_or(0);
        let mut pinned_another = false;
        let mut scan = |this: &mut Self,
                        block: usize,
                        target: Option<&DeweyId>|
         -> StorageResult<BlockScan> {
            let e = &this.skip.blocks[block];
            let scanned = match &this.pinned {
                Some((page_no, page)) if *page_no == e.page => {
                    scan_block(page, e.offset as usize, target)?
                }
                _ => {
                    pinned_another = true;
                    let page = pin_v2_page(pool, segment, e.page)?;
                    let scanned = scan_block(&page, e.offset as usize, target)?;
                    // Keep the landing page; a neighbour's page is only
                    // borrowed for its boundary posting.
                    if block == landing {
                        this.pinned = Some((e.page, page));
                    }
                    scanned
                }
            };
            *decoded += scanned.decoded as u64;
            Ok(scanned)
        };
        let BlockScan { below, at_or_above, .. } = scan(self, landing, Some(target))?;
        // Boundary cases reach into the neighbour block: the successor of a
        // block that sorts wholly below `target` is the next block's first
        // posting, the predecessor of a block's first posting the previous
        // block's last.
        let entry = match at_or_above {
            None if landing + 1 < blocks => scan(self, landing + 1, Some(target))?.at_or_above,
            found => found,
        };
        let pred = match below {
            None if landing > 0 => scan(self, landing - 1, None)?.below,
            found => found,
        };
        if pinned_another {
            stats.descents += 1;
        } else if landing < self.at {
            stats.seeks_backward += 1;
        } else {
            stats.seeks_forward += 1;
        }
        self.at = landing;
        Ok((entry, pred))
    }
}

/// v1 probe state: the stored interior levels and the decoded current
/// page.
#[derive(Debug, Clone)]
struct PageProbe {
    meta: ListMeta,
    interior: Interior,
    /// Decoded current page: `(page offset, postings)`.
    current: Option<(u32, Vec<Posting>)>,
}

impl PageProbe {
    fn lowest_geq<S: PageStore>(
        &mut self,
        pool: &BufferPool<S>,
        segment: SegmentId,
        target: &DeweyId,
        stats: &mut CursorStats,
        decoded: &mut u64,
    ) -> StorageResult<(Option<Posting>, Option<Posting>)> {
        let (meta, interior) = (self.meta, self.interior);
        let last_page = meta.start_page + meta.page_count - 1;

        // Fast path: target at or after the cached page's first posting —
        // walk forward from it (bounded; a long jump descends instead).
        let forward_from = match &self.current {
            Some((off, postings)) if !postings.is_empty() && postings[0].dewey <= *target => {
                Some(*off)
            }
            _ => None,
        };
        let (mut page_off, descended) = match forward_from {
            Some(off) => {
                let mut off = off;
                let mut hops = 0u32;
                let mut reachable = true;
                while off < last_page && hops < MAX_SIBLING_HOPS {
                    let postings = self.decoded_page(pool, segment, off, decoded)?;
                    if postings.last().is_some_and(|p| p.dewey >= *target) {
                        break;
                    }
                    off += 1;
                    hops += 1;
                }
                if off < last_page && hops >= MAX_SIBLING_HOPS {
                    // Re-check: did the walk actually reach a covering page?
                    let postings = self.decoded_page(pool, segment, off, decoded)?;
                    reachable = postings.last().is_some_and(|p| p.dewey >= *target);
                }
                if reachable {
                    stats.seeks_forward += 1;
                    (off, false)
                } else {
                    let key = codec::encode_id(target);
                    stats.descents += 1;
                    (interior.descend(pool, &key)?, true)
                }
            }
            None => {
                let key = codec::encode_id(target);
                stats.descents += 1;
                (interior.descend(pool, &key)?, true)
            }
        };
        // After a descent the target may still lie past the landing page
        // (same forward scan `locate` does); walk until covered or last.
        if descended {
            while page_off < last_page {
                let postings = self.decoded_page(pool, segment, page_off, decoded)?;
                if postings.last().is_some_and(|p| p.dewey >= *target) {
                    break;
                }
                page_off += 1;
            }
        }

        let postings = self.decoded_page(pool, segment, page_off, decoded)?;
        let slot = postings.partition_point(|p| p.dewey < *target);
        let entry = postings.get(slot).cloned();
        let pred = if slot > 0 {
            postings.get(slot - 1).cloned()
        } else if page_off > meta.start_page {
            let prev = pool.read(PageId::new(segment, page_off - 1))?;
            let mut prev = decode_dewey_page(&prev, ListFormat::V1)?;
            *decoded += prev.len() as u64;
            prev.pop()
        } else {
            None
        };
        Ok((entry, pred))
    }

    /// The decoded postings of `page_off`, from the cache when current —
    /// each list page is parsed at most once per position change.
    fn decoded_page<S: PageStore>(
        &mut self,
        pool: &BufferPool<S>,
        segment: SegmentId,
        page_off: u32,
        decoded: &mut u64,
    ) -> StorageResult<&Vec<Posting>> {
        let cached = matches!(&self.current, Some((off, _)) if *off == page_off);
        if !cached {
            let page = pool.read(PageId::new(segment, page_off))?;
            let postings = decode_dewey_page(&page, ListFormat::V1)?;
            *decoded += postings.len() as u64;
            self.current = Some((page_off, postings));
        }
        Ok(&self.current.as_ref().expect("page just cached").1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::direct_postings;
    use crate::rdil::RdilIndex;
    use proptest::prelude::*;
    use xrank_graph::CollectionBuilder;
    use xrank_storage::{FaultAt, FaultKind, FaultRule, FaultStore, MemStore, StorageError};

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
            assert_eq!(
                he.as_ref().map(|p| &p.dewey),
                re.as_ref().map(|p| &p.dewey),
                "entry mismatch at {probe}"
            );
            assert_eq!(
                hp.as_ref().map(|p| &p.dewey),
                rp.as_ref().map(|p| &p.dewey),
                "pred mismatch at {probe}"
            );
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
        for prefix in [DeweyId::from([0]), DeweyId::from([0, 0, 42]), DeweyId::from([0, 0, 399])]
        {
            let (h, decoded) = hdil.prefix_postings(&pool, term, &prefix).unwrap();
            let r = rdil.prefix_postings(&pool, term, &prefix).unwrap();
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
        assert!(info.skip.as_ref().unwrap().blocks.len() >= 20);
        (pool, hdil, postings)
    }

    /// Brute-force `lowest_geq` over the decoded list.
    fn oracle(postings: &[Posting], target: &DeweyId) -> (Option<Posting>, Option<Posting>) {
        let at = postings.partition_point(|p| p.dewey < *target);
        (postings.get(at).cloned(), at.checked_sub(1).map(|i| postings[i].clone()))
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
        let skip = hdil.dil.info(TERM).unwrap().skip.clone().unwrap();
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
        let skip = hdil.dil.info(TERM).unwrap().skip.clone().unwrap();
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
