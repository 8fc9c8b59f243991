//! Packing posting lists into pages and streaming them back.
//!
//! v2 (current) page layout: `[crc: u32]` (CRC-32 of bytes 4..PAGE_SIZE,
//! i.e. everything after the checksum itself, slack included), `[n: u16]`
//! total entries, then a run of *blocks* — `[count: varint ≤ 127]`, the
//! block's rank dictionary, and `count` entries whose Dewey IDs are
//! delta-encoded against the previous entry in the same block and whose
//! ranks are one-byte dictionary indexes (see [`crate::block`]). The
//! checksum is verified once per page pin, so corruption that slips past
//! (or occurs above) the store's own trailer — bad RAM, a flipped bus
//! line — surfaces as a typed [`StorageError`] on exactly the queries
//! that touch the page instead of silently perturbing delta decoding.
//! The first entry of every block is a
//! restart, so any page is still decodable in isolation — the property
//! HDIL exploits when its B+-tree descends into the middle of a list
//! (Section 4.4.1) — while the per-list [`SkipTable`] (one entry per
//! block: first key, exact max rank, page/byte offset) lets readers jump
//! over whole blocks without decoding them. Rank-ordered lists use the
//! same block deltas (v1 encoded every Dewey in full there).
//!
//! v1 pages (`[n: u16]` + entries with per-*page* delta restarts, naive
//! lists with per-page elta restarts, rank lists full-Dewey) remain fully
//! readable: a [`ListInfo`] carries the [`ListFormat`] and readers pick
//! the decode path per list, so stores persisted before the format bump
//! keep serving unchanged.
//!
//! Lists are written as contiguous page runs inside a shared segment; the
//! buffer pool's per-stream readahead model then charges a full-list scan
//! as one seek plus sequential reads.

use crate::block::{self, SkipEntry, SkipTable, MAX_BLOCK_ENTRIES};
use crate::posting::{self, NaivePosting, Posting};
use std::collections::VecDeque;
use std::sync::Arc;
use xrank_dewey::codec;
use xrank_dewey::DeweyId;
use xrank_storage::wire::SliceReader;
use xrank_storage::{
    crc32, wire, BufferPool, PageId, PageRef, PageStore, SegmentId, StorageError, StorageResult,
    PAGE_SIZE,
};

/// v2 page header: `[crc: u32][n: u16]`; blocks start here.
const V2_PAGE_HEADER: usize = 6;
/// Offset of the entry-count field inside a v2 page (the checksum covers
/// everything from here to the end of the page).
const V2_COUNT_OFF: usize = 4;

/// Location of one term's list inside its segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ListMeta {
    /// First page of the run.
    pub start_page: u32,
    /// Number of pages.
    pub page_count: u32,
    /// Number of postings.
    pub entry_count: u32,
    /// Bytes actually occupied by entries + page headers (excludes page
    /// padding; the byte-granular size a filesystem-resident list would
    /// have, which is what Table 1 reports).
    pub used_bytes: u64,
}

/// On-disk encoding of a list's pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ListFormat {
    /// Uncompressed pre-block format: per-page delta restarts (Dewey
    /// lists), full Dewey per entry (rank lists), no skip table.
    V1,
    /// Block-compressed format with a per-block skip table.
    V2,
}

/// Everything a reader needs to open one list: its location, its page
/// format, and (v2) the skip table.
#[derive(Debug, Clone)]
pub struct ListInfo {
    /// List location.
    pub meta: ListMeta,
    /// Page encoding.
    pub format: ListFormat,
    /// Per-block skip entries; `Some` exactly for v2 lists.
    pub skip: Option<Arc<SkipTable>>,
}

impl ListInfo {
    fn skip_table(&self) -> &SkipTable {
        self.skip.as_deref().expect("v2 list carries a skip table")
    }
}

/// `(encoded first key, global page offset)` per sealed page.
pub type PageFirsts = Vec<(Vec<u8>, u32)>;

/// Result of writing a Dewey-ordered list: the list info plus each page's
/// first key (used to build HDIL's interior levels).
#[derive(Debug, Clone)]
pub struct DeweyListWrite {
    /// List info (meta + format + skip table).
    pub info: ListInfo,
    /// `(encoded first Dewey, global page offset)` per page.
    pub page_firsts: PageFirsts,
}

impl ListMeta {
    /// Serializes the metadata.
    pub fn write_meta<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        wire::put_u32(w, self.start_page)?;
        wire::put_u32(w, self.page_count)?;
        wire::put_u32(w, self.entry_count)?;
        wire::put_u64(w, self.used_bytes)
    }

    /// Deserializes metadata written by [`ListMeta::write_meta`].
    pub fn read_meta<R: std::io::Read>(r: &mut R) -> std::io::Result<ListMeta> {
        Ok(ListMeta {
            start_page: wire::get_u32(r)?,
            page_count: wire::get_u32(r)?,
            entry_count: wire::get_u32(r)?,
            used_bytes: wire::get_u64(r)?,
        })
    }
}

/// Serializes a per-term list directory. Tag 1 = v1 list (meta only),
/// tag 2 = v2 list (meta + skip table).
pub fn write_list_table<W: std::io::Write>(
    w: &mut W,
    lists: &[Option<ListInfo>],
) -> std::io::Result<()> {
    wire::put_u32(w, lists.len() as u32)?;
    for entry in lists {
        match entry {
            Some(info) => match info.format {
                ListFormat::V1 => {
                    wire::put_u32(w, 1)?;
                    info.meta.write_meta(w)?;
                }
                ListFormat::V2 => {
                    wire::put_u32(w, 2)?;
                    info.meta.write_meta(w)?;
                    info.skip_table().write(w)?;
                }
            },
            None => wire::put_u32(w, 0)?,
        }
    }
    Ok(())
}

/// Deserializes a per-term list directory (both v1 and v2 entries).
pub fn read_list_table<R: std::io::Read>(r: &mut R) -> std::io::Result<Vec<Option<ListInfo>>> {
    let n = wire::get_u32(r)?;
    let mut out = Vec::with_capacity(n as usize);
    for _ in 0..n {
        out.push(match wire::get_u32(r)? {
            0 => None,
            1 => Some(ListInfo {
                meta: ListMeta::read_meta(r)?,
                format: ListFormat::V1,
                skip: None,
            }),
            2 => Some(ListInfo {
                meta: ListMeta::read_meta(r)?,
                format: ListFormat::V2,
                skip: Some(Arc::new(SkipTable::read(r)?)),
            }),
            k => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("bad list-table tag {k}"),
                ))
            }
        });
    }
    Ok(out)
}

/// v1 page scaffolding — only the test-only v1 writer still produces
/// pages in this layout; production writers emit v2.
#[cfg(test)]
fn new_page() -> Vec<u8> {
    let mut p = Vec::with_capacity(PAGE_SIZE);
    p.extend_from_slice(&0u16.to_le_bytes());
    p
}

#[cfg(test)]
fn seal(page: &mut [u8], n: u16) {
    page[0..2].copy_from_slice(&n.to_le_bytes());
}

/// A fresh v2 page with its 6-byte header reserved.
fn new_page_v2() -> Vec<u8> {
    let mut p = Vec::with_capacity(PAGE_SIZE);
    p.resize(V2_PAGE_HEADER, 0);
    p
}

/// Seals a v2 page: pads to [`PAGE_SIZE`], writes the entry count, and
/// stamps the checksum over everything after the checksum field (so slack
/// corruption is detected too).
fn seal_v2(page: &mut Vec<u8>, n: u16) {
    page.resize(PAGE_SIZE, 0);
    page[V2_COUNT_OFF..V2_PAGE_HEADER].copy_from_slice(&n.to_le_bytes());
    let crc = crc32(&page[V2_COUNT_OFF..]);
    page[0..V2_COUNT_OFF].copy_from_slice(&crc.to_le_bytes());
}

/// Verifies a v2 page's checksum.
fn v2_verify(page: &[u8]) -> StorageResult<()> {
    if page.len() < V2_PAGE_HEADER {
        return Err(StorageError::corrupt("v2 list page shorter than its header"));
    }
    let stored = u32::from_le_bytes(page[0..V2_COUNT_OFF].try_into().expect("4 bytes"));
    let computed = crc32(&page[V2_COUNT_OFF..]);
    if stored != computed {
        return Err(StorageError::corrupt(format!(
            "v2 list page checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
        )));
    }
    Ok(())
}

/// Verifies a pinned v2 page's checksum only when the pin performed the
/// physical read: bytes served from the cache were verified when they came
/// off the medium, so steady-state (cache-hit) decodes skip the CRC pass.
fn v2_verify_fresh(page: &PageRef) -> StorageResult<()> {
    if page.fresh() {
        v2_verify(page)
    } else if page.len() < V2_PAGE_HEADER {
        Err(StorageError::corrupt("v2 list page shorter than its header"))
    } else {
        Ok(())
    }
}

/// Bounds-checked entry count of a v2 page (no checksum pass).
fn v2_entry_count(page: &[u8]) -> StorageResult<usize> {
    if page.len() < V2_PAGE_HEADER {
        return Err(StorageError::corrupt("v2 list page shorter than its header"));
    }
    let n = u16::from_le_bytes(page[V2_COUNT_OFF..V2_PAGE_HEADER].try_into().expect("2 bytes"));
    Ok(n as usize)
}

/// Verifies a v2 page's checksum and returns its entry count.
fn v2_page_header(page: &[u8]) -> StorageResult<usize> {
    v2_verify(page)?;
    v2_entry_count(page)
}

/// Per-entry encoding for one list family, as consumed by [`ListPacker`].
/// `prev` is the previous item *in the same block* (`None` at restarts).
/// `Block` is per-block encoder state, reset at every restart — the rank
/// dictionary for posting lists, nothing for naive lists. Its serialized
/// form (the block *prefix*) lands between the count varint and the
/// entries when the block is flushed.
trait BlockCodec {
    /// The posting type being packed.
    type Item;
    /// Per-block encoder state.
    type Block: Default;

    /// Bytes [`BlockCodec::encode`] would append to the entry run, plus
    /// any growth of the block prefix the entry causes.
    fn encoded_len(&self, blk: &Self::Block, prev: Option<&Self::Item>, item: &Self::Item)
        -> usize;

    /// Appends the entry's encoding, updating the block state.
    fn encode(
        &self,
        blk: &mut Self::Block,
        prev: Option<&Self::Item>,
        item: &Self::Item,
        out: &mut Vec<u8>,
    );

    /// Bytes the block prefix occupies for state `blk`.
    fn prefix_len(&self, blk: &Self::Block) -> usize;

    /// Writes the block prefix.
    fn write_prefix(&self, blk: &Self::Block, out: &mut Vec<u8>);

    /// The item's skip key (byte-lexicographic order == item order for
    /// ordered lists).
    fn key(&self, item: &Self::Item) -> Vec<u8>;

    /// The item's rank (for per-block max-rank).
    fn rank(&self, item: &Self::Item) -> f32;
}

/// Dewey- and rank-ordered lists share one v2 entry encoding.
struct PostingBlockCodec;

impl BlockCodec for PostingBlockCodec {
    type Item = Posting;
    type Block = block::RankDict;

    fn encoded_len(&self, blk: &block::RankDict, prev: Option<&Posting>, item: &Posting) -> usize {
        block::entry_len(prev.map(|p| &p.dewey), item) + blk.growth(item.rank)
    }

    fn encode(
        &self,
        blk: &mut block::RankDict,
        prev: Option<&Posting>,
        item: &Posting,
        out: &mut Vec<u8>,
    ) {
        block::encode_entry(prev.map(|p| &p.dewey), item, blk, out);
    }

    fn prefix_len(&self, blk: &block::RankDict) -> usize {
        blk.prefix_len()
    }

    fn write_prefix(&self, blk: &block::RankDict, out: &mut Vec<u8>) {
        blk.write(out);
    }

    fn key(&self, item: &Posting) -> Vec<u8> {
        codec::encode_id(&item.dewey)
    }

    fn rank(&self, item: &Posting) -> f32 {
        item.rank
    }
}

/// Naive lists: ordered elem varint (delta within a block when `delta`)
/// plus the shared payload.
struct NaiveBlockCodec {
    delta: bool,
}

impl NaiveBlockCodec {
    fn elem_field(&self, prev: Option<&NaivePosting>, item: &NaivePosting) -> u32 {
        match prev {
            Some(q) if self.delta => item.elem - q.elem,
            _ => item.elem,
        }
    }
}

impl BlockCodec for NaiveBlockCodec {
    type Item = NaivePosting;
    type Block = ();

    fn encoded_len(&self, _blk: &(), prev: Option<&NaivePosting>, item: &NaivePosting) -> usize {
        codec::component_encoded_len(self.elem_field(prev, item))
            + posting::payload_len(&item.positions)
    }

    fn encode(
        &self,
        _blk: &mut (),
        prev: Option<&NaivePosting>,
        item: &NaivePosting,
        out: &mut Vec<u8>,
    ) {
        codec::write_component(self.elem_field(prev, item), out);
        posting::encode_payload(item.rank, &item.positions, out);
    }

    fn prefix_len(&self, _blk: &()) -> usize {
        0
    }

    fn write_prefix(&self, _blk: &(), _out: &mut Vec<u8>) {}

    fn key(&self, item: &NaivePosting) -> Vec<u8> {
        let mut v = Vec::with_capacity(5);
        codec::write_component(item.elem, &mut v);
        v
    }

    fn rank(&self, item: &NaivePosting) -> f32 {
        item.rank
    }
}

/// The one page-packing loop behind all three `write_*` families: fills
/// blocks of at most [`MAX_BLOCK_ENTRIES`] entries, flushes each block
/// (count varint + body) into the current page, seals a page when the
/// next block would overflow the byte budget, and records one
/// [`SkipEntry`] per block plus each page's first key.
///
/// Keeps the v1 budget semantics: the budget is clamped to
/// `[64, PAGE_SIZE]` and a single entry larger than the budget still
/// goes out alone on a fresh page (asserting it fits [`PAGE_SIZE`]).
struct ListPacker<'a, C: BlockCodec> {
    codec: C,
    budget: usize,
    segment: SegmentId,
    start_page: u32,
    pages_done: u32,
    page: Vec<u8>,
    page_entries: u16,
    blk: Vec<u8>,
    blk_state: C::Block,
    blk_count: u8,
    blk_last: Option<&'a C::Item>,
    blk_first_key: Vec<u8>,
    blk_max_rank: f32,
    skip: Vec<SkipEntry>,
    page_firsts: PageFirsts,
    entry_count: u32,
    used_bytes: u64,
}

impl<'a, C: BlockCodec> ListPacker<'a, C> {
    fn new<S: PageStore>(codec: C, pool: &BufferPool<S>, segment: SegmentId, budget: usize) -> Self {
        ListPacker {
            codec,
            budget: budget.clamp(64, PAGE_SIZE),
            segment,
            start_page: pool.store().page_count(segment),
            pages_done: 0,
            page: new_page_v2(),
            page_entries: 0,
            blk: Vec::with_capacity(PAGE_SIZE),
            blk_state: C::Block::default(),
            blk_count: 0,
            blk_last: None,
            blk_first_key: Vec::new(),
            blk_max_rank: f32::NEG_INFINITY,
            skip: Vec::new(),
            page_firsts: Vec::new(),
            entry_count: 0,
            used_bytes: 0,
        }
    }

    /// Moves the staged block (count varint + entries) into the current
    /// page and records its skip entry. No-op on an empty block.
    fn flush_block(&mut self) {
        if self.blk_count == 0 {
            return;
        }
        let page_no = self.start_page + self.pages_done;
        let first_key = std::mem::take(&mut self.blk_first_key);
        if self.page_entries == 0 {
            self.page_firsts.push((first_key.clone(), page_no));
        }
        self.skip.push(SkipEntry {
            first_key,
            max_rank: self.blk_max_rank,
            page: page_no,
            offset: self.page.len() as u16,
        });
        codec::write_component(self.blk_count as u32, &mut self.page);
        self.codec.write_prefix(&self.blk_state, &mut self.page);
        self.page.extend_from_slice(&self.blk);
        self.page_entries += self.blk_count as u16;
        self.blk.clear();
        self.blk_state = C::Block::default();
        self.blk_count = 0;
        self.blk_last = None;
        self.blk_max_rank = f32::NEG_INFINITY;
    }

    /// Seals and appends the current page (must hold no staged block).
    fn seal_page<S: PageStore>(&mut self, pool: &mut BufferPool<S>) -> StorageResult<()> {
        debug_assert_eq!(self.blk_count, 0, "seal with a staged block");
        if self.page_entries == 0 {
            return Ok(());
        }
        self.used_bytes += self.page.len() as u64;
        seal_v2(&mut self.page, self.page_entries);
        let off = pool.append_page(self.segment, &self.page)?;
        debug_assert_eq!(off, self.start_page + self.pages_done);
        self.pages_done += 1;
        self.page = new_page_v2();
        self.page_entries = 0;
        Ok(())
    }

    fn push<S: PageStore>(
        &mut self,
        pool: &mut BufferPool<S>,
        item: &'a C::Item,
    ) -> StorageResult<()> {
        if self.blk_count as usize >= MAX_BLOCK_ENTRIES {
            self.flush_block();
        }
        // +1 below: the block-count varint (always one byte at ≤ 127).
        // `encoded_len` already includes prefix growth, so the check is
        // against the block's flushed size: count + prefix + entries.
        let len = self.codec.encoded_len(&self.blk_state, self.blk_last, item);
        let staged = 1 + self.codec.prefix_len(&self.blk_state) + self.blk.len();
        if self.page.len() + staged + len > self.budget {
            self.flush_block();
            let fresh = C::Block::default();
            let restart =
                1 + self.codec.prefix_len(&fresh) + self.codec.encoded_len(&fresh, None, item);
            if self.page_entries > 0 && self.page.len() + restart > self.budget {
                self.seal_page(pool)?;
            }
            if self.page_entries == 0 {
                assert!(
                    V2_PAGE_HEADER + restart <= PAGE_SIZE,
                    "single posting exceeds a page"
                );
            }
        }
        if self.blk_count == 0 {
            self.blk_first_key = self.codec.key(item);
            self.blk_max_rank = self.codec.rank(item);
        } else {
            self.blk_max_rank = self.blk_max_rank.max(self.codec.rank(item));
        }
        self.codec.encode(&mut self.blk_state, self.blk_last, item, &mut self.blk);
        self.blk_count += 1;
        self.blk_last = Some(item);
        self.entry_count += 1;
        Ok(())
    }

    fn finish<S: PageStore>(
        mut self,
        pool: &mut BufferPool<S>,
    ) -> StorageResult<(ListMeta, SkipTable, PageFirsts)> {
        self.flush_block();
        self.seal_page(pool)?;
        Ok((
            ListMeta {
                start_page: self.start_page,
                page_count: self.pages_done,
                entry_count: self.entry_count,
                used_bytes: self.used_bytes,
            },
            SkipTable { blocks: self.skip },
            self.page_firsts,
        ))
    }
}

/// Writes a Dewey-sorted list as v2 compressed blocks.
///
/// Panics if one entry cannot fit a page (positions lists are bounded by
/// the tokenizer's per-element text sizes; see crate docs).
pub fn write_dewey_list<S: PageStore>(
    pool: &mut BufferPool<S>,
    segment: SegmentId,
    postings: &[Posting],
) -> StorageResult<DeweyListWrite> {
    write_dewey_list_budgeted(pool, segment, postings, PAGE_SIZE)
}

/// As [`write_dewey_list`] with an explicit per-page byte budget.
///
/// `budget < PAGE_SIZE` packs fewer entries per page, emulating the larger
/// (uncompressed) posting entries of the paper's C++ implementation — the
/// experiment harness uses this to reproduce the paper's list *lengths in
/// pages* without materializing a 143 MB corpus (see DESIGN.md).
pub fn write_dewey_list_budgeted<S: PageStore>(
    pool: &mut BufferPool<S>,
    segment: SegmentId,
    postings: &[Posting],
    budget: usize,
) -> StorageResult<DeweyListWrite> {
    let mut pk = ListPacker::new(PostingBlockCodec, pool, segment, budget);
    for p in postings {
        pk.push(pool, p)?;
    }
    let (meta, skip, page_firsts) = pk.finish(pool)?;
    Ok(DeweyListWrite {
        info: ListInfo { meta, format: ListFormat::V2, skip: Some(Arc::new(skip)) },
        page_firsts,
    })
}

/// Writes a rank-ordered list as v2 compressed blocks.
pub fn write_rank_list<S: PageStore>(
    pool: &mut BufferPool<S>,
    segment: SegmentId,
    postings: &[Posting],
) -> StorageResult<ListInfo> {
    write_rank_list_budgeted(pool, segment, postings, PAGE_SIZE)
}

/// As [`write_rank_list`] with an explicit per-page byte budget.
pub fn write_rank_list_budgeted<S: PageStore>(
    pool: &mut BufferPool<S>,
    segment: SegmentId,
    postings: &[Posting],
    budget: usize,
) -> StorageResult<ListInfo> {
    let mut pk = ListPacker::new(PostingBlockCodec, pool, segment, budget);
    for p in postings {
        pk.push(pool, p)?;
    }
    let (meta, skip, _) = pk.finish(pool)?;
    Ok(ListInfo { meta, format: ListFormat::V2, skip: Some(Arc::new(skip)) })
}

/// Writes a naive list as v2 compressed blocks. `delta` encodes ascending
/// element ids as within-block deltas (Naive-ID order); rank-ordered
/// naive lists pass `delta = false`.
pub fn write_naive_list<S: PageStore>(
    pool: &mut BufferPool<S>,
    segment: SegmentId,
    postings: &[NaivePosting],
    delta: bool,
) -> StorageResult<ListInfo> {
    write_naive_list_budgeted(pool, segment, postings, delta, PAGE_SIZE)
}

/// As [`write_naive_list`] with an explicit per-page byte budget.
pub fn write_naive_list_budgeted<S: PageStore>(
    pool: &mut BufferPool<S>,
    segment: SegmentId,
    postings: &[NaivePosting],
    delta: bool,
    budget: usize,
) -> StorageResult<ListInfo> {
    let mut pk = ListPacker::new(NaiveBlockCodec { delta }, pool, segment, budget);
    for p in postings {
        pk.push(pool, p)?;
    }
    let (meta, skip, _) = pk.finish(pool)?;
    Ok(ListInfo { meta, format: ListFormat::V2, skip: Some(Arc::new(skip)) })
}

/// Reads a list page's entry-count header, bounds-checked.
fn page_header(page: &[u8]) -> StorageResult<usize> {
    SliceReader::new(page)
        .get_u16()
        .map(|n| n as usize)
        .map_err(|_| StorageError::corrupt("list page shorter than its header"))
}

/// Decodes a Dewey-list page into postings (`elem` ids are not stored on
/// disk and come back as 0). Corruption yields a typed error, not a panic.
pub fn decode_dewey_page(page: &[u8], format: ListFormat) -> StorageResult<Vec<Posting>> {
    match format {
        ListFormat::V2 => decode_block_page(page),
        ListFormat::V1 => {
            let n = page_header(page)?;
            let mut out = Vec::with_capacity(n.min(PAGE_SIZE));
            let mut off = 2;
            let mut prev: Option<DeweyId> = None;
            for _ in 0..n {
                let (p, consumed) = posting::decode_entry(prev.as_ref(), &page[off..])
                    .map_err(|e| StorageError::corrupt(format!("dewey list page entry: {e}")))?;
                off += consumed;
                prev = Some(p.dewey.clone());
                out.push(p);
            }
            Ok(out)
        }
    }
}

/// Decodes a rank-list page.
pub fn decode_rank_page(page: &[u8], format: ListFormat) -> StorageResult<Vec<Posting>> {
    match format {
        ListFormat::V2 => decode_block_page(page),
        ListFormat::V1 => {
            let n = page_header(page)?;
            let mut out = Vec::with_capacity(n.min(PAGE_SIZE));
            let mut off = 2;
            for _ in 0..n {
                let (p, consumed) = posting::decode_entry(None, &page[off..])
                    .map_err(|e| StorageError::corrupt(format!("rank list page entry: {e}")))?;
                off += consumed;
                out.push(p);
            }
            Ok(out)
        }
    }
}

/// Shared v2 page decode for Dewey- and rank-ordered lists (their v2
/// entry encoding is identical).
fn decode_block_page(page: &[u8]) -> StorageResult<Vec<Posting>> {
    let n = v2_page_header(page)?;
    let mut out = Vec::with_capacity(n.min(PAGE_SIZE));
    let mut off = V2_PAGE_HEADER;
    while out.len() < n {
        off = block::decode_block(page, off, &mut out)?;
        if out.len() > n {
            return Err(StorageError::corrupt("list page blocks exceed entry count"));
        }
    }
    Ok(out)
}

/// Decodes a naive-list page (pass the same `delta` used when writing).
pub fn decode_naive_page(
    page: &[u8],
    delta: bool,
    format: ListFormat,
) -> StorageResult<Vec<NaivePosting>> {
    let (n, mut off) = match format {
        ListFormat::V2 => (v2_page_header(page)?, V2_PAGE_HEADER),
        ListFormat::V1 => (page_header(page)?, 2),
    };
    let mut out = Vec::with_capacity(n.min(PAGE_SIZE));
    match format {
        ListFormat::V2 => {
            while out.len() < n {
                off = decode_naive_block(page, off, delta, &mut out)?;
                if out.len() > n {
                    return Err(StorageError::corrupt("list page blocks exceed entry count"));
                }
            }
        }
        ListFormat::V1 => {
            for i in 0..n {
                off = decode_naive_entry(page, off, delta && i > 0, &mut out)?;
            }
        }
    }
    Ok(out)
}

/// Decodes one v2 naive block starting at `page[off..]`; returns the
/// offset just past it.
fn decode_naive_block(
    page: &[u8],
    mut off: usize,
    delta: bool,
    out: &mut Vec<NaivePosting>,
) -> StorageResult<usize> {
    let (count, used) = codec::read_component(
        page.get(off..).ok_or_else(|| StorageError::corrupt("block count overruns page"))?,
    )
    .map_err(|e| StorageError::corrupt(format!("naive block count: {e}")))?;
    off += used;
    for i in 0..count {
        off = decode_naive_entry(page, off, delta && i > 0, out)?;
    }
    Ok(off)
}

/// Decodes one naive entry; `delta` means the elem field is relative to
/// the previous entry in `out`.
fn decode_naive_entry(
    page: &[u8],
    mut off: usize,
    delta: bool,
    out: &mut Vec<NaivePosting>,
) -> StorageResult<usize> {
    let buf = page.get(off..).ok_or_else(|| StorageError::corrupt("naive entry overruns page"))?;
    let (field, consumed) = codec::read_component(buf)
        .map_err(|e| StorageError::corrupt(format!("naive list page entry: {e}")))?;
    off += consumed;
    let elem = if delta {
        let prev = out.last().map_or(0, |p| p.elem);
        prev.checked_add(field)
            .ok_or_else(|| StorageError::corrupt("naive list element id overflow"))?
    } else {
        field
    };
    let buf = page.get(off..).ok_or_else(|| StorageError::corrupt("naive entry overruns page"))?;
    let (rank, positions, consumed) = posting::decode_payload(buf)
        .map_err(|e| StorageError::corrupt(format!("naive list payload: {e}")))?;
    off += consumed;
    out.push(NaivePosting { elem, rank, positions });
    Ok(off)
}

/// How a list's pages should be decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ListKind {
    /// Dewey-sorted (delta restarts per page in v1, per block in v2).
    Dewey,
    /// Rank-sorted (full Dewey per entry in v1, block deltas in v2).
    Rank,
}

/// The page a [`ListReader`] is currently decoding: the frame stays pinned
/// via its [`PageRef`] while postings are decoded out of it one at a time,
/// straight from the frame bytes (no staging copy of the page, no eager
/// whole-page materialization).
#[derive(Debug)]
struct PageFrame {
    page: PageRef,
    /// Global page offset (v2 block navigation is addressed by page).
    page_no: u32,
    off: usize,
    /// v1: entries left on this page. Unused in v2 (block-driven).
    remaining: usize,
    /// Delta base (v1: restarts per page; v2: per block).
    prev: Option<DeweyId>,
}

/// Streaming reader over a [`ListMeta`] page run. Does not borrow the
/// pool, so a query can interleave several readers (the multiway merges of
/// Figures 5 and 7). Decoding is lazy and zero-copy: each `next` decodes
/// exactly one posting from the pinned current page, so a reader that is
/// abandoned early (TA stop, switch to DIL) never pays for entries it did
/// not consume. v2 readers additionally skip whole blocks via
/// [`ListReader::next_seek`] and answer [`ListReader::rank_bound`] from
/// the skip table without I/O.
#[derive(Debug)]
pub struct ListReader {
    segment: SegmentId,
    meta: ListMeta,
    kind: ListKind,
    format: ListFormat,
    skip: Option<Arc<SkipTable>>,
    /// v1 sequential cursor: next page of the run to pull.
    next_page: u32,
    frame: Option<PageFrame>,
    pending: Option<Posting>,
    consumed: u32,
    /// v2: blocks entered so far == index of the next block to enter.
    entered_blocks: usize,
    /// v2: entries left undecoded in the current block.
    block_remaining: u32,
    /// v2: the current block's rank dictionary.
    blk_ranks: Vec<f32>,
    blocks_decoded: u64,
    blocks_skipped: u64,
    /// Entries [`ListReader::next_seek`] decoded and dropped.
    dropped: u64,
}

impl ListReader {
    /// Creates a reader positioned at the start of the list.
    pub fn new(segment: SegmentId, info: &ListInfo, kind: ListKind) -> Self {
        debug_assert!(
            info.format == ListFormat::V1 || info.skip.is_some(),
            "v2 list without a skip table"
        );
        ListReader {
            segment,
            meta: info.meta,
            kind,
            format: info.format,
            skip: info.skip.clone(),
            next_page: info.meta.start_page,
            frame: None,
            pending: None,
            consumed: 0,
            entered_blocks: 0,
            block_remaining: 0,
            blk_ranks: Vec::new(),
            blocks_decoded: 0,
            blocks_skipped: 0,
            dropped: 0,
        }
    }

    /// The list's metadata.
    pub fn meta(&self) -> ListMeta {
        self.meta
    }

    /// Entries yielded so far (excludes entries dropped by
    /// [`ListReader::next_seek`]).
    pub fn consumed(&self) -> u32 {
        self.consumed
    }

    /// Blocks whose entries this reader started decoding (v2; 0 on v1).
    pub fn blocks_decoded(&self) -> u64 {
        self.blocks_decoded
    }

    /// Blocks jumped over without decoding (v2; 0 on v1).
    pub fn blocks_skipped(&self) -> u64 {
        self.blocks_skipped
    }

    /// Postings decoded off list pages so far: those yielded, those
    /// [`ListReader::next_seek`] decoded and dropped inside a landing
    /// block, and a peeked one not yet yielded.
    pub fn decoded(&self) -> u64 {
        self.consumed as u64 + self.dropped + self.pending.is_some() as u64
    }

    /// Peeks at the next posting without consuming it.
    pub fn peek<S: PageStore>(
        &mut self,
        pool: &BufferPool<S>,
    ) -> StorageResult<Option<&Posting>> {
        self.ensure_pending(pool)?;
        Ok(self.pending.as_ref())
    }

    /// Pops the next posting.
    pub fn next<S: PageStore>(&mut self, pool: &BufferPool<S>) -> StorageResult<Option<Posting>> {
        self.ensure_pending(pool)?;
        let p = self.pending.take();
        if p.is_some() {
            self.consumed += 1;
        }
        Ok(p)
    }

    /// Decodes the next posting into `pending` (one entry, in place on the
    /// pinned frame), pulling the next page / block when the current one
    /// is spent.
    fn ensure_pending<S: PageStore>(&mut self, pool: &BufferPool<S>) -> StorageResult<()> {
        if self.pending.is_some() {
            return Ok(());
        }
        match self.format {
            ListFormat::V1 => self.ensure_pending_v1(pool),
            ListFormat::V2 => self.ensure_pending_v2(pool),
        }
    }

    fn ensure_pending_v1<S: PageStore>(&mut self, pool: &BufferPool<S>) -> StorageResult<()> {
        loop {
            let need_page = match &self.frame {
                Some(f) => f.remaining == 0,
                None => true,
            };
            if need_page {
                if self.next_page >= self.meta.start_page + self.meta.page_count {
                    return Ok(());
                }
                let page_no = self.next_page;
                let page = pool.read(PageId::new(self.segment, page_no))?;
                self.next_page += 1;
                let remaining = page_header(&page)?;
                self.frame = Some(PageFrame { page, page_no, off: 2, remaining, prev: None });
                if remaining == 0 {
                    continue; // writers never emit empty pages; stay robust
                }
            }
            let frame = self.frame.as_mut().expect("current frame present");
            let buf = frame
                .page
                .get(frame.off..)
                .ok_or_else(|| StorageError::corrupt("list entry overruns page"))?;
            let prev = match self.kind {
                ListKind::Dewey => frame.prev.as_ref(),
                ListKind::Rank => None,
            };
            let (p, used) = posting::decode_entry(prev, buf)
                .map_err(|e| StorageError::corrupt(format!("list page entry: {e}")))?;
            frame.off += used;
            frame.remaining -= 1;
            if self.kind == ListKind::Dewey {
                frame.prev = Some(p.dewey.clone());
            }
            self.pending = Some(p);
            return Ok(());
        }
    }

    /// v2 navigation is driven by the skip table: each block's exact page
    /// and byte offset is known, so entering a block pins its page (when
    /// not already pinned) and positions the frame at the count varint.
    fn ensure_pending_v2<S: PageStore>(&mut self, pool: &BufferPool<S>) -> StorageResult<()> {
        loop {
            if self.block_remaining == 0 {
                let skip = self.skip.as_ref().expect("v2 list has skip table");
                let Some(e) = skip.blocks.get(self.entered_blocks) else {
                    return Ok(()); // end of list
                };
                let (page, offset) = (e.page, e.offset as usize);
                if self.frame.as_ref().is_none_or(|f| f.page_no != page) {
                    let pinned = pin_v2_page(pool, self.segment, page)?;
                    self.frame = Some(PageFrame {
                        page: pinned,
                        page_no: page,
                        off: offset,
                        remaining: 0,
                        prev: None,
                    });
                }
                let frame = self.frame.as_mut().expect("frame pinned");
                frame.off = offset;
                frame.prev = None;
                let buf = frame
                    .page
                    .get(frame.off..)
                    .ok_or_else(|| StorageError::corrupt("block count overruns page"))?;
                let (count, used) = codec::read_component(buf)
                    .map_err(|e| StorageError::corrupt(format!("block count: {e}")))?;
                frame.off += used;
                let buf = frame
                    .page
                    .get(frame.off..)
                    .ok_or_else(|| StorageError::corrupt("block dict overruns page"))?;
                let (ranks, used) = block::RankDict::read(buf)
                    .map_err(|e| StorageError::corrupt(format!("block rank dict: {e}")))?;
                frame.off += used;
                self.blk_ranks = ranks;
                self.block_remaining = count;
                self.entered_blocks += 1;
                self.blocks_decoded += 1;
                if count == 0 {
                    continue; // writers never emit empty blocks; stay robust
                }
            }
            let frame = self.frame.as_mut().expect("current frame present");
            let buf = frame
                .page
                .get(frame.off..)
                .ok_or_else(|| StorageError::corrupt("list entry overruns page"))?;
            let (p, used) = block::decode_entry(frame.prev.as_ref(), &self.blk_ranks, buf)
                .map_err(|e| StorageError::corrupt(format!("list page entry: {e}")))?;
            frame.off += used;
            self.block_remaining -= 1;
            frame.prev = Some(p.dewey.clone());
            self.pending = Some(p);
            return Ok(());
        }
    }

    /// Advances the reader to the first posting with `dewey >= target`,
    /// skipping whole blocks via the skip table without decoding them.
    /// Forward-only: a target at or behind the current position is a
    /// cheap no-op (the reader never moves backward). Entries dropped
    /// here are not counted in [`ListReader::consumed`]. On v1 lists this
    /// degrades to a linear decode-and-drop.
    pub fn next_seek<S: PageStore>(
        &mut self,
        pool: &BufferPool<S>,
        target: &DeweyId,
    ) -> StorageResult<()> {
        debug_assert_eq!(self.kind, ListKind::Dewey, "next_seek on an unordered list");
        if let Some(p) = &self.pending {
            if p.dewey >= *target {
                return Ok(());
            }
        }
        if self.format == ListFormat::V2 {
            let skip = self.skip.as_ref().expect("v2 list has skip table");
            let key = codec::encode_id(target);
            if let Some(idx) = skip.last_leq(&key) {
                // Only jump strictly past the block we are inside of
                // (`entered_blocks - 1`); backward jumps never happen.
                if idx >= self.entered_blocks {
                    self.blocks_skipped += (idx - self.entered_blocks) as u64;
                    self.entered_blocks = idx;
                    self.block_remaining = 0;
                    self.dropped += self.pending.take().is_some() as u64;
                    let jump_page = skip.blocks[idx].page;
                    if self.frame.as_ref().is_none_or(|f| f.page_no != jump_page) {
                        self.frame = None; // pinned lazily on next decode
                    }
                }
            }
        }
        // Decode-and-drop inside the landing block (v2) or from the
        // current position (v1) up to the target.
        loop {
            self.ensure_pending(pool)?;
            match &self.pending {
                Some(p) if p.dewey < *target => {
                    self.pending = None;
                    self.dropped += 1;
                }
                _ => return Ok(()),
            }
        }
    }

    /// An upper bound on the rank of the *next* posting this reader will
    /// yield, or `None` at end of list. On rank-ordered v2 lists this is
    /// exact (a block's max rank is its first entry's rank) and costs no
    /// I/O at block boundaries — the TA frontier uses it to stop without
    /// pulling the next page. v1 lists fall back to peeking (which may
    /// pull a page).
    pub fn rank_bound<S: PageStore>(
        &mut self,
        pool: &BufferPool<S>,
    ) -> StorageResult<Option<f32>> {
        if let Some(p) = &self.pending {
            return Ok(Some(p.rank));
        }
        if self.format == ListFormat::V2 && self.block_remaining == 0 {
            let skip = self.skip.as_ref().expect("v2 list has skip table");
            return Ok(skip.blocks.get(self.entered_blocks).map(|b| b.max_rank));
        }
        // Mid-block (v2) the next entry decodes off the already-pinned
        // frame; v1 may pull the next page.
        self.ensure_pending(pool)?;
        Ok(self.pending.as_ref().map(|p| p.rank))
    }

    /// True once every posting has been yielded.
    pub fn exhausted(&self) -> bool {
        match self.format {
            ListFormat::V1 => {
                self.pending.is_none()
                    && self.frame.as_ref().is_none_or(|f| f.remaining == 0)
                    && self.next_page >= self.meta.start_page + self.meta.page_count
            }
            ListFormat::V2 => {
                self.pending.is_none()
                    && self.block_remaining == 0
                    && self.entered_blocks
                        >= self.skip.as_ref().map_or(0, |s| s.blocks.len())
            }
        }
    }

    /// Count-based end check: true once `entry_count` entries were
    /// yielded. Costs no I/O, unlike peeking. Only meaningful for readers
    /// that never [`ListReader::next_seek`] (seeks drop entries without
    /// counting them) — i.e. the rank-ordered readers of the TA loops.
    pub fn at_end(&self) -> bool {
        self.pending.is_none() && self.consumed >= self.meta.entry_count
    }
}

/// What one [`scan_block`] call found.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockScan {
    /// Last posting of the block sorting below the target (`None` when
    /// the block's first posting already reaches it).
    pub below: Option<Posting>,
    /// First posting of the block at or above the target (`None` when the
    /// whole block sorts below it, or no target was given).
    pub at_or_above: Option<Posting>,
    /// Entries examined.
    pub decoded: u32,
}

/// Pins `page_no` for a block-granular reader. Checksum once per physical
/// read: every later decode off this pin (and every cache hit) reads
/// bytes verified when they came off the medium.
pub fn pin_v2_page<S: PageStore>(
    pool: &BufferPool<S>,
    segment: SegmentId,
    page_no: u32,
) -> StorageResult<PageRef> {
    let page = pool.read(PageId::new(segment, page_no))?;
    v2_verify_fresh(&page)?;
    Ok(page)
}

/// Scans the v2 block whose count varint sits at `page[offset..]` up to
/// the first posting with `dewey >= target` — the unit of work of an HDIL
/// probe, which the skip table has already narrowed to this one block.
/// With no target the whole block is passed and `below` is its last
/// posting. Entries on the way are only compared: their IDs are decoded
/// into two reused buffers and their positions skipped, and only the (at
/// most two) answering entries are materialized. `page` must already be
/// checksummed (see [`pin_v2_page`]).
pub fn scan_block(
    page: &[u8],
    offset: usize,
    target: Option<&DeweyId>,
) -> StorageResult<BlockScan> {
    let rest = |off: usize| {
        page.get(off..).ok_or_else(|| StorageError::corrupt("block scan overruns page"))
    };
    let bad = |e: codec::DecodeError| StorageError::corrupt(format!("block scan: {e}"));
    // Materializes the entry whose rank index starts at `payload`. Not
    // shared with `block::decode_entry`: splitting that function to reuse
    // its tail here cost the list readers 2–3 % on their per-entry path.
    let posting = |components: &[u32], ranks: &[f32], payload: usize| {
        let (idx, n) = codec::read_component(rest(payload)?).map_err(bad)?;
        let rank = *ranks
            .get(idx as usize)
            .ok_or_else(|| StorageError::corrupt("block scan: rank index outside dictionary"))?;
        let (positions, _) = posting::decode_positions(rest(payload + n)?).map_err(bad)?;
        let dewey = DeweyId::from_components(components.to_vec());
        Ok::<_, StorageError>(Posting { elem: 0, dewey, rank, positions })
    };

    let (count, n) = codec::read_component(rest(offset)?).map_err(bad)?;
    let mut off = offset + n;
    let (ranks, n) = block::RankDict::read(rest(off)?).map_err(bad)?;
    off += n;
    // `cur`/`cur_payload`: the entry just decoded; `prev`/`prev_payload`:
    // the one before it (the delta base, and the predecessor on a hit).
    let (mut cur, mut prev) = (Vec::new(), Vec::new());
    let mut cur_payload = None;
    for i in 0..count {
        std::mem::swap(&mut cur, &mut prev);
        let prev_payload = cur_payload;
        off += block::decode_dewey_into(&prev, rest(off)?, &mut cur).map_err(bad)?;
        cur_payload = Some(off);
        if target.is_some_and(|t| cur.as_slice() >= t.components()) {
            return Ok(BlockScan {
                below: prev_payload.map(|p| posting(&prev, &ranks, p)).transpose()?,
                at_or_above: Some(posting(&cur, &ranks, off)?),
                decoded: i + 1,
            });
        }
        let (_, n) = codec::read_component(rest(off)?).map_err(bad)?;
        off += n;
        off += posting::skip_positions(rest(off)?).map_err(bad)?;
    }
    Ok(BlockScan {
        below: cur_payload.map(|p| posting(&cur, &ranks, p)).transpose()?,
        at_or_above: None,
        decoded: count,
    })
}

/// Streaming reader for naive lists. Decodes a page at a time (naive
/// postings are small and the baselines scan ranges); v2 lists expose
/// block-granular seeks via [`NaiveListReader::next_seek`].
#[derive(Debug)]
pub struct NaiveListReader {
    segment: SegmentId,
    meta: ListMeta,
    delta: bool,
    format: ListFormat,
    skip: Option<Arc<SkipTable>>,
    /// v1 sequential cursor.
    next_page: u32,
    /// v2: next undecoded block.
    next_block: usize,
    buffered: VecDeque<NaivePosting>,
    consumed: u32,
    blocks_decoded: u64,
    blocks_skipped: u64,
    decoded: u64,
}

impl NaiveListReader {
    /// Creates a reader positioned at the start of the list.
    pub fn new(segment: SegmentId, info: &ListInfo, delta: bool) -> Self {
        debug_assert!(
            info.format == ListFormat::V1 || info.skip.is_some(),
            "v2 list without a skip table"
        );
        NaiveListReader {
            segment,
            meta: info.meta,
            delta,
            format: info.format,
            skip: info.skip.clone(),
            next_page: info.meta.start_page,
            next_block: 0,
            buffered: VecDeque::new(),
            consumed: 0,
            blocks_decoded: 0,
            blocks_skipped: 0,
            decoded: 0,
        }
    }

    /// Postings decoded off list pages so far (naive readers decode a
    /// page's worth at a time, consumed or not).
    pub fn decoded(&self) -> u64 {
        self.decoded
    }

    /// Blocks decoded so far (v2; 0 on v1).
    pub fn blocks_decoded(&self) -> u64 {
        self.blocks_decoded
    }

    /// Blocks jumped over without decoding (v2; 0 on v1).
    pub fn blocks_skipped(&self) -> u64 {
        self.blocks_skipped
    }

    /// Count-based end check (see [`ListReader::at_end`]; same caveat
    /// about seeks).
    pub fn at_end(&self) -> bool {
        self.buffered.is_empty() && self.consumed >= self.meta.entry_count
    }

    /// Peeks at the next posting.
    pub fn peek<S: PageStore>(
        &mut self,
        pool: &BufferPool<S>,
    ) -> StorageResult<Option<&NaivePosting>> {
        if self.buffered.is_empty() {
            self.fill(pool)?;
        }
        Ok(self.buffered.front())
    }

    /// Pops the next posting.
    pub fn next<S: PageStore>(
        &mut self,
        pool: &BufferPool<S>,
    ) -> StorageResult<Option<NaivePosting>> {
        if self.buffered.is_empty() {
            self.fill(pool)?;
        }
        let p = self.buffered.pop_front();
        if p.is_some() {
            self.consumed += 1;
        }
        Ok(p)
    }

    /// Advances to the first posting with `elem >= target` (only valid on
    /// `delta` id-ordered lists), skipping whole blocks via the skip
    /// table. Forward-only; a target at or behind the head is a no-op.
    pub fn next_seek<S: PageStore>(
        &mut self,
        pool: &BufferPool<S>,
        target: u32,
    ) -> StorageResult<()> {
        debug_assert!(self.delta, "next_seek on an unordered naive list");
        loop {
            while let Some(front) = self.buffered.front() {
                if front.elem >= target {
                    return Ok(());
                }
                self.buffered.pop_front();
            }
            // Buffer drained below the target: jump over whole blocks.
            if self.format == ListFormat::V2 {
                let skip = self.skip.as_ref().expect("v2 list has skip table");
                let mut key = Vec::with_capacity(5);
                codec::write_component(target, &mut key);
                if let Some(idx) = skip.last_leq(&key) {
                    if idx > self.next_block {
                        self.blocks_skipped += (idx - self.next_block) as u64;
                        self.next_block = idx;
                    }
                }
            }
            self.fill(pool)?;
            if self.buffered.is_empty() {
                return Ok(()); // list exhausted
            }
        }
    }

    fn fill<S: PageStore>(&mut self, pool: &BufferPool<S>) -> StorageResult<()> {
        match self.format {
            ListFormat::V1 => {
                if self.next_page >= self.meta.start_page + self.meta.page_count {
                    return Ok(());
                }
                let page = pool.read(PageId::new(self.segment, self.next_page))?;
                self.next_page += 1;
                self.buffered = decode_naive_page(&page, self.delta, ListFormat::V1)?.into();
                self.decoded += self.buffered.len() as u64;
                Ok(())
            }
            ListFormat::V2 => {
                let skip = self.skip.as_ref().expect("v2 list has skip table").clone();
                let Some(first) = skip.blocks.get(self.next_block) else {
                    return Ok(());
                };
                // Decode every remaining block on the landing page — the
                // page is pinned once and naive consumers are page-scan
                // shaped anyway.
                let page_no = first.page;
                let page = pin_v2_page(pool, self.segment, page_no)?;
                let mut scratch: Vec<NaivePosting> = Vec::new();
                let mut k = self.next_block;
                while let Some(e) = skip.blocks.get(k) {
                    if e.page != page_no {
                        break;
                    }
                    decode_naive_block(&page, e.offset as usize, self.delta, &mut scratch)?;
                    k += 1;
                }
                self.blocks_decoded += (k - self.next_block) as u64;
                self.next_block = k;
                self.decoded += scratch.len() as u64;
                self.buffered = scratch.into();
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xrank_storage::MemStore;

    fn postings(n: u32) -> Vec<Posting> {
        (0..n)
            .map(|i| Posting {
                elem: i,
                dewey: DeweyId::from([0, 0, i / 10, i % 10]),
                rank: 1.0 / (i + 1) as f32,
                positions: vec![i * 3, i * 3 + 1],
            })
            .collect()
    }

    /// Writes a v1 Dewey page run (per-page delta restarts) — kept as a
    /// test-only writer so the v1 read path stays covered after the
    /// production writers moved to v2.
    fn write_dewey_list_v1<S: PageStore>(
        pool: &mut BufferPool<S>,
        segment: SegmentId,
        postings: &[Posting],
    ) -> ListInfo {
        let start_page = pool.store().page_count(segment);
        let mut page = new_page();
        let mut n: u16 = 0;
        let mut prev: Option<&DeweyId> = None;
        let mut used_bytes = 0u64;
        for p in postings {
            let len = posting::entry_len(prev, p);
            if page.len() + len > PAGE_SIZE && n > 0 {
                used_bytes += page.len() as u64;
                seal(&mut page, n);
                pool.append_page(segment, &page).unwrap();
                page = new_page();
                n = 0;
                prev = None;
            }
            posting::encode_entry(prev, p, &mut page);
            n += 1;
            prev = Some(&p.dewey);
        }
        if n > 0 {
            used_bytes += page.len() as u64;
            seal(&mut page, n);
            pool.append_page(segment, &page).unwrap();
        }
        ListInfo {
            meta: ListMeta {
                start_page,
                page_count: pool.store().page_count(segment) - start_page,
                entry_count: postings.len() as u32,
                used_bytes,
            },
            format: ListFormat::V1,
            skip: None,
        }
    }

    #[test]
    fn dewey_list_roundtrip_across_pages() {
        let mut pool = BufferPool::new(MemStore::new(), 1024);
        let seg = pool.store_mut().create_segment().unwrap();
        let ps = postings(2000);
        let w = write_dewey_list(&mut pool, seg, &ps).unwrap();
        assert!(w.info.meta.page_count > 1, "should span pages");
        assert_eq!(w.page_firsts.len(), w.info.meta.page_count as usize);
        let skip = w.info.skip_table();
        assert_eq!(
            skip.blocks.iter().map(|b| b.page).collect::<std::collections::BTreeSet<_>>().len(),
            w.info.meta.page_count as usize,
            "every page holds at least one block"
        );
        let mut r = ListReader::new(seg, &w.info, ListKind::Dewey);
        for expect in &ps {
            let got = r.next(&pool).unwrap().unwrap();
            assert_eq!(got.dewey, expect.dewey);
            assert_eq!(got.positions, expect.positions);
            assert!((got.rank - expect.rank).abs() < 1e-9);
        }
        assert!(r.next(&pool).unwrap().is_none());
        assert!(r.exhausted());
        assert_eq!(r.blocks_decoded(), skip.blocks.len() as u64);
        assert_eq!(r.blocks_skipped(), 0);
    }

    #[test]
    fn v1_dewey_list_still_reads() {
        let mut pool = BufferPool::new(MemStore::new(), 1024);
        let seg = pool.store_mut().create_segment().unwrap();
        let ps = postings(2000);
        let info = write_dewey_list_v1(&mut pool, seg, &ps);
        assert!(info.meta.page_count > 1);
        let mut r = ListReader::new(seg, &info, ListKind::Dewey);
        for expect in &ps {
            let got = r.next(&pool).unwrap().unwrap();
            assert_eq!(got.dewey, expect.dewey);
        }
        assert!(r.next(&pool).unwrap().is_none());
        assert!(r.exhausted());
        assert_eq!(r.blocks_decoded(), 0);
        // v1 decode path of the page decoder agrees
        let page = pool.read(PageId::new(seg, info.meta.start_page)).unwrap().to_vec();
        let decoded = decode_dewey_page(&page, ListFormat::V1).unwrap();
        assert_eq!(decoded[0].dewey, ps[0].dewey);
    }

    #[test]
    fn v2_compresses_vs_v1() {
        let mut pool = BufferPool::new(MemStore::new(), 1024);
        let seg = pool.store_mut().create_segment().unwrap();
        let ps = postings(5000);
        let v2 = write_dewey_list(&mut pool, seg, &ps).unwrap();
        let v1 = write_dewey_list_v1(&mut pool, seg, &ps);
        assert!(
            v2.info.meta.used_bytes < v1.meta.used_bytes,
            "v2 ({}) should be denser than v1 ({})",
            v2.info.meta.used_bytes,
            v1.meta.used_bytes
        );
    }

    #[test]
    fn pages_are_self_contained() {
        let mut pool = BufferPool::new(MemStore::new(), 1024);
        let seg = pool.store_mut().create_segment().unwrap();
        let ps = postings(2000);
        let w = write_dewey_list(&mut pool, seg, &ps).unwrap();
        // Decode the middle page directly; its first key must match the
        // recorded page_first.
        let mid = w.info.meta.page_count / 2;
        let page = pool.read(PageId::new(seg, w.info.meta.start_page + mid)).unwrap().to_vec();
        let decoded = decode_dewey_page(&page, ListFormat::V2).unwrap();
        assert!(!decoded.is_empty());
        assert_eq!(
            codec::encode_id(&decoded[0].dewey),
            w.page_firsts[mid as usize].0
        );
    }

    #[test]
    fn next_seek_matches_linear_scan() {
        let mut pool = BufferPool::new(MemStore::new(), 4096);
        let seg = pool.store_mut().create_segment().unwrap();
        let ps = postings(5000);
        let w = write_dewey_list(&mut pool, seg, &ps).unwrap();
        // Seek to a spread of targets (present, absent, block boundaries,
        // before-start, past-end) and compare against a fresh linear scan.
        let block0_last = 126usize; // MAX_BLOCK_ENTRIES - 1
        let targets: Vec<DeweyId> = vec![
            DeweyId::from([0, 0, 0, 0]),
            ps[block0_last].dewey.clone(),
            ps[block0_last + 1].dewey.clone(),
            ps[700].dewey.clone(),
            DeweyId::from([0, 0, 70, 5]),
            DeweyId::from([0, 0, 71, 0]),
            ps[4999].dewey.clone(),
            DeweyId::from([9, 9]),
        ];
        let mut sorted = targets.clone();
        sorted.sort();
        let mut seeker = ListReader::new(seg, &w.info, ListKind::Dewey);
        for t in &sorted {
            seeker.next_seek(&pool, t).unwrap();
            let got = seeker.peek(&pool).unwrap().map(|p| p.dewey.clone());
            let expect = ps.iter().map(|p| &p.dewey).find(|d| *d >= t).cloned();
            assert_eq!(got, expect, "seek target {t:?}");
        }
        assert!(
            seeker.blocks_skipped() > 0,
            "long jumps should skip whole blocks"
        );
        // Seeking backward is a no-op.
        let head = seeker.peek(&pool).unwrap().map(|p| p.dewey.clone());
        seeker.next_seek(&pool, &DeweyId::from([0, 0, 0, 0])).unwrap();
        assert_eq!(seeker.peek(&pool).unwrap().map(|p| p.dewey.clone()), head);
    }

    #[test]
    fn next_seek_on_v1_list_is_linear_but_correct() {
        let mut pool = BufferPool::new(MemStore::new(), 1024);
        let seg = pool.store_mut().create_segment().unwrap();
        let ps = postings(500);
        let info = write_dewey_list_v1(&mut pool, seg, &ps);
        let mut r = ListReader::new(seg, &info, ListKind::Dewey);
        r.next_seek(&pool, &ps[300].dewey).unwrap();
        assert_eq!(r.peek(&pool).unwrap().unwrap().dewey, ps[300].dewey);
        assert_eq!(r.blocks_skipped(), 0);
    }

    #[test]
    fn scan_block_matches_a_full_block_decode() {
        let mut pool = BufferPool::new(MemStore::new(), 64);
        let seg = pool.store_mut().create_segment().unwrap();
        let ps = postings(300);
        let w = write_dewey_list(&mut pool, seg, &ps).unwrap();
        let skip = w.info.skip_table();
        assert!(skip.blocks.len() >= 3);
        for b in &skip.blocks {
            let page = pin_v2_page(&pool, seg, b.page).unwrap();
            let mut block = Vec::new();
            block::decode_block(&page, b.offset as usize, &mut block).unwrap();
            // Every posting of the block, and the gap right after it.
            for (i, p) in block.iter().enumerate() {
                for (target, at) in [(p.dewey.clone(), i), (p.dewey.child(0), i + 1)] {
                    let scan = scan_block(&page, b.offset as usize, Some(&target)).unwrap();
                    assert_eq!(scan.at_or_above.as_ref(), block.get(at), "at {target}");
                    assert_eq!(scan.below.as_ref(), at.checked_sub(1).map(|j| &block[j]));
                    assert_eq!(scan.decoded as usize, (at + 1).min(block.len()));
                }
            }
            let whole = scan_block(&page, b.offset as usize, None).unwrap();
            assert_eq!((whole.below.as_ref(), whole.at_or_above), (block.last(), None));
            assert_eq!(whole.decoded as usize, block.len());
        }
    }

    #[test]
    fn scan_block_on_damaged_bytes_is_an_error_not_a_panic() {
        let mut pool = BufferPool::new(MemStore::new(), 64);
        let seg = pool.store_mut().create_segment().unwrap();
        let ps = postings(100);
        let w = write_dewey_list(&mut pool, seg, &ps).unwrap();
        let b = &w.info.skip_table().blocks[0];
        let clean = pool.read(PageId::new(seg, b.page)).unwrap().to_vec();
        let used = w.info.meta.used_bytes as usize;
        let mut typed = 0;
        for at in b.offset as usize..used {
            for flip in [0x80u8, 0x7f, 0xff] {
                let mut page = clean.clone();
                page[at] ^= flip;
                // The CRC would have caught this; the scan must still not
                // trust what it reads.
                typed += scan_block(&page, b.offset as usize, None).is_err() as u32;
                let _ = scan_block(&page, b.offset as usize, Some(&ps[60].dewey));
            }
        }
        assert!(typed > 0, "some damage must be detectable by the decoder itself");
        // A block that claims to run past the page ends in an error.
        assert!(scan_block(&clean[..used - 3], b.offset as usize, None).is_err());
        assert!(scan_block(&clean, PAGE_SIZE + 1, None).is_err());
    }

    #[test]
    fn rank_bound_is_exact_on_rank_lists() {
        let mut pool = BufferPool::new(MemStore::new(), 1024);
        let seg = pool.store_mut().create_segment().unwrap();
        let mut ps = postings(800);
        ps.sort_by(|a, b| b.rank.total_cmp(&a.rank).then(a.dewey.cmp(&b.dewey)));
        let info = write_rank_list(&mut pool, seg, &ps).unwrap();
        let mut r = ListReader::new(seg, &info, ListKind::Rank);
        for expect in &ps {
            let bound = r.rank_bound(&pool).unwrap().unwrap();
            assert_eq!(
                bound.to_bits(),
                expect.rank.to_bits(),
                "descending list: bound is exactly the next rank"
            );
            let got = r.next(&pool).unwrap().unwrap();
            assert_eq!(got.rank.to_bits(), expect.rank.to_bits());
        }
        assert_eq!(r.rank_bound(&pool).unwrap(), None);
        assert!(r.at_end());
    }

    #[test]
    fn rank_list_roundtrip_preserves_order() {
        let mut pool = BufferPool::new(MemStore::new(), 1024);
        let seg = pool.store_mut().create_segment().unwrap();
        let mut ps = postings(500);
        ps.sort_by(|a, b| b.rank.total_cmp(&a.rank).then(a.dewey.cmp(&b.dewey)));
        let info = write_rank_list(&mut pool, seg, &ps).unwrap();
        let mut r = ListReader::new(seg, &info, ListKind::Rank);
        let mut prev_rank = f32::INFINITY;
        let mut n = 0;
        while let Some(p) = r.next(&pool).unwrap() {
            assert!(p.rank <= prev_rank);
            prev_rank = p.rank;
            n += 1;
        }
        assert_eq!(n, 500);
    }

    #[test]
    fn naive_list_roundtrip_delta_and_absolute() {
        let mut pool = BufferPool::new(MemStore::new(), 1024);
        let seg = pool.store_mut().create_segment().unwrap();
        let ps: Vec<NaivePosting> = (0..1200)
            .map(|i| NaivePosting { elem: i * 2, rank: 0.5, positions: vec![i] })
            .collect();
        for delta in [true, false] {
            let info = write_naive_list(&mut pool, seg, &ps, delta).unwrap();
            let mut r = NaiveListReader::new(seg, &info, delta);
            for expect in &ps {
                let got = r.next(&pool).unwrap().unwrap();
                assert_eq!(got.elem, expect.elem);
                assert_eq!(got.positions, expect.positions);
            }
            assert!(r.next(&pool).unwrap().is_none());
            assert!(r.at_end());
        }
    }

    #[test]
    fn naive_next_seek_matches_linear() {
        let mut pool = BufferPool::new(MemStore::new(), 4096);
        let seg = pool.store_mut().create_segment().unwrap();
        let ps: Vec<NaivePosting> = (0..6000)
            .map(|i| NaivePosting { elem: i * 3, rank: 0.5, positions: vec![i] })
            .collect();
        let info = write_naive_list(&mut pool, seg, &ps, true).unwrap();
        let mut r = NaiveListReader::new(seg, &info, true);
        for target in [0u32, 5, 381, 382, 9000, 17_999, 18_000] {
            r.next_seek(&pool, target).unwrap();
            let got = r.peek(&pool).unwrap().map(|p| p.elem);
            let expect = ps.iter().map(|p| p.elem).find(|&e| e >= target);
            assert_eq!(got, expect, "seek target {target}");
        }
        assert!(r.blocks_skipped() > 0, "long jumps should skip blocks");
    }

    #[test]
    fn empty_list() {
        let mut pool = BufferPool::new(MemStore::new(), 64);
        let seg = pool.store_mut().create_segment().unwrap();
        let w = write_dewey_list(&mut pool, seg, &[]).unwrap();
        assert_eq!(w.info.meta.page_count, 0);
        assert!(w.info.skip_table().blocks.is_empty());
        let mut r = ListReader::new(seg, &w.info, ListKind::Dewey);
        assert!(r.next(&pool).unwrap().is_none());
        assert!(r.exhausted());
    }

    #[test]
    fn peek_does_not_consume() {
        let mut pool = BufferPool::new(MemStore::new(), 64);
        let seg = pool.store_mut().create_segment().unwrap();
        let ps = postings(5);
        let w = write_dewey_list(&mut pool, seg, &ps).unwrap();
        let mut r = ListReader::new(seg, &w.info, ListKind::Dewey);
        let first = r.peek(&pool).unwrap().unwrap().dewey.clone();
        assert_eq!(r.peek(&pool).unwrap().unwrap().dewey, first);
        assert_eq!(r.next(&pool).unwrap().unwrap().dewey, first);
        assert_eq!(r.consumed(), 1);
    }

    #[test]
    fn budgeted_packing_respects_budget() {
        let mut pool = BufferPool::new(MemStore::new(), 1024);
        let seg = pool.store_mut().create_segment().unwrap();
        let ps = postings(400);
        let full = write_dewey_list(&mut pool, seg, &ps).unwrap();
        let tight = write_dewey_list_budgeted(&mut pool, seg, &ps, 256).unwrap();
        assert!(
            tight.info.meta.page_count > full.info.meta.page_count,
            "smaller budget must spread over more pages"
        );
        let mut r = ListReader::new(seg, &tight.info, ListKind::Dewey);
        for expect in &ps {
            assert_eq!(r.next(&pool).unwrap().unwrap().dewey, expect.dewey);
        }
        assert!(r.next(&pool).unwrap().is_none());
    }

    #[test]
    fn full_scan_is_mostly_sequential() {
        let mut pool = BufferPool::new(MemStore::new(), 4096);
        let seg = pool.store_mut().create_segment().unwrap();
        let ps = postings(20_000);
        let w = write_dewey_list(&mut pool, seg, &ps).unwrap();
        pool.clear_cache();
        pool.reset_stats();
        let mut r = ListReader::new(seg, &w.info, ListKind::Dewey);
        while r.next(&pool).unwrap().is_some() {}
        let s = pool.stats();
        assert_eq!(s.rand_reads, 1, "one initial seek");
        assert_eq!(s.seq_reads as u32, w.info.meta.page_count - 1);
    }
}
