//! Packing posting lists into pages and streaming them back.
//!
//! There is one list page layout: `[crc: u32]` (CRC-32 of bytes
//! 4..PAGE_SIZE, i.e. everything after the checksum itself, slack
//! included), `[n: u16]` total entries, then a run of *blocks* —
//! `[count: varint ≤ 127]`, the block's prefix (the rank dictionary for
//! posting lists, nothing for naive lists), and `count` entries whose keys
//! are delta-encoded against the previous entry in the same block (see
//! [`crate::block`]). The checksum is verified once per physical page
//! read, so corruption that slips past (or occurs above) the store's own
//! trailer — bad RAM, a flipped bus line — surfaces as a typed
//! [`StorageError`] on exactly the queries that touch the page instead of
//! silently perturbing delta decoding.
//!
//! The first entry of every block is a restart, so any block is decodable
//! in isolation, and the per-list [`SkipTable`] (one entry per block:
//! first key, exact max rank, page/byte offset) names every block's exact
//! position. The skip table lives in the list directory
//! ([`write_list_table`]), not in the pages: readers navigate by it and
//! jump over whole blocks without decoding them, and HDIL probes its
//! Dewey-sorted lists through it — it is the stored "non-leaf part" of the
//! Section 4.4.1 B+-tree whose leaves are the list pages.
//!
//! A [`BlockCodec`] per list family says how one entry is encoded; the one
//! writer ([`write_list`]) and the one reader ([`ListReader`]) are generic
//! over it. Lists are written as contiguous page runs inside a shared
//! segment; the buffer pool's per-stream readahead model then charges a
//! full-list scan as one seek plus sequential reads.

use crate::block::{self, SkipEntry, SkipTable, MAX_BLOCK_ENTRIES};
use crate::posting::{self, NaivePosting, Posting};
use std::sync::Arc;
use xrank_dewey::codec::{self, DecodeError};
use xrank_dewey::DeweyId;
use xrank_graph::ElemId;
use xrank_storage::{
    crc32, wire, BufferPool, PageId, PageRef, PageStore, SegmentId, StorageError, StorageResult,
    PAGE_SIZE,
};

/// Page header: `[crc: u32][n: u16]`; blocks start here.
const PAGE_HEADER: usize = 6;
/// Offset of the entry-count field inside a page (the checksum covers
/// everything from here to the end of the page).
const COUNT_OFF: usize = 4;

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

/// Everything a reader needs to open one list: its location and its skip
/// table.
#[derive(Debug, Clone)]
pub struct ListInfo {
    /// List location.
    pub meta: ListMeta,
    /// Per-block skip entries.
    pub skip: Arc<SkipTable>,
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

/// Serializes a per-term list directory: tag 0 = no list, tag 2 = a list
/// (meta + skip table).
pub fn write_list_table<W: std::io::Write>(
    w: &mut W,
    lists: &[Option<ListInfo>],
) -> std::io::Result<()> {
    wire::put_u32(w, lists.len() as u32)?;
    for entry in lists {
        match entry {
            Some(info) => {
                wire::put_u32(w, 2)?;
                info.meta.write_meta(w)?;
                info.skip.write(w)?;
            }
            None => wire::put_u32(w, 0)?,
        }
    }
    Ok(())
}

/// Deserializes a per-term list directory.
pub fn read_list_table<R: std::io::Read>(r: &mut R) -> std::io::Result<Vec<Option<ListInfo>>> {
    let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    let n = wire::get_u32(r)?;
    // The count is unchecked input: let a lying one run into end-of-file
    // instead of asking the allocator for it up front.
    let mut out = Vec::with_capacity(n.min(1 << 20) as usize);
    for _ in 0..n {
        out.push(match wire::get_u32(r)? {
            0 => None,
            2 => Some(ListInfo {
                meta: ListMeta::read_meta(r)?,
                skip: Arc::new(SkipTable::read(r)?),
            }),
            1 => {
                return Err(bad("list-table tag 1: an uncompressed (v1) list, which this \
                                build no longer reads — rebuild the index from source"
                    .into()))
            }
            k => return Err(bad(format!("bad list-table tag {k}"))),
        });
    }
    Ok(out)
}

/// A fresh page with its 6-byte header reserved.
fn new_page() -> Vec<u8> {
    let mut p = Vec::with_capacity(PAGE_SIZE);
    p.resize(PAGE_HEADER, 0);
    p
}

/// Seals a page: pads to [`PAGE_SIZE`], writes the entry count, and
/// stamps the checksum over everything after the checksum field (so slack
/// corruption is detected too).
fn seal(page: &mut Vec<u8>, n: u16) {
    page.resize(PAGE_SIZE, 0);
    page[COUNT_OFF..PAGE_HEADER].copy_from_slice(&n.to_le_bytes());
    let crc = crc32(&page[COUNT_OFF..]);
    page[0..COUNT_OFF].copy_from_slice(&crc.to_le_bytes());
}

/// Re-stamps the checksum of a sealed page whose bytes a test changed in
/// place.
#[cfg(test)]
pub(crate) fn reseal(page: &mut Vec<u8>) {
    let n = u16::from_le_bytes([page[COUNT_OFF], page[COUNT_OFF + 1]]);
    seal(page, n);
}

/// Verifies a page's checksum. Out of line on purpose: [`pin_page`] is
/// inlined into every reader's decode loop, and the mismatch formatting
/// has no business there.
fn verify(page: &[u8]) -> StorageResult<()> {
    if page.len() < PAGE_HEADER {
        return Err(StorageError::corrupt("list page shorter than its header"));
    }
    let stored = u32::from_le_bytes(page[0..COUNT_OFF].try_into().expect("4 bytes"));
    let computed = crc32(&page[COUNT_OFF..]);
    if stored != computed {
        return Err(StorageError::corrupt(format!(
            "list page checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
        )));
    }
    Ok(())
}

/// Pins `page_no` of a list. Checksum once per physical read: the CRC
/// pass runs only when this pin brought the bytes off the medium, so every
/// later decode off the pin (and every cache hit) reads bytes verified
/// when they arrived.
pub fn pin_page<S: PageStore>(
    pool: &BufferPool<S>,
    segment: SegmentId,
    page_no: u32,
) -> StorageResult<PageRef> {
    let page = pool.read(PageId::new(segment, page_no))?;
    if page.fresh() {
        verify(&page)?;
    } else if page.len() < PAGE_HEADER {
        return Err(StorageError::corrupt("list page shorter than its header"));
    }
    Ok(page)
}

/// How one list family encodes an entry inside a block — the single place
/// the writer ([`write_list`]) and the reader ([`ListReader`]) differ
/// between posting lists and naive lists.
pub trait BlockCodec: std::fmt::Debug {
    /// The posting type. `Default` is the empty slot a reader decodes into.
    type Item: std::fmt::Debug + Clone + Default;
    /// Per-block encoder state, reset at every restart. Its serialized
    /// form (the block *prefix*) lands between the count varint and the
    /// entries when the block is flushed.
    type Enc: Default;
    /// The parsed block prefix.
    type Dec: Default + std::fmt::Debug;
    /// What an ordered list of this family is sorted by and sought on,
    /// and what an entry is delta-encoded against.
    type Key: Ord + Clone + std::fmt::Debug;

    /// Bytes [`BlockCodec::encode`] would append to the entry run, plus
    /// any growth of the block prefix the entry causes. `prev` is the
    /// previous item *in the same block* (`None` at restarts).
    fn encoded_len(&self, blk: &Self::Enc, prev: Option<&Self::Item>, item: &Self::Item)
        -> usize;

    /// Appends the entry's encoding, updating the block state.
    fn encode(
        &self,
        blk: &mut Self::Enc,
        prev: Option<&Self::Item>,
        item: &Self::Item,
        out: &mut Vec<u8>,
    );

    /// Bytes the block prefix occupies for state `blk`.
    fn prefix_len(&self, blk: &Self::Enc) -> usize;

    /// Writes the block prefix.
    fn write_prefix(&self, blk: &Self::Enc, out: &mut Vec<u8>);

    /// Parses a block prefix into `out` (reusing its allocation),
    /// returning the bytes consumed.
    fn read_prefix(&self, buf: &[u8], out: &mut Self::Dec) -> Result<usize, DecodeError>;

    /// Decodes one entry in place into `out`, returning the bytes
    /// consumed. `prev` is the key of the previous entry in the same block
    /// (`None` at restarts).
    fn decode_into(
        &self,
        blk: &Self::Dec,
        prev: Option<&Self::Key>,
        buf: &[u8],
        out: &mut Self::Item,
    ) -> Result<usize, DecodeError>;

    /// The item's key.
    fn key(item: &Self::Item) -> &Self::Key;

    /// A key's skip-table encoding (byte-lexicographic order == key
    /// order).
    fn encode_key(key: &Self::Key) -> Vec<u8>;

    /// The item's rank (for per-block max-rank and rank bounds).
    fn rank(item: &Self::Item) -> f32;
}

/// Dewey- and rank-ordered posting lists: one entry encoding, Dewey keys.
#[derive(Debug, Clone, Copy)]
pub struct PostingCodec;

impl BlockCodec for PostingCodec {
    type Item = Posting;
    type Enc = block::RankDict;
    /// The block's rank dictionary.
    type Dec = Vec<f32>;
    type Key = DeweyId;

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

    fn read_prefix(&self, buf: &[u8], ranks: &mut Vec<f32>) -> Result<usize, DecodeError> {
        block::RankDict::read(buf, ranks)
    }

    // A pure forwarder, inlined so that a reader calls
    // `block::decode_entry_into` itself: one more out-of-line hop here, or
    // any work beside the call, cost full scans 15–17 %.
    #[inline]
    fn decode_into(
        &self,
        ranks: &Vec<f32>,
        prev: Option<&DeweyId>,
        buf: &[u8],
        out: &mut Posting,
    ) -> Result<usize, DecodeError> {
        block::decode_entry_into(prev, ranks, buf, out)
    }

    fn key(item: &Posting) -> &DeweyId {
        &item.dewey
    }

    fn encode_key(key: &DeweyId) -> Vec<u8> {
        codec::encode_id(key)
    }

    fn rank(item: &Posting) -> f32 {
        item.rank
    }
}

/// Naive lists: an element-id varint (a delta within a block when `delta`)
/// plus the shared payload; no block prefix.
#[derive(Debug, Clone, Copy)]
pub struct NaiveCodec {
    /// Ascending element ids stored as within-block deltas (Naive-ID
    /// order); rank-ordered naive lists store them absolute.
    pub delta: bool,
}

impl NaiveCodec {
    fn elem_field(&self, prev: Option<&NaivePosting>, item: &NaivePosting) -> u32 {
        match prev {
            Some(q) if self.delta => item.elem - q.elem,
            _ => item.elem,
        }
    }
}

impl BlockCodec for NaiveCodec {
    type Item = NaivePosting;
    type Enc = ();
    type Dec = ();
    type Key = ElemId;

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

    fn read_prefix(&self, _buf: &[u8], _out: &mut ()) -> Result<usize, DecodeError> {
        Ok(0)
    }

    fn decode_into(
        &self,
        _blk: &(),
        prev: Option<&ElemId>,
        buf: &[u8],
        out: &mut NaivePosting,
    ) -> Result<usize, DecodeError> {
        let (field, n) = codec::read_component(buf)?;
        out.elem = match prev {
            Some(prev) if self.delta => prev.checked_add(field).ok_or(DecodeError::Overflow)?,
            _ => field,
        };
        let (rank, m) = posting::decode_payload_into(&buf[n..], &mut out.positions)?;
        out.rank = rank;
        Ok(n + m)
    }

    fn key(item: &NaivePosting) -> &ElemId {
        &item.elem
    }

    fn encode_key(key: &ElemId) -> Vec<u8> {
        let mut v = Vec::with_capacity(5);
        codec::write_component(*key, &mut v);
        v
    }

    fn rank(item: &NaivePosting) -> f32 {
        item.rank
    }
}

/// The page-packing loop behind [`write_list`]: fills blocks of at most
/// [`MAX_BLOCK_ENTRIES`] entries, flushes each block (count varint +
/// prefix + entries) into the current page, seals a page when the next
/// block would overflow the byte budget, and records one [`SkipEntry`] per
/// block.
///
/// The budget is clamped to `[64, PAGE_SIZE]`; a single entry larger than
/// the budget still goes out alone on a fresh page, and one larger than a
/// page fails the write.
struct ListPacker<'a, C: BlockCodec> {
    codec: C,
    budget: usize,
    segment: SegmentId,
    start_page: u32,
    pages_done: u32,
    page: Vec<u8>,
    page_entries: u16,
    blk: Vec<u8>,
    blk_state: C::Enc,
    blk_count: u8,
    blk_last: Option<&'a C::Item>,
    blk_first_key: Vec<u8>,
    blk_max_rank: f32,
    skip: Vec<SkipEntry>,
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
            page: new_page(),
            page_entries: 0,
            blk: Vec::with_capacity(PAGE_SIZE),
            blk_state: C::Enc::default(),
            blk_count: 0,
            blk_last: None,
            blk_first_key: Vec::new(),
            blk_max_rank: f32::NEG_INFINITY,
            skip: Vec::new(),
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
        self.skip.push(SkipEntry {
            first_key: std::mem::take(&mut self.blk_first_key),
            max_rank: self.blk_max_rank,
            page: self.start_page + self.pages_done,
            offset: self.page.len() as u16,
        });
        codec::write_component(self.blk_count as u32, &mut self.page);
        self.codec.write_prefix(&self.blk_state, &mut self.page);
        self.page.extend_from_slice(&self.blk);
        self.page_entries += self.blk_count as u16;
        self.blk.clear();
        self.blk_state = C::Enc::default();
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
        seal(&mut self.page, self.page_entries);
        let off = pool.append_page(self.segment, &self.page)?;
        debug_assert_eq!(off, self.start_page + self.pages_done);
        self.pages_done += 1;
        self.page = new_page();
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
            let fresh = C::Enc::default();
            let restart =
                1 + self.codec.prefix_len(&fresh) + self.codec.encoded_len(&fresh, None, item);
            if self.page_entries > 0 && self.page.len() + restart > self.budget {
                self.seal_page(pool)?;
            }
            if self.page_entries == 0 && PAGE_HEADER + restart > PAGE_SIZE {
                return Err(StorageError::invalid_input(format!(
                    "one posting of {restart} bytes does not fit a {PAGE_SIZE}-byte list page"
                )));
            }
        }
        if self.blk_count == 0 {
            self.blk_first_key = C::encode_key(C::key(item));
            self.blk_max_rank = C::rank(item);
        } else {
            self.blk_max_rank = self.blk_max_rank.max(C::rank(item));
        }
        self.codec.encode(&mut self.blk_state, self.blk_last, item, &mut self.blk);
        self.blk_count += 1;
        self.blk_last = Some(item);
        self.entry_count += 1;
        Ok(())
    }

    fn finish<S: PageStore>(mut self, pool: &mut BufferPool<S>) -> StorageResult<ListInfo> {
        self.flush_block();
        self.seal_page(pool)?;
        Ok(ListInfo {
            meta: ListMeta {
                start_page: self.start_page,
                page_count: self.pages_done,
                entry_count: self.entry_count,
                used_bytes: self.used_bytes,
            },
            skip: Arc::new(SkipTable { blocks: self.skip }),
        })
    }
}

/// Writes `items` as one list of compressed blocks at the end of
/// `segment`, at most `budget` bytes per page.
///
/// `budget < PAGE_SIZE` packs fewer entries per page, emulating the larger
/// (uncompressed) posting entries of the paper's C++ implementation — the
/// experiment harness uses this to reproduce the paper's list *lengths in
/// pages* without materializing a 143 MB corpus (see DESIGN.md). An entry
/// that cannot fit a page at all is [`StorageError::InvalidInput`].
pub fn write_list<S: PageStore, C: BlockCodec>(
    pool: &mut BufferPool<S>,
    segment: SegmentId,
    codec: C,
    items: &[C::Item],
    budget: usize,
) -> StorageResult<ListInfo> {
    let mut pk = ListPacker::new(codec, pool, segment, budget);
    for item in items {
        pk.push(pool, item)?;
    }
    pk.finish(pool)
}

/// The page a [`ListReader`] is currently decoding: the frame stays pinned
/// via its [`PageRef`] while postings are decoded out of it one at a time,
/// straight from the frame bytes (no staging copy of the page, no eager
/// whole-page materialization).
#[derive(Debug)]
struct PageFrame {
    page: PageRef,
    /// Global page offset (block navigation is addressed by page).
    page_no: u32,
    off: usize,
}

/// Streaming reader over one list. Does not borrow the pool, so a query
/// can interleave several readers (the multiway merges of Figures 5 and
/// 7). Decoding is lazy and in place: each step decodes exactly one
/// posting from the pinned current page, so a reader that is abandoned
/// early (TA stop, switch to DIL) never pays for entries it did not
/// consume. [`ListReader::next_seek`] skips whole blocks and
/// [`ListReader::rank_bound`] answers from the skip table without I/O.
///
/// The reader owns two posting slots that swap on every entry: the next
/// posting is decoded into the spare slot against the head slot's key
/// (the delta base, read where it lies), then becomes the head. Their ID
/// and positions buffers, and the block's rank dictionary, are reused, so
/// a walk through [`ListReader::advance`] and [`ListReader::current`]
/// allocates only while the buffers grow. [`ListReader::peek`] is
/// `current` after loading the head, and [`ListReader::next`] hands out a
/// clone of it.
///
/// `ListReader` with no type argument reads posting lists; naive lists
/// are `ListReader<NaiveCodec>`.
#[derive(Debug)]
pub struct ListReader<C: BlockCodec = PostingCodec> {
    segment: SegmentId,
    meta: ListMeta,
    codec: C,
    skip: Arc<SkipTable>,
    frame: Option<PageFrame>,
    /// The last posting decoded: what [`ListReader::current`] shows while
    /// `loaded`, and the delta base of the next decode while `based`.
    head: C::Item,
    /// The slot the next posting decodes into before it swaps with `head`.
    spare: C::Item,
    /// `head` is decoded and not yet consumed or dropped.
    loaded: bool,
    /// `head` belongs to the current block (false at a restart).
    based: bool,
    consumed: u32,
    /// Blocks entered so far == index of the next block to enter.
    entered_blocks: usize,
    /// Entries left undecoded in the current block.
    block_remaining: u32,
    /// The current block's parsed prefix.
    blk: C::Dec,
    blocks_decoded: u64,
    blocks_skipped: u64,
    /// Entries [`ListReader::next_seek`] decoded and dropped.
    dropped: u64,
}

impl<C: BlockCodec> ListReader<C> {
    /// Creates a reader positioned at the start of the list.
    pub fn new(segment: SegmentId, info: &ListInfo, codec: C) -> Self {
        ListReader {
            segment,
            meta: info.meta,
            codec,
            skip: info.skip.clone(),
            frame: None,
            head: C::Item::default(),
            spare: C::Item::default(),
            loaded: false,
            based: false,
            consumed: 0,
            entered_blocks: 0,
            block_remaining: 0,
            blk: C::Dec::default(),
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

    /// Blocks whose entries this reader started decoding.
    pub fn blocks_decoded(&self) -> u64 {
        self.blocks_decoded
    }

    /// Blocks jumped over without decoding.
    pub fn blocks_skipped(&self) -> u64 {
        self.blocks_skipped
    }

    /// Postings decoded off list pages so far: those yielded, those
    /// [`ListReader::next_seek`] decoded and dropped inside a landing
    /// block, and a loaded one not yet yielded.
    pub fn decoded(&self) -> u64 {
        self.consumed as u64 + self.dropped + self.loaded as u64
    }

    /// The posting the reader is on — decoded, not yet consumed — or
    /// `None` when no posting is loaded (a fresh reader, one just
    /// [`ListReader::next`]ed, or the end of the list). Costs nothing:
    /// the posting lives in the reader.
    #[inline]
    pub fn current(&self) -> Option<&C::Item> {
        self.loaded.then_some(&self.head)
    }

    /// Steps past the current posting, if one is loaded (it counts as
    /// consumed), and decodes the next one in place. Returns whether there
    /// is one; [`ListReader::current`] shows it.
    pub fn advance<S: PageStore>(&mut self, pool: &BufferPool<S>) -> StorageResult<bool> {
        self.consumed += std::mem::take(&mut self.loaded) as u32;
        self.ensure_loaded(pool)?;
        Ok(self.loaded)
    }

    /// Loads the next posting, if none is loaded, and shows it without
    /// consuming it: [`ListReader::current`] after the load.
    pub fn peek<S: PageStore>(
        &mut self,
        pool: &BufferPool<S>,
    ) -> StorageResult<Option<&C::Item>> {
        self.ensure_loaded(pool)?;
        Ok(self.current())
    }

    /// Pops the next posting and shows it in place: what
    /// [`ListReader::peek`] shows, which then counts as consumed. The
    /// following posting is decoded only when asked for; until then the
    /// popped one stays in the reader as that decode's delta base.
    pub fn pop<S: PageStore>(&mut self, pool: &BufferPool<S>) -> StorageResult<Option<&C::Item>> {
        self.ensure_loaded(pool)?;
        if !std::mem::take(&mut self.loaded) {
            return Ok(None);
        }
        self.consumed += 1;
        Ok(Some(&self.head))
    }

    /// [`ListReader::pop`], cloned out of the reader.
    pub fn next<S: PageStore>(&mut self, pool: &BufferPool<S>) -> StorageResult<Option<C::Item>> {
        Ok(self.pop(pool)?.cloned())
    }

    /// Decodes the next posting into `head` (one entry, in place on the
    /// pinned frame), unless one is loaded. Navigation is driven by the
    /// skip table: each block's exact page and byte offset is known, so
    /// entering a block pins its page (when not already pinned) and
    /// positions the frame at the count varint.
    fn ensure_loaded<S: PageStore>(&mut self, pool: &BufferPool<S>) -> StorageResult<()> {
        if self.loaded {
            return Ok(());
        }
        loop {
            if self.block_remaining == 0 {
                let Some(e) = self.skip.blocks.get(self.entered_blocks) else {
                    return Ok(()); // end of list
                };
                let (page, offset) = (e.page, e.offset as usize);
                if self.frame.as_ref().is_none_or(|f| f.page_no != page) {
                    let pinned = pin_page(pool, self.segment, page)?;
                    self.frame = Some(PageFrame { page: pinned, page_no: page, off: offset });
                }
                let frame = self.frame.as_mut().expect("frame pinned");
                frame.off = offset;
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
                    .ok_or_else(|| StorageError::corrupt("block prefix overruns page"))?;
                frame.off += self
                    .codec
                    .read_prefix(buf, &mut self.blk)
                    .map_err(|e| StorageError::corrupt(format!("block prefix: {e}")))?;
                self.based = false;
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
            let prev = self.based.then(|| C::key(&self.head));
            frame.off += self
                .codec
                .decode_into(&self.blk, prev, buf, &mut self.spare)
                .map_err(|e| StorageError::corrupt(format!("list page entry: {e}")))?;
            std::mem::swap(&mut self.head, &mut self.spare);
            self.block_remaining -= 1;
            self.based = true;
            self.loaded = true;
            return Ok(());
        }
    }

    /// Advances the reader to the first posting with `key >= target` (only
    /// meaningful on a list written in key order), skipping whole blocks
    /// via the skip table without decoding them. Forward-only: a target at
    /// or behind the current position is a cheap no-op (the reader never
    /// moves backward). Entries dropped here are not counted in
    /// [`ListReader::consumed`].
    pub fn next_seek<S: PageStore>(
        &mut self,
        pool: &BufferPool<S>,
        target: &C::Key,
    ) -> StorageResult<()> {
        if self.current().is_some_and(|p| C::key(p) >= target) {
            return Ok(());
        }
        if let Some(idx) = self.skip.last_leq(&C::encode_key(target)) {
            // Only jump strictly past the block we are inside of
            // (`entered_blocks - 1`); backward jumps never happen.
            if idx >= self.entered_blocks {
                self.blocks_skipped += (idx - self.entered_blocks) as u64;
                self.entered_blocks = idx;
                self.block_remaining = 0;
                self.dropped += std::mem::take(&mut self.loaded) as u64;
                let jump_page = self.skip.blocks[idx].page;
                if self.frame.as_ref().is_none_or(|f| f.page_no != jump_page) {
                    self.frame = None; // pinned lazily on next decode
                }
            }
        }
        // Decode-and-drop inside the landing block up to the target.
        loop {
            self.ensure_loaded(pool)?;
            match self.current() {
                Some(p) if C::key(p) < target => {
                    self.loaded = false;
                    self.dropped += 1;
                }
                _ => return Ok(()),
            }
        }
    }

    /// An upper bound on the rank of the *next* posting this reader will
    /// yield, or `None` at end of list. On rank-ordered lists this is
    /// exact (a block's max rank is its first entry's rank) and costs no
    /// I/O at block boundaries — the TA frontier uses it to stop without
    /// pulling the next page.
    pub fn rank_bound<S: PageStore>(
        &mut self,
        pool: &BufferPool<S>,
    ) -> StorageResult<Option<f32>> {
        if let Some(p) = self.current() {
            return Ok(Some(C::rank(p)));
        }
        if self.block_remaining == 0 {
            return Ok(self.skip.blocks.get(self.entered_blocks).map(|b| b.max_rank));
        }
        // Mid-block the next entry decodes off the already-pinned frame.
        self.ensure_loaded(pool)?;
        Ok(self.current().map(C::rank))
    }

    /// True once every posting has been yielded.
    pub fn exhausted(&self) -> bool {
        !self.loaded
            && self.block_remaining == 0
            && self.entered_blocks >= self.skip.blocks.len()
    }

    /// Count-based end check: true once `entry_count` entries were
    /// yielded. Costs no I/O, unlike peeking. Only meaningful for readers
    /// that never [`ListReader::next_seek`] (seeks drop entries without
    /// counting them) — i.e. the rank-ordered readers of the TA loops.
    pub fn at_end(&self) -> bool {
        !self.loaded && self.consumed >= self.meta.entry_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
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

    #[test]
    fn dewey_list_roundtrip_across_pages() {
        let mut pool = BufferPool::new(MemStore::new(), 1024);
        let seg = pool.store_mut().create_segment().unwrap();
        let ps = postings(2000);
        let w = write_list(&mut pool, seg, PostingCodec, &ps, PAGE_SIZE).unwrap();
        assert!(w.meta.page_count > 1, "should span pages");
        let skip = w.skip.clone();
        assert_eq!(
            skip.blocks.iter().map(|b| b.page).collect::<std::collections::BTreeSet<_>>().len(),
            w.meta.page_count as usize,
            "every page holds at least one block"
        );
        let mut r = ListReader::new(seg, &w, PostingCodec);
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
    fn blocks_are_self_contained() {
        let mut pool = BufferPool::new(MemStore::new(), 1024);
        let seg = pool.store_mut().create_segment().unwrap();
        let ps = postings(2000);
        let w = write_list(&mut pool, seg, PostingCodec, &ps, PAGE_SIZE).unwrap();
        // Decode a block in the middle of the list with nothing but its
        // page and offset; its first key must match the skip entry.
        let mid = &w.skip.blocks[w.skip.blocks.len() / 2];
        assert!(mid.page > w.meta.start_page && mid.offset as usize > PAGE_HEADER);
        let page = pool.read(PageId::new(seg, mid.page)).unwrap().to_vec();
        let mut decoded = Vec::new();
        block::decode_block(&page, mid.offset as usize, &mut decoded).unwrap();
        assert!(!decoded.is_empty());
        assert_eq!(codec::encode_id(&decoded[0].dewey), mid.first_key);
    }

    #[test]
    fn next_seek_matches_linear_scan() {
        let mut pool = BufferPool::new(MemStore::new(), 4096);
        let seg = pool.store_mut().create_segment().unwrap();
        let ps = postings(5000);
        let w = write_list(&mut pool, seg, PostingCodec, &ps, PAGE_SIZE).unwrap();
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
        let mut seeker = ListReader::new(seg, &w, PostingCodec);
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
    fn damaged_entry_through_advance_is_corrupt_not_a_panic() {
        let mut pool = BufferPool::new(MemStore::new(), 64);
        let seg = pool.store_mut().create_segment().unwrap();
        let w = write_list(&mut pool, seg, PostingCodec, &postings(100), PAGE_SIZE).unwrap();
        assert_eq!(w.meta.page_count, 1);
        let id = PageId::new(seg, w.meta.start_page);
        let clean = pool.read(id).unwrap().to_vec();
        let n = u16::from_le_bytes([clean[COUNT_OFF], clean[COUNT_OFF + 1]]);
        let mut typed = 0;
        for at in PAGE_HEADER..w.meta.used_bytes as usize {
            for flip in [0x80u8, 0x7f, 0xff] {
                let mut page = clean.clone();
                page[at] ^= flip;
                // Re-sealed: the checksum passes, so the decoder itself
                // must not trust what it reads.
                seal(&mut page, n);
                pool.write_page(id, &page).unwrap();
                let mut r = ListReader::new(seg, &w, PostingCodec);
                loop {
                    match r.advance(&pool) {
                        Ok(true) => assert!(r.current().is_some()),
                        Ok(false) => break,
                        Err(e) => {
                            assert!(matches!(e, StorageError::Corrupt { .. }), "{e}");
                            typed += 1;
                            break;
                        }
                    }
                }
            }
        }
        assert!(typed > 0, "some damage must be detectable by the decoder itself");
    }

    #[test]
    fn rank_bound_is_exact_on_rank_lists() {
        let mut pool = BufferPool::new(MemStore::new(), 1024);
        let seg = pool.store_mut().create_segment().unwrap();
        let mut ps = postings(800);
        ps.sort_by(|a, b| b.rank.total_cmp(&a.rank).then(a.dewey.cmp(&b.dewey)));
        let info = write_list(&mut pool, seg, PostingCodec, &ps, PAGE_SIZE).unwrap();
        let mut r = ListReader::new(seg, &info, PostingCodec);
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
        let info = write_list(&mut pool, seg, PostingCodec, &ps, PAGE_SIZE).unwrap();
        let mut r = ListReader::new(seg, &info, PostingCodec);
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
            let info = write_list(&mut pool, seg, NaiveCodec { delta }, &ps, PAGE_SIZE).unwrap();
            let mut r = ListReader::new(seg, &info, NaiveCodec { delta });
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
        let info = write_list(&mut pool, seg, NaiveCodec { delta: true }, &ps, PAGE_SIZE).unwrap();
        let mut r = ListReader::new(seg, &info, NaiveCodec { delta: true });
        for target in [0u32, 5, 381, 382, 9000, 17_999, 18_000] {
            r.next_seek(&pool, &target).unwrap();
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
        let w = write_list(&mut pool, seg, PostingCodec, &[], PAGE_SIZE).unwrap();
        assert_eq!(w.meta.page_count, 0);
        assert!(w.skip.blocks.is_empty());
        let mut r = ListReader::new(seg, &w, PostingCodec);
        assert!(r.next(&pool).unwrap().is_none());
        assert!(r.exhausted());
    }

    #[test]
    fn peek_does_not_consume() {
        let mut pool = BufferPool::new(MemStore::new(), 64);
        let seg = pool.store_mut().create_segment().unwrap();
        let ps = postings(5);
        let w = write_list(&mut pool, seg, PostingCodec, &ps, PAGE_SIZE).unwrap();
        let mut r = ListReader::new(seg, &w, PostingCodec);
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
        let full = write_list(&mut pool, seg, PostingCodec, &ps, PAGE_SIZE).unwrap();
        let tight = write_list(&mut pool, seg, PostingCodec, &ps, 256).unwrap();
        assert!(
            tight.meta.page_count > full.meta.page_count,
            "smaller budget must spread over more pages"
        );
        let mut r = ListReader::new(seg, &tight, PostingCodec);
        for expect in &ps {
            assert_eq!(r.next(&pool).unwrap().unwrap().dewey, expect.dewey);
        }
        assert!(r.next(&pool).unwrap().is_none());
    }

    #[test]
    fn full_scan_is_mostly_sequential() {
        fn check<C: BlockCodec>(pool: &BufferPool<MemStore>, mut r: ListReader<C>) {
            pool.clear_cache();
            pool.reset_stats();
            while r.next(pool).unwrap().is_some() {}
            let s = pool.stats();
            assert_eq!(s.rand_reads, 1, "one initial seek");
            assert_eq!(s.seq_reads as u32, r.meta().page_count - 1);
        }
        let mut pool = BufferPool::new(MemStore::new(), 4096);
        let seg = pool.store_mut().create_segment().unwrap();
        let ps = postings(20_000);
        let w = write_list(&mut pool, seg, PostingCodec, &ps, PAGE_SIZE).unwrap();
        check(&pool, ListReader::new(seg, &w, PostingCodec));
        let codec = NaiveCodec { delta: true };
        let ns: Vec<NaivePosting> = (0..20_000)
            .map(|i| NaivePosting { elem: i * 2, rank: 0.5, positions: vec![i] })
            .collect();
        let n = write_list(&mut pool, seg, codec, &ns, PAGE_SIZE).unwrap();
        assert!(n.meta.page_count > 3);
        check(&pool, ListReader::new(seg, &n, codec));
    }

    #[test]
    fn list_table_tag_of_the_retired_format_is_invalid_data() {
        let info = ListInfo {
            meta: ListMeta { start_page: 0, page_count: 1, entry_count: 1, used_bytes: 9 },
            skip: Arc::new(SkipTable::default()),
        };
        let mut good = Vec::new();
        write_list_table(&mut good, &[None, Some(info)]).unwrap();
        assert_eq!(read_list_table(&mut good.as_slice()).unwrap().len(), 2);
        // count 1, tag 1, then the bare meta a tag-1 entry carried.
        let mut retired = Vec::new();
        wire::put_u32(&mut retired, 1).unwrap();
        wire::put_u32(&mut retired, 1).unwrap();
        retired.extend_from_slice(&[0u8; 20]);
        let err = read_list_table(&mut retired.as_slice()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("rebuild"), "{err}");
    }

    #[test]
    fn posting_larger_than_a_page_is_invalid_input() {
        let mut pool = BufferPool::new(MemStore::new(), 64);
        let seg = pool.store_mut().create_segment().unwrap();
        let mut ps = postings(3);
        // ~2 bytes per component: no page holds this ID.
        ps[1].dewey = DeweyId::from_components((0..3000).collect());
        ps.sort_by(|a, b| a.dewey.cmp(&b.dewey));
        let err = write_list(&mut pool, seg, PostingCodec, &ps, PAGE_SIZE).unwrap_err();
        assert!(matches!(err, StorageError::InvalidInput { .. }), "{err}");
    }

    /// One step of a reader script; seek targets are positions in the
    /// list (`0..=len`), hit exactly or in the gap just below.
    #[derive(Debug, Clone)]
    enum Op {
        Next,
        Pop,
        Peek,
        Advance,
        Current,
        Seek { pos: usize, exact: bool },
    }

    /// Runs `script` through a fresh reader over `items`, then drains the
    /// reader with `next` or with `advance`, checking every answer and what
    /// `current` shows after every step against the in-memory vector.
    /// `key_at(pos, exact)` is the seek target for position `pos`. Returns
    /// the reader's counters (consumed, decoded, blocks decoded, blocks
    /// skipped) after the drain.
    #[allow(clippy::too_many_arguments)]
    fn run_script<C: BlockCodec>(
        pool: &BufferPool<MemStore>,
        seg: SegmentId,
        codec: C,
        items: &[C::Item],
        info: &ListInfo,
        script: &[Op],
        drain_by_advance: bool,
        key_at: impl Fn(usize, bool) -> C::Key,
    ) -> Result<[u64; 4], String>
    where
        C::Item: PartialEq,
    {
        let io = |e: StorageError| e.to_string();
        let mut r = ListReader::new(seg, info, codec);
        // `cur`: index of the posting the reader shows or yields next;
        // `loaded`: whether `current` shows it; `consumed`: postings
        // yielded by `next` or stepped past by `advance`.
        let (mut cur, mut loaded, mut consumed) = (0usize, false, 0u32);
        let drain_op = if drain_by_advance { &Op::Advance } else { &Op::Next };
        let drain = std::iter::repeat_n(drain_op, items.len() + 2);
        for (step, op) in script.iter().chain(drain).enumerate() {
            match op {
                Op::Next => {
                    let got = r.next(pool).map_err(io)?;
                    if got.as_ref() != items.get(cur) {
                        return Err(format!("step {step}: next at {cur} yielded {got:?}"));
                    }
                    cur += got.is_some() as usize;
                    consumed += got.is_some() as u32;
                    loaded = false;
                }
                Op::Pop => {
                    let got = r.pop(pool).map_err(io)?;
                    if got != items.get(cur) {
                        return Err(format!("step {step}: pop at {cur} showed {got:?}"));
                    }
                    cur += got.is_some() as usize;
                    consumed += got.is_some() as u32;
                    loaded = false;
                }
                Op::Advance => {
                    if loaded {
                        cur += 1;
                        consumed += 1;
                    }
                    loaded = cur < items.len();
                    if r.advance(pool).map_err(io)? != loaded {
                        return Err(format!("step {step}: advance at {cur} misreported the end"));
                    }
                }
                Op::Peek => {
                    let head = r.peek(pool).map_err(io)?;
                    if head != items.get(cur) {
                        return Err(format!("step {step}: peek {head:?}, expected index {cur}"));
                    }
                    loaded = cur < items.len();
                }
                Op::Current => {}
                Op::Seek { pos, exact } => {
                    let target = key_at(*pos, *exact);
                    r.next_seek(pool, &target).map_err(io)?;
                    cur = cur.max(items.partition_point(|i| C::key(i) < &target));
                    loaded = cur < items.len();
                }
            }
            let shown = items.get(cur).filter(|_| loaded);
            if r.current() != shown || r.consumed() != consumed {
                let got = r.current();
                return Err(format!("step {step} {op:?}: shows {got:?}, expected {shown:?}; {r:?}"));
            }
        }
        let blocks = info.skip.blocks.len() as u64;
        if !r.exhausted()
            || r.decoded() < consumed as u64
            || r.decoded() > items.len() as u64
            || r.blocks_decoded() + r.blocks_skipped() != blocks
        {
            return Err(format!("counters after the drain: {r:?}"));
        }
        Ok([r.consumed() as u64, r.decoded(), r.blocks_decoded(), r.blocks_skipped()])
    }

    fn op(len: usize) -> impl Strategy<Value = Op> {
        prop_oneof![
            4 => Just(Op::Next),
            2 => Just(Op::Pop),
            2 => Just(Op::Peek),
            4 => Just(Op::Advance),
            1 => Just(Op::Current),
            3 => (0..len + 1, any::<bool>()).prop_map(|(pos, exact)| Op::Seek { pos, exact }),
            // Short hops: the seek that stays inside the current block.
            3 => (0usize..40, any::<bool>()).prop_map(|(pos, exact)| Op::Seek { pos, exact }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        /// The one reader, both codecs: the same random script over a
        /// Dewey list and a delta naive list of the same length agrees
        /// with the vectors the lists were written from, and the counters
        /// come out the same whether `next` or `advance` drains the rest.
        #[test]
        fn random_scripts_match_the_vectors(script in proptest::collection::vec(op(3000), 1..120)) {
            const N: u32 = 3000;
            let mut pool = BufferPool::new(MemStore::new(), 256);
            let seg = pool.store_mut().create_segment().unwrap();
            // Gaps after every key, so "just below position p" is a key
            // that is in neither list.
            // (`elem` is not stored in list pages and reads back as 0.)
            let ps: Vec<Posting> =
                postings(N).into_iter().map(|p| Posting { elem: 0, ..p }).collect();
            let ns: Vec<NaivePosting> = (0..N)
                .map(|i| NaivePosting { elem: i * 3 + 1, rank: 0.5, positions: vec![i, i + 7] })
                .collect();
            let dewey = write_list(&mut pool, seg, PostingCodec, &ps, 1024).unwrap();
            let naive = write_list(&mut pool, seg, NaiveCodec { delta: true }, &ns, 1024).unwrap();
            prop_assert!(dewey.meta.page_count >= 3 && naive.meta.page_count >= 3);

            let dewey_key = |pos: usize, exact: bool| match (ps.get(pos), exact, pos) {
                (Some(p), true, _) => p.dewey.clone(),
                (Some(_), false, 0) => DeweyId::from([0]),
                (Some(_), false, _) => ps[pos - 1].dewey.child(0),
                (None, ..) => DeweyId::from([9, 9]),
            };
            let naive_key = |pos: usize, exact: bool| match ns.get(pos) {
                Some(p) => p.elem - !exact as u32,
                None => u32::MAX,
            };
            let codec = NaiveCodec { delta: true };
            for (by_next, by_advance) in [
                (
                    run_script(&pool, seg, PostingCodec, &ps, &dewey, &script, false, dewey_key),
                    run_script(&pool, seg, PostingCodec, &ps, &dewey, &script, true, dewey_key),
                ),
                (
                    run_script(&pool, seg, codec, &ns, &naive, &script, false, naive_key),
                    run_script(&pool, seg, codec, &ns, &naive, &script, true, naive_key),
                ),
            ] {
                match (by_next, by_advance) {
                    (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "counters depend on the drain"),
                    (Err(e), _) | (_, Err(e)) => prop_assert!(false, "{e}"),
                }
            }
        }
    }
}
