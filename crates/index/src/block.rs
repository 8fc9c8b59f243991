//! Block codec for compressed posting pages, plus the per-list skip table
//! that makes the blocks seekable.
//!
//! A list page body is a run of *blocks*:
//! `[count: varint ≤ 127] [rank_n: varint] [f32 LE × rank_n]` followed by
//! `count` entries whose Dewey IDs are delta-encoded against the previous
//! entry *in the same block* (the first entry of every block is a
//! restart) and whose ranks are one-byte indexes into the block's rank
//! dictionary ([`RankDict`]). Each block gets one [`SkipEntry`] in the
//! list's [`SkipTable`] — first key, max rank, and the exact page/byte
//! position of the block — so a reader can jump to any block without
//! decoding the ones before it, and a TA loop can reject a whole block on
//! its `max_rank` without touching the page.
//!
//! The entry header packs the delta description — shared prefix length
//! and suffix length — into a single byte for the common case: one
//! ordered varint `h = (min(suffix_len, 15) << 3) | min(shared, 7)`:
//! `h ≤ 127` always encodes as one byte, and the rare deep/long cases
//! escape — a shared field of 7 means the true shared length follows as
//! a varint, a suffix field of 15 means the true suffix length follows.
//! The first suffix component is a zigzag delta against the previous
//! entry's component at the same depth (adjacent entries in a sorted list
//! differ first in the document ordinal, whose *gap* is small); remaining
//! components are absolute varints. Rank bit patterns are stored exactly
//! (rankings must be bit-identical to the uncompressed path); positions
//! are delta varints ([`posting::encode_positions`]).

use crate::posting::{self, Posting};
use xrank_dewey::codec::{self, DecodeError};
use xrank_dewey::DeweyId;
use xrank_storage::{wire, StorageError, StorageResult};

/// Max entries per block. 127 keeps the block-count varint at one byte.
pub const MAX_BLOCK_ENTRIES: usize = 127;

/// Shared-prefix field values `0..ESCAPE_SHARED` are stored inline;
/// `ESCAPE_SHARED` means the true value follows as a varint.
const ESCAPE_SHARED: u32 = 7;
/// Suffix-length field values `0..ESCAPE_SUFFIX` are stored inline.
const ESCAPE_SUFFIX: u32 = 15;

/// Writes a zigzag-folded `i64` as a LEB128 varint. The leading suffix
/// component is a *signed* delta (rank-ordered lists are not
/// Dewey-ascending, so the neighbour's component can be on either side),
/// and the worst-case magnitude `u32::MAX` needs 33 bits once folded —
/// hence the 64-bit writer instead of [`codec::write_component`].
fn write_zigzag(d: i64, out: &mut Vec<u8>) {
    let mut v = ((d << 1) ^ (d >> 63)) as u64;
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Byte length [`write_zigzag`] would produce.
fn zigzag_len(d: i64) -> usize {
    let v = ((d << 1) ^ (d >> 63)) as u64;
    (64 - v.max(1).leading_zeros() as usize).div_ceil(7)
}

/// Reads a zigzag varint written by [`write_zigzag`].
fn read_zigzag(buf: &[u8]) -> Result<(i64, usize), DecodeError> {
    let mut v = 0u64;
    for (i, &byte) in buf.iter().enumerate().take(10) {
        v |= u64::from(byte & 0x7f) << (7 * i);
        if byte & 0x80 == 0 {
            let d = ((v >> 1) as i64) ^ -((v & 1) as i64);
            return Ok((d, i + 1));
        }
    }
    Err(DecodeError::Truncated)
}

/// Encodes `cur` against `prev` (the previous entry in the block; `None`
/// at a block restart) using the packed header. The first suffix
/// component is written as a zigzag delta against `prev`'s component at
/// the same depth when one exists — adjacent entries in a Dewey-sorted
/// list differ first in the document ordinal, whose gap is tiny compared
/// to its absolute value, so this is the byte that turns multi-page
/// workload lists into single-page ones.
pub fn encode_dewey(prev: Option<&DeweyId>, cur: &DeweyId, out: &mut Vec<u8>) {
    let shared = prev.map_or(0, |p| p.common_prefix_len(cur)) as u32;
    let suffix = cur.len() as u32 - shared;
    let sf = shared.min(ESCAPE_SHARED);
    let lf = suffix.min(ESCAPE_SUFFIX);
    codec::write_component((lf << 3) | sf, out);
    if sf == ESCAPE_SHARED {
        codec::write_component(shared, out);
    }
    if lf == ESCAPE_SUFFIX {
        codec::write_component(suffix, out);
    }
    let prev_components = prev.map_or(&[][..], |p| p.components());
    for (i, &c) in cur.components()[shared as usize..].iter().enumerate() {
        if i == 0 && (shared as usize) < prev_components.len() {
            write_zigzag(c as i64 - prev_components[shared as usize] as i64, out);
        } else {
            codec::write_component(c, out);
        }
    }
}

/// Byte length [`encode_dewey`] would produce.
pub fn dewey_len(prev: Option<&DeweyId>, cur: &DeweyId) -> usize {
    let shared = prev.map_or(0, |p| p.common_prefix_len(cur)) as u32;
    let suffix = cur.len() as u32 - shared;
    let mut len = 1; // packed header is always one byte (h ≤ 127)
    if shared >= ESCAPE_SHARED {
        len += codec::component_encoded_len(shared);
    }
    if suffix >= ESCAPE_SUFFIX {
        len += codec::component_encoded_len(suffix);
    }
    let prev_components = prev.map_or(&[][..], |p| p.components());
    for (i, &c) in cur.components()[shared as usize..].iter().enumerate() {
        if i == 0 && (shared as usize) < prev_components.len() {
            len += zigzag_len(c as i64 - prev_components[shared as usize] as i64);
        } else {
            len += codec::component_encoded_len(c);
        }
    }
    len
}

/// Decodes one Dewey delta into a caller-owned component buffer (cleared
/// first, its allocation kept), returning the bytes consumed. Inverse of
/// [`encode_dewey`]. `prev` is the previous entry's components (empty at a
/// block restart). Readers alternate two buffers, so decoding allocates
/// only while the buffers grow to the list's deepest ID.
#[inline(always)]
pub fn decode_dewey_into(
    prev: &[u32],
    buf: &[u8],
    out: &mut Vec<u32>,
) -> Result<usize, DecodeError> {
    let (h, mut off) = codec::read_component(buf)?;
    let mut shared = h & 7;
    let mut suffix = h >> 3;
    if shared == ESCAPE_SHARED {
        let (v, n) = codec::read_component(&buf[off..])?;
        shared = v;
        off += n;
    }
    if suffix == ESCAPE_SUFFIX {
        let (v, n) = codec::read_component(&buf[off..])?;
        suffix = v;
        off += n;
    }
    let shared = shared as usize;
    // Every suffix component takes at least one byte, so a length beyond
    // the remaining bytes is corruption — reject before reserving.
    if shared > prev.len() || suffix as usize > buf.len() - off {
        return Err(DecodeError::Truncated);
    }
    out.clear();
    out.reserve(shared + suffix as usize);
    out.extend_from_slice(&prev[..shared]);
    for i in 0..suffix {
        if i == 0 && shared < prev.len() {
            let (d, n) = read_zigzag(&buf[off..])?;
            let c = prev[shared] as i64 + d;
            out.push(u32::try_from(c).map_err(|_| DecodeError::Overflow)?);
            off += n;
        } else {
            let (c, n) = codec::read_component(&buf[off..])?;
            out.push(c);
            off += n;
        }
    }
    Ok(off)
}

/// A block's staged rank dictionary: the distinct rank bit patterns seen
/// so far, in first-appearance order. Entries store a one-byte index into
/// this table instead of four raw rank bytes — at ≤ [`MAX_BLOCK_ENTRIES`]
/// entries per block the index always fits one varint byte, and with the
/// skewed ElemRank distributions most blocks repeat ranks heavily, so the
/// table (4 bytes per *distinct* rank) undercuts 4 bytes per entry. Bit
/// patterns are stored exactly, so decoded ranks are bit-identical to the
/// uncompressed path.
#[derive(Debug, Clone, Default)]
pub struct RankDict {
    /// Distinct `f32::to_bits` values, first-appearance order.
    bits: Vec<u32>,
}

impl RankDict {
    /// Bytes the dictionary prefix (`[rank_n varint][f32 LE × rank_n]`)
    /// occupies right now.
    pub fn prefix_len(&self) -> usize {
        codec::component_encoded_len(self.bits.len() as u32) + 4 * self.bits.len()
    }

    /// How many bytes adding `rank` would grow the dictionary by (4 for an
    /// unseen rank, 0 for a repeat).
    pub fn growth(&self, rank: f32) -> usize {
        if self.bits.contains(&rank.to_bits()) {
            0
        } else {
            4
        }
    }

    /// Interns `rank`, returning its index.
    fn intern(&mut self, rank: f32) -> u32 {
        let bits = rank.to_bits();
        match self.bits.iter().position(|&b| b == bits) {
            Some(i) => i as u32,
            None => {
                self.bits.push(bits);
                (self.bits.len() - 1) as u32
            }
        }
    }

    /// Writes the dictionary prefix.
    pub fn write(&self, out: &mut Vec<u8>) {
        codec::write_component(self.bits.len() as u32, out);
        for &b in &self.bits {
            out.extend_from_slice(&b.to_le_bytes());
        }
    }

    /// Reads a dictionary prefix into `ranks` (cleared first, its
    /// allocation kept), returning the bytes consumed.
    pub fn read(buf: &[u8], ranks: &mut Vec<f32>) -> Result<usize, DecodeError> {
        let (n, mut off) = codec::read_component(buf)?;
        if n as usize > MAX_BLOCK_ENTRIES || buf.len() - off < 4 * n as usize {
            return Err(DecodeError::Truncated);
        }
        ranks.clear();
        for _ in 0..n {
            ranks.push(f32::from_le_bytes([buf[off], buf[off + 1], buf[off + 2], buf[off + 3]]));
            off += 4;
        }
        Ok(off)
    }
}

/// Encodes one posting entry: Dewey delta, rank-dictionary index, then
/// the positions payload. The rank is interned into `dict` (written once
/// per distinct rank in the block prefix, not per entry).
pub fn encode_entry(prev: Option<&DeweyId>, p: &Posting, dict: &mut RankDict, out: &mut Vec<u8>) {
    encode_dewey(prev, &p.dewey, out);
    codec::write_component(dict.intern(p.rank), out);
    posting::encode_positions(&p.positions, out);
}

/// Byte length [`encode_entry`] would append to `out` (excluding any
/// dictionary growth; see [`RankDict::growth`]).
pub fn entry_len(prev: Option<&DeweyId>, p: &Posting) -> usize {
    // The dict index is ≤ 126 (one block's distinct ranks), one byte.
    dewey_len(prev, &p.dewey) + 1 + posting::positions_len(&p.positions)
}

/// Decodes one posting entry in place into `out`, against the block's
/// rank dictionary, returning the bytes consumed. `prev` is the previous
/// entry's ID in the same block (`None` at a restart). `out`'s ID and
/// positions are refilled in their existing buffers; `elem` is not stored
/// and is left as it is.
pub fn decode_entry_into(
    prev: Option<&DeweyId>,
    ranks: &[f32],
    buf: &[u8],
    out: &mut Posting,
) -> Result<usize, DecodeError> {
    let prev = prev.map_or(&[][..], DeweyId::components);
    let mut off = decode_dewey_into(prev, buf, out.dewey.components_mut())?;
    let (idx, n) = codec::read_component(&buf[off..])?;
    off += n;
    out.rank = *ranks.get(idx as usize).ok_or(DecodeError::Truncated)?;
    Ok(off + posting::decode_positions_into(&buf[off..], &mut out.positions)?)
}

/// One block's entry in the skip table.
#[derive(Debug, Clone, PartialEq)]
pub struct SkipEntry {
    /// Encoded first key of the block: `codec::encode_id` of the first
    /// Dewey for Dewey/rank lists, an ordered elem varint for naive
    /// lists. Byte-lexicographic order equals key order.
    pub first_key: Vec<u8>,
    /// Exact maximum rank of any entry in the block.
    pub max_rank: f32,
    /// Absolute page offset of the block within its segment.
    pub page: u32,
    /// Byte offset of the block's count varint inside the page.
    pub offset: u16,
}

/// Per-list skip table: one [`SkipEntry`] per block, in list order. Stored
/// in the list table alongside [`crate::listio::ListMeta`], never in the
/// data pages, so readers get it for free with the metadata.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SkipTable {
    /// Block descriptors in storage order.
    pub blocks: Vec<SkipEntry>,
}

impl SkipTable {
    /// Index of the last block whose first key is `<= key`, i.e. the only
    /// block that can contain `key`. `None` when `key` sorts before the
    /// whole list.
    pub fn last_leq(&self, key: &[u8]) -> Option<usize> {
        let idx = self.blocks.partition_point(|b| b.first_key.as_slice() <= key);
        idx.checked_sub(1)
    }

    /// Bytes [`SkipTable::write`] produces.
    pub fn serialized_len(&self) -> u64 {
        4 + self.blocks.iter().map(|b| 8 + b.first_key.len() as u64 + 12).sum::<u64>()
    }

    /// Serializes the table.
    pub fn write<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        wire::put_u32(w, self.blocks.len() as u32)?;
        for b in &self.blocks {
            wire::put_bytes(w, &b.first_key)?;
            wire::put_u32(w, b.max_rank.to_bits())?;
            wire::put_u32(w, b.page)?;
            wire::put_u32(w, b.offset as u32)?;
        }
        Ok(())
    }

    /// Deserializes a table written by [`SkipTable::write`].
    pub fn read<R: std::io::Read>(r: &mut R) -> std::io::Result<SkipTable> {
        let n = wire::get_u32(r)?;
        let mut blocks = Vec::with_capacity(n.min(1 << 20) as usize);
        for _ in 0..n {
            let first_key = wire::get_bytes(r)?;
            let max_rank = f32::from_bits(wire::get_u32(r)?);
            let page = wire::get_u32(r)?;
            let offset = wire::get_u32(r)?;
            if offset > u16::MAX as u32 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("skip entry offset {offset} exceeds a page"),
                ));
            }
            blocks.push(SkipEntry { first_key, max_rank, page, offset: offset as u16 });
        }
        Ok(SkipTable { blocks })
    }
}

/// Decodes one block (count varint + rank dictionary + entries) starting
/// at `buf[off..]`. Appends the postings to `out` and returns the offset
/// just past the block. The whole-block reference decoder: the streaming
/// reader and HDIL's decoded Dewey column decode entry-at-a-time instead,
/// and their tests compare against this.
pub fn decode_block(buf: &[u8], mut off: usize, out: &mut Vec<Posting>) -> StorageResult<usize> {
    let (count, n) = codec::read_component(
        buf.get(off..).ok_or_else(|| StorageError::corrupt("block count overruns page"))?,
    )
    .map_err(|e| StorageError::corrupt(format!("block count: {e}")))?;
    off += n;
    let mut ranks = Vec::new();
    off += RankDict::read(
        buf.get(off..).ok_or_else(|| StorageError::corrupt("block dict overruns page"))?,
        &mut ranks,
    )
    .map_err(|e| StorageError::corrupt(format!("block rank dict: {e}")))?;
    let first = out.len();
    for _ in 0..count {
        let mut p = Posting::default();
        off += decode_entry_into(
            out[first..].last().map(|q| &q.dewey),
            &ranks,
            buf.get(off..).ok_or_else(|| StorageError::corrupt("block entry overruns page"))?,
            &mut p,
        )
        .map_err(|e| StorageError::corrupt(format!("block entry: {e}")))?;
        out.push(p);
    }
    Ok(off)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip_chain(ids: &[DeweyId]) {
        let mut buf = Vec::new();
        let mut prev: Option<DeweyId> = None;
        for id in ids {
            assert_eq!(
                {
                    let before = buf.len();
                    encode_dewey(prev.as_ref(), id, &mut buf);
                    buf.len() - before
                },
                dewey_len(prev.as_ref(), id),
                "dewey_len mismatch for {id:?}"
            );
            prev = Some(id.clone());
        }
        // Two alternating buffers, as the readers decode.
        let (mut off, mut cur, mut prev) = (0, Vec::new(), Vec::new());
        for id in ids {
            off += decode_dewey_into(&prev, &buf[off..], &mut cur).unwrap();
            assert_eq!(cur, id.components());
            std::mem::swap(&mut cur, &mut prev);
        }
        assert_eq!(off, buf.len());
    }

    #[test]
    fn typical_delta_header_is_one_byte() {
        let a = DeweyId::from([3, 0, 2, 5]);
        let b = DeweyId::from([3, 0, 2, 6]);
        let mut buf = Vec::new();
        encode_dewey(Some(&a), &b, &mut buf);
        // 1 header byte + 1 component byte
        assert_eq!(buf.len(), 2);
        roundtrip_chain(&[a, b]);
    }

    #[test]
    fn escape_paths_roundtrip() {
        // shared ≥ 7 forces the shared escape; suffix ≥ 15 the suffix one.
        let deep: Vec<u32> = (0..20).collect();
        let a = DeweyId::from_components(deep.clone());
        let mut deep2 = deep.clone();
        *deep2.last_mut().unwrap() = 99;
        let b = DeweyId::from_components(deep2);
        let wide = DeweyId::from_components((0..18).map(|i| i * 7).collect());
        roundtrip_chain(&[a, b, wide]);
    }

    #[test]
    fn max_component_values_roundtrip() {
        let a = DeweyId::from([u32::MAX, u32::MAX, 0]);
        let b = DeweyId::from([u32::MAX, u32::MAX, u32::MAX]);
        roundtrip_chain(&[a, b]);
    }

    #[test]
    fn restart_equals_full_encoding_plus_header() {
        let id = DeweyId::from([7, 3, 1]);
        let mut buf = Vec::new();
        encode_dewey(None, &id, &mut buf);
        assert_eq!(buf.len(), 1 + codec::encoded_len(&id));
    }

    #[test]
    fn leading_delta_shrinks_doc_gaps() {
        // Adjacent entries in different documents share no prefix; the
        // leading component is a small signed delta (1 byte) even when
        // the absolute document ordinal needs a multi-byte varint.
        let a = DeweyId::from([2741, 0, 3, 1]);
        let b = DeweyId::from([2747, 0, 5, 2]);
        let mut buf = Vec::new();
        encode_dewey(Some(&a), &b, &mut buf);
        // header + zigzag(6) + three absolute components
        assert_eq!(buf.len(), 1 + 1 + 3);
        roundtrip_chain(&[a, b]);
    }

    #[test]
    fn leading_delta_handles_negative_gaps() {
        // Rank-ordered lists are not Dewey-ascending: the delta can be
        // negative and must round-trip through the zigzag fold.
        let a = DeweyId::from([2900, 4]);
        let b = DeweyId::from([12, 9]);
        roundtrip_chain(&[a, b, DeweyId::from([u32::MAX, 0]), DeweyId::from([0, 0])]);
    }

    #[test]
    fn rank_dict_interns_and_roundtrips() {
        let mut d = RankDict::default();
        assert_eq!(d.growth(0.5), 4);
        assert_eq!(d.intern(0.5), 0);
        assert_eq!(d.growth(0.5), 0);
        assert_eq!(d.intern(0.25), 1);
        assert_eq!(d.intern(0.5), 0, "repeat rank reuses its index");
        // -0.0 and 0.0 have different bit patterns: kept distinct so
        // decoded ranks are bit-identical.
        assert_eq!(d.intern(0.0), 2);
        assert_eq!(d.intern(-0.0), 3);
        let mut buf = Vec::new();
        d.write(&mut buf);
        assert_eq!(buf.len(), d.prefix_len());
        let mut ranks = vec![9.0; 6];
        let used = RankDict::read(&buf, &mut ranks).unwrap();
        assert_eq!(used, buf.len());
        let bits: Vec<u32> = ranks.iter().map(|r| r.to_bits()).collect();
        assert_eq!(bits, vec![0.5f32.to_bits(), 0.25f32.to_bits(), 0, (-0.0f32).to_bits()]);
    }

    #[test]
    fn decode_entry_rejects_out_of_range_dict_index() {
        let p = Posting {
            elem: 0,
            dewey: DeweyId::from([1, 2]),
            rank: 0.75,
            positions: vec![3],
        };
        let mut dict = RankDict::default();
        let mut buf = Vec::new();
        encode_entry(None, &p, &mut dict, &mut buf);
        // Decoding with an empty dictionary must fail, not panic.
        let mut back = Posting::default();
        assert!(decode_entry_into(None, &[], &buf, &mut back).is_err());
        let used = decode_entry_into(None, &[0.75], &buf, &mut back).unwrap();
        assert_eq!(used, buf.len());
        assert_eq!(back.rank.to_bits(), p.rank.to_bits());
        assert_eq!(back.positions, p.positions);
    }

    #[test]
    fn skip_table_roundtrip_and_lookup() {
        let t = SkipTable {
            blocks: vec![
                SkipEntry {
                    first_key: codec::encode_id(&DeweyId::from([1, 0])),
                    max_rank: 0.9,
                    page: 0,
                    offset: 2,
                },
                SkipEntry {
                    first_key: codec::encode_id(&DeweyId::from([4, 2])),
                    max_rank: 0.5,
                    page: 1,
                    offset: 2,
                },
                SkipEntry {
                    first_key: codec::encode_id(&DeweyId::from([9, 0])),
                    max_rank: 0.7,
                    page: 1,
                    offset: 900,
                },
            ],
        };
        let mut buf = Vec::new();
        t.write(&mut buf).unwrap();
        assert_eq!(buf.len() as u64, t.serialized_len());
        let back = SkipTable::read(&mut buf.as_slice()).unwrap();
        assert_eq!(back, t);

        assert_eq!(t.last_leq(&codec::encode_id(&DeweyId::from([0, 5]))), None);
        assert_eq!(t.last_leq(&codec::encode_id(&DeweyId::from([1, 0]))), Some(0));
        assert_eq!(t.last_leq(&codec::encode_id(&DeweyId::from([4, 1]))), Some(0));
        assert_eq!(t.last_leq(&codec::encode_id(&DeweyId::from([4, 2, 1]))), Some(1));
        assert_eq!(t.last_leq(&codec::encode_id(&DeweyId::from([100]))), Some(2));
    }

    #[test]
    fn empty_skip_table() {
        let t = SkipTable::default();
        let mut buf = Vec::new();
        t.write(&mut buf).unwrap();
        assert_eq!(buf.len() as u64, t.serialized_len());
        assert_eq!(SkipTable::read(&mut buf.as_slice()).unwrap(), t);
        assert_eq!(t.last_leq(b"anything"), None);
    }

    #[test]
    fn decode_dewey_rejects_bad_shared() {
        // shared field 3 against a one-component prev
        let mut buf = Vec::new();
        codec::write_component((1 << 3) | 3, &mut buf);
        codec::write_component(0, &mut buf);
        assert!(decode_dewey_into(&[8], &buf, &mut Vec::new()).is_err());
    }

    fn component() -> impl Strategy<Value = u32> {
        prop_oneof![
            4 => 0u32..128,
            3 => 128u32..17_000,
            2 => 17_000u32..3_000_000,
            1 => 3_000_000u32..=u32::MAX,
        ]
    }

    fn dewey() -> impl Strategy<Value = DeweyId> {
        proptest::collection::vec(component(), 0..24).prop_map(DeweyId::from_components)
    }

    proptest! {
        #[test]
        fn delta_chain_roundtrip(ids in proptest::collection::vec(dewey(), 0..40)) {
            roundtrip_chain(&ids);
        }

        #[test]
        fn entry_roundtrip(ids in proptest::collection::vec(dewey(), 1..20),
                           rank_bits in any::<u32>(),
                           positions in proptest::collection::vec(0u32..10_000, 0..8)) {
            let rank = f32::from_bits(rank_bits & 0x7f7f_ffff); // finite
            let mut positions = positions.clone();
            positions.sort_unstable();
            positions.dedup();
            let mut buf = Vec::new();
            let mut dict = RankDict::default();
            let mut prev: Option<DeweyId> = None;
            for id in &ids {
                let p = Posting { elem: 0, dewey: id.clone(), rank, positions: positions.clone() };
                prop_assert_eq!(entry_len(prev.as_ref(), &p), {
                    let before = buf.len();
                    encode_entry(prev.as_ref(), &p, &mut dict, &mut buf);
                    buf.len() - before
                });
                prev = Some(id.clone());
            }
            let mut dict_bytes = Vec::new();
            dict.write(&mut dict_bytes);
            let mut ranks = Vec::new();
            RankDict::read(&dict_bytes, &mut ranks).unwrap();
            // Two postings that swap after every entry, as the reader
            // decodes: the previous one is the delta base.
            let (mut off, mut p, mut prev) = (0, Posting::default(), Posting::default());
            for (i, id) in ids.iter().enumerate() {
                let base = (i > 0).then_some(&prev.dewey);
                off += decode_entry_into(base, &ranks, &buf[off..], &mut p).unwrap();
                prop_assert_eq!(&p.dewey, id);
                prop_assert_eq!(p.rank.to_bits(), rank.to_bits());
                prop_assert_eq!(&p.positions, &positions);
                std::mem::swap(&mut p, &mut prev);
            }
            prop_assert_eq!(off, buf.len());
        }
    }
}
