//! Posting entry types and their byte codecs.
//!
//! A posting records one (keyword, element) pairing: the element's Dewey ID
//! (Figure 4: "Associated with each Dewey ID entry in DIL is the ElemRank
//! of the corresponding XML element, and the list of positions where the
//! keyword k appears in that element").
//!
//! Byte layout of one payload (B+-tree values, hash values, and naive
//! list entries after their element id; the key carries the ID):
//!
//! ```text
//! [rank: f32 LE]
//! [npos: varint] [pos₀: varint] [posᵢ₊₁ - posᵢ: varint]*
//! ```
//!
//! Posting-list entries carry the positions part only, after a Dewey
//! delta and a rank-dictionary index (see [`crate::block`]).
//!
//! Position lists are ascending document-order word offsets, delta-encoded
//! with the same ordered varint the Dewey codec uses.

use xrank_dewey::codec::{self, DecodeError};
use xrank_dewey::DeweyId;
use xrank_graph::ElemId;

/// One inverted-list entry for the Dewey-based indexes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Posting {
    /// The element (dense id, for in-memory cross-referencing).
    pub elem: ElemId,
    /// The element's Dewey ID (what goes to disk).
    pub dewey: DeweyId,
    /// ElemRank of the element.
    pub rank: f32,
    /// Ascending document-order positions of the keyword in this element.
    pub positions: Vec<u32>,
}

/// One inverted-list entry for the naive indexes (element-id keyed; the
/// element may be an ancestor of the keyword's actual location).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NaivePosting {
    /// The element id.
    pub elem: ElemId,
    /// ElemRank of the element.
    pub rank: f32,
    /// Ascending positions of the keyword anywhere in the element's subtree.
    pub positions: Vec<u32>,
}

/// A run of postings decoded into slots that outlive one fill:
/// [`PostingRun::clear`] keeps every slot, with its Dewey and positions
/// buffers, for the next fill to decode into.
#[derive(Debug, Clone, Default)]
pub struct PostingRun {
    slots: Vec<Posting>,
    len: usize,
}

impl PostingRun {
    /// Empties the run, keeping its slots.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// The postings of the current fill.
    pub fn as_slice(&self) -> &[Posting] {
        &self.slots[..self.len]
    }

    /// Appends a slot for the next posting to be decoded into: a kept one,
    /// still holding a stale posting, or a fresh default.
    pub fn push_slot(&mut self) -> &mut Posting {
        if self.len == self.slots.len() {
            self.slots.push(Posting::default());
        }
        self.len += 1;
        &mut self.slots[self.len - 1]
    }
}

/// Appends `rank` + positions payload (no Dewey) to `out`.
pub fn encode_payload(rank: f32, positions: &[u32], out: &mut Vec<u8>) {
    out.extend_from_slice(&rank.to_le_bytes());
    encode_positions(positions, out);
}

/// Size of [`encode_payload`]'s output.
pub fn payload_len(positions: &[u32]) -> usize {
    let mut len = 4 + codec::component_encoded_len(positions.len() as u32);
    let mut prev = 0u32;
    for (i, &p) in positions.iter().enumerate() {
        let delta = if i == 0 { p } else { p - prev };
        len += codec::component_encoded_len(delta);
        prev = p;
    }
    len
}

/// Decodes a payload produced by [`encode_payload`], returning
/// `(rank, positions, bytes_consumed)`.
pub fn decode_payload(buf: &[u8]) -> Result<(f32, Vec<u32>, usize), DecodeError> {
    let mut positions = Vec::new();
    let (rank, n) = decode_payload_into(buf, &mut positions)?;
    Ok((rank, positions, n))
}

/// [`decode_payload`] into a caller-owned positions buffer (cleared
/// first), returning `(rank, bytes_consumed)`.
pub fn decode_payload_into(
    buf: &[u8],
    positions: &mut Vec<u32>,
) -> Result<(f32, usize), DecodeError> {
    if buf.len() < 4 {
        return Err(DecodeError::Truncated);
    }
    let rank = f32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
    let n = decode_positions_into(&buf[4..], positions)?;
    Ok((rank, 4 + n))
}

/// Appends the positions part of a payload (count + deltas, no rank) —
/// the block codec stores ranks in a per-block dictionary instead of
/// inline, so its entries carry only this part.
pub fn encode_positions(positions: &[u32], out: &mut Vec<u8>) {
    codec::write_component(positions.len() as u32, out);
    let mut prev = 0u32;
    for (i, &p) in positions.iter().enumerate() {
        let delta = if i == 0 { p } else { p - prev };
        codec::write_component(delta, out);
        prev = p;
    }
}

/// Size of [`encode_positions`]'s output.
pub fn positions_len(positions: &[u32]) -> usize {
    payload_len(positions) - 4
}

/// Decodes positions written by [`encode_positions`] into `out` (cleared
/// first, its allocation kept), returning the bytes consumed.
pub fn decode_positions_into(buf: &[u8], out: &mut Vec<u32>) -> Result<usize, DecodeError> {
    let (npos, mut off) = codec::read_component(buf)?;
    // Every position takes at least one byte, so a count beyond the
    // remaining bytes is corruption — reject before reserving capacity.
    if npos as usize > buf.len() - off {
        return Err(DecodeError::Truncated);
    }
    out.clear();
    out.reserve(npos as usize);
    let mut cur = 0u32;
    for i in 0..npos {
        let (delta, n) = codec::read_component(&buf[off..])?;
        off += n;
        cur = if i == 0 {
            delta
        } else {
            cur.checked_add(delta).ok_or(DecodeError::Overflow)?
        };
        out.push(cur);
    }
    Ok(off)
}

/// Byte length of a positions run written by [`encode_positions`],
/// without materializing it — a probe that passes an entry on its way to
/// the target has no use for the positions.
pub fn skip_positions(buf: &[u8]) -> Result<usize, DecodeError> {
    let (npos, mut off) = codec::read_component(buf)?;
    for _ in 0..npos {
        let (_, n) = codec::read_component(buf.get(off..).ok_or(DecodeError::Truncated)?)?;
        off += n;
    }
    Ok(off)
}

/// Composite key for the RDIL B+-tree and Naive-Rank hash index: the term
/// id (ordered varint) followed by the Dewey encoding. One tree keyed this
/// way is equivalent to a B+-tree per keyword with perfect page sharing —
/// the paper's "multiple B+-trees on the same disk page" optimization
/// (Section 4.3.1).
pub fn composite_key(term: u32, dewey: &DeweyId) -> Vec<u8> {
    let mut key = Vec::with_capacity(2 + dewey.len() * 2);
    codec::write_component(term, &mut key);
    codec::encode_id_into(dewey, &mut key);
    key
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_roundtrip() {
        let mut buf = Vec::new();
        encode_payload(0.125, &[3, 17, 17_000, 900_000], &mut buf);
        assert_eq!(buf.len(), payload_len(&[3, 17, 17_000, 900_000]));
        let (rank, pos, n) = decode_payload(&buf).unwrap();
        assert_eq!(rank, 0.125);
        assert_eq!(pos, vec![3, 17, 17_000, 900_000]);
        assert_eq!(n, buf.len());
    }

    #[test]
    fn skip_positions_matches_decode_positions() {
        // One reused buffer across runs of different lengths: what a
        // reader that decodes in place does.
        let mut out = vec![7, 7, 7, 7, 7];
        for positions in [&[][..], &[0], &[3, 17, 17_000, 900_000]] {
            let mut buf = Vec::new();
            encode_positions(positions, &mut buf);
            buf.extend_from_slice(&[0xAA, 0xBB]); // the next entry's bytes
            let used = decode_positions_into(&buf, &mut out).unwrap();
            assert_eq!(out, positions);
            assert_eq!(skip_positions(&buf).unwrap(), used);
            assert!(positions.is_empty() || skip_positions(&buf[..used - 1]).is_err());
        }
    }

    #[test]
    fn empty_positions() {
        let mut buf = Vec::new();
        encode_payload(1.0, &[], &mut buf);
        let (rank, pos, _) = decode_payload(&buf).unwrap();
        assert_eq!(rank, 1.0);
        assert!(pos.is_empty());
    }

    #[test]
    fn composite_key_orders_by_term_then_dewey() {
        let k1 = composite_key(3, &DeweyId::from([1, 0, 5]));
        let k2 = composite_key(3, &DeweyId::from([1, 0, 5, 0]));
        let k3 = composite_key(3, &DeweyId::from([2, 0]));
        let k4 = composite_key(4, &DeweyId::from([0, 0]));
        assert!(k1 < k2 && k2 < k3 && k3 < k4);
    }

    /// The term's varint, then the Dewey encoding: a reader strips the
    /// one and decodes the other in place.
    #[test]
    fn composite_key_roundtrip() {
        let d = DeweyId::from([7, 0, 130, 2]);
        let key = composite_key(900, &d);
        let (term, n) = codec::read_component(&key).unwrap();
        assert_eq!((term, codec::decode_id(&key[n..]).unwrap()), (900, d));
    }

    #[test]
    fn payload_rejects_truncation() {
        let mut buf = Vec::new();
        encode_payload(1.0, &[5, 6, 7], &mut buf);
        assert!(decode_payload(&buf[..buf.len() - 1]).is_err());
        assert!(decode_payload(&buf[..3]).is_err());
    }
}
