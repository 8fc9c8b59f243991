//! Compact, order-preserving binary encodings for Dewey IDs.
//!
//! The paper attributes DIL's space win to the observation that "each
//! component of the Dewey ID is the *relative* position of an element with
//! respect to its siblings. Consequently, a small number of bits are usually
//! sufficient to encode each component" (Section 4.2.1). This module
//! realizes that with an **ordered varint**: a prefix-free variable-length
//! integer encoding whose byte-lexicographic order equals numeric order.
//!
//! Because each component encoding is prefix-free *and* order-preserving,
//! comparing two concatenated encodings byte-by-byte is identical to
//! comparing the component sequences lexicographically — which is exactly
//! the Dewey total order. The disk B+-tree therefore stores and compares raw
//! encoded keys with no decoding on the comparison path.
//!
//! Layout (first byte determines length; larger ranges start at larger
//! first bytes, which is what preserves order across lengths):
//!
//! | first byte        | total bytes | value range                     |
//! |-------------------|-------------|---------------------------------|
//! | `0x00..=0x7F`     | 1           | `0 ..= 2^7 - 1`                 |
//! | `0x80..=0xBF`     | 2           | `2^7 ..= 2^7 + 2^14 - 1`        |
//! | `0xC0..=0xDF`     | 3           | up to `+ 2^21 - 1` more         |
//! | `0xE0..=0xEF`     | 4           | up to `+ 2^28 - 1` more         |
//! | `0xF0`            | 5           | the rest of `u32`               |
//!
//! Each tier is *biased* by the capacity of all smaller tiers so that every
//! value has exactly one encoding (canonical form), making the codec a
//! bijection on its length class — a property the proptests pin down.

use crate::DeweyId;

/// Capacity of the 1-byte tier.
const T1: u32 = 1 << 7;
/// Cumulative capacity below the 3-byte tier.
const T2: u32 = T1 + (1 << 14);
/// Cumulative capacity below the 4-byte tier.
const T3: u32 = T2 + (1 << 21);
/// Cumulative capacity below the 5-byte tier.
const T4: u32 = T3 + (1 << 28);

/// Appends the ordered-varint encoding of `v` to `out`.
pub fn write_component(v: u32, out: &mut Vec<u8>) {
    if v < T1 {
        out.push(v as u8);
    } else if v < T2 {
        let b = v - T1;
        out.push(0x80 | (b >> 8) as u8);
        out.push(b as u8);
    } else if v < T3 {
        let b = v - T2;
        out.push(0xC0 | (b >> 16) as u8);
        out.push((b >> 8) as u8);
        out.push(b as u8);
    } else if v < T4 {
        let b = v - T3;
        out.push(0xE0 | (b >> 24) as u8);
        out.push((b >> 16) as u8);
        out.push((b >> 8) as u8);
        out.push(b as u8);
    } else {
        let b = v - T4;
        out.push(0xF0);
        out.extend_from_slice(&b.to_be_bytes());
    }
}

/// Number of bytes `write_component` would emit for `v`.
pub fn component_encoded_len(v: u32) -> usize {
    if v < T1 {
        1
    } else if v < T2 {
        2
    } else if v < T3 {
        3
    } else if v < T4 {
        4
    } else {
        5
    }
}

/// Decodes one component from the front of `buf`, returning the value and
/// the number of bytes consumed. Returns [`DecodeError`] on truncated or
/// non-canonical input.
pub fn read_component(buf: &[u8]) -> Result<(u32, usize), DecodeError> {
    let first = *buf.first().ok_or(DecodeError::Truncated)?;
    match first {
        0x00..=0x7F => Ok((first as u32, 1)),
        0x80..=0xBF => {
            let rest = tail(buf, 1, 1)?;
            Ok((T1 + (((first & 0x3F) as u32) << 8 | rest[0] as u32), 2))
        }
        0xC0..=0xDF => {
            let rest = tail(buf, 1, 2)?;
            Ok((
                T2 + (((first & 0x1F) as u32) << 16 | (rest[0] as u32) << 8 | rest[1] as u32),
                3,
            ))
        }
        0xE0..=0xEF => {
            let rest = tail(buf, 1, 3)?;
            let b = ((first & 0x0F) as u32) << 24
                | (rest[0] as u32) << 16
                | (rest[1] as u32) << 8
                | rest[2] as u32;
            Ok((T3 + b, 4))
        }
        0xF0 => {
            let rest = tail(buf, 1, 4)?;
            let b = u32::from_be_bytes([rest[0], rest[1], rest[2], rest[3]]);
            let v = T4.checked_add(b).ok_or(DecodeError::Overflow)?;
            Ok((v, 5))
        }
        _ => Err(DecodeError::InvalidTag(first)),
    }
}

fn tail(buf: &[u8], from: usize, need: usize) -> Result<&[u8], DecodeError> {
    buf.get(from..from + need).ok_or(DecodeError::Truncated)
}

/// Error decoding an ordered-varint byte string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ended mid-component.
    Truncated,
    /// The first byte of a component is not a valid tier tag.
    InvalidTag(u8),
    /// The 5-byte tier encoded a value outside `u32`.
    Overflow,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "dewey encoding truncated"),
            DecodeError::InvalidTag(b) => write!(f, "invalid dewey component tag byte {b:#04x}"),
            DecodeError::Overflow => write!(f, "dewey component exceeds u32"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Encodes a full Dewey ID as the concatenation of its components'
/// ordered-varint encodings. The result compares byte-lexicographically in
/// the same order as [`DeweyId`]'s `Ord`.
pub fn encode_id(id: &DeweyId) -> Vec<u8> {
    let mut out = Vec::with_capacity(id.len() * 2);
    encode_id_into(id, &mut out);
    out
}

/// As [`encode_id`], appending into a caller-provided buffer.
pub fn encode_id_into(id: &DeweyId, out: &mut Vec<u8>) {
    for &c in id.components() {
        write_component(c, out);
    }
}

/// Size in bytes of the encoding of `id` without materializing it.
pub fn encoded_len(id: &DeweyId) -> usize {
    id.components().iter().map(|&c| component_encoded_len(c)).sum()
}

/// Decodes a byte string produced by [`encode_id`].
pub fn decode_id(buf: &[u8]) -> Result<DeweyId, DecodeError> {
    let mut components = Vec::new();
    decode_id_into(buf, &mut components)?;
    Ok(DeweyId::from_components(components))
}

/// [`decode_id`] into a caller-owned component buffer (cleared first, its
/// allocation kept).
pub fn decode_id_into(mut buf: &[u8], out: &mut Vec<u32>) -> Result<(), DecodeError> {
    out.clear();
    while !buf.is_empty() {
        let (v, n) = read_component(buf)?;
        out.push(v);
        buf = &buf[n..];
    }
    Ok(())
}

/// Length in components of the longest common prefix of two encoded IDs,
/// read in place: `decode_id(a)?.common_prefix_len(&decode_id(b)?)`
/// without building either ID. Both strings are read to their ends, so
/// whatever `decode_id` refuses is refused here too.
pub fn common_prefix_len(mut a: &[u8], mut b: &[u8]) -> Result<usize, DecodeError> {
    let mut common = 0;
    let mut diverged = false;
    while !a.is_empty() || !b.is_empty() {
        let x = (!a.is_empty()).then(|| read_component(a)).transpose()?;
        let y = (!b.is_empty()).then(|| read_component(b)).transpose()?;
        match (x, y) {
            (Some((u, n)), Some((v, m))) => {
                diverged |= u != v;
                a = &a[n..];
                b = &b[m..];
            }
            (Some((_, n)), None) => (diverged, a) = (true, &a[n..]),
            (None, Some((_, m))) => (diverged, b) = (true, &b[m..]),
            (None, None) => unreachable!("one side is non-empty"),
        }
        common += !diverged as usize;
    }
    Ok(common)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_boundaries_roundtrip() {
        let cases = [
            0,
            1,
            T1 - 1,
            T1,
            T1 + 1,
            T2 - 1,
            T2,
            T3 - 1,
            T3,
            T4 - 1,
            T4,
            u32::MAX - 1,
            u32::MAX,
        ];
        for &v in &cases {
            let mut buf = Vec::new();
            write_component(v, &mut buf);
            assert_eq!(buf.len(), component_encoded_len(v), "len mismatch for {v}");
            let (back, n) = read_component(&buf).unwrap();
            assert_eq!((back, n), (v, buf.len()), "roundtrip failed for {v}");
        }
    }

    #[test]
    fn encoding_lengths_by_tier() {
        assert_eq!(component_encoded_len(0), 1);
        assert_eq!(component_encoded_len(127), 1);
        assert_eq!(component_encoded_len(128), 2);
        assert_eq!(component_encoded_len(T2 - 1), 2);
        assert_eq!(component_encoded_len(T2), 3);
        assert_eq!(component_encoded_len(u32::MAX), 5);
    }

    #[test]
    fn order_preserved_across_tiers() {
        // A sample crossing all tier boundaries must encode to
        // byte-lexicographically increasing strings.
        let vals = [0u32, 5, 127, 128, 300, T2 - 1, T2, 70000, T3 - 1, T3, T4 - 1, T4, u32::MAX];
        let encoded: Vec<Vec<u8>> = vals
            .iter()
            .map(|&v| {
                let mut b = Vec::new();
                write_component(v, &mut b);
                b
            })
            .collect();
        for w in encoded.windows(2) {
            assert!(w[0] < w[1], "order not preserved: {:?} !< {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn id_roundtrip() {
        let id = DeweyId::from([5, 0, 3, 0, 1]);
        let enc = encode_id(&id);
        assert_eq!(enc.len(), encoded_len(&id));
        assert_eq!(decode_id(&enc).unwrap(), id);
    }

    #[test]
    fn id_byte_order_matches_logical_order() {
        // Prefix (ancestor) must sort before extension (descendant), and
        // encoded bytes must agree.
        let a = DeweyId::from([1, 0, 2]);
        let b = DeweyId::from([1, 0, 2, 0]);
        let c = DeweyId::from([1, 0, 3]);
        assert!(a < b && b < c);
        let (ea, eb, ec) = (encode_id(&a), encode_id(&b), encode_id(&c));
        assert!(ea < eb && eb < ec);
    }

    #[test]
    fn decode_rejects_truncation() {
        // Cut a multi-byte component in half: [1, 200] encodes as
        // [0x01, 0x80, 0x48]; dropping the final byte truncates the 200.
        let id = DeweyId::from([1, 200]);
        let enc = encode_id(&id);
        assert_eq!(decode_id(&enc[..enc.len() - 1]), Err(DecodeError::Truncated));
    }

    #[test]
    fn decode_rejects_invalid_tag() {
        assert_eq!(read_component(&[0xFF]), Err(DecodeError::InvalidTag(0xFF)));
        assert_eq!(read_component(&[0xF5]), Err(DecodeError::InvalidTag(0xF5)));
    }

    #[test]
    fn decode_rejects_overflow_in_top_tier() {
        let mut buf = vec![0xF0];
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(read_component(&buf), Err(DecodeError::Overflow));
    }

    #[test]
    fn empty_id_roundtrip() {
        let id = DeweyId::default();
        assert_eq!(decode_id(&encode_id(&id)).unwrap(), id);
        assert_eq!(encoded_len(&id), 0);
    }
}
