//! Tiny binary (de)serialization helpers for index metadata.
//!
//! Persistent engines write their structural metadata (list directories,
//! B+-tree roots, the collection) through these little-endian primitives.
//! The format is versioned by the callers; these helpers only move bytes.

use std::io::{self, Read, Write};

/// Writes a `u32` little-endian.
pub fn put_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Writes a `u64` little-endian.
pub fn put_u64<W: Write>(w: &mut W, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

/// Writes an `f64` (IEEE bits, little-endian).
pub fn put_f64<W: Write>(w: &mut W, v: f64) -> io::Result<()> {
    w.write_all(&v.to_bits().to_le_bytes())
}

/// Writes a length-prefixed byte string.
pub fn put_bytes<W: Write>(w: &mut W, b: &[u8]) -> io::Result<()> {
    put_u64(w, b.len() as u64)?;
    w.write_all(b)
}

/// Writes a length-prefixed UTF-8 string.
pub fn put_str<W: Write>(w: &mut W, s: &str) -> io::Result<()> {
    put_bytes(w, s.as_bytes())
}

/// Reads a `u32`.
pub fn get_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

/// Reads a `u64`.
pub fn get_u64<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Reads an `f64`.
pub fn get_f64<R: Read>(r: &mut R) -> io::Result<f64> {
    Ok(f64::from_bits(get_u64(r)?))
}

/// Reads a length-prefixed byte string (capped at 1 GiB to catch
/// corruption before an allocation bomb).
pub fn get_bytes<R: Read>(r: &mut R) -> io::Result<Vec<u8>> {
    let len = get_u64(r)?;
    if len > 1 << 30 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("implausible byte-string length {len}"),
        ));
    }
    let mut b = vec![0u8; len as usize];
    r.read_exact(&mut b)?;
    Ok(b)
}

/// Reads a length-prefixed UTF-8 string.
pub fn get_str<R: Read>(r: &mut R) -> io::Result<String> {
    String::from_utf8(get_bytes(r)?)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_primitives() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 0xDEAD_BEEF).unwrap();
        put_u64(&mut buf, u64::MAX - 1).unwrap();
        put_f64(&mut buf, -0.125).unwrap();
        put_bytes(&mut buf, b"hello").unwrap();
        put_str(&mut buf, "wörld").unwrap();

        let mut r = &buf[..];
        assert_eq!(get_u32(&mut r).unwrap(), 0xDEAD_BEEF);
        assert_eq!(get_u64(&mut r).unwrap(), u64::MAX - 1);
        assert_eq!(get_f64(&mut r).unwrap(), -0.125);
        assert_eq!(get_bytes(&mut r).unwrap(), b"hello");
        assert_eq!(get_str(&mut r).unwrap(), "wörld");
        assert!(r.is_empty());
    }

    #[test]
    fn truncation_is_an_error() {
        let mut buf = Vec::new();
        put_str(&mut buf, "hello").unwrap();
        let mut r = &buf[..buf.len() - 1];
        assert!(get_str(&mut r).is_err());
    }

    #[test]
    fn implausible_length_rejected() {
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::MAX).unwrap();
        let mut r = &buf[..];
        assert!(get_bytes(&mut r).is_err());
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut buf = Vec::new();
        put_bytes(&mut buf, &[0xFF, 0xFE]).unwrap();
        let mut r = &buf[..];
        assert!(get_str(&mut r).is_err());
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    /// Decodes the canonical five-field sequence, verifying each field.
    fn decode_all(
        mut r: &[u8],
        a: u32,
        b: u64,
        fbits: u64,
        bytes: &[u8],
        s: &str,
    ) -> io::Result<()> {
        let check = |ok: bool| {
            ok.then_some(())
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "field mismatch"))
        };
        check(get_u32(&mut r)? == a)?;
        check(get_u64(&mut r)? == b)?;
        check(get_f64(&mut r)?.to_bits() == fbits)?;
        check(get_bytes(&mut r)? == bytes)?;
        check(get_str(&mut r)? == s)?;
        check(r.is_empty())
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Full-buffer decode round-trips; every strict prefix fails
        /// cleanly (no panic, no partial garbage accepted as complete).
        #[test]
        fn roundtrip_and_short_reads_at_every_prefix(
            a in any::<u32>(),
            b in any::<u64>(),
            fbits in any::<u64>(),
            bytes in proptest::collection::vec(any::<u8>(), 0..48),
            raw in proptest::collection::vec(any::<u8>(), 0..12),
        ) {
            let s: String = String::from_utf8_lossy(&raw).into_owned();
            let mut buf = Vec::new();
            put_u32(&mut buf, a).unwrap();
            put_u64(&mut buf, b).unwrap();
            put_f64(&mut buf, f64::from_bits(fbits)).unwrap();
            put_bytes(&mut buf, &bytes).unwrap();
            put_str(&mut buf, &s).unwrap();

            prop_assert!(decode_all(&buf, a, b, fbits, &bytes, &s).is_ok());
            for cut in 0..buf.len() {
                prop_assert!(
                    decode_all(&buf[..cut], a, b, fbits, &bytes, &s).is_err(),
                    "prefix of {cut}/{} bytes decoded as complete", buf.len()
                );
            }
        }

        /// Each primitive alone: round-trip plus short reads at every
        /// prefix of its own encoding.
        #[test]
        fn primitive_roundtrips(v32 in any::<u32>(), v64 in any::<u64>()) {
            let mut b32 = Vec::new();
            put_u32(&mut b32, v32).unwrap();
            prop_assert_eq!(get_u32(&mut &b32[..]).unwrap(), v32);
            for cut in 0..b32.len() {
                prop_assert!(get_u32(&mut &b32[..cut]).is_err());
            }

            let mut b64 = Vec::new();
            put_u64(&mut b64, v64).unwrap();
            prop_assert_eq!(get_u64(&mut &b64[..]).unwrap(), v64);
            for cut in 0..b64.len() {
                prop_assert!(get_u64(&mut &b64[..cut]).is_err());
            }

            let mut bf = Vec::new();
            put_f64(&mut bf, f64::from_bits(v64)).unwrap();
            prop_assert_eq!(get_f64(&mut &bf[..]).unwrap().to_bits(), v64);
            for cut in 0..bf.len() {
                prop_assert!(get_f64(&mut &bf[..cut]).is_err());
            }
        }

        /// Byte strings: round-trip, short reads at every prefix, and the
        /// reader never consumes past the encoded field.
        #[test]
        fn bytes_roundtrip_and_tail_preserved(
            payload in proptest::collection::vec(any::<u8>(), 0..64),
            tail in proptest::collection::vec(any::<u8>(), 0..8),
        ) {
            let mut buf = Vec::new();
            put_bytes(&mut buf, &payload).unwrap();
            let field_len = buf.len();
            buf.extend_from_slice(&tail);

            let mut r = &buf[..];
            prop_assert_eq!(get_bytes(&mut r).unwrap(), payload);
            prop_assert_eq!(r, &tail[..], "reader overran the field");
            for cut in 0..field_len {
                prop_assert!(get_bytes(&mut &buf[..cut]).is_err());
            }
        }
    }
}
