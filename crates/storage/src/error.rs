//! Typed storage errors and the page checksum.
//!
//! Every fallible operation in the storage-to-query read path reports a
//! [`StorageError`] instead of panicking, so one bad page degrades into
//! one failed query while the engine keeps serving (ROADMAP: a dead disk
//! sector must not be a dead process). The CRC32 here (ISO-HDLC, the
//! polynomial used by zip/zlib/ethernet) seals every [`crate::FileStore`]
//! page against bit rot and torn writes.

use crate::store::{PageId, SegmentId};
use std::fmt;
use std::io;

/// Shorthand for storage-layer results.
pub type StorageResult<T> = Result<T, StorageError>;

/// A typed storage failure.
#[derive(Debug)]
pub enum StorageError {
    /// An operating-system I/O error (read, write, fsync, rename, ...).
    Io {
        /// The operation that failed (static description).
        op: &'static str,
        /// The underlying OS error.
        source: io::Error,
    },
    /// A page's stored CRC32 does not match its contents.
    ChecksumMismatch {
        /// The damaged page.
        id: PageId,
        /// Checksum found in the page trailer.
        stored: u32,
        /// Checksum computed over the page bytes.
        computed: u32,
    },
    /// A page trailer's magic is absent or wrong — the slot was only
    /// partially written (or overwritten by foreign data).
    TornWrite {
        /// The damaged page.
        id: PageId,
    },
    /// A segment id beyond the store's segment count.
    SegmentOutOfRange {
        /// The requested segment.
        segment: SegmentId,
        /// Number of segments that exist.
        segments: u32,
    },
    /// A page offset beyond its segment's page count.
    PageOutOfRange {
        /// The requested page.
        id: PageId,
        /// Number of pages the segment holds.
        pages: u32,
    },
    /// Structurally invalid on-disk data (bad length prefix, impossible
    /// offset, unknown format tag, ...).
    Corrupt {
        /// What was found to be invalid.
        what: String,
    },
    /// Invalid input handed to a bulk builder (unsorted or duplicate keys,
    /// oversized entries) — a caller bug surfaced as data, not a panic.
    InvalidInput {
        /// What was wrong with the input.
        what: String,
    },
    /// A buffer-pool shard lock was poisoned by a panicking thread.
    PoolPoisoned,
    /// The device (or an injected fault) reported no space left.
    NoSpace {
        /// The operation that hit ENOSPC.
        op: &'static str,
    },
    /// The integrity scrubber found corruption in this index segment and
    /// quarantined it: reads fail fast until self-repair rebuilds the
    /// segment and releases the quarantine. This is the one "unhealthy
    /// segment" state; any other failed read surfaces once, as its own
    /// typed error. The id is the update pipeline's segment id
    /// (`seg-<id>/`), not a store file index.
    Quarantined {
        /// The quarantined pipeline segment.
        segment: u64,
    },
}

impl StorageError {
    /// Wraps an OS error with the operation it interrupted. ENOSPC is
    /// promoted to its own variant so callers can distinguish a full disk
    /// from a broken one.
    pub fn io(op: &'static str, source: io::Error) -> StorageError {
        if source.raw_os_error() == Some(28) {
            // ENOSPC
            StorageError::NoSpace { op }
        } else {
            StorageError::Io { op, source }
        }
    }

    /// A [`StorageError::Corrupt`] from any displayable description.
    pub fn corrupt(what: impl Into<String>) -> StorageError {
        StorageError::Corrupt { what: what.into() }
    }

    /// An [`StorageError::InvalidInput`] from any displayable description.
    pub fn invalid_input(what: impl Into<String>) -> StorageError {
        StorageError::InvalidInput { what: what.into() }
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io { op, source } => write!(f, "i/o error during {op}: {source}"),
            StorageError::ChecksumMismatch { id, stored, computed } => write!(
                f,
                "checksum mismatch on segment {} page {}: stored {stored:#010x}, computed {computed:#010x}",
                id.segment.0, id.page
            ),
            StorageError::TornWrite { id } => write!(
                f,
                "torn write on segment {} page {}: trailer magic missing",
                id.segment.0, id.page
            ),
            StorageError::SegmentOutOfRange { segment, segments } => write!(
                f,
                "segment {} out of range (store has {segments} segments)",
                segment.0
            ),
            StorageError::PageOutOfRange { id, pages } => write!(
                f,
                "page {} out of range (segment {} has {pages} pages)",
                id.page, id.segment.0
            ),
            StorageError::Corrupt { what } => write!(f, "corrupt storage: {what}"),
            StorageError::InvalidInput { what } => write!(f, "invalid input: {what}"),
            StorageError::PoolPoisoned => write!(f, "buffer pool lock poisoned"),
            StorageError::NoSpace { op } => write!(f, "no space left during {op}"),
            StorageError::Quarantined { segment } => write!(
                f,
                "segment {segment} quarantined by the integrity scrubber: failing fast until repaired"
            ),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<StorageError> for io::Error {
    fn from(e: StorageError) -> io::Error {
        match e {
            StorageError::Io { source, .. } => source,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// CRC32 (ISO-HDLC: reflected polynomial `0xEDB88320`, init/xorout all
/// ones) over `data`. Table-driven, byte at a time.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

static CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0usize;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_check_value() {
        // The ISO-HDLC "check" vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let mut data = vec![0xA5u8; 512];
        let clean = crc32(&data);
        for bit in [0usize, 7, 100 * 8 + 3, 511 * 8 + 7] {
            data[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32(&data), clean, "bit {bit} undetected");
            data[bit / 8] ^= 1 << (bit % 8);
        }
        assert_eq!(crc32(&data), clean);
    }

    #[test]
    fn enospc_is_promoted() {
        let e = StorageError::io("append", io::Error::from_raw_os_error(28));
        assert!(matches!(e, StorageError::NoSpace { op: "append" }));
        let e = StorageError::io("append", io::Error::from_raw_os_error(5));
        assert!(matches!(e, StorageError::Io { .. }));
    }

    #[test]
    fn display_is_descriptive() {
        let id = PageId::new(SegmentId(3), 7);
        let s = StorageError::ChecksumMismatch { id, stored: 1, computed: 2 }.to_string();
        assert!(s.contains("segment 3") && s.contains("page 7"), "{s}");
        assert!(StorageError::TornWrite { id }.to_string().contains("torn write"));
        assert!(StorageError::PoolPoisoned.to_string().contains("poisoned"));
    }
}
