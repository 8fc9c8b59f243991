//! Page stores: segmented fixed-page address spaces, in memory or on disk.
//!
//! Every I/O-bearing operation returns a [`StorageResult`]: a flaky disk
//! fails the one query that touched it, never the process. Every on-disk
//! page slot carries a trailer — CRC32 over the page bytes plus a magic —
//! so bit rot surfaces as [`StorageError::ChecksumMismatch`] and a
//! partially-overwritten slot as [`StorageError::TornWrite`].

use crate::error::{crc32, StorageError, StorageResult};
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Fixed page size, in bytes.
pub const PAGE_SIZE: usize = 4096;

/// Bytes of per-page trailer in segment files: CRC32 (little-endian) +
/// [`PAGE_TRAILER_MAGIC`].
pub const PAGE_TRAILER_LEN: usize = 8;

/// Trailer magic sealing a fully-written page slot.
pub const PAGE_TRAILER_MAGIC: [u8; 4] = *b"XPG2";

/// Identifies a segment (≈ one file: an inverted list, a B+-tree, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SegmentId(pub u32);

/// A page address: segment + page offset within the segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId {
    /// Owning segment.
    pub segment: SegmentId,
    /// 0-based page offset within the segment.
    pub page: u32,
}

impl PageId {
    /// Shorthand constructor.
    pub fn new(segment: SegmentId, page: u32) -> Self {
        PageId { segment, page }
    }
}

/// Abstract backing storage. Pages are exactly [`PAGE_SIZE`] bytes; writes
/// of shorter buffers are zero-padded.
pub trait PageStore {
    /// Creates a new empty segment.
    fn create_segment(&mut self) -> StorageResult<SegmentId>;
    /// Number of segments.
    fn segment_count(&self) -> u32;
    /// Number of pages in a segment (0 for an unknown segment).
    fn page_count(&self, segment: SegmentId) -> u32;
    /// Appends a page to a segment, returning its offset.
    fn append_page(&mut self, segment: SegmentId, data: &[u8]) -> StorageResult<u32>;
    /// Overwrites an existing page.
    fn write_page(&mut self, id: PageId, data: &[u8]) -> StorageResult<()>;
    /// Reads a page into `buf` (must be `PAGE_SIZE` long), verifying its
    /// integrity where the medium supports it.
    fn read_page(&self, id: PageId, buf: &mut [u8]) -> StorageResult<()>;
    /// Total bytes occupied by a segment.
    fn segment_bytes(&self, segment: SegmentId) -> u64 {
        self.page_count(segment) as u64 * PAGE_SIZE as u64
    }
}

/// In-memory store; the default for tests and experiments (the cost model,
/// not the medium, drives the simulated results).
///
/// Pages are stored *truncated to their used length* and zero-padded on
/// read — logically identical to fixed pages, but sparsely-filled pages
/// (the experiment harness's `page_budget` scale emulation) cost only
/// their real bytes of RAM.
#[derive(Debug, Default)]
pub struct MemStore {
    segments: Vec<Vec<Box<[u8]>>>,
}

impl MemStore {
    /// New empty store.
    pub fn new() -> Self {
        Self::default()
    }

    fn segment(&self, segment: SegmentId) -> StorageResult<&Vec<Box<[u8]>>> {
        self.segments.get(segment.0 as usize).ok_or(StorageError::SegmentOutOfRange {
            segment,
            segments: self.segments.len() as u32,
        })
    }

    fn segment_mut(&mut self, segment: SegmentId) -> StorageResult<&mut Vec<Box<[u8]>>> {
        let segments = self.segments.len() as u32;
        self.segments
            .get_mut(segment.0 as usize)
            .ok_or(StorageError::SegmentOutOfRange { segment, segments })
    }
}

fn to_page(data: &[u8]) -> Box<[u8]> {
    assert!(data.len() <= PAGE_SIZE, "page data of {} bytes exceeds PAGE_SIZE", data.len());
    data.to_vec().into_boxed_slice()
}

/// Zero-pads to a full fixed page (disk layout).
fn to_full_page(data: &[u8]) -> Box<[u8]> {
    assert!(data.len() <= PAGE_SIZE, "page data of {} bytes exceeds PAGE_SIZE", data.len());
    let mut page = vec![0u8; PAGE_SIZE].into_boxed_slice();
    page[..data.len()].copy_from_slice(data);
    page
}

impl PageStore for MemStore {
    fn create_segment(&mut self) -> StorageResult<SegmentId> {
        self.segments.push(Vec::new());
        Ok(SegmentId(self.segments.len() as u32 - 1))
    }

    fn segment_count(&self) -> u32 {
        self.segments.len() as u32
    }

    fn page_count(&self, segment: SegmentId) -> u32 {
        self.segments.get(segment.0 as usize).map_or(0, |s| s.len() as u32)
    }

    fn append_page(&mut self, segment: SegmentId, data: &[u8]) -> StorageResult<u32> {
        let seg = self.segment_mut(segment)?;
        seg.push(to_page(data));
        Ok(seg.len() as u32 - 1)
    }

    fn write_page(&mut self, id: PageId, data: &[u8]) -> StorageResult<()> {
        let seg = self.segment_mut(id.segment)?;
        let pages = seg.len() as u32;
        let slot = seg
            .get_mut(id.page as usize)
            .ok_or(StorageError::PageOutOfRange { id, pages })?;
        *slot = to_page(data);
        Ok(())
    }

    fn read_page(&self, id: PageId, buf: &mut [u8]) -> StorageResult<()> {
        let seg = self.segment(id.segment)?;
        let pages = seg.len() as u32;
        let data = seg
            .get(id.page as usize)
            .ok_or(StorageError::PageOutOfRange { id, pages })?;
        buf[..data.len()].copy_from_slice(data);
        buf[data.len()..].fill(0);
        Ok(())
    }
}

/// One on-disk page slot: the page bytes, their CRC32 (LE), and the
/// [`PAGE_TRAILER_MAGIC`].
const SLOT_SIZE: usize = PAGE_SIZE + PAGE_TRAILER_LEN;

/// Slots [`FileStore::verify`] reads with one positional read (1 MiB).
const VERIFY_BATCH: u32 = 256;

/// The integrity check of one on-disk slot, made by every read: the
/// trailer magic is present (else [`StorageError::TornWrite`]) and the
/// stored CRC matches the page bytes (else
/// [`StorageError::ChecksumMismatch`]).
fn check_slot(id: PageId, slot: &[u8]) -> StorageResult<()> {
    if slot[PAGE_SIZE + 4..] != PAGE_TRAILER_MAGIC {
        return Err(StorageError::TornWrite { id });
    }
    let stored =
        u32::from_le_bytes(slot[PAGE_SIZE..PAGE_SIZE + 4].try_into().expect("4-byte slice"));
    let computed = crc32(&slot[..PAGE_SIZE]);
    if stored != computed {
        return Err(StorageError::ChecksumMismatch { id, stored, computed });
    }
    Ok(())
}

/// The `FORMAT` marker of the one layout this build reads and writes.
const FORMAT_TAG: &str = "2";

/// File-backed store: one file per segment inside a directory, mirroring
/// the paper's "inverted lists were implemented in the file system".
///
/// Every page slot is [`PAGE_SIZE`] + [`PAGE_TRAILER_LEN`] bytes and is
/// verified on each read. A `FORMAT` marker file records the layout; a
/// directory written in the retired trailer-less layout (marker `1`, or
/// segment files and no marker at all) is refused rather than misread.
#[derive(Debug)]
pub struct FileStore {
    dir: PathBuf,
    files: Vec<FileSegment>,
}

#[derive(Debug)]
struct FileSegment {
    file: File,
    pages: u32,
}

impl FileStore {
    /// Opens (creating if needed) a store rooted at `dir`. Existing
    /// `seg-*.pages` files are reattached in segment-id order.
    pub fn open(dir: impl Into<PathBuf>) -> StorageResult<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| StorageError::io("create store dir", e))?;
        let format_path = dir.join("FORMAT");
        let retired = |found: &str| {
            StorageError::corrupt(format!(
                "{} holds a store in the retired format 1 ({found}); this build reads \
                 format {FORMAT_TAG} only — rebuild the index from source",
                dir.display()
            ))
        };
        match std::fs::read_to_string(&format_path) {
            Ok(tag) => match tag.trim() {
                FORMAT_TAG => {}
                "1" => return Err(retired("FORMAT marker 1")),
                other => {
                    return Err(StorageError::corrupt(format!(
                        "unknown store FORMAT tag {other:?} in {}",
                        format_path.display()
                    )))
                }
            },
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                // Stamping such a directory would read its bare 4096-byte
                // slots at the wrong stride.
                if dir.join("seg-0.pages").exists() {
                    return Err(retired("segment files without a FORMAT marker"));
                }
                std::fs::write(&format_path, format!("{FORMAT_TAG}\n"))
                    .map_err(|e| StorageError::io("write store FORMAT", e))?;
            }
            Err(e) => return Err(StorageError::io("read store FORMAT", e)),
        }
        let mut files = Vec::new();
        for i in 0.. {
            let path = dir.join(format!("seg-{i}.pages"));
            if !path.exists() {
                break;
            }
            let file = OpenOptions::new()
                .read(true)
                .write(true)
                .open(&path)
                .map_err(|e| StorageError::io("open segment file", e))?;
            let len = file.metadata().map_err(|e| StorageError::io("stat segment file", e))?.len();
            // A trailing partial slot (crash mid-append) is ignored: the
            // page was never acknowledged, so it does not exist.
            let pages = (len / SLOT_SIZE as u64) as u32;
            files.push(FileSegment { file, pages });
        }
        Ok(FileStore { dir, files })
    }

    /// The root directory.
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }

    /// Flushes every segment file's data and metadata to the device, then
    /// fsyncs the store directory itself — file fsync alone does not make
    /// the *creation* of `seg-N.pages`/`FORMAT` entries durable.
    pub fn sync(&self) -> StorageResult<()> {
        for seg in &self.files {
            seg.file.sync_all().map_err(|e| StorageError::io("fsync segment file", e))?;
        }
        std::fs::File::open(&self.dir)
            .and_then(|d| d.sync_all())
            .map_err(|e| StorageError::io("fsync store dir", e))
    }

    /// Reads back every page of every segment, verifying trailers and
    /// checksums with the check [`PageStore::read_page`] makes. A clean
    /// pass proves the files are fully readable and uncorrupted; otherwise
    /// the lowest damaged page's typed error is returned. Used by engine
    /// open to fail loudly on silent corruption.
    ///
    /// The scan reads batches of 256 slots (1 MiB) with one positional
    /// read each and shares them among
    /// [`std::thread::available_parallelism`] threads; the result does not
    /// depend on the split.
    pub fn verify(&self) -> StorageResult<()> {
        self.verify_split(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// [`FileStore::verify`] on `ways` threads. Workers take batches in
    /// ascending page order from one shared counter and stop at their
    /// first damaged batch; a batch above the lowest damaged one found so
    /// far is skipped, and every batch below it is checked, so the lowest
    /// damaged page always wins.
    fn verify_split(&self, ways: usize) -> StorageResult<()> {
        let batches: Vec<PageId> = (0..self.segment_count())
            .flat_map(|s| {
                let seg = SegmentId(s);
                let starts = (0..self.page_count(seg)).step_by(VERIFY_BATCH as usize);
                starts.map(move |p| PageId::new(seg, p))
            })
            .collect();
        // Relaxed: both counters only steer which batches get checked and
        // publish no data; the errors travel through the joins.
        let next = AtomicUsize::new(0);
        let lowest_damaged = AtomicUsize::new(usize::MAX);
        let worker = || {
            let mut buf = vec![0u8; VERIFY_BATCH as usize * SLOT_SIZE];
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= batches.len() || i > lowest_damaged.load(Ordering::Relaxed) {
                    return None;
                }
                if let Err(e) = self.verify_batch(batches[i], &mut buf) {
                    lowest_damaged.fetch_min(i, Ordering::Relaxed);
                    return Some((i, e));
                }
            }
        };
        let ways = ways.clamp(1, batches.len().max(1));
        let damaged = std::thread::scope(|s| {
            let helpers: Vec<_> = (1..ways).map(|_| s.spawn(worker)).collect();
            let mine = worker();
            helpers
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
                .chain([mine])
                .flatten()
                .min_by_key(|&(i, _)| i)
        });
        damaged.map_or(Ok(()), |(_, e)| Err(e))
    }

    /// Checks the up to [`VERIFY_BATCH`] slots from `first` on, read into
    /// `buf` with one positional read.
    fn verify_batch(&self, first: PageId, buf: &mut [u8]) -> StorageResult<()> {
        let seg = self.segment(first.segment)?;
        let n = (seg.pages - first.page).min(VERIFY_BATCH) as usize;
        let run = &mut buf[..n * SLOT_SIZE];
        Self::read_slot(seg, first.page as u64 * SLOT_SIZE as u64, run)?;
        for (k, slot) in (first.page..).zip(run.chunks_exact(SLOT_SIZE)) {
            check_slot(PageId::new(first.segment, k), slot)?;
        }
        Ok(())
    }

    fn segment(&self, segment: SegmentId) -> StorageResult<&FileSegment> {
        self.files.get(segment.0 as usize).ok_or(StorageError::SegmentOutOfRange {
            segment,
            segments: self.files.len() as u32,
        })
    }

    fn segment_mut(&mut self, segment: SegmentId) -> StorageResult<&mut FileSegment> {
        let segments = self.files.len() as u32;
        self.files
            .get_mut(segment.0 as usize)
            .ok_or(StorageError::SegmentOutOfRange { segment, segments })
    }

    /// Serializes `data` into one on-disk slot.
    fn encode_slot(data: &[u8]) -> Box<[u8]> {
        let page = to_full_page(data);
        let mut slot = vec![0u8; SLOT_SIZE].into_boxed_slice();
        slot[..PAGE_SIZE].copy_from_slice(&page);
        slot[PAGE_SIZE..PAGE_SIZE + 4].copy_from_slice(&crc32(&page).to_le_bytes());
        slot[PAGE_SIZE + 4..].copy_from_slice(&PAGE_TRAILER_MAGIC);
        slot
    }

    fn write_slot(seg: &mut FileSegment, offset: u64, slot: &[u8], op: &'static str) -> StorageResult<()> {
        seg.file
            .seek(SeekFrom::Start(offset))
            .and_then(|_| seg.file.write_all(slot))
            .map_err(|e| StorageError::io(op, e))
    }

    fn read_slot(seg: &FileSegment, offset: u64, buf: &mut [u8]) -> StorageResult<()> {
        // A true positional read: concurrent `&self` readers sharing one
        // file descriptor must not race on the seek cursor.
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            seg.file.read_exact_at(buf, offset).map_err(|e| StorageError::io("read page", e))
        }
        #[cfg(not(unix))]
        {
            use std::io::Read;
            let mut f = &seg.file;
            f.seek(SeekFrom::Start(offset))
                .and_then(|_| f.read_exact(buf))
                .map_err(|e| StorageError::io("read page", e))
        }
    }
}

impl PageStore for FileStore {
    fn create_segment(&mut self) -> StorageResult<SegmentId> {
        let id = self.files.len() as u32;
        let path = self.dir.join(format!("seg-{id}.pages"));
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| StorageError::io("create segment file", e))?;
        self.files.push(FileSegment { file, pages: 0 });
        Ok(SegmentId(id))
    }

    fn segment_count(&self) -> u32 {
        self.files.len() as u32
    }

    fn page_count(&self, segment: SegmentId) -> u32 {
        self.files.get(segment.0 as usize).map_or(0, |s| s.pages)
    }

    fn append_page(&mut self, segment: SegmentId, data: &[u8]) -> StorageResult<u32> {
        let slot = Self::encode_slot(data);
        let seg = self.segment_mut(segment)?;
        Self::write_slot(seg, seg.pages as u64 * SLOT_SIZE as u64, &slot, "append page")?;
        seg.pages += 1;
        Ok(seg.pages - 1)
    }

    fn write_page(&mut self, id: PageId, data: &[u8]) -> StorageResult<()> {
        let slot = Self::encode_slot(data);
        let seg = self.segment_mut(id.segment)?;
        if id.page >= seg.pages {
            return Err(StorageError::PageOutOfRange { id, pages: seg.pages });
        }
        Self::write_slot(seg, id.page as u64 * SLOT_SIZE as u64, &slot, "write page")
    }

    fn read_page(&self, id: PageId, buf: &mut [u8]) -> StorageResult<()> {
        let seg = self.segment(id.segment)?;
        if id.page >= seg.pages {
            return Err(StorageError::PageOutOfRange { id, pages: seg.pages });
        }
        let mut slot = [0u8; SLOT_SIZE];
        Self::read_slot(seg, id.page as u64 * SLOT_SIZE as u64, &mut slot)?;
        check_slot(id, &slot)?;
        buf.copy_from_slice(&slot[..PAGE_SIZE]);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(store: &mut dyn PageStore) {
        let a = store.create_segment().unwrap();
        let b = store.create_segment().unwrap();
        assert_eq!(store.segment_count(), 2);
        let p0 = store.append_page(a, b"hello").unwrap();
        let p1 = store.append_page(a, &[7u8; PAGE_SIZE]).unwrap();
        store.append_page(b, b"other segment").unwrap();
        assert_eq!((p0, p1), (0, 1));
        assert_eq!(store.page_count(a), 2);
        assert_eq!(store.page_count(b), 1);

        let mut buf = vec![0u8; PAGE_SIZE];
        store.read_page(PageId::new(a, 0), &mut buf).unwrap();
        assert_eq!(&buf[..5], b"hello");
        assert_eq!(buf[5], 0, "short writes are zero-padded");

        store.write_page(PageId::new(a, 0), b"rewritten").unwrap();
        store.read_page(PageId::new(a, 0), &mut buf).unwrap();
        assert_eq!(&buf[..9], b"rewritten");

        store.read_page(PageId::new(b, 0), &mut buf).unwrap();
        assert_eq!(&buf[..13], b"other segment");
        assert_eq!(store.segment_bytes(a), 2 * PAGE_SIZE as u64);

        // Out-of-range access is a typed error, not a panic.
        assert!(matches!(
            store.read_page(PageId::new(a, 99), &mut buf),
            Err(StorageError::PageOutOfRange { .. })
        ));
        assert!(matches!(
            store.read_page(PageId::new(SegmentId(55), 0), &mut buf),
            Err(StorageError::SegmentOutOfRange { .. })
        ));
        assert!(matches!(
            store.write_page(PageId::new(a, 99), b"x"),
            Err(StorageError::PageOutOfRange { .. })
        ));
    }

    fn temp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("xrank-store-test-{tag}-{}", std::process::id()))
    }

    #[test]
    fn mem_store_basics() {
        exercise(&mut MemStore::new());
    }

    #[test]
    fn file_store_basics_and_reopen() {
        let dir = temp_dir("basics");
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut store = FileStore::open(&dir).unwrap();
            exercise(&mut store);
        }
        // Re-open and verify persistence.
        let store = FileStore::open(&dir).unwrap();
        assert_eq!(store.segment_count(), 2);
        assert_eq!(store.page_count(SegmentId(0)), 2);
        let mut buf = vec![0u8; PAGE_SIZE];
        store.read_page(PageId::new(SegmentId(0), 0), &mut buf).unwrap();
        assert_eq!(&buf[..9], b"rewritten");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Every file under `dir` with its bytes.
    fn snapshot(dir: &std::path::Path) -> Vec<(PathBuf, Vec<u8>)> {
        let mut files: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .map(|p| (p.clone(), std::fs::read(&p).unwrap()))
            .collect();
        files.sort();
        files
    }

    #[test]
    fn retired_format_is_refused_and_left_untouched() {
        // Two bare 4096-byte slots, as the trailer-less layout wrote them.
        let mut raw = vec![0u8; 2 * PAGE_SIZE];
        raw[..3].copy_from_slice(b"old");
        raw[PAGE_SIZE..PAGE_SIZE + 3].copy_from_slice(b"two");
        for (tag, marker) in [("retired-marker", Some("1\n")), ("retired-bare", None)] {
            let dir = temp_dir(tag);
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join("seg-0.pages"), &raw).unwrap();
            if let Some(marker) = marker {
                std::fs::write(dir.join("FORMAT"), marker).unwrap();
            }
            let before = snapshot(&dir);
            let err = FileStore::open(&dir).unwrap_err();
            assert!(matches!(err, StorageError::Corrupt { .. }), "{err}");
            let msg = err.to_string();
            assert!(msg.contains("retired format 1") && msg.contains("rebuild"), "{msg}");
            assert_eq!(snapshot(&dir), before, "a refused directory must not be stamped");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn corrupted_page_fails_checksum() {
        let dir = temp_dir("crc");
        let _ = std::fs::remove_dir_all(&dir);
        let seg;
        {
            let mut store = FileStore::open(&dir).unwrap();
            seg = store.create_segment().unwrap();
            store.append_page(seg, b"good page").unwrap();
            store.append_page(seg, b"stays fine").unwrap();
        }
        // Flip one payload bit of page 0.
        let path = dir.join("seg-0.pages");
        let mut raw = std::fs::read(&path).unwrap();
        raw[100] ^= 0x40;
        std::fs::write(&path, &raw).unwrap();

        let store = FileStore::open(&dir).unwrap();
        let mut buf = vec![0u8; PAGE_SIZE];
        let err = store.read_page(PageId::new(seg, 0), &mut buf).unwrap_err();
        assert!(matches!(err, StorageError::ChecksumMismatch { .. }), "{err}");
        // The sibling page is untouched and still verifies.
        store.read_page(PageId::new(seg, 1), &mut buf).unwrap();
        assert_eq!(&buf[..10], b"stays fine");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn smashed_trailer_is_a_torn_write() {
        let dir = temp_dir("torn");
        let _ = std::fs::remove_dir_all(&dir);
        let seg;
        {
            let mut store = FileStore::open(&dir).unwrap();
            seg = store.create_segment().unwrap();
            store.append_page(seg, b"whole").unwrap();
        }
        let path = dir.join("seg-0.pages");
        let mut raw = std::fs::read(&path).unwrap();
        // Zero the trailer magic, as if the write never completed.
        let magic_at = PAGE_SIZE + 4;
        raw[magic_at..magic_at + 4].fill(0);
        std::fs::write(&path, &raw).unwrap();

        let store = FileStore::open(&dir).unwrap();
        let mut buf = vec![0u8; PAGE_SIZE];
        let err = store.read_page(PageId::new(seg, 0), &mut buf).unwrap_err();
        assert!(matches!(err, StorageError::TornWrite { .. }), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trailing_partial_slot_is_ignored() {
        let dir = temp_dir("partial");
        let _ = std::fs::remove_dir_all(&dir);
        let seg;
        {
            let mut store = FileStore::open(&dir).unwrap();
            seg = store.create_segment().unwrap();
            store.append_page(seg, b"committed").unwrap();
            store.append_page(seg, b"will be torn").unwrap();
        }
        // Truncate mid-slot: the crash happened during the second append.
        let path = dir.join("seg-0.pages");
        let full = std::fs::read(&path).unwrap();
        let slot = PAGE_SIZE + PAGE_TRAILER_LEN;
        std::fs::write(&path, &full[..slot + slot / 2]).unwrap();

        let store = FileStore::open(&dir).unwrap();
        assert_eq!(store.page_count(seg), 1, "partial slot must not count");
        let mut buf = vec![0u8; PAGE_SIZE];
        store.read_page(PageId::new(seg, 0), &mut buf).unwrap();
        assert_eq!(&buf[..9], b"committed");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A slot to damage: segment, page, and whether to zero its trailer
    /// magic (a torn write) instead of flipping a payload bit.
    type Damage = (u32, u32, bool);

    /// Writes `pages` pages into each of two segments, then damages the
    /// listed slots in place.
    fn damaged_store(tag: &str, pages: u32, damage: &[Damage]) -> PathBuf {
        let dir = temp_dir(tag);
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut store = FileStore::open(&dir).unwrap();
            for _ in 0..2 {
                let seg = store.create_segment().unwrap();
                for p in 0..pages {
                    store.append_page(seg, &p.to_le_bytes()).unwrap();
                }
            }
        }
        for &(seg, page, torn) in damage {
            let path = dir.join(format!("seg-{seg}.pages"));
            let mut raw = std::fs::read(&path).unwrap();
            let at = page as usize * SLOT_SIZE;
            if torn {
                raw[at + PAGE_SIZE + 4..at + SLOT_SIZE].fill(0);
            } else {
                raw[at + 100] ^= 0x40;
            }
            std::fs::write(&path, &raw).unwrap();
        }
        dir
    }

    fn damaged_page(err: &StorageError) -> (PageId, bool) {
        match err {
            StorageError::ChecksumMismatch { id, .. } => (*id, false),
            StorageError::TornWrite { id } => (*id, true),
            other => panic!("untyped verify error: {other}"),
        }
    }

    #[test]
    fn verify_reports_the_lowest_damaged_page_whatever_the_split() {
        let pages = 2 * VERIFY_BATCH + 40;
        let b = VERIFY_BATCH;
        let cases: &[(&str, &[Damage])] = &[
            ("clean", &[]),
            ("last-of-batch", &[(0, b - 1, false), (0, b, false), (1, 3, false)]),
            ("first-of-batch", &[(0, b, false), (1, 0, true)]),
            ("torn-at-boundary", &[(0, b, true), (0, 2 * b + 39, false)]),
            ("second-segment", &[(1, 2 * b + 39, false), (1, b - 1, true), (1, b, false)]),
            ("first-page", &[(1, b, false), (0, 0, false)]),
        ];
        for (tag, damage) in cases {
            let dir = damaged_store(&format!("split-{tag}"), pages, damage);
            let store = FileStore::open(&dir).unwrap();
            let expected =
                damage.iter().map(|&(s, p, torn)| (PageId::new(SegmentId(s), p), torn)).min();
            for ways in [1, 2, 4] {
                let got = store.verify_split(ways).err().map(|e| damaged_page(&e));
                assert_eq!(got, expected, "{tag}, split {ways} ways");
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn verify_ignores_a_trailing_partial_slot() {
        let dir = damaged_store("verify-partial", VERIFY_BATCH + 1, &[]);
        // A torn append: half a slot of garbage after the last full one.
        let path = dir.join("seg-0.pages");
        let mut raw = std::fs::read(&path).unwrap();
        raw.resize(raw.len() + SLOT_SIZE / 2, 0xEE);
        std::fs::write(&path, &raw).unwrap();
        let store = FileStore::open(&dir).unwrap();
        assert_eq!(store.page_count(SegmentId(0)), VERIFY_BATCH + 1);
        for ways in [1, 2, 4] {
            store.verify_split(ways).unwrap();
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unknown_format_tag_is_corrupt() {
        let dir = temp_dir("badfmt");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("FORMAT"), "99\n").unwrap();
        let err = FileStore::open(&dir).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt { .. }), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[should_panic(expected = "exceeds PAGE_SIZE")]
    fn oversized_page_rejected() {
        let mut store = MemStore::new();
        let seg = store.create_segment().unwrap();
        let _ = store.append_page(seg, &vec![0u8; PAGE_SIZE + 1]);
    }
}
