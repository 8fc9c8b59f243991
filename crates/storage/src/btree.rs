//! Bulk-loaded disk B+-trees over byte-string keys.
//!
//! Keys are arbitrary byte strings compared lexicographically; the index
//! layer passes order-preserving Dewey encodings, so the tree never decodes
//! a key. Two layers are exposed:
//!
//! * [`Interior`] — interior levels only, mapping a search key to the leaf
//!   *page* that may contain it; the child values are opaque, so the
//!   levels can sit over any run of pages with known first keys.
//! * [`SortedKv`] — a complete key→value tree with its own leaf pages,
//!   used for the per-keyword RDIL B+-trees. Supports the Section 4.3.2
//!   probe: `lowest_geq(d)` returns the smallest key ≥ `d` *and* its
//!   predecessor ("either d₂ or its immediate predecessor in the B+-tree,
//!   d₃, shares the longest common prefix with d"), plus bidirectional
//!   cursors and range scans.
//!
//! Leaf pages are decoded through [`LeafView`]: a pinned [`PageRef`] plus a
//! slot directory of offsets, so key comparisons borrow bytes straight from
//! the buffer-pool frame instead of copying every entry into scratch
//! vectors. [`TreeCursor`] builds on that to serve the TA loop's
//! monotonically advancing probes from the pinned leaf (or a short forward
//! sibling walk) without re-descending from the root each time.
//!
//! Trees are built by offline bulk load from sorted input (the paper builds
//! its indexes offline; Section 4.5). Leaf pages occupy offsets
//! `0..leaf_count` of a fresh segment so sibling navigation is implicit
//! page arithmetic; interior pages follow in the same segment.
//!
//! Every probe returns a [`StorageResult`]: page decoding is fully bounds-
//! checked, so a corrupted page (bit rot that slipped past the medium's
//! own checks) degrades into [`StorageError::Corrupt`] instead of a panic.

use crate::error::{StorageError, StorageResult};
use crate::pool::{BufferPool, PageRef};
use crate::store::{PageId, PageStore, SegmentId, PAGE_SIZE};

/// Max bytes of one leaf entry (key + value + 4-byte lengths); anything
/// larger cannot share a page with the header.
pub const MAX_ENTRY: usize = PAGE_SIZE - 8;

// ---------------------------------------------------------------------
// little-endian page field helpers (bounds-checked)
// ---------------------------------------------------------------------

fn get_u16(buf: &[u8], off: usize) -> StorageResult<u16> {
    let b: [u8; 2] = buf
        .get(off..off + 2)
        .and_then(|s| s.try_into().ok())
        .ok_or_else(|| StorageError::corrupt("truncated u16 field in B+-tree page"))?;
    Ok(u16::from_le_bytes(b))
}

fn get_u32(buf: &[u8], off: usize) -> StorageResult<u32> {
    let b: [u8; 4] = buf
        .get(off..off + 4)
        .and_then(|s| s.try_into().ok())
        .ok_or_else(|| StorageError::corrupt("truncated u32 field in B+-tree page"))?;
    Ok(u32::from_le_bytes(b))
}

// ---------------------------------------------------------------------
// Interior levels
// ---------------------------------------------------------------------

/// Interior page layout: `[n: u16] (klen: u16, key, child: u32) × n`,
/// entries sorted by key; `key` is the smallest key reachable via `child`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interior {
    /// Segment holding the interior pages.
    pub segment: SegmentId,
    /// Root page offset (meaningless when `height == 0`).
    pub root: u32,
    /// Number of interior levels. `0` means a single child: `root` then
    /// holds that child value directly.
    pub height: u32,
}

impl Interior {
    /// Bulk-builds interior levels over `children`: `(first_key, child)`
    /// pairs sorted by key. `child` values are opaque to the tree (leaf
    /// page offsets for [`SortedKv`]).
    ///
    /// Errors on empty `children` or a key exceeding [`MAX_ENTRY`].
    pub fn build<S: PageStore>(
        pool: &mut BufferPool<S>,
        segment: SegmentId,
        children: &[(Vec<u8>, u32)],
    ) -> StorageResult<Interior> {
        if children.is_empty() {
            return Err(StorageError::invalid_input("cannot build an index over zero children"));
        }
        if children.len() == 1 {
            return Ok(Interior { segment, root: children[0].1, height: 0 });
        }
        let mut level: Vec<(Vec<u8>, u32)> =
            children.iter().map(|(k, c)| (k.clone(), *c)).collect();
        let mut height = 0u32;
        loop {
            let mut next_level: Vec<(Vec<u8>, u32)> = Vec::new();
            let mut page = Vec::with_capacity(PAGE_SIZE);
            page.extend_from_slice(&0u16.to_le_bytes());
            let mut n: u16 = 0;
            let mut first_key: Option<Vec<u8>> = None;

            let flush = |page: &mut Vec<u8>,
                         n: &mut u16,
                         first_key: &mut Option<Vec<u8>>,
                         next_level: &mut Vec<(Vec<u8>, u32)>,
                         pool: &mut BufferPool<S>|
             -> StorageResult<()> {
                if *n == 0 {
                    return Ok(());
                }
                page[0..2].copy_from_slice(&n.to_le_bytes());
                let off = pool.append_page(segment, page)?;
                next_level.push((first_key.take().expect("first key recorded"), off));
                page.clear();
                page.extend_from_slice(&0u16.to_le_bytes());
                *n = 0;
                Ok(())
            };

            for (key, child) in &level {
                if key.len() > MAX_ENTRY {
                    return Err(StorageError::invalid_input("interior key too large"));
                }
                let entry_len = 2 + key.len() + 4;
                if page.len() + entry_len > PAGE_SIZE {
                    flush(&mut page, &mut n, &mut first_key, &mut next_level, pool)?;
                }
                if n == 0 {
                    first_key = Some(key.clone());
                }
                page.extend_from_slice(&(key.len() as u16).to_le_bytes());
                page.extend_from_slice(key);
                page.extend_from_slice(&child.to_le_bytes());
                n += 1;
            }
            flush(&mut page, &mut n, &mut first_key, &mut next_level, pool)?;
            height += 1;
            if next_level.len() == 1 {
                return Ok(Interior { segment, root: next_level[0].1, height });
            }
            level = next_level;
        }
    }

    /// Descends to the child whose key range may contain `key`: the child
    /// of the last entry with `first_key <= key`, or the first child when
    /// `key` sorts before everything.
    pub fn descend<S: PageStore>(&self, pool: &BufferPool<S>, key: &[u8]) -> StorageResult<u32> {
        if self.height == 0 {
            return Ok(self.root);
        }
        let mut page_off = self.root;
        for level in 0..self.height {
            let page = pool.read(PageId::new(self.segment, page_off))?;
            let child = Self::find_child(&page, key)?;
            if level + 1 == self.height {
                return Ok(child);
            }
            page_off = child;
        }
        unreachable!("descend returns within the loop");
    }

    fn find_child(page: &[u8], key: &[u8]) -> StorageResult<u32> {
        let n = get_u16(page, 0)? as usize;
        let mut off = 2;
        let mut chosen: Option<u32> = None;
        for i in 0..n {
            let klen = get_u16(page, off)? as usize;
            let k = page
                .get(off + 2..off + 2 + klen)
                .ok_or_else(|| StorageError::corrupt("interior entry key overruns page"))?;
            let child = get_u32(page, off + 2 + klen)?;
            if i == 0 || k <= key {
                chosen = Some(child);
            } else {
                break;
            }
            off += 2 + klen + 4;
        }
        chosen.ok_or_else(|| StorageError::corrupt("interior page has no entries"))
    }

    /// Number of pages the interior occupies (0 when `height == 0`).
    /// Derived at build time; recomputed here for space accounting.
    pub fn page_estimate(&self, child_count: usize, avg_key_len: usize) -> usize {
        if self.height == 0 {
            return 0;
        }
        // Geometric series of levels with fanout ≈ entries per page.
        let per_page = (PAGE_SIZE - 2) / (2 + avg_key_len + 4);
        let mut pages = 0usize;
        let mut n = child_count;
        while n > 1 {
            n = n.div_ceil(per_page);
            pages += n;
        }
        pages
    }
}

// ---------------------------------------------------------------------
// Complete key→value tree
// ---------------------------------------------------------------------

/// Position of one entry: leaf page offset + slot within the leaf.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryLoc {
    /// Leaf page offset (0-based; leaves are the first pages of the segment).
    pub leaf: u32,
    /// Entry slot within the leaf.
    pub slot: u16,
}

/// An entry materialized from a leaf.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// The key bytes.
    pub key: Vec<u8>,
    /// The value bytes.
    pub value: Vec<u8>,
    /// Where the entry lives (for cursor movement).
    pub loc: EntryLoc,
}

/// One slot of a decoded leaf: byte offsets into the pinned page.
#[derive(Debug, Clone, Copy)]
struct LeafSlot {
    key_off: u32,
    klen: u16,
    vlen: u16,
}

/// A leaf page pinned in memory with a parsed slot directory.
///
/// Keys and values are borrowed straight from the frame bytes — the
/// [`PageRef`] keeps the frame alive for the view's lifetime, so probing
/// and scanning never copy entries into scratch vectors. Parsing the
/// directory is done once per page read; every subsequent key comparison
/// is a bounds-known slice compare.
#[derive(Debug, Clone)]
pub struct LeafView {
    page: PageRef,
    slots: Vec<LeafSlot>,
}

impl LeafView {
    /// Parses the slot directory of one leaf page, pinning the frame.
    pub fn parse(page: PageRef) -> StorageResult<LeafView> {
        let slots = Self::parse_slots(&page)?;
        Ok(LeafView { page, slots })
    }

    /// Bounds-checks the `[n] (klen, vlen, key, value)×n` layout.
    fn parse_slots(page: &[u8]) -> StorageResult<Vec<LeafSlot>> {
        let n = get_u16(page, 0)? as usize;
        let mut off = 2usize;
        let mut slots = Vec::with_capacity(n.min(PAGE_SIZE / 4));
        for _ in 0..n {
            let klen = get_u16(page, off)? as usize;
            let vlen = get_u16(page, off + 2)? as usize;
            if page.len() < off + 4 + klen + vlen {
                return Err(StorageError::corrupt("leaf entry overruns page"));
            }
            slots.push(LeafSlot {
                key_off: (off + 4) as u32,
                klen: klen as u16,
                vlen: vlen as u16,
            });
            off += 4 + klen + vlen;
        }
        Ok(slots)
    }

    /// Number of entries in the leaf.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the leaf holds no entries (only the empty tree's leaf).
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The key bytes of `slot`, borrowed from the pinned page.
    pub fn key(&self, slot: usize) -> &[u8] {
        let s = &self.slots[slot];
        &self.page[s.key_off as usize..s.key_off as usize + s.klen as usize]
    }

    /// The value bytes of `slot`, borrowed from the pinned page.
    pub fn value(&self, slot: usize) -> &[u8] {
        let s = &self.slots[slot];
        let v = s.key_off as usize + s.klen as usize;
        &self.page[v..v + s.vlen as usize]
    }

    /// First slot with `key >= target`, or `len()` when every key is below.
    pub fn lower_bound(&self, target: &[u8]) -> usize {
        self.slots.partition_point(|s| {
            let k = &self.page[s.key_off as usize..s.key_off as usize + s.klen as usize];
            k < target
        })
    }

    /// Materializes `slot` as an owned [`Entry`] located in `leaf`.
    pub fn entry(&self, leaf: u32, slot: usize) -> Entry {
        Entry {
            key: self.key(slot).to_vec(),
            value: self.value(slot).to_vec(),
            loc: EntryLoc { leaf, slot: slot as u16 },
        }
    }

    /// The last key in the leaf, if any.
    pub fn last_key(&self) -> Option<&[u8]> {
        if self.slots.is_empty() {
            None
        } else {
            Some(self.key(self.slots.len() - 1))
        }
    }
}

/// Leaf page layout: `[n: u16] (klen: u16, vlen: u16, key, value) × n`,
/// sorted by key. Leaves are pages `0..leaf_count` of the segment; sibling
/// leaves are adjacent pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortedKv {
    /// Segment holding leaves then interior pages.
    pub segment: SegmentId,
    /// Number of leaf pages.
    pub leaf_count: u32,
    /// Interior index over the leaves.
    pub interior: Interior,
    /// Total entries.
    pub entry_count: u64,
}

/// Streaming bulk loader for [`SortedKv`]. Feed strictly ascending keys.
pub struct SortedKvBuilder<'a, S: PageStore> {
    pool: &'a mut BufferPool<S>,
    segment: SegmentId,
    page: Vec<u8>,
    n: u16,
    first_key: Option<Vec<u8>>,
    leaf_firsts: Vec<(Vec<u8>, u32)>,
    last_key: Option<Vec<u8>>,
    entry_count: u64,
    leaf_budget: usize,
}

impl<'a, S: PageStore> SortedKvBuilder<'a, S> {
    /// Starts a build into a **fresh** segment allocated from the pool.
    pub fn new(pool: &'a mut BufferPool<S>) -> StorageResult<Self> {
        Self::with_leaf_budget(pool, PAGE_SIZE)
    }

    /// As [`SortedKvBuilder::new`] with a per-leaf byte budget below
    /// [`PAGE_SIZE`] — the experiment harness's dataset-scale emulation
    /// knob (leaves hold fewer entries, so random probes touch
    /// proportionally more distinct pages, as they would on a
    /// paper-scale tree). Interior pages always pack fully.
    pub fn with_leaf_budget(
        pool: &'a mut BufferPool<S>,
        leaf_budget: usize,
    ) -> StorageResult<Self> {
        let segment = pool.store_mut().create_segment()?;
        Ok(SortedKvBuilder {
            pool,
            segment,
            page: initial_leaf_page(),
            n: 0,
            first_key: None,
            leaf_firsts: Vec::new(),
            last_key: None,
            entry_count: 0,
            leaf_budget: leaf_budget.clamp(64, PAGE_SIZE),
        })
    }

    /// Appends an entry. Keys must be strictly ascending; entries larger
    /// than [`MAX_ENTRY`] are rejected.
    pub fn push(&mut self, key: &[u8], value: &[u8]) -> StorageResult<()> {
        let entry_len = 4 + key.len() + value.len();
        if entry_len > MAX_ENTRY {
            return Err(StorageError::invalid_input(format!(
                "entry of {entry_len} bytes exceeds MAX_ENTRY ({MAX_ENTRY})"
            )));
        }
        if let Some(last) = &self.last_key {
            if key <= last.as_slice() {
                return Err(StorageError::invalid_input("keys must be strictly ascending"));
            }
        }
        if self.page.len() + entry_len > self.leaf_budget && self.n > 0 {
            self.flush_leaf()?;
        }
        if self.n == 0 {
            self.first_key = Some(key.to_vec());
        }
        self.page.extend_from_slice(&(key.len() as u16).to_le_bytes());
        self.page.extend_from_slice(&(value.len() as u16).to_le_bytes());
        self.page.extend_from_slice(key);
        self.page.extend_from_slice(value);
        self.n += 1;
        self.entry_count += 1;
        self.last_key = Some(key.to_vec());
        Ok(())
    }

    fn flush_leaf(&mut self) -> StorageResult<()> {
        if self.n == 0 {
            return Ok(());
        }
        self.page[0..2].copy_from_slice(&self.n.to_le_bytes());
        let off = self.pool.append_page(self.segment, &self.page)?;
        self.leaf_firsts
            .push((self.first_key.take().expect("leaf has a first key"), off));
        self.page = initial_leaf_page();
        self.n = 0;
        Ok(())
    }

    /// Finishes the build, materializing the interior levels.
    pub fn finish(mut self) -> StorageResult<SortedKv> {
        self.flush_leaf()?;
        if self.leaf_firsts.is_empty() {
            // Empty tree: keep a single empty leaf for uniform reads.
            let off = self.pool.append_page(self.segment, &initial_leaf_page())?;
            self.leaf_firsts.push((Vec::new(), off));
        }
        let leaf_count = self.leaf_firsts.len() as u32;
        let interior = Interior::build(self.pool, self.segment, &self.leaf_firsts)?;
        Ok(SortedKv { segment: self.segment, leaf_count, interior, entry_count: self.entry_count })
    }
}

fn initial_leaf_page() -> Vec<u8> {
    let mut p = Vec::with_capacity(PAGE_SIZE);
    p.extend_from_slice(&0u16.to_le_bytes());
    p
}

impl SortedKv {
    /// Convenience bulk build from a sorted slice.
    pub fn build<S: PageStore>(
        pool: &mut BufferPool<S>,
        entries: &[(Vec<u8>, Vec<u8>)],
    ) -> StorageResult<SortedKv> {
        let mut b = SortedKvBuilder::new(pool)?;
        for (k, v) in entries {
            b.push(k, v)?;
        }
        b.finish()
    }

    /// Reads and parses one leaf into a pinned zero-copy view.
    pub fn leaf_view<S: PageStore>(
        &self,
        pool: &BufferPool<S>,
        leaf: u32,
    ) -> StorageResult<LeafView> {
        LeafView::parse(pool.read(PageId::new(self.segment, leaf))?)
    }

    #[cfg(test)]
    fn leaf_entries<S: PageStore>(
        &self,
        pool: &BufferPool<S>,
        leaf: u32,
    ) -> StorageResult<Vec<(Vec<u8>, Vec<u8>)>> {
        let view = self.leaf_view(pool, leaf)?;
        Ok((0..view.len()).map(|i| (view.key(i).to_vec(), view.value(i).to_vec())).collect())
    }

    /// The entry at `loc`, if the location is valid.
    pub fn entry_at<S: PageStore>(
        &self,
        pool: &BufferPool<S>,
        loc: EntryLoc,
    ) -> StorageResult<Option<Entry>> {
        if loc.leaf >= self.leaf_count {
            return Ok(None);
        }
        let view = self.leaf_view(pool, loc.leaf)?;
        if (loc.slot as usize) < view.len() {
            Ok(Some(view.entry(loc.leaf, loc.slot as usize)))
        } else {
            Ok(None)
        }
    }

    /// The entry after `loc` in key order.
    pub fn next<S: PageStore>(
        &self,
        pool: &BufferPool<S>,
        loc: EntryLoc,
    ) -> StorageResult<Option<Entry>> {
        let view = self.leaf_view(pool, loc.leaf)?;
        if (loc.slot as usize) + 1 < view.len() {
            return Ok(Some(view.entry(loc.leaf, loc.slot as usize + 1)));
        }
        self.first_entry_from(pool, loc.leaf + 1)
    }

    /// The entry before `loc` in key order.
    pub fn prev<S: PageStore>(
        &self,
        pool: &BufferPool<S>,
        loc: EntryLoc,
    ) -> StorageResult<Option<Entry>> {
        if loc.slot > 0 {
            let view = self.leaf_view(pool, loc.leaf)?;
            let slot = loc.slot as usize - 1;
            if slot < view.len() {
                return Ok(Some(view.entry(loc.leaf, slot)));
            }
            return Ok(None);
        }
        let mut leaf = loc.leaf;
        while leaf > 0 {
            leaf -= 1;
            let view = self.leaf_view(pool, leaf)?;
            if !view.is_empty() {
                return Ok(Some(view.entry(leaf, view.len() - 1)));
            }
        }
        Ok(None)
    }

    /// The Section 4.3.2 probe: the smallest entry with `key >= target`
    /// and its immediate predecessor. Either may be `None` at the ends.
    pub fn lowest_geq<S: PageStore>(
        &self,
        pool: &BufferPool<S>,
        target: &[u8],
    ) -> StorageResult<(Option<Entry>, Option<Entry>)> {
        let leaf = self.interior.descend(pool, target)?;
        let view = self.leaf_view(pool, leaf)?;
        self.probe_view(pool, leaf, &view, target)
    }

    /// Answers the `lowest_geq` probe inside an already-pinned leaf. The
    /// leaf must be the descend target for `target` (or a forward sibling
    /// the cursor verified still covers it); only the cross-leaf
    /// predecessor / successor lookups touch the pool.
    fn probe_view<S: PageStore>(
        &self,
        pool: &BufferPool<S>,
        leaf: u32,
        view: &LeafView,
        target: &[u8],
    ) -> StorageResult<(Option<Entry>, Option<Entry>)> {
        let slot = view.lower_bound(target);
        if slot < view.len() {
            let entry = Some(view.entry(leaf, slot));
            let pred = if slot > 0 {
                Some(view.entry(leaf, slot - 1))
            } else {
                self.prev(pool, EntryLoc { leaf, slot: 0 })?
            };
            Ok((entry, pred))
        } else {
            // All keys in this leaf sort below target (or leaf empty):
            // the answer is the first entry of a later leaf; the
            // predecessor is this leaf's last entry.
            let pred = if view.is_empty() {
                if leaf == 0 {
                    None
                } else {
                    self.prev(pool, EntryLoc { leaf, slot: 0 })?
                }
            } else {
                Some(view.entry(leaf, view.len() - 1))
            };
            let entry = self.first_entry_from(pool, leaf + 1)?;
            Ok((entry, pred))
        }
    }

    fn first_entry_from<S: PageStore>(
        &self,
        pool: &BufferPool<S>,
        mut leaf: u32,
    ) -> StorageResult<Option<Entry>> {
        while leaf < self.leaf_count {
            let view = self.leaf_view(pool, leaf)?;
            if !view.is_empty() {
                return Ok(Some(view.entry(leaf, 0)));
            }
            leaf += 1;
        }
        Ok(None)
    }

    /// Exact-match lookup.
    pub fn get<S: PageStore>(
        &self,
        pool: &BufferPool<S>,
        key: &[u8],
    ) -> StorageResult<Option<Vec<u8>>> {
        let (entry, _) = self.lowest_geq(pool, key)?;
        Ok(entry.filter(|e| e.key == key).map(|e| e.value))
    }

    /// Collects all entries with `low <= key < high` via a leaf range
    /// scan: one descent, then one parse per leaf (each page is read and
    /// decoded exactly once, not once per entry).
    pub fn range<S: PageStore>(
        &self,
        pool: &BufferPool<S>,
        low: &[u8],
        high: &[u8],
    ) -> StorageResult<Vec<Entry>> {
        let mut out = Vec::new();
        let start = self.interior.descend(pool, low)?;
        let mut leaf = start;
        while leaf < self.leaf_count {
            let view = self.leaf_view(pool, leaf)?;
            let begin = if leaf == start { view.lower_bound(low) } else { 0 };
            for slot in begin..view.len() {
                if view.key(slot) >= high {
                    return Ok(out);
                }
                out.push(view.entry(leaf, slot));
            }
            leaf += 1;
        }
        Ok(out)
    }

    /// Opens a stateful probe cursor positioned nowhere (the first seek
    /// descends from the root).
    pub fn cursor(&self) -> TreeCursor {
        TreeCursor { tree: *self, leaf: 0, view: None, stats: CursorStats::default() }
    }

    /// Total pages (leaves + interior) the tree occupies.
    pub fn total_pages<S: PageStore>(&self, pool: &BufferPool<S>) -> u32 {
        pool.store().page_count(self.segment)
    }
}

// ---------------------------------------------------------------------
// Stateful probe cursor
// ---------------------------------------------------------------------

/// How a cursor answered its seeks;
/// `probes = seeks_forward + seeks_backward + descents`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CursorStats {
    /// Total `seek_geq` calls answered.
    pub probes: u64,
    /// Probes served from the pinned leaf or a short forward sibling walk.
    pub seeks_forward: u64,
    /// Probes served by a short backward sibling walk.
    pub seeks_backward: u64,
    /// Probes that re-descended from the root (first seek, or a jump past
    /// [`MAX_SIBLING_HOPS`] siblings in either direction).
    pub descents: u64,
}

impl CursorStats {
    /// Component-wise accumulation (for folding per-keyword cursors).
    pub fn merge(&mut self, other: CursorStats) {
        self.probes += other.probes;
        self.seeks_forward += other.seeks_forward;
        self.seeks_backward += other.seeks_backward;
        self.descents += other.descents;
    }
}

/// Sibling hops a seek may take (in either direction) before falling
/// back to a root descent. A hop touches one (almost always cached) leaf
/// page and does no interior binary searches, while a descent touches
/// `height` pages (≤ 3 on every tree we build) *and* searches each
/// interior node — so hops stay cheaper well past `height` of them. The
/// cap only bounds the worst case for a far jump on a cold cache.
pub const MAX_SIBLING_HOPS: u32 = 12;

/// A stateful probe cursor over a [`SortedKv`] — the Section 4.3.2 hot
/// path. The cursor pins its current leaf in an Arc'd [`PageRef`] (via
/// [`LeafView`]); a `seek_geq` whose target falls at or after the pinned
/// leaf's first key is served by binary search in place, or by a short
/// forward sibling walk, so the TA loop's monotonically advancing probes
/// cost zero-to-few page reads instead of a root-to-leaf descent each.
/// A target *before* the pinned leaf is served by the symmetric backward
/// sibling walk. Only jumps past [`MAX_SIBLING_HOPS`] siblings (and the
/// first seek of a fresh cursor) fall back to a root descent.
///
/// Invariant: for every target, `seek_geq` returns exactly what
/// [`SortedKv::lowest_geq`] returns — the cursor only changes *how* the
/// answer is found, never the answer (enforced by the oracle proptest in
/// `tests/btree_model.rs`).
#[derive(Debug, Clone)]
pub struct TreeCursor {
    tree: SortedKv,
    leaf: u32,
    view: Option<LeafView>,
    stats: CursorStats,
}

impl TreeCursor {
    /// Seek/descent counters accumulated since the cursor was opened.
    pub fn stats(&self) -> CursorStats {
        self.stats
    }

    /// Stateful [`SortedKv::lowest_geq`]: identical answers, amortized
    /// cost. See the type-level invariant.
    pub fn seek_geq<S: PageStore>(
        &mut self,
        pool: &BufferPool<S>,
        target: &[u8],
    ) -> StorageResult<(Option<Entry>, Option<Entry>)> {
        self.stats.probes += 1;
        let forward = match &self.view {
            // Serving in place is only sound when the pinned leaf's key
            // range starts at or before the target; descend() can never
            // land on an earlier leaf in that case.
            Some(view) => !view.is_empty() && target >= view.key(0),
            None => false,
        };
        if forward {
            let mut leaf = self.leaf;
            let mut view = self.view.take().expect("forward path holds a pinned view");
            let mut hops = 0u32;
            loop {
                let contained = view.last_key().is_some_and(|last| target <= last);
                if contained || leaf + 1 >= self.tree.leaf_count {
                    self.stats.seeks_forward += 1;
                    self.leaf = leaf;
                    let out = self.tree.probe_view(pool, leaf, &view, target);
                    self.view = Some(view);
                    return out;
                }
                if hops >= MAX_SIBLING_HOPS {
                    break; // too far ahead — a fresh descent is cheaper
                }
                leaf += 1;
                hops += 1;
                view = self.tree.leaf_view(pool, leaf)?;
            }
        } else if self
            .view
            .as_ref()
            .is_some_and(|view| !view.is_empty() && target < view.key(0))
            && self.leaf > 0
        {
            // Backward walk: the target sorts before the pinned leaf's
            // first key. Scanning leftward, the first non-empty leaf
            // whose first key <= the target is the *last* such leaf
            // overall (everything passed over sorts entirely above the
            // target), so probing in it gives the descend answer without
            // touching the interior levels. TA probe targets cluster, so
            // the walk almost always stops at an adjacent leaf.
            let mut leaf = self.leaf;
            let mut hops = 0u32;
            while leaf > 0 && hops < MAX_SIBLING_HOPS {
                leaf -= 1;
                hops += 1;
                let view = self.tree.leaf_view(pool, leaf)?;
                let covers =
                    leaf == 0 || (!view.is_empty() && view.key(0) <= target);
                if covers {
                    self.stats.seeks_backward += 1;
                    self.leaf = leaf;
                    let out = self.tree.probe_view(pool, leaf, &view, target);
                    self.view = Some(view);
                    return out;
                }
            }
        }
        // Slow path: first seek, or a long jump in either direction.
        self.stats.descents += 1;
        let leaf = self.tree.interior.descend(pool, target)?;
        let view = self.tree.leaf_view(pool, leaf)?;
        let out = self.tree.probe_view(pool, leaf, &view, target);
        self.leaf = leaf;
        self.view = Some(view);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;

    fn kv(i: u32) -> (Vec<u8>, Vec<u8>) {
        (format!("key{i:06}").into_bytes(), format!("value-{i}").into_bytes())
    }

    fn build_tree(n: u32) -> (BufferPool<MemStore>, SortedKv) {
        let mut pool = BufferPool::new(MemStore::new(), 1024);
        let entries: Vec<_> = (0..n).map(kv).collect();
        let tree = SortedKv::build(&mut pool, &entries).unwrap();
        (pool, tree)
    }

    #[test]
    fn small_tree_single_leaf() {
        let (pool, tree) = build_tree(3);
        assert_eq!(tree.leaf_count, 1);
        assert_eq!(tree.interior.height, 0);
        assert_eq!(tree.get(&pool, b"key000001").unwrap(), Some(b"value-1".to_vec()));
        assert_eq!(tree.get(&pool, b"missing").unwrap(), None);
    }

    #[test]
    fn large_tree_multiple_levels() {
        let (pool, tree) = build_tree(5000);
        assert!(tree.leaf_count > 1);
        assert!(tree.interior.height >= 1, "expected interior levels");
        for i in [0u32, 1, 999, 2500, 4999] {
            let (k, v) = kv(i);
            assert_eq!(tree.get(&pool, &k).unwrap(), Some(v), "key {i}");
        }
        assert_eq!(tree.entry_count, 5000);
    }

    #[test]
    fn lowest_geq_exact_and_between() {
        let (pool, tree) = build_tree(100);
        // exact hit
        let (e, p) = tree.lowest_geq(&pool, b"key000050").unwrap();
        assert_eq!(e.unwrap().key, b"key000050".to_vec());
        assert_eq!(p.unwrap().key, b"key000049".to_vec());
        // between two keys
        let (e, p) = tree.lowest_geq(&pool, b"key000050x").unwrap();
        assert_eq!(e.unwrap().key, b"key000051".to_vec());
        assert_eq!(p.unwrap().key, b"key000050".to_vec());
    }

    #[test]
    fn lowest_geq_at_the_ends() {
        let (pool, tree) = build_tree(10);
        let (e, p) = tree.lowest_geq(&pool, b"aaa").unwrap();
        assert_eq!(e.unwrap().key, b"key000000".to_vec());
        assert!(p.is_none());
        let (e, p) = tree.lowest_geq(&pool, b"zzz").unwrap();
        assert!(e.is_none());
        assert_eq!(p.unwrap().key, b"key000009".to_vec());
    }

    #[test]
    fn lowest_geq_across_leaf_boundary() {
        let (pool, tree) = build_tree(2000);
        assert!(tree.leaf_count >= 2);
        // Probe just past the last key of leaf 0.
        let leaf0 = tree.leaf_entries(&pool, 0).unwrap();
        let last = leaf0.last().unwrap().0.clone();
        let mut probe = last.clone();
        probe.push(b'!');
        let (e, p) = tree.lowest_geq(&pool, &probe).unwrap();
        assert_eq!(p.unwrap().key, last);
        let first_leaf1 = tree.leaf_entries(&pool, 1).unwrap()[0].0.clone();
        assert_eq!(e.unwrap().key, first_leaf1);
    }

    #[test]
    fn cursors_traverse_everything_in_order() {
        let (pool, tree) = build_tree(1500);
        let (mut cur, _) = tree.lowest_geq(&pool, b"").unwrap();
        let mut seen = 0u32;
        let mut last_key: Option<Vec<u8>> = None;
        while let Some(e) = cur {
            if let Some(l) = &last_key {
                assert!(e.key > *l, "keys out of order");
            }
            last_key = Some(e.key.clone());
            seen += 1;
            cur = tree.next(&pool, e.loc).unwrap();
        }
        assert_eq!(seen, 1500);
        // and backwards
        let (_, pred) = tree.lowest_geq(&pool, b"zzzz").unwrap();
        let mut cur = pred;
        let mut seen_back = 0u32;
        while let Some(e) = cur {
            seen_back += 1;
            cur = tree.prev(&pool, e.loc).unwrap();
        }
        assert_eq!(seen_back, 1500);
    }

    #[test]
    fn range_scan() {
        let (pool, tree) = build_tree(100);
        let out = tree.range(&pool, b"key000010", b"key000020").unwrap();
        assert_eq!(out.len(), 10);
        assert_eq!(out[0].key, b"key000010".to_vec());
        assert_eq!(out[9].key, b"key000019".to_vec());
    }

    #[test]
    fn range_scan_across_leaves_reads_each_leaf_once() {
        let (pool, tree) = build_tree(2000);
        assert!(tree.leaf_count >= 3);
        pool.reset_stats();
        let out = tree.range(&pool, b"key000000", b"key002000").unwrap();
        assert_eq!(out.len(), 2000);
        let s = pool.stats();
        // One descent + every leaf parsed exactly once — not once per entry.
        assert!(
            s.logical_reads() <= (tree.leaf_count + tree.interior.height + 1) as u64,
            "range re-read pages: {} logical reads over {} leaves",
            s.logical_reads(),
            tree.leaf_count
        );
    }

    #[test]
    fn rejects_unsorted_and_oversized() {
        let mut pool = BufferPool::new(MemStore::new(), 64);
        let mut b = SortedKvBuilder::new(&mut pool).unwrap();
        b.push(b"b", b"1").unwrap();
        assert!(b.push(b"a", b"2").is_err(), "descending key accepted");
        assert!(b.push(b"b", b"2").is_err(), "duplicate key accepted");
        assert!(b.push(b"c", &vec![0u8; PAGE_SIZE]).is_err(), "oversized value accepted");
    }

    #[test]
    fn empty_tree_behaves() {
        let mut pool = BufferPool::new(MemStore::new(), 64);
        let tree = SortedKv::build(&mut pool, &[]).unwrap();
        assert_eq!(tree.get(&pool, b"x").unwrap(), None);
        let (e, p) = tree.lowest_geq(&pool, b"x").unwrap();
        assert!(e.is_none() && p.is_none());
        assert!(tree.range(&pool, b"", b"zzz").unwrap().is_empty());
        let mut cur = tree.cursor();
        let (e, p) = cur.seek_geq(&pool, b"x").unwrap();
        assert!(e.is_none() && p.is_none());
    }

    #[test]
    fn interior_over_external_leaves() {
        // Children are opaque: here, page numbers of some other segment.
        let mut pool = BufferPool::new(MemStore::new(), 64);
        let seg = pool.store_mut().create_segment().unwrap();
        let children: Vec<(Vec<u8>, u32)> = (0..500)
            .map(|i| (format!("k{i:05}").into_bytes(), 1000 + i))
            .collect();
        let interior = Interior::build(&mut pool, seg, &children).unwrap();
        assert!(interior.height >= 1);
        assert_eq!(interior.descend(&pool, b"k00000").unwrap(), 1000);
        assert_eq!(interior.descend(&pool, b"k00123").unwrap(), 1123);
        assert_eq!(interior.descend(&pool, b"k00123x").unwrap(), 1123);
        assert_eq!(
            interior.descend(&pool, b"a").unwrap(),
            1000,
            "before-first goes to first child"
        );
        assert_eq!(interior.descend(&pool, b"zzz").unwrap(), 1499);
    }

    #[test]
    fn probe_costs_are_logarithmic_random_reads() {
        let (pool, tree) = build_tree(20_000);
        pool.clear_cache();
        pool.reset_stats();
        tree.lowest_geq(&pool, b"key010000").unwrap();
        let s = pool.stats();
        // height + leaf + (possible sibling for predecessor): a handful of
        // random reads, not a scan.
        assert!(s.physical_reads() <= 6, "probe read {} pages", s.physical_reads());
        assert!(s.rand_reads >= 1);
    }

    #[test]
    fn cursor_forward_seeks_avoid_descents() {
        let (pool, tree) = build_tree(20_000);
        let mut cur = tree.cursor();
        // First seek must descend; monotone seeks after that are served
        // from the pinned leaf or a short sibling walk.
        for i in (0..20_000u32).step_by(7) {
            let (k, _) = kv(i);
            let (e, _) = cur.seek_geq(&pool, &k).unwrap();
            assert_eq!(e.unwrap().key, k);
        }
        let s = cur.stats();
        assert_eq!(s.probes, s.seeks_forward + s.seeks_backward + s.descents);
        assert_eq!(s.descents, 1, "monotone scan re-descended: {s:?}");

        // A long backward jump (19k keys back, far past the sibling-hop
        // cap) re-descends; forward motion then resumes seek-served.
        let (k, _) = kv(42);
        cur.seek_geq(&pool, &k).unwrap();
        assert_eq!(cur.stats().descents, 2);
        let (k, _) = kv(43);
        cur.seek_geq(&pool, &k).unwrap();
        assert_eq!(cur.stats().descents, 2);
    }

    #[test]
    fn cursor_short_backward_seeks_avoid_descents() {
        let (pool, tree) = build_tree(20_000);
        let mut cur = tree.cursor();
        // Position mid-tree (one descent), then oscillate over a window
        // spanning a few leaves but within the sibling-hop cap: every
        // backward seek must be served by the backward walk, not a
        // re-descent.
        for i in [10_000u32, 9_500, 10_300, 9_400, 10_200, 9_450] {
            let (k, _) = kv(i);
            let (e, _) = cur.seek_geq(&pool, &k).unwrap();
            assert_eq!(e.unwrap().key, k);
            let (want_e, want_p) = tree.lowest_geq(&pool, &k).unwrap();
            let (got_e, got_p) = cur.seek_geq(&pool, &k).unwrap();
            assert_eq!(got_e, want_e);
            assert_eq!(got_p, want_p);
        }
        let s = cur.stats();
        assert_eq!(s.probes, s.seeks_forward + s.seeks_backward + s.descents);
        assert_eq!(s.descents, 1, "short backward seeks re-descended: {s:?}");
        assert!(s.seeks_backward >= 3, "backward walk never used: {s:?}");
    }

    #[test]
    fn cursor_agrees_with_descent_on_boundaries() {
        let (pool, tree) = build_tree(2000);
        let leaf0 = tree.leaf_entries(&pool, 0).unwrap();
        let last = leaf0.last().unwrap().0.clone();
        let mut gap = last.clone();
        gap.push(b'!');
        let mut cur = tree.cursor();
        for probe in [b"aaa".to_vec(), last.clone(), gap, b"zzz".to_vec()] {
            let fresh = tree.lowest_geq(&pool, &probe).unwrap();
            let seeked = cur.seek_geq(&pool, &probe).unwrap();
            assert_eq!(fresh, seeked, "probe {probe:?}");
        }
    }

    #[test]
    fn corrupt_leaf_is_an_error_not_a_panic() {
        // A leaf whose entry lengths point past the page must decode to a
        // typed error under any byte garbage.
        let mut page = vec![0u8; PAGE_SIZE];
        page[0..2].copy_from_slice(&3u16.to_le_bytes()); // claims 3 entries
        page[2..4].copy_from_slice(&u16::MAX.to_le_bytes()); // klen = 65535
        let err = LeafView::parse_slots(&page).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt { .. }), "{err}");

        // And through the probe path: corrupt the tree's leaf in place.
        let (mut pool, tree) = build_tree(100);
        let mut evil = vec![0u8; PAGE_SIZE];
        evil[0..2].copy_from_slice(&9u16.to_le_bytes());
        evil[2..4].copy_from_slice(&u16::MAX.to_le_bytes());
        pool.write_page(PageId::new(tree.segment, 0), &evil).unwrap();
        assert!(tree.lowest_geq(&pool, b"key000000").is_err());
    }
}
