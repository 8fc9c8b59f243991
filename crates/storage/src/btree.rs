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
//! Page layouts (all integers little-endian):
//!
//! ```text
//! interior: [n: u16] ([klen: u16] [key] [child: u32]) × n
//! leaf:     [off_0 … off_n: u16] entry_0 … entry_{n-1}
//!           entry_i = [klen: u16] [key] [value], spanning off_i..off_{i+1}
//! ```
//!
//! A leaf's slot directory has one offset more than it has entries, so
//! `n = off_0 / 2 − 1` and each value's length is the gap between its key
//! and the next offset; an empty leaf is the two bytes `[2, 0]`. The
//! directory costs what the count field and per-entry value lengths it
//! replaces cost, so leaves hold exactly as many entries as before it.
//!
//! Leaves are searched in place through [`LeafView`]: a pinned [`PageRef`]
//! and the entry count, nothing decoded up front. `lower_bound` is a
//! binary search over the directory that reads only the slots it visits,
//! so a probe touches O(log n) entries of a leaf instead of walking all of
//! them. [`TreeCursor`] builds on that to serve the TA loop's probes from
//! the pinned leaf (or a short sibling walk) without re-descending from
//! the root each time, and [`TreeCursor::seek_geq_by`] lets a caller read
//! just the part of an answer entry it needs while the leaf is pinned.
//! [`TreeCursor::walk_from`] starts a range walk the same way, from
//! wherever the cursor stands.
//!
//! Trees are built by offline bulk load from sorted input (the paper builds
//! its indexes offline; Section 4.5). Leaf pages occupy offsets
//! `0..leaf_count` of a fresh segment so sibling navigation is implicit
//! page arithmetic; interior pages follow in the same segment.
//!
//! Every probe returns a [`StorageResult`]: each directory slot a search
//! touches is bounds-checked, so a corrupted page (bit rot that slipped
//! past the medium's own checks) degrades into [`StorageError::Corrupt`]
//! instead of a panic.

use crate::error::{StorageError, StorageResult};
use crate::pool::{BufferPool, PageRef};
use crate::store::{PageId, PageStore, SegmentId, PAGE_SIZE};

/// Max bytes of one leaf entry (key + value + its 2-byte key length and
/// 2-byte directory slot); anything larger cannot share a page with the
/// directory's leading offset.
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

/// A leaf page pinned in memory, searched in place through its slot
/// directory.
///
/// Keys and values are borrowed straight from the frame bytes — the
/// [`PageRef`] keeps the frame alive for the view's lifetime. Opening a
/// view checks only the directory's leading offset; every slot is
/// bounds-checked when it is read, so a search pays for the slots it
/// visits and nothing else.
#[derive(Debug, Clone)]
pub struct LeafView {
    page: PageRef,
    n: usize,
}

impl LeafView {
    /// Opens one leaf page, pinning the frame. Checks that the
    /// directory's leading offset `off_0` is even, at least 2, and within
    /// the page (the directory is `off_0` bytes long).
    pub fn parse(page: PageRef) -> StorageResult<LeafView> {
        let off0 = get_u16(&page, 0)? as usize;
        if off0 < 2 || !off0.is_multiple_of(2) || off0 > page.len() {
            return Err(StorageError::corrupt(format!(
                "leaf directory of {off0} bytes is not an even length in 2..={}",
                page.len()
            )));
        }
        Ok(LeafView { page, n: off0 / 2 - 1 })
    }

    /// Number of entries in the leaf.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the leaf holds no entries (only the empty tree's leaf).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Byte ranges of `slot`'s key and value, with every offset checked:
    /// `off_slot ≥ 2(n+1)` and `off_slot + 2 + klen ≤ off_{slot+1} ≤ page
    /// length`.
    fn spans(&self, slot: usize) -> StorageResult<(usize, usize, usize)> {
        if slot >= self.n {
            return Err(StorageError::corrupt("leaf slot past the directory"));
        }
        let start = get_u16(&self.page, 2 * slot)? as usize;
        let end = get_u16(&self.page, 2 * slot + 2)? as usize;
        if start < 2 * (self.n + 1) || end > self.page.len() {
            return Err(StorageError::corrupt("leaf slot offset outside the entry area"));
        }
        let key_end = start + 2 + get_u16(&self.page, start)? as usize;
        if key_end > end {
            return Err(StorageError::corrupt("leaf entry key overruns its slot"));
        }
        Ok((start + 2, key_end, end))
    }

    /// The key bytes of `slot`, borrowed from the pinned page.
    pub fn key(&self, slot: usize) -> StorageResult<&[u8]> {
        let (key, value, _) = self.spans(slot)?;
        Ok(&self.page[key..value])
    }

    /// The value bytes of `slot`, borrowed from the pinned page.
    pub fn value(&self, slot: usize) -> StorageResult<&[u8]> {
        let (_, value, end) = self.spans(slot)?;
        Ok(&self.page[value..end])
    }

    /// The key and value bytes of `slot`, borrowed from the pinned page.
    fn key_value(&self, slot: usize) -> StorageResult<(&[u8], &[u8])> {
        let (key, value, end) = self.spans(slot)?;
        Ok((&self.page[key..value], &self.page[value..end]))
    }

    /// First slot with `key >= target`, or `len()` when every key is below:
    /// a binary search that reads only the slots it visits.
    pub fn lower_bound(&self, target: &[u8]) -> StorageResult<usize> {
        let (mut lo, mut hi) = (0, self.n);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.key(mid)? < target {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        Ok(lo)
    }

    /// Materializes the entry at `loc` (whose `leaf` is this page) as an
    /// owned [`Entry`].
    pub fn entry(&self, loc: EntryLoc) -> StorageResult<Entry> {
        let (key, value, end) = self.spans(loc.slot as usize)?;
        let page = &self.page;
        Ok(Entry { key: page[key..value].to_vec(), value: page[value..end].to_vec(), loc })
    }

    /// The last key in the leaf, if any.
    pub fn last_key(&self) -> StorageResult<Option<&[u8]>> {
        self.n.checked_sub(1).map(|last| self.key(last)).transpose()
    }
}

/// A complete key→value B+-tree; leaves use the slot-directory layout of
/// the module docs. Leaves are pages `0..leaf_count` of the segment;
/// sibling leaves are adjacent pages.
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
    /// The open leaf's entries, `[klen][key][value]` each.
    entries: Vec<u8>,
    /// Where each open-leaf entry starts within `entries`.
    starts: Vec<u16>,
    leaf_firsts: Vec<(Vec<u8>, u32)>,
    /// The last key pushed (meaningful once `entry_count > 0`).
    last_key: Vec<u8>,
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
            entries: Vec::with_capacity(PAGE_SIZE),
            starts: Vec::new(),
            leaf_firsts: Vec::new(),
            last_key: Vec::new(),
            entry_count: 0,
            leaf_budget: leaf_budget.clamp(64, PAGE_SIZE),
        })
    }

    /// Appends an entry. Keys must be strictly ascending; entries larger
    /// than [`MAX_ENTRY`] are rejected.
    pub fn push(&mut self, key: &[u8], value: &[u8]) -> StorageResult<()> {
        // Directory slot + key length + key + value.
        let entry_len = 4 + key.len() + value.len();
        if entry_len > MAX_ENTRY {
            return Err(StorageError::invalid_input(format!(
                "entry of {entry_len} bytes exceeds MAX_ENTRY ({MAX_ENTRY})"
            )));
        }
        if self.entry_count > 0 && key <= self.last_key.as_slice() {
            return Err(StorageError::invalid_input("keys must be strictly ascending"));
        }
        let used = 2 * (self.starts.len() + 1) + self.entries.len();
        if used + entry_len > self.leaf_budget && !self.starts.is_empty() {
            self.flush_leaf()?;
        }
        self.starts.push(self.entries.len() as u16);
        self.entries.extend_from_slice(&(key.len() as u16).to_le_bytes());
        self.entries.extend_from_slice(key);
        self.entries.extend_from_slice(value);
        self.entry_count += 1;
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        Ok(())
    }

    /// Writes the open leaf: the directory, then the entries.
    fn flush_leaf(&mut self) -> StorageResult<()> {
        if self.starts.is_empty() {
            return Ok(());
        }
        // One offset per entry plus the closing one, all shifted past the
        // directory itself.
        let dir = 2 * (self.starts.len() + 1);
        let mut page = Vec::with_capacity(dir + self.entries.len());
        for &start in &self.starts {
            page.extend_from_slice(&(dir as u16 + start).to_le_bytes());
        }
        page.extend_from_slice(&((dir + self.entries.len()) as u16).to_le_bytes());
        page.extend_from_slice(&self.entries);
        let off = self.pool.append_page(self.segment, &page)?;
        // The leaf's first key, for the interior level above it.
        let klen = u16::from_le_bytes([self.entries[0], self.entries[1]]) as usize;
        self.leaf_firsts.push((self.entries[2..2 + klen].to_vec(), off));
        self.entries.clear();
        self.starts.clear();
        Ok(())
    }

    /// Finishes the build, materializing the interior levels.
    pub fn finish(mut self) -> StorageResult<SortedKv> {
        self.flush_leaf()?;
        if self.leaf_firsts.is_empty() {
            // Empty tree: keep a single empty leaf for uniform reads.
            let off = self.pool.append_page(self.segment, &2u16.to_le_bytes())?;
            self.leaf_firsts.push((Vec::new(), off));
        }
        let leaf_count = self.leaf_firsts.len() as u32;
        let interior = Interior::build(self.pool, self.segment, &self.leaf_firsts)?;
        Ok(SortedKv { segment: self.segment, leaf_count, interior, entry_count: self.entry_count })
    }
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

    /// Reads one leaf and pins it as a searchable view.
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
        (0..view.len()).map(|i| Ok((view.key(i)?.to_vec(), view.value(i)?.to_vec()))).collect()
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
            view.entry(loc).map(Some)
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
            return view.entry(EntryLoc { slot: loc.slot + 1, ..loc }).map(Some);
        }
        self.first_from(pool, loc.leaf + 1, &mut LeafView::entry)
    }

    /// The entry before `loc` in key order.
    pub fn prev<S: PageStore>(
        &self,
        pool: &BufferPool<S>,
        loc: EntryLoc,
    ) -> StorageResult<Option<Entry>> {
        if loc.slot > 0 {
            let view = self.leaf_view(pool, loc.leaf)?;
            if (loc.slot as usize) <= view.len() {
                return view.entry(EntryLoc { slot: loc.slot - 1, ..loc }).map(Some);
            }
            return Ok(None);
        }
        self.last_before(pool, loc.leaf, &mut LeafView::entry)
    }

    /// The Section 4.3.2 probe: the smallest entry with `key >= target`
    /// and its immediate predecessor. Either may be `None` at the ends.
    /// One seek of a fresh [`TreeCursor`], so there is one probe path.
    pub fn lowest_geq<S: PageStore>(
        &self,
        pool: &BufferPool<S>,
        target: &[u8],
    ) -> StorageResult<(Option<Entry>, Option<Entry>)> {
        self.cursor().seek_geq(pool, target)
    }

    /// Answers the `lowest_geq` probe inside an already-pinned leaf,
    /// reading each answer entry with `read` while its leaf is pinned. The
    /// leaf must be the descend target for `target` (or a sibling the
    /// cursor verified gives the same answer); only the cross-leaf
    /// predecessor / successor lookups touch the pool.
    fn probe_view<S: PageStore, T>(
        &self,
        pool: &BufferPool<S>,
        leaf: u32,
        view: &LeafView,
        target: &[u8],
        read: &mut impl FnMut(&LeafView, EntryLoc) -> StorageResult<T>,
    ) -> StorageResult<(Option<T>, Option<T>)> {
        let slot = view.lower_bound(target)?;
        // The predecessor is the slot before, or (at slot 0, or in an
        // empty leaf) the last entry of an earlier leaf; the entry is this
        // slot, or (when every key here sorts below the target) the first
        // entry of a later leaf.
        let pred = match slot.checked_sub(1) {
            Some(p) => Some(read(view, EntryLoc { leaf, slot: p as u16 })?),
            None => self.last_before(pool, leaf, read)?,
        };
        let entry = if slot < view.len() {
            Some(read(view, EntryLoc { leaf, slot: slot as u16 })?)
        } else {
            self.first_from(pool, leaf + 1, read)?
        };
        Ok((entry, pred))
    }

    /// The first entry of the first non-empty leaf at or after `leaf`.
    fn first_from<S: PageStore, T>(
        &self,
        pool: &BufferPool<S>,
        mut leaf: u32,
        read: &mut impl FnMut(&LeafView, EntryLoc) -> StorageResult<T>,
    ) -> StorageResult<Option<T>> {
        while leaf < self.leaf_count {
            let view = self.leaf_view(pool, leaf)?;
            if !view.is_empty() {
                return read(&view, EntryLoc { leaf, slot: 0 }).map(Some);
            }
            leaf += 1;
        }
        Ok(None)
    }

    /// The last entry of the last non-empty leaf before `leaf`.
    fn last_before<S: PageStore, T>(
        &self,
        pool: &BufferPool<S>,
        mut leaf: u32,
        read: &mut impl FnMut(&LeafView, EntryLoc) -> StorageResult<T>,
    ) -> StorageResult<Option<T>> {
        while leaf > 0 {
            leaf -= 1;
            let view = self.leaf_view(pool, leaf)?;
            if !view.is_empty() {
                return read(&view, EntryLoc { leaf, slot: view.len() as u16 - 1 }).map(Some);
            }
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
    /// scan: one descent, then each leaf read once (not once per entry).
    /// The oracle of [`TreeCursor::walk_from`], which the query path uses
    /// instead: it starts from a cursor's pinned leaf and copies nothing.
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
            let begin = if leaf == start { view.lower_bound(low)? } else { 0 };
            for slot in begin..view.len() {
                let entry = view.entry(EntryLoc { leaf, slot: slot as u16 })?;
                if entry.key.as_slice() >= high {
                    return Ok(out);
                }
                out.push(entry);
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
    /// Total seeks answered: `seek_geq` probes and `walk_from` starts.
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
        self.seek_geq_by(pool, target, LeafView::entry)
    }

    /// [`TreeCursor::seek_geq`] that reads each answer entry with `read`
    /// while the entry's leaf is pinned, so a caller that needs only part
    /// of an entry (the RDIL probe wants the key) copies nothing else.
    /// Same seek, same counters, same pages touched.
    pub fn seek_geq_by<S: PageStore, T>(
        &mut self,
        pool: &BufferPool<S>,
        target: &[u8],
        mut read: impl FnMut(&LeafView, EntryLoc) -> StorageResult<T>,
    ) -> StorageResult<(Option<T>, Option<T>)> {
        self.position(pool, target)?;
        let view = self.view.as_ref().expect("a seek pins a leaf");
        self.tree.probe_view(pool, self.leaf, view, target, &mut read)
    }

    /// A range walk started from the cursor: seeks to the first key
    /// `>= low` exactly as [`TreeCursor::seek_geq`] does (same pinned-leaf
    /// paths, same counters), then hands `visit` each entry's key and value
    /// in key order, borrowed from the pinned leaf, until `visit` returns
    /// `false` or the tree ends. Each leaf is read once, and the cursor
    /// stays on the last one, so the next seek starts where the walk
    /// stopped. Visiting the entries of `[low, high)` yields exactly
    /// [`SortedKv::range`].
    pub fn walk_from<S: PageStore>(
        &mut self,
        pool: &BufferPool<S>,
        low: &[u8],
        mut visit: impl FnMut(&[u8], &[u8]) -> StorageResult<bool>,
    ) -> StorageResult<()> {
        self.position(pool, low)?;
        let mut view = self.view.take().expect("a seek pins a leaf");
        let mut slot = view.lower_bound(low)?;
        loop {
            while slot < view.len() {
                let (key, value) = view.key_value(slot)?;
                if !visit(key, value)? {
                    self.view = Some(view);
                    return Ok(());
                }
                slot += 1;
            }
            if self.leaf + 1 >= self.tree.leaf_count {
                self.view = Some(view);
                return Ok(());
            }
            self.leaf += 1;
            view = self.tree.leaf_view(pool, self.leaf)?;
            slot = 0;
        }
    }

    /// Pins the leaf a seek for `target` answers from — the pinned one, a
    /// sibling at most [`MAX_SIBLING_HOPS`] away, or the descent's — and
    /// counts the seek as exactly one of the three.
    fn position<S: PageStore>(&mut self, pool: &BufferPool<S>, target: &[u8]) -> StorageResult<()> {
        self.stats.probes += 1;
        // Where the target sorts against the pinned leaf's first key;
        // `None` when nothing (or an empty leaf) is pinned.
        let at_or_after_first = match &self.view {
            Some(view) if !view.is_empty() => Some(target >= view.key(0)?),
            _ => None,
        };
        if at_or_after_first == Some(true) {
            // Serving in place is only sound when the pinned leaf's key
            // range starts at or before the target; descend() can never
            // land on an earlier leaf in that case.
            let mut leaf = self.leaf;
            let mut view = self.view.take().expect("forward path holds a pinned view");
            let mut hops = 0u32;
            loop {
                let contained = view.last_key()?.is_some_and(|last| target <= last);
                if contained || leaf + 1 >= self.tree.leaf_count {
                    self.stats.seeks_forward += 1;
                    self.leaf = leaf;
                    self.view = Some(view);
                    return Ok(());
                }
                if hops >= MAX_SIBLING_HOPS {
                    break; // too far ahead — a fresh descent is cheaper
                }
                leaf += 1;
                hops += 1;
                view = self.tree.leaf_view(pool, leaf)?;
            }
        } else if at_or_after_first == Some(false) && self.leaf > 0 {
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
                let covers = leaf == 0 || (!view.is_empty() && view.key(0)? <= target);
                if covers {
                    self.stats.seeks_backward += 1;
                    self.leaf = leaf;
                    self.view = Some(view);
                    return Ok(());
                }
            }
        }
        // Slow path: first seek, or a long jump in either direction.
        self.stats.descents += 1;
        let leaf = self.tree.interior.descend(pool, target)?;
        self.view = Some(self.tree.leaf_view(pool, leaf)?);
        self.leaf = leaf;
        Ok(())
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

    /// A one-page leaf written into its own segment and opened.
    fn view_of(page: &[u8]) -> StorageResult<LeafView> {
        let mut pool = BufferPool::new(MemStore::new(), 4);
        let seg = pool.store_mut().create_segment().unwrap();
        let off = pool.append_page(seg, page).unwrap();
        LeafView::parse(pool.read(PageId::new(seg, off))?)
    }

    /// A leaf page from raw little-endian `u16` directory slots and bytes.
    fn leaf_bytes(dir: &[u16], body: &[u8]) -> Vec<u8> {
        let mut page: Vec<u8> = dir.iter().flat_map(|o| o.to_le_bytes()).collect();
        page.extend_from_slice(body);
        page
    }

    fn is_corrupt<T: std::fmt::Debug>(r: StorageResult<T>) -> bool {
        matches!(r, Err(StorageError::Corrupt { .. }))
    }

    #[test]
    fn leaf_directory_layout_is_exact() {
        // Two entries: a 2-slot directory plus the closing offset, then
        // `[klen][key][value]` back to back; values run to the next offset.
        let (pool, tree) = build_tree(2);
        let page = pool.read(PageId::new(tree.segment, 0)).unwrap();
        let (k0, v0) = kv(0);
        let (k1, v1) = kv(1);
        let e0 = 6 + 2 + k0.len() + v0.len();
        let e1 = e0 + 2 + k1.len() + v1.len();
        let mut body = Vec::new();
        for (k, v) in [(&k0, &v0), (&k1, &v1)] {
            body.extend_from_slice(&(k.len() as u16).to_le_bytes());
            body.extend_from_slice(k);
            body.extend_from_slice(v);
        }
        let want = leaf_bytes(&[6, e0 as u16, e1 as u16], &body);
        assert_eq!(&page[..want.len()], &want[..]);
        assert!(page[want.len()..].iter().all(|&b| b == 0));
        // The empty tree's one leaf is the two bytes `[2, 0]`.
        let mut pool = BufferPool::new(MemStore::new(), 4);
        let empty = SortedKv::build(&mut pool, &[]).unwrap();
        let page = pool.read(PageId::new(empty.segment, 0)).unwrap();
        assert_eq!(&page[..2], &[2, 0]);
        assert_eq!(LeafView::parse(page).unwrap().len(), 0);
    }

    #[test]
    fn corrupt_leaf_is_an_error_not_a_panic() {
        // `off_0` odd, below 2, or past the page: refused on open.
        for off0 in [3u16, 0, 1, PAGE_SIZE as u16 + 2, u16::MAX - 1] {
            assert!(is_corrupt(view_of(&leaf_bytes(&[off0], &[]))), "off_0 = {off0}");
        }
        // A directory that fits but whose slots lie: every accessor that
        // reads the bad slot fails typed, and so does a search through it.
        let entry = [1u8, 0, b'k', b'v']; // klen 1, key "k", value "v"
        let cases: [(&str, Vec<u16>, Vec<u8>, usize); 4] = [
            // n = 2; slot 1 starts at byte 2, inside the directory.
            ("offset into the directory", vec![6, 2, 10], [entry, entry].concat(), 1),
            // n = 2; slot 1 spans 10..8.
            ("entry end before its start", vec![6, 10, 8], [entry, entry].concat(), 1),
            // n = 1; klen 100 in a 4-byte entry.
            ("klen past its entry", vec![4, 8], vec![100, 0, b'k', b'v'], 0),
            // n = 1; the closing offset is past the page.
            ("end past the page", vec![4, PAGE_SIZE as u16 + 8], entry.to_vec(), 0),
        ];
        for (what, dir, body, slot) in cases {
            let view = view_of(&leaf_bytes(&dir, &body)).unwrap();
            assert!(is_corrupt(view.key(slot)), "{what}: key");
            assert!(is_corrupt(view.value(slot)), "{what}: value");
            assert!(is_corrupt(view.entry(EntryLoc { leaf: 0, slot: slot as u16 })), "{what}");
            assert!(is_corrupt(view.lower_bound(b"zzz")), "{what}: search");
        }
        // A slot index past the directory is an error, not a panic.
        let view = view_of(&leaf_bytes(&[4, 8], &entry)).unwrap();
        assert_eq!(view.key(0).unwrap(), b"k");
        assert_eq!(view.value(0).unwrap(), b"v");
        assert_eq!(view.last_key().unwrap(), Some(&b"k"[..]));
        assert!(is_corrupt(view.key(1)));

        // And through the probe path: corrupt the tree's leaf in place.
        let (mut pool, tree) = build_tree(100);
        pool.write_page(PageId::new(tree.segment, 0), &leaf_bytes(&[9], &[])).unwrap();
        assert!(is_corrupt(tree.lowest_geq(&pool, b"key000000")));
        assert!(is_corrupt(tree.cursor().seek_geq(&pool, b"key000000")));
        assert!(is_corrupt(tree.range(&pool, b"", b"zzz")));
        assert!(is_corrupt(tree.cursor().walk_from(&pool, b"", |_, _| Ok(true))));
    }

    /// A walk that starts inside the pinned leaf reads no page, a walk
    /// across leaves reads each once, and the next seek starts from where
    /// the walk stopped.
    #[test]
    fn walk_from_starts_on_the_pinned_leaf() {
        let (pool, tree) = build_tree(2000);
        let mut cur = tree.cursor();
        cur.seek_geq(&pool, &kv(500).0).unwrap();
        pool.reset_stats();
        let mut keys = Vec::new();
        let high = kv(510).0;
        cur.walk_from(&pool, &kv(501).0, |k, v| {
            let more = k < high.as_slice();
            if more {
                keys.push((k.to_vec(), v.to_vec()));
            }
            Ok(more)
        })
        .unwrap();
        assert_eq!(keys, (501..510).map(kv).collect::<Vec<_>>());
        assert_eq!(pool.stats().logical_reads(), 0, "served off the pinned leaf");

        let mut seen = 0u32;
        cur.walk_from(&pool, &kv(0).0, |_, _| {
            seen += 1;
            Ok(true)
        })
        .unwrap();
        assert_eq!(seen, 2000);
        let s = cur.stats();
        assert_eq!((s.probes, s.descents), (3, 1), "{s:?}");
        assert!(
            pool.stats().logical_reads() <= (tree.leaf_count + MAX_SIBLING_HOPS) as u64,
            "{} reads over {} leaves",
            pool.stats().logical_reads(),
            tree.leaf_count
        );
        // The cursor now pins the last leaf: a seek there reads nothing.
        pool.reset_stats();
        let (e, _) = cur.seek_geq(&pool, &kv(1999).0).unwrap();
        assert_eq!(e.unwrap().key, kv(1999).0);
        assert_eq!(pool.stats().logical_reads(), 0);
    }

    use proptest::prelude::*;

    /// Overwrites: mostly into the directory and the first entries, where
    /// a flipped byte moves offsets, and anywhere in the page otherwise.
    fn damage() -> impl Strategy<Value = Vec<(usize, u8)>> {
        proptest::collection::vec(
            (prop_oneof![3 => 0usize..96, 1 => 0usize..PAGE_SIZE], any::<u8>()),
            1..8,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// Random bytes of one leaf overwritten: every probe, cursor seek,
        /// range scan and cursor range walk through the tree ends `Ok` or
        /// `Corrupt`, never in a panic or another error.
        #[test]
        fn damaged_leaf_never_panics(
            leaf in 0u32..6,
            bytes in damage(),
            targets in proptest::collection::vec(0u32..2400, 1..24),
        ) {
            let (mut pool, tree) = build_tree(2000);
            prop_assume!(leaf < tree.leaf_count);
            let id = PageId::new(tree.segment, leaf);
            let mut page = pool.read(id).unwrap().to_vec();
            for &(at, byte) in &bytes {
                page[at] = byte;
            }
            pool.write_page(id, &page).unwrap();
            let typed =
                |r: StorageResult<()>| matches!(r, Ok(()) | Err(StorageError::Corrupt { .. }));
            let mut cur = tree.cursor();
            for &t in &targets {
                let (k, _) = kv(t);
                prop_assert!(typed(tree.lowest_geq(&pool, &k).map(drop)), "lowest_geq {t}");
                prop_assert!(typed(cur.seek_geq(&pool, &k).map(drop)), "seek_geq {t}");
                let (high, _) = kv(t + 300);
                prop_assert!(typed(tree.range(&pool, &k, &high).map(drop)), "range from {t}");
                let walk = cur.walk_from(&pool, &k, |key, _| Ok(key < high.as_slice()));
                prop_assert!(typed(walk), "walk from {t}");
            }
        }
    }
}
