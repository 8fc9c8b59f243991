//! Sharded, read-shared page cache with CLOCK eviction and
//! sequential/random miss classification.

use crate::error::StorageResult;
use crate::stats::{AtomicIoStats, IoStats};
use crate::store::{PageId, PageStore, SegmentId, PAGE_SIZE};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// A concurrent page cache over a [`PageStore`] that keeps the [`IoStats`]
/// ledger the experiments report.
///
/// The cache is split into N *shards* keyed by a hash of the [`PageId`];
/// each shard is an independently locked frame table with O(1) CLOCK
/// (second-chance) eviction, so concurrent readers only contend when they
/// touch the same shard. [`BufferPool::read`] takes `&self` and returns an
/// owned [`PageRef`] (an `Arc` of the page bytes), which lets any number of
/// query threads share one pool — and keeps a page alive for its reader
/// even if another thread evicts it a microsecond later.
///
/// Miss classification models OS readahead: each segment maintains up to
/// [`STREAMS_PER_SEGMENT`] active *read streams*. A physical read is
/// **sequential** when it fetches the page immediately following one of the
/// segment's stream positions (that stream then advances), and **random**
/// otherwise (a new stream starts, evicting the oldest). This lets several
/// inverted lists packed into one segment each scan sequentially — just as
/// a real kernel tracks readahead contexts per open file region — while
/// scattered B+-tree probes are charged as seeks. Stream state is keyed by
/// *segment* (in segment-hashed shard tables, separate from the page-hashed
/// frame shards) because adjacency is a per-segment notion; hashing it by
/// page would tear one scan's stream across shards and misclassify every
/// read. `clear_cache` (the paper's cold-cache start, Section 5.1) also
/// forgets stream positions.
///
/// Builders still go through `&mut self` ([`BufferPool::append_page`],
/// [`BufferPool::write_page`], [`BufferPool::store_mut`]): index
/// construction is single-threaded bulk loading, and exclusive access there
/// is what makes lock-free `&self` reads safe to reason about.
pub struct BufferPool<S: PageStore> {
    store: S,
    shards: Vec<Mutex<FrameShard>>,
    streams: Vec<Mutex<HashMap<SegmentId, SegStreams>>>,
    stats: AtomicIoStats,
    evictions: AtomicU64,
    hand_steps: AtomicU64,
}

/// Per-segment readahead state plus the physical-read tally for that
/// segment. The tally feeds the observability layer's per-segment
/// sequential/random gauges; it survives `clear_cache` (a cold start
/// forgets *positions*, not history) and is zeroed by `reset_stats`.
#[derive(Default)]
struct SegStreams {
    tails: VecDeque<u32>,
    seq: u64,
    rand: u64,
}

/// Physical-read counts for one segment, split by readahead
/// classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SegmentIo {
    /// Reads that rode an active readahead stream.
    pub seq_reads: u64,
    /// Reads charged as seeks.
    pub rand_reads: u64,
}

/// Maximum concurrent readahead streams tracked per segment.
pub const STREAMS_PER_SEGMENT: usize = 16;

/// An owned handle to a cached page. Cheap to clone (one `Arc`); derefs to
/// the page bytes. Holding one keeps the bytes alive independently of the
/// pool's eviction decisions.
#[derive(Debug, Clone)]
pub struct PageRef {
    data: Arc<[u8]>,
    fresh: bool,
}

impl PageRef {
    /// True when this pin performed the physical read that brought the
    /// page into the cache (false on cache hits). Integrity layers use
    /// this to verify page checksums once per physical read instead of
    /// once per pin: bytes served from the cache were verified when they
    /// came off the medium.
    pub fn fresh(&self) -> bool {
        self.fresh
    }
}

impl std::ops::Deref for PageRef {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl AsRef<[u8]> for PageRef {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

/// Eviction-work counters: `hand_steps / evictions` is the amortized CLOCK
/// scan cost, which stays O(1) regardless of pool capacity (the regression
/// test asserts this without timing anything).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictionCounters {
    /// Frames recycled to make room.
    pub evictions: u64,
    /// Clock-hand advances performed while hunting for victims.
    pub hand_steps: u64,
}

struct Slot {
    id: PageId,
    data: Arc<[u8]>,
    referenced: bool,
    occupied: bool,
}

struct FrameShard {
    map: HashMap<PageId, usize>,
    slots: Vec<Slot>,
    hand: usize,
    capacity: usize,
}

impl FrameShard {
    fn new(capacity: usize) -> Self {
        FrameShard { map: HashMap::new(), slots: Vec::new(), hand: 0, capacity }
    }

    fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.hand = 0;
    }

    /// Caches `data` under `id`, recycling a frame with the CLOCK hand if
    /// the shard is at capacity. Amortized O(1): each hand step either
    /// finds a victim or spends one referenced bit that a hit paid for.
    fn install(
        &mut self,
        id: PageId,
        data: Arc<[u8]>,
        evictions: &AtomicU64,
        hand_steps: &AtomicU64,
    ) {
        if self.slots.len() < self.capacity {
            self.slots.push(Slot { id, data, referenced: true, occupied: true });
            self.map.insert(id, self.slots.len() - 1);
            return;
        }
        let slot = loop {
            hand_steps.fetch_add(1, Ordering::Relaxed);
            let i = self.hand;
            self.hand = (self.hand + 1) % self.slots.len();
            let s = &mut self.slots[i];
            if !s.occupied {
                break i;
            }
            if s.referenced {
                s.referenced = false;
            } else {
                break i;
            }
        };
        if self.slots[slot].occupied {
            evictions.fetch_add(1, Ordering::Relaxed);
            self.map.remove(&self.slots[slot].id);
        }
        self.slots[slot] = Slot { id, data, referenced: true, occupied: true };
        self.map.insert(id, slot);
    }
}

/// Locks a mutex, ignoring poisoning: shard state is a cache (plus
/// monotonic counters), so a panicking reader cannot leave it logically
/// inconsistent for others.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn default_shard_count() -> usize {
    std::thread::available_parallelism()
        .map(|p| p.get() * 4)
        .unwrap_or(8)
        .next_power_of_two()
        .clamp(1, 64)
}

impl<S: PageStore> BufferPool<S> {
    /// Wraps `store` with a cache of `capacity` pages (minimum 1), sharded
    /// for concurrent access (shard count scales with hardware threads).
    pub fn new(store: S, capacity: usize) -> Self {
        Self::with_shards(store, capacity, default_shard_count())
    }

    /// Wraps `store` with an explicit shard count (rounded up to a power of
    /// two). `capacity` is split evenly across shards, rounding up, so the
    /// pool holds at least `capacity` pages. One shard gives the exact
    /// global-capacity behaviour the single-threaded ledger tests pin down.
    pub fn with_shards(store: S, capacity: usize, shards: usize) -> Self {
        let nshards = shards.max(1).next_power_of_two();
        let per_shard = capacity.max(1).div_ceil(nshards).max(1);
        BufferPool {
            store,
            shards: (0..nshards).map(|_| Mutex::new(FrameShard::new(per_shard))).collect(),
            streams: (0..nshards).map(|_| Mutex::new(HashMap::new())).collect(),
            stats: AtomicIoStats::default(),
            evictions: AtomicU64::new(0),
            hand_steps: AtomicU64::new(0),
        }
    }

    /// The wrapped store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Mutable access to the wrapped store (index builders allocate
    /// segments through this; builder writes bypass the read cache).
    pub fn store_mut(&mut self) -> &mut S {
        &mut self.store
    }

    /// Number of frame shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total page capacity across shards.
    pub fn capacity(&self) -> usize {
        self.shards.len() * lock(&self.shards[0]).capacity
    }

    fn shard_index(&self, id: PageId) -> usize {
        let h = (((id.segment.0 as u64) << 32) | id.page as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 33) as usize & (self.shards.len() - 1)
    }

    fn stream_index(&self, segment: SegmentId) -> usize {
        let h = (segment.0 as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 33) as usize & (self.streams.len() - 1)
    }

    /// Reads a page through the cache, returning an owned handle. A failed
    /// physical read (I/O error, checksum mismatch, torn write, out of
    /// range) is never cached and surfaces on its first failure as its
    /// typed error; a later read of the page goes back to the store.
    pub fn read(&self, id: PageId) -> StorageResult<PageRef> {
        let si = self.shard_index(id);
        {
            let mut shard = lock(&self.shards[si]);
            if let Some(&slot) = shard.map.get(&id) {
                self.stats.add_hit();
                let s = &mut shard.slots[slot];
                s.referenced = true;
                return Ok(PageRef { data: Arc::clone(&s.data), fresh: false });
            }
        }
        // Physical read: classify against the segment's readahead streams.
        // The attempt is charged to the ledger even if the read then fails —
        // the seek happened.
        {
            let mut table = lock(&self.streams[self.stream_index(id.segment)]);
            let streams = table.entry(id.segment).or_default();
            let prev = id.page.wrapping_sub(1);
            if let Some(slot) = streams.tails.iter().position(|&tail| tail == prev) {
                self.stats.add_seq();
                streams.seq += 1;
                streams.tails.remove(slot);
            } else {
                self.stats.add_rand();
                streams.rand += 1;
                if streams.tails.len() >= STREAMS_PER_SEGMENT {
                    streams.tails.pop_front();
                }
            }
            streams.tails.push_back(id.page);
        }

        let mut data = vec![0u8; PAGE_SIZE];
        self.store.read_page(id, &mut data)?;
        let data: Arc<[u8]> = Arc::from(data);

        let mut shard = lock(&self.shards[si]);
        if let Some(&slot) = shard.map.get(&id) {
            // A concurrent reader cached it while we hit the store; adopt
            // the cached copy so all handles alias one allocation. The
            // concurrent reader's pin is the fresh one.
            let s = &mut shard.slots[slot];
            s.referenced = true;
            return Ok(PageRef { data: Arc::clone(&s.data), fresh: false });
        }
        shard.install(id, Arc::clone(&data), &self.evictions, &self.hand_steps);
        Ok(PageRef { data, fresh: true })
    }

    /// Appends a page to a segment via the store, counting the write.
    pub fn append_page(&mut self, segment: SegmentId, data: &[u8]) -> StorageResult<u32> {
        self.stats.add_write();
        self.store.append_page(segment, data)
    }

    /// Overwrites a page, invalidating any cached copy (even when the
    /// store write then fails — the cached bytes may no longer match what
    /// is on the medium).
    pub fn write_page(&mut self, id: PageId, data: &[u8]) -> StorageResult<()> {
        self.stats.add_write();
        {
            let mut shard = lock(&self.shards[self.shard_index(id)]);
            if let Some(slot) = shard.map.remove(&id) {
                let s = &mut shard.slots[slot];
                s.occupied = false;
                s.referenced = false;
                s.data = Arc::from(Vec::new());
            }
        }
        self.store.write_page(id, data)
    }

    /// Drops all cached pages and forgets read positions — the cold-cache
    /// starting state of the paper's experiments. Per-segment read tallies
    /// are kept: a cold start erases *state*, not *history*.
    pub fn clear_cache(&self) {
        for shard in &self.shards {
            lock(shard).clear();
        }
        for table in &self.streams {
            for streams in lock(table).values_mut() {
                streams.tails.clear();
            }
        }
    }

    /// Snapshot of the global ledger. (Wrap work in a
    /// [`crate::StatsScope`] for per-query attribution under concurrency.)
    pub fn stats(&self) -> IoStats {
        self.stats.snapshot()
    }

    /// Zeroes the ledger, eviction counters, and per-segment read tallies
    /// (cache contents are kept; combine with [`BufferPool::clear_cache`]
    /// for a cold run).
    pub fn reset_stats(&self) {
        self.stats.reset();
        self.evictions.store(0, Ordering::Relaxed);
        self.hand_steps.store(0, Ordering::Relaxed);
        for table in &self.streams {
            for streams in lock(table).values_mut() {
                streams.seq = 0;
                streams.rand = 0;
            }
        }
    }

    /// Per-segment physical-read tallies, sorted by segment id. Feeds the
    /// observability layer's `pool_segment_*_reads` gauges: the storage
    /// crate keeps plain counters and the engine publishes them at scrape
    /// time, so this crate stays dependency-free.
    pub fn segment_io(&self) -> Vec<(SegmentId, SegmentIo)> {
        let mut out = Vec::new();
        for table in &self.streams {
            for (&seg, streams) in lock(table).iter() {
                if streams.seq > 0 || streams.rand > 0 {
                    out.push((seg, SegmentIo { seq_reads: streams.seq, rand_reads: streams.rand }));
                }
            }
        }
        out.sort_by_key(|(seg, _)| *seg);
        out
    }

    /// Eviction-work counters (see [`EvictionCounters`]).
    pub fn eviction_counters(&self) -> EvictionCounters {
        EvictionCounters {
            evictions: self.evictions.load(Ordering::Relaxed),
            hand_steps: self.hand_steps.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;

    fn store_with_pages(n: u32) -> (MemStore, SegmentId) {
        let mut store = MemStore::new();
        let seg = store.create_segment().unwrap();
        for i in 0..n {
            store.append_page(seg, &[i as u8]).unwrap();
        }
        (store, seg)
    }

    fn pool_with_pages(n: u32, capacity: usize) -> (BufferPool<MemStore>, SegmentId) {
        let (store, seg) = store_with_pages(n);
        (BufferPool::new(store, capacity), seg)
    }

    #[test]
    fn sequential_scan_is_classified_sequential() {
        let (pool, seg) = pool_with_pages(10, 100);
        for i in 0..10 {
            pool.read(PageId::new(seg, i)).unwrap();
        }
        let s = pool.stats();
        assert_eq!(s.rand_reads, 1, "only the first read seeks");
        assert_eq!(s.seq_reads, 9);
        assert_eq!(s.cache_hits, 0);
    }

    #[test]
    fn interleaved_segments_stay_sequential_per_segment() {
        let mut store = MemStore::new();
        let a = store.create_segment().unwrap();
        let b = store.create_segment().unwrap();
        for i in 0..5 {
            store.append_page(a, &[i]).unwrap();
            store.append_page(b, &[i]).unwrap();
        }
        let pool = BufferPool::new(store, 100);
        for i in 0..5 {
            pool.read(PageId::new(a, i)).unwrap();
            pool.read(PageId::new(b, i)).unwrap();
        }
        let s = pool.stats();
        // one seek per segment; the rest ride each segment's readahead
        assert_eq!(s.rand_reads, 2);
        assert_eq!(s.seq_reads, 8);
    }

    #[test]
    fn interleaved_list_scans_within_one_segment_are_sequential() {
        // Two inverted lists packed into one segment at pages 0..5 and
        // 100..105, merged in lockstep: each list rides its own readahead
        // stream after the initial seek.
        let mut store = MemStore::new();
        let seg = store.create_segment().unwrap();
        for i in 0..200 {
            store.append_page(seg, &[i as u8]).unwrap();
        }
        let pool = BufferPool::new(store, 1024);
        for i in 0..5 {
            pool.read(PageId::new(seg, i)).unwrap();
            pool.read(PageId::new(seg, 100 + i)).unwrap();
        }
        let s = pool.stats();
        assert_eq!(s.rand_reads, 2, "one seek per list");
        assert_eq!(s.seq_reads, 8);
    }

    #[test]
    fn random_probes_are_classified_random() {
        let (pool, seg) = pool_with_pages(10, 100);
        for i in [7u32, 2, 9, 0, 5] {
            pool.read(PageId::new(seg, i)).unwrap();
        }
        assert_eq!(pool.stats().rand_reads, 5);
        assert_eq!(pool.stats().seq_reads, 0);
    }

    #[test]
    fn cache_hits_do_not_touch_store() {
        let (pool, seg) = pool_with_pages(3, 100);
        pool.read(PageId::new(seg, 0)).unwrap();
        pool.read(PageId::new(seg, 0)).unwrap();
        pool.read(PageId::new(seg, 0)).unwrap();
        let s = pool.stats();
        assert_eq!(s.physical_reads(), 1);
        assert_eq!(s.cache_hits, 2);
    }

    #[test]
    fn clock_evicts_unreferenced_frame_single_shard() {
        let (store, seg) = store_with_pages(4);
        let pool = BufferPool::with_shards(store, 2, 1);
        pool.read(PageId::new(seg, 0)).unwrap();
        pool.read(PageId::new(seg, 1)).unwrap(); // cache = {0,1}
        pool.read(PageId::new(seg, 2)).unwrap(); // second-chance sweep evicts 0
        pool.read(PageId::new(seg, 1)).unwrap(); // hit
        pool.read(PageId::new(seg, 0)).unwrap(); // miss again
        let s = pool.stats();
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.physical_reads(), 4);
        assert!(pool.eviction_counters().evictions >= 2);
    }

    #[test]
    fn ledger_identical_across_shard_counts() {
        // The pre-refactor single-owner pool produced this exact ledger on
        // this workload; the sharded pool must reproduce it for any shard
        // count when run single-threaded (determinism satellite).
        let mut expected = None;
        for shards in [1usize, 4, 16] {
            let (store, seg) = store_with_pages(64);
            let pool = BufferPool::with_shards(store, 1024, shards);
            for i in 0..32 {
                pool.read(PageId::new(seg, i)).unwrap(); // sequential scan
            }
            for i in [40u32, 3, 57, 12, 40, 3] {
                pool.read(PageId::new(seg, i)).unwrap(); // probes; 3/12 and repeats hit
            }
            for i in 32..40 {
                pool.read(PageId::new(seg, i)).unwrap(); // resume the scan
            }
            let s = pool.stats();
            assert_eq!(
                s,
                *expected.get_or_insert(s),
                "shard count {shards} changed the single-threaded ledger"
            );
        }
        let s = expected.unwrap();
        assert_eq!((s.rand_reads, s.seq_reads, s.cache_hits), (3, 39, 4));
    }

    #[test]
    fn eviction_cost_does_not_grow_with_capacity() {
        // Counter-based O(1) regression: a pure scan of 4×capacity distinct
        // pages forces 3×capacity evictions; amortized CLOCK spends ≤ ~2
        // hand steps per eviction at *any* capacity. The old min_by_key
        // scan did `capacity` frame visits per eviction and would blow the
        // constant bound as capacity grows.
        let mut per_eviction = Vec::new();
        for capacity in [16u32, 256, 2048] {
            let (store, seg) = store_with_pages(capacity * 4);
            let pool = BufferPool::with_shards(store, capacity as usize, 1);
            for i in 0..capacity * 4 {
                pool.read(PageId::new(seg, i)).unwrap();
            }
            let c = pool.eviction_counters();
            assert_eq!(c.evictions, capacity as u64 * 3);
            assert!(
                c.hand_steps <= 3 * c.evictions,
                "capacity {capacity}: {} hand steps for {} evictions",
                c.hand_steps,
                c.evictions
            );
            per_eviction.push(c.hand_steps as f64 / c.evictions as f64);
        }
        let (small, large) = (per_eviction[0], per_eviction[2]);
        assert!(
            large <= small * 1.5 + 0.5,
            "eviction cost grew with capacity: {per_eviction:?}"
        );
    }

    #[test]
    fn clear_cache_forgets_positions() {
        let (pool, seg) = pool_with_pages(4, 100);
        pool.read(PageId::new(seg, 0)).unwrap();
        pool.read(PageId::new(seg, 1)).unwrap();
        pool.clear_cache();
        // Re-reading page 2 right after 1 would have been sequential, but
        // the cold start forgot the position.
        pool.read(PageId::new(seg, 2)).unwrap();
        assert_eq!(pool.stats().rand_reads, 2);
    }

    #[test]
    fn write_invalidates_cache() {
        let (mut pool, seg) = pool_with_pages(2, 100);
        pool.read(PageId::new(seg, 0)).unwrap();
        pool.write_page(PageId::new(seg, 0), b"new").unwrap();
        let data = pool.read(PageId::new(seg, 0)).unwrap();
        assert_eq!(&data[..3], b"new");
        assert_eq!(pool.stats().writes, 1);
    }

    #[test]
    fn read_returns_page_contents() {
        let (pool, seg) = pool_with_pages(3, 100);
        assert_eq!(pool.read(PageId::new(seg, 2)).unwrap()[0], 2);
    }

    #[test]
    fn page_ref_survives_eviction() {
        let (store, seg) = store_with_pages(4);
        let pool = BufferPool::with_shards(store, 1, 1);
        let held = pool.read(PageId::new(seg, 0)).unwrap();
        pool.read(PageId::new(seg, 1)).unwrap(); // evicts page 0's frame
        pool.read(PageId::new(seg, 2)).unwrap();
        assert_eq!(held[0], 0, "handle outlives the frame");
    }

    #[test]
    fn failed_reads_propagate_and_are_not_cached() {
        use crate::fault::{FaultAt, FaultKind, FaultRule, FaultStore};
        let mut store = FaultStore::new(MemStore::new());
        let seg = store.create_segment().unwrap();
        store.append_page(seg, &[9u8; 8]).unwrap();
        let pool = BufferPool::with_shards(store, 16, 1);
        pool.store().inject(FaultRule::new(FaultKind::ReadError, FaultAt::Always).times(1));
        assert!(pool.read(PageId::new(seg, 0)).is_err());
        // The failure was not cached: the next read reaches the store and
        // succeeds.
        let page = pool.read(PageId::new(seg, 0)).unwrap();
        assert_eq!(page[0], 9);
        assert_eq!(pool.stats().cache_hits, 0);
    }

    /// Deterministic per-thread page sequence (splitmix-style).
    fn page_sequence(seed: u64, len: usize, pages: u32) -> Vec<u32> {
        let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % pages as u64) as u32
            })
            .collect()
    }

    #[test]
    fn concurrent_reads_conserve_stats_and_content() {
        const THREADS: u64 = 8;
        const READS: usize = 2_000;
        const PAGES: u32 = 64;
        let mut store = MemStore::new();
        let seg = store.create_segment().unwrap();
        for i in 0..PAGES {
            store.append_page(seg, &[i as u8; 32]).unwrap();
        }
        // Tiny capacity: every thread continuously evicts under every other
        // thread's feet.
        let pool = BufferPool::with_shards(store, 8, 4);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let pool = &pool;
                scope.spawn(move || {
                    for p in page_sequence(t + 1, READS, PAGES) {
                        let page = pool.read(PageId::new(seg, p)).unwrap();
                        assert_eq!(&page[..32], &[p as u8; 32], "torn page content");
                        assert!(page[32..].iter().all(|&b| b == 0));
                    }
                });
            }
        });
        let s = pool.stats();
        assert_eq!(
            s.logical_reads(),
            THREADS * READS as u64,
            "every read recorded exactly one hit or miss"
        );
        assert!(s.cache_hits > 0 && s.physical_reads() >= PAGES as u64);
    }

    #[test]
    fn clear_and_reset_race_free_under_readers() {
        const PAGES: u32 = 32;
        let mut store = MemStore::new();
        let seg = store.create_segment().unwrap();
        for i in 0..PAGES {
            store.append_page(seg, &[i as u8; 16]).unwrap();
        }
        let pool = BufferPool::with_shards(store, 16, 4);
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let pool = &pool;
                scope.spawn(move || {
                    for p in page_sequence(t + 11, 1_000, PAGES) {
                        let page = pool.read(PageId::new(seg, p)).unwrap();
                        assert_eq!(page[0], p as u8);
                    }
                });
            }
            let pool = &pool;
            scope.spawn(move || {
                for i in 0..200 {
                    if i % 2 == 0 {
                        pool.clear_cache();
                    } else {
                        pool.reset_stats();
                    }
                    std::thread::yield_now();
                }
            });
        });
        // Ledger still sane after concurrent resets: counters are
        // non-contradictory (hits require some page to have been cached).
        let s = pool.stats();
        assert!(s.logical_reads() <= 4 * 1_000);
    }
}
