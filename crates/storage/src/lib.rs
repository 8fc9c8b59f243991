//! Paged storage substrate for the XRANK indexes.
//!
//! The paper's experiments ran against file-system resident inverted lists
//! and a hand-built disk B+-tree, on a machine with a cold OS cache
//! (Section 5.1), so their performance results are dominated by the
//! *access pattern*: DIL wins by scanning lists sequentially, RDIL wins (on
//! correlated keywords) by doing a few random index probes, and loses (on
//! uncorrelated keywords) by doing many. To reproduce those shapes
//! deterministically on modern hardware — where the page cache would
//! swallow a 100 MB dataset whole — this crate models storage explicitly:
//!
//! * [`PageStore`] — an address space of fixed-size pages grouped into
//!   *segments* (one segment per inverted list / index, mirroring the
//!   paper's one-file-per-list layout). [`MemStore`] keeps pages in memory;
//!   [`FileStore`] puts each segment in a real file.
//! * [`BufferPool`] — an LRU cache over a store that records an
//!   [`IoStats`] ledger. A miss is *sequential* if it reads the page right
//!   after the previous physical read **in the same segment** (modeling
//!   per-file readahead), otherwise *random*. [`CostModel`] converts the
//!   ledger into simulated I/O time; the default 25:1 random:sequential
//!   ratio reflects early-2000s disks.
//! * [`btree`] — a bulk-loaded B+-tree over byte-string keys (the
//!   order-preserving Dewey encodings), with the `lowest_geq` +
//!   predecessor probe of Section 4.3.2 and bidirectional leaf cursors.
//! * [`hash`] — a paged static hash index (u64 key → bytes), the lookup
//!   structure of the Naive-Rank baseline (Section 5.1).
//!
//! Index builds are offline bulk loads, as in the paper (document-
//! granularity updates rebuild the affected lists; Section 4.5).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod btree;
mod error;
mod fault;
pub mod hash;
mod pool;
mod resilience;
mod stats;
mod store;
pub mod wire;

pub use btree::CursorStats;
pub use error::{crc32, StorageError, StorageResult};
pub use fault::{FaultAt, FaultKind, FaultRule, FaultStore};
pub use pool::{BufferPool, EvictionCounters, PageRef, SegmentIo, STREAMS_PER_SEGMENT};
pub use resilience::{BreakerConfig, FaultCounters, FaultPolicy, RetryPolicy};
pub use stats::{AtomicIoStats, CostModel, IoStats, StatsScope};
pub use store::{
    FileStore, MemStore, PageId, PageStore, SegmentId, PAGE_SIZE, PAGE_TRAILER_LEN,
    PAGE_TRAILER_MAGIC,
};
