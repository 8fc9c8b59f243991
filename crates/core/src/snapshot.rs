//! Immutable index segments and the pinned-snapshot read protocol of the
//! update pipeline.
//!
//! A [`Segment`] is a sealed, never-mutated engine over the batch of
//! documents one `commit` made searchable (or one compaction folded
//! together). The set of live segments — plus, per segment, the set of
//! document URIs deleted *since it sealed* — forms a [`Snapshot`]. The
//! pipeline publishes snapshots by swapping one `Arc` behind a brief
//! `RwLock`; a reader clones that `Arc` once at query start
//! ([`crate::UpdatableXRank::pin`]) and then owns every index page,
//! tombstone set, and collection it needs for the whole query, no matter
//! how many commits and compactions land mid-flight. Nothing a writer
//! does can mutate a pinned snapshot: deletes and commits build *new*
//! [`SegmentView`]s around the shared immutable [`Segment`]s
//! (copy-on-write tombstone sets), and compaction replaces whole
//! segments, whose `Arc`s stay alive until the last pin drops.

use crate::engine::XRankEngine;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use xrank_storage::{FileStore, PageId, PageStore, SegmentId, StorageResult, PAGE_SIZE};

/// The source text of a live document, kept beside each segment so
/// compaction can rebuild folded segments from scratch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum DocSource {
    /// An XML document (validated at add time).
    Xml(String),
    /// An HTML page (flattened to one element at index time).
    Html(String),
}

impl DocSource {
    /// Approximate in-memory footprint used for compaction sizing.
    pub(crate) fn bytes(&self) -> u64 {
        match self {
            DocSource::Xml(s) | DocSource::Html(s) => s.len() as u64,
        }
    }
}

/// A sealed, immutable segment: the engine, the documents it indexes, and
/// a stable id tying it to its on-disk directory (`seg-<id>/`).
pub(crate) struct Segment {
    /// Stable segment id (names the on-disk directory).
    pub id: u64,
    /// The sealed engine.
    pub engine: XRankEngine<FileStore>,
    /// Every document the segment indexes (URI → source), fixed at seal.
    pub docs: BTreeMap<String, DocSource>,
    /// Approximate source bytes (compaction sizing).
    pub bytes: u64,
}

impl Segment {
    pub(crate) fn new(
        id: u64,
        engine: XRankEngine<FileStore>,
        docs: BTreeMap<String, DocSource>,
    ) -> Self {
        let bytes = docs.values().map(DocSource::bytes).sum();
        Segment { id, engine, docs, bytes }
    }

    /// Total physical pages across the segment's store files.
    pub(crate) fn page_total(&self) -> u64 {
        let store = self.engine.pool().store();
        (0..store.segment_count()).map(|s| store.page_count(SegmentId(s)) as u64).sum()
    }

    /// Verifies the `flat`-th physical page (flat index across the store's
    /// segment files in order): a direct read off the medium, bypassing
    /// the page cache, so the checksum-and-trailer check exercises what is
    /// actually on disk. The scrubber's unit of work.
    pub(crate) fn verify_page(&self, flat: u64) -> StorageResult<()> {
        let store = self.engine.pool().store();
        let mut rest = flat;
        for s in 0..store.segment_count() {
            let seg = SegmentId(s);
            let pages = store.page_count(seg) as u64;
            if rest < pages {
                let mut buf = vec![0u8; PAGE_SIZE];
                return store.read_page(PageId::new(seg, rest as u32), &mut buf);
            }
            rest -= pages;
        }
        Ok(())
    }

    /// Per-document rank slices (URI → scores in element-id order), the
    /// warm-start seed compaction feeds the next build.
    pub(crate) fn rank_slices(&self, into: &mut std::collections::HashMap<String, Vec<f64>>) {
        let scores = &self.engine.rank_result().scores;
        for doc in self.engine.collection().docs() {
            let lo = doc.root as usize;
            let hi = lo + doc.element_count as usize;
            into.insert(doc.uri.clone(), scores[lo..hi].to_vec());
        }
    }
}

/// One segment as a particular snapshot sees it: the shared immutable
/// [`Segment`] plus the tombstones accumulated against it *by that
/// snapshot's time*. Later deletes produce new views with a fresh
/// tombstone `Arc`; existing pins keep reading the old one.
#[derive(Clone)]
pub(crate) struct SegmentView {
    pub seg: Arc<Segment>,
    pub tombstones: Arc<HashSet<String>>,
}

impl SegmentView {
    /// A view with no deletes yet.
    pub(crate) fn fresh(seg: Arc<Segment>) -> Self {
        SegmentView { seg, tombstones: Arc::new(HashSet::new()) }
    }

    /// Live (non-tombstoned) documents in this view.
    pub(crate) fn live_docs(&self) -> impl Iterator<Item = (&String, &DocSource)> {
        self.seg.docs.iter().filter(|(uri, _)| !self.tombstones.contains(*uri))
    }

    /// Whether `uri` is live in this view.
    pub(crate) fn contains_live(&self, uri: &str) -> bool {
        self.seg.docs.contains_key(uri) && !self.tombstones.contains(uri)
    }

    /// Copy-on-write: this view plus one more tombstone.
    pub(crate) fn with_tombstone(&self, uri: &str) -> Self {
        let mut t: HashSet<String> = (*self.tombstones).clone();
        t.insert(uri.to_string());
        SegmentView { seg: Arc::clone(&self.seg), tombstones: Arc::new(t) }
    }
}

/// An immutable published state of the index: an ordered set of segment
/// views. Readers pin one for the duration of a query (see
/// [`crate::UpdatableXRank::pin`]); writers never mutate a published
/// snapshot, they publish successors.
pub struct Snapshot {
    pub(crate) seq: u64,
    /// Oldest segment first; a URI is live in at most one view.
    pub(crate) views: Vec<SegmentView>,
}

impl Snapshot {
    /// The manifest sequence number this snapshot was published under
    /// (0 for the initial empty state).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Number of live segments.
    pub fn segment_count(&self) -> usize {
        self.views.len()
    }

    /// Number of live (searchable, non-tombstoned) documents.
    pub fn live_doc_count(&self) -> usize {
        self.views.iter().map(|v| v.live_docs().count()).sum()
    }

    /// Number of tombstoned documents awaiting compaction.
    pub fn tombstone_count(&self) -> usize {
        self.views.iter().map(|v| v.tombstones.len()).sum()
    }

    /// Total approximate source bytes outside the largest segment — the
    /// "delta" a compaction would fold (0 with ≤ 1 segment).
    pub fn delta_bytes(&self) -> u64 {
        let largest = self.views.iter().map(|v| v.seg.bytes).max().unwrap_or(0);
        let total: u64 = self.views.iter().map(|v| v.seg.bytes).sum();
        total - largest
    }

    /// The newest view holding `uri` live, if any.
    pub(crate) fn live_view_of(&self, uri: &str) -> Option<usize> {
        self.views.iter().rposition(|v| v.contains_live(uri))
    }
}
