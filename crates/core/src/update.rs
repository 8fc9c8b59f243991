//! Document-granularity updates (paper, Section 4.5) as a crash-safe
//! segmented pipeline.
//!
//! "Document-granularity updates (i.e., adding or deleting documents) can
//! be handled exactly like in traditional inverted lists ... because DIL,
//! RDIL, and HDIL do not replicate ancestor information, and because the
//! first component of the Dewey IDs contains the document ID (which can be
//! used for deletion)."
//!
//! [`UpdatableXRank`] realizes that with an LSM-style pipeline of
//! immutable sealed segments behind an atomically-swapped, versioned,
//! CRC-checked manifest (see [`crate::snapshot`] and [`crate::manifest`]):
//!
//! * **adds** are staged and become searchable at
//!   [`UpdatableXRank::commit`], which builds the *next segment* off to
//!   the side (through `build_persistent`'s staged-write + fsync + rename)
//!   and publishes it with a single manifest swap;
//! * **deletes** are immediate per-segment tombstones: hits from
//!   tombstoned documents are filtered at presentation time (the Dewey
//!   ID's leading document component identifies them) and their postings
//!   are physically dropped at the next compaction;
//! * **reads** pin a snapshot `Arc` for the whole query —
//!   [`UpdatableXRank::search`] takes `&self` and runs concurrently with
//!   any number of commits and compactions, which only ever publish *new*
//!   snapshots;
//! * [`UpdatableXRank::compact`] folds every segment (plus staged docs)
//!   into one: tombstoned postings disappear, cross-segment hyperlinks
//!   resolve, and ElemRank is recomputed globally — warm-started from the
//!   previous segments' rank vectors through the seeded CSR kernel
//!   ([`xrank_rank::elem_rank_seeded`]), so the rebuild converges in a
//!   fraction of the cold sweeps. [`UpdatableXRank::merge_small`] is the
//!   background variant folding only small segments (see
//!   [`crate::Compactor`]).
//!
//! Crash safety: every mutation builds its files off to the side and
//! publishes with one atomic `CURRENT` rename. Recovery
//! ([`UpdatableXRank::open`]) returns to the last *published* snapshot at
//! any kill point, which the deterministic [`CrashPoint`] injection hook
//! proves step by step (`crates/core/tests/update_crash.rs`).
//!
//! Element-granularity insertion (renumbering sibling Dewey IDs, paper's
//! reference [32]) is future work here exactly as it was in the paper.
//!
//! The lifecycle, with the knobs and their defaults:
//!
//! ```no_run
//! use std::sync::Arc;
//! use std::time::Duration;
//! use xrank_core::{
//!     CompactionPolicy, Compactor, EngineConfig, ScrubPolicy, Scrubber, SyncPolicy,
//!     UpdatableXRank, WalConfig,
//! };
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = EngineConfig {
//!     // WAL: enabled + fsync-per-append by default. GroupCommit(d)
//!     // amortizes fsyncs (loss window <= d on a kill); enabled: false
//!     // restores pre-log semantics.
//!     wal: WalConfig { enabled: true, sync: SyncPolicy::Always },
//!     ..EngineConfig::default()
//! };
//! let index = Arc::new(UpdatableXRank::open("/tmp/idx", config)?);
//! index.add_xml("doc-1", "<doc><t>hello</t></doc>")?; // staged
//! let stats = index.commit()?; // sealed + published
//! index.delete("doc-0")?; // tombstoned immediately
//! let hits = index.search("hello", 10)?; // &self, never blocked
//! let _compactor = Compactor::spawn(&index, CompactionPolicy::default());
//! // Scrubber: how often and how many pages per chunk; the worker
//! // rebuilds a segment it quarantines on the same tick.
//! let _scrub = Scrubber::spawn(
//!     &index,
//!     ScrubPolicy { interval: Duration::from_millis(250), pages_per_chunk: 256 },
//! );
//! # let _ = (stats, hits);
//! # Ok(())
//! # }
//! ```

use crate::engine::{EngineBuilder, EngineConfig, Strategy, XRankEngine};
use crate::manifest::{self, ManifestData, ManifestSegment};
use crate::results::{SearchHit, SearchResults};
use crate::snapshot::{DocSource, Segment, SegmentView, Snapshot};
use crate::telemetry::{SlowOpEntry, SlowOpLog, UpdateMetrics};
use crate::wal::{Wal, WalFault, WalRecord};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};
use xrank_obs::{
    DegradeReason, EventData, FlightRecorder, Gauge, MetricsRegistry, OpKind, OpOutcome,
    QueryTrace, Stage, Trace,
};
use xrank_query::{CancelToken, QueryError, QueryOptions};
use xrank_storage::{FileStore, StorageError};

/// Typed failure of an update-pipeline mutation. Queries keep their own
/// [`QueryError`]; this covers `commit`/`compact`/`delete`/`open`, which
/// touch the filesystem and rebuild indexes.
#[derive(Debug)]
pub enum UpdateError {
    /// An index build failed at the storage layer (failing or full device).
    Storage(StorageError),
    /// A filesystem operation on the segment/manifest layout failed.
    Io(std::io::Error),
    /// A staged document failed to re-parse at rebuild time.
    Xml(xrank_xml::XmlError),
    /// The deterministic crash-injection hook fired
    /// ([`UpdatableXRank::inject_crash`]): the mutation stopped dead at
    /// the armed step, exactly as a process kill there would, leaving
    /// the published state untouched.
    InjectedCrash(CrashPoint),
    /// A cancellable fold observed its [`CancelToken`] (pipeline
    /// shutdown) and stopped before publishing.
    Cancelled,
    /// A write-ahead-log append failed (failing or full device). The
    /// mutation was rejected *atomically* — nothing staged, nothing
    /// tombstoned, nothing published — and the pipeline keeps serving
    /// the state it had.
    WalAppend(StorageError),
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateError::Storage(e) => write!(f, "update storage error: {e}"),
            UpdateError::Io(e) => write!(f, "update I/O error: {e}"),
            UpdateError::Xml(e) => write!(f, "update XML error: {e}"),
            UpdateError::InjectedCrash(p) => write!(f, "injected crash at {p:?}"),
            UpdateError::Cancelled => write!(f, "update cancelled"),
            UpdateError::WalAppend(e) => {
                write!(f, "wal append failed, mutation rejected: {e}")
            }
        }
    }
}

impl std::error::Error for UpdateError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            UpdateError::Storage(e) | UpdateError::WalAppend(e) => Some(e),
            UpdateError::Io(e) => Some(e),
            UpdateError::Xml(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for UpdateError {
    fn from(e: StorageError) -> Self {
        UpdateError::Storage(e)
    }
}

impl From<std::io::Error> for UpdateError {
    fn from(e: std::io::Error) -> Self {
        UpdateError::Io(e)
    }
}

impl From<xrank_xml::XmlError> for UpdateError {
    fn from(e: xrank_xml::XmlError) -> Self {
        UpdateError::Xml(e)
    }
}

/// Deterministic kill points of the commit/compaction protocol, for the
/// crash-injection harness (the update-pipeline analogue of the storage
/// crate's `FaultStore`). Arm one with [`UpdatableXRank::inject_crash`];
/// the next mutation stops dead there — no in-memory publish, no cleanup
/// — modelling a process kill at that step. Reopening the directory must
/// then recover the last *published* snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Before the new segment's files are built (mid-segment-build).
    DuringSegmentBuild,
    /// After the segment sealed durably, before its manifest is written.
    AfterSegmentSeal,
    /// After `MANIFEST-<seq>` is written and fsynced, before the atomic
    /// `CURRENT` swap — the new manifest exists but was never published.
    AfterManifestWrite,
    /// After the `CURRENT` swap (durably published), before the in-memory
    /// snapshot installs. Reopening sees the *new* state.
    AfterPublish,
}

/// What one [`UpdatableXRank::commit`] did.
#[derive(Debug, Clone)]
pub struct CommitStats {
    /// Id of the sealed segment (`None` for an empty no-op commit).
    pub segment_id: Option<u64>,
    /// Documents made searchable.
    pub docs_added: usize,
    /// Tombstones added against older segments (replaced documents).
    pub tombstones_added: usize,
    /// The published manifest sequence number.
    pub seq: u64,
    /// Wall-clock time of the whole commit.
    pub wall: Duration,
    /// Per-stage timings (segment build, manifest swap).
    pub trace: Trace,
}

/// What one [`UpdatableXRank::compact`] / [`UpdatableXRank::merge_small`]
/// did.
#[derive(Debug, Clone)]
pub struct CompactStats {
    /// Segments folded away (0 when the fold was a no-op).
    pub segments_folded: usize,
    /// Live documents in the folded segment.
    pub docs_live: usize,
    /// Tombstoned postings physically dropped (tombstone GC).
    pub tombstones_dropped: usize,
    /// Power-iteration sweeps the rebuild's ElemRank took.
    pub rank_iterations: usize,
    /// Whether the rebuild's ElemRank was warm-started from the previous
    /// segments' rank vectors.
    pub rank_seeded: bool,
    /// The published manifest sequence number.
    pub seq: u64,
    /// Wall-clock time of the whole fold.
    pub wall: Duration,
    /// Per-stage timings (merge, segment build, manifest swap).
    pub trace: Trace,
}

/// A reader's lease on one published [`Snapshot`]: holding it guarantees
/// every segment, page, and tombstone set it references stays alive and
/// unchanged, no matter what writers publish meanwhile. Cheap (one `Arc`
/// clone + a gauge increment); drop releases the pin.
pub struct PinnedSnapshot {
    snap: Arc<Snapshot>,
    pins: Gauge,
}

impl std::ops::Deref for PinnedSnapshot {
    type Target = Snapshot;
    fn deref(&self) -> &Snapshot {
        &self.snap
    }
}

impl Drop for PinnedSnapshot {
    fn drop(&mut self) {
        self.pins.sub(1);
    }
}

/// Writer-side state, serialized under one mutex: staged documents and
/// the monotone name counters. Readers never take this lock.
struct WriterState {
    staged: BTreeMap<String, DocSource>,
    next_seq: u64,
    next_seg: u64,
    crash: Option<CrashPoint>,
    /// `Some` with [`crate::WalConfig::enabled`]:
    /// every accepted mutation is framed here *before* it is applied.
    wal: Option<Wal>,
}

impl WriterState {
    /// Fires the armed crash point if it matches `at`.
    fn crash_if_armed(&mut self, at: CrashPoint) -> Result<(), UpdateError> {
        if self.crash == Some(at) {
            self.crash = None;
            return Err(UpdateError::InjectedCrash(at));
        }
        Ok(())
    }
}

/// An XRANK engine supporting document-granularity adds and deletes, with
/// snapshot-isolated concurrent reads (see the module docs for the
/// pipeline design). All methods take `&self`; share one instance across
/// threads behind an `Arc`.
pub struct UpdatableXRank {
    config: EngineConfig,
    /// Per-segment engine config (pipeline-level obs owns the metrics).
    seg_config: EngineConfig,
    /// The pipeline directory (`CURRENT`, manifests, `seg-<id>/`, log).
    dir: PathBuf,
    /// The published snapshot. Writers swap the `Arc` under a brief write
    /// lock; readers clone it under a brief read lock and then never
    /// block again.
    current: RwLock<Arc<Snapshot>>,
    writer: Mutex<WriterState>,
    metrics: Arc<MetricsRegistry>,
    umetrics: UpdateMetrics,
    /// Shared flight recorder: every per-segment engine records its query
    /// ops here, and commits/compactions/swaps/GC/recovery land beside
    /// them on one timeline.
    recorder: Arc<FlightRecorder>,
    slow_op_log: SlowOpLog,
    /// Per-segment gauge series published on the last scrape (retired
    /// when compaction/GC deletes their segment).
    segment_series: Mutex<HashSet<String>>,
    /// Segments condemned by the integrity scrubber: their reads fail
    /// fast (or are skipped under `allow_partial`) until self-repair
    /// republishes a rebuilt replacement and releases the quarantine.
    quarantined: Mutex<HashSet<u64>>,
}

/// Resumable position of the online integrity scrub: the next pipeline
/// segment id and flat page offset to verify. `Default` starts at the
/// beginning; the [`crate::Scrubber`] worker threads one through its
/// throttled [`UpdatableXRank::scrub_chunk`] calls.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ScrubCursor {
    next_seg: u64,
    next_page: u64,
}

/// What one [`UpdatableXRank::scrub_chunk`] / [`UpdatableXRank::scrub_full`]
/// call did.
#[derive(Debug, Default, Clone)]
pub struct ScrubReport {
    /// Physical pages read back off the medium and verified.
    pub pages_scanned: u64,
    /// Segments whose verification failed — now quarantined.
    pub corrupt_segments: Vec<u64>,
    /// Whether the cursor completed a full pass over every live segment
    /// and wrapped back to the start.
    pub wrapped: bool,
}

/// Metric series name of the per-segment quarantine flag (retired when
/// repair releases the quarantine).
fn quarantine_series(seg_id: u64) -> String {
    format!("xrank_scrub_quarantined{{segment=\"{seg_id}\"}}")
}

/// Whether `uri` is live in `views` with exactly `src` as its source —
/// i.e. a logged add whose publish already landed (the crash fell between
/// the publish and the WAL checkpoint). Replaying such a record would
/// only tombstone-and-restage an already-visible document, so replay
/// skips it instead.
fn published_matches(views: &[SegmentView], uri: &str, src: &DocSource) -> bool {
    views
        .iter()
        .rev()
        .find(|v| v.contains_live(uri))
        .is_some_and(|v| v.seg.docs.get(uri) == Some(src))
}

/// Tombstones the newest live copy of `uri` in `views` (replay-time
/// re-derivation of a delete/replace). Returns whether anything changed.
fn tombstone_live(views: &mut [SegmentView], uri: &str) -> bool {
    if let Some(idx) = views.iter().rposition(|v| v.contains_live(uri)) {
        views[idx] = views[idx].with_tombstone(uri);
        true
    } else {
        false
    }
}

/// Whether a segment's open error is damage that a rebuild from its docs
/// sidecar heals: a failed checksum scan or undecodable meta
/// (`InvalidData`), a truncated file (`UnexpectedEof`), a missing store
/// (`NotFound`). Anything else — a permission error, fd exhaustion — says
/// nothing about the segment, and rebuilding would replace an intact one
/// (and re-rank a fold-built segment from a cold start), so the open fails
/// instead.
fn is_damage(e: &std::io::Error) -> bool {
    use std::io::ErrorKind::{InvalidData, NotFound, UnexpectedEof};
    matches!(e.kind(), InvalidData | UnexpectedEof | NotFound)
}

/// Cap on the over-fetch doublings of the tombstone re-fill loop: with
/// `m + 8` as the floor, six doublings cover a 64× over-fetch before the
/// search accepts an underfull page.
const MAX_REFILL_DOUBLINGS: usize = 6;

impl UpdatableXRank {
    /// Opens (or initializes) a durable pipeline rooted at `dir`:
    /// recovers the last published manifest (a valid `CURRENT` is
    /// authoritative), reopens every referenced segment with a full
    /// checksum scan — rebuilding any segment that scan condemns from its
    /// CRC-checked docs sidecar under a fresh id — replays the
    /// write-ahead log (re-staging every acknowledged mutation the last
    /// publish did not cover), publishes one recovery manifest if repair
    /// or replay changed the published state, garbage-collects stranded
    /// pre-crash files, and resumes. A fresh directory starts empty.
    pub fn open(dir: impl AsRef<std::path::Path>, config: EngineConfig) -> Result<Self, UpdateError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let published = manifest::load_published(&dir)?;
        let (next_seq, next_seg) = manifest::next_counters(&dir, &published);
        let (seq, segments) = published.map_or((0, Vec::new()), |m| (m.seq, m.segments));

        let mut seg_config = config.clone();
        seg_config.obs.metrics_enabled = false;
        seg_config.obs.recorder.enabled = false;
        let metrics = Arc::new(if config.obs.metrics_enabled {
            MetricsRegistry::new()
        } else {
            MetricsRegistry::disabled()
        });
        let pipeline = UpdatableXRank {
            seg_config,
            dir,
            current: RwLock::new(Arc::new(Snapshot { seq, views: Vec::new() })),
            writer: Mutex::new(WriterState {
                staged: BTreeMap::new(),
                next_seq,
                next_seg,
                crash: None,
                wal: None,
            }),
            umetrics: UpdateMetrics::new(&metrics),
            metrics,
            recorder: Arc::new(FlightRecorder::new(config.obs.recorder.clone())),
            slow_op_log: SlowOpLog::new(&config.obs),
            segment_series: Mutex::new(HashSet::new()),
            quarantined: Mutex::new(HashSet::new()),
            config,
        };
        pipeline.recover(seq, segments)?;
        Ok(pipeline)
    }

    /// Recovery, in order: collect stranded files, reopen (or
    /// boot-repair) the published segments, replay the log, publish one
    /// recovery manifest if either changed the published state, collect
    /// again, and checkpoint the log.
    fn recover(&self, seq: u64, segments: Vec<ManifestSegment>) -> Result<(), UpdateError> {
        let trace =
            if self.recorder.is_enabled() { QueryTrace::enabled() } else { QueryTrace::disabled() };
        let recovery_span = trace.span(Stage::Recovery);
        let mut w = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        {
            // Stranded pre-crash files go first, so a never-published
            // manifest cannot become the recovery manifest's fallback.
            let _gc = trace.span(Stage::Gc);
            let ids: Vec<u64> = segments.iter().map(|ms| ms.id).collect();
            manifest::gc(&self.dir, seq, &ids);
        }
        let mut views = Vec::with_capacity(segments.len());
        let mut condemned = Vec::new();
        for ms in segments {
            let seg_dir = self.dir.join(manifest::segment_dir_name(ms.id));
            let docs = manifest::read_docs_sidecar(&seg_dir)?;
            let seg = match XRankEngine::<FileStore>::open(&seg_dir, self.seg_config.clone()) {
                Ok(mut engine) => {
                    engine.set_recorder(Arc::clone(&self.recorder));
                    Segment::new(ms.id, engine, docs)
                }
                Err(damage) if is_damage(&damage) => {
                    // The open-time checksum scan found the at-rest
                    // damage the online scrubber hunts: rebuild exactly
                    // as `repair_segment` does, under a fresh id that the
                    // recovery manifest below publishes.
                    let new_id = w.next_seg;
                    let span = trace.span(Stage::Repair);
                    let engine = self.build_segment(new_id, &docs, None)?;
                    drop(span);
                    w.next_seg += 1;
                    self.umetrics.scrub_repairs.inc();
                    self.recorder.record(
                        OpKind::Repair,
                        format!("open-repair seg-{} rebuilt as seg-{new_id}: {damage}", ms.id),
                        trace.origin(),
                        OpOutcome::Ok,
                        Trace::default(),
                    );
                    condemned.push(ms.id);
                    Segment::new(new_id, engine, docs)
                }
                Err(e) => return Err(e.into()),
            };
            views.push(SegmentView {
                seg: Arc::new(seg),
                tombstones: Arc::new(ms.tombstones.into_iter().collect()),
            });
        }
        let mut dirty = !condemned.is_empty();

        // Write-ahead-log replay: every intact record is an accepted
        // mutation; anything the last published manifest does not cover
        // is re-applied — adds back into the staged set, deletes (and the
        // tombstone half of replaces) against the published views. Only
        // the LAST record per URI is applied (earlier ones were
        // superseded inside the lost batch), and an add whose exact
        // content is already live published is skipped — both make replay
        // idempotent no matter where between append and checkpoint the
        // crash fell.
        let mut replayed = 0u64;
        if self.config.wal.enabled {
            let wal_span = trace.span(Stage::WalAppend);
            let (log, records) = Wal::open(&self.dir, self.config.wal.sync)
                .map_err(|e| UpdateError::WalAppend(StorageError::io("wal open", e)))?;
            replayed = records.len() as u64;
            let mut last: BTreeMap<String, WalRecord> = BTreeMap::new();
            for rec in records {
                let uri = match &rec {
                    WalRecord::AddXml { uri, .. }
                    | WalRecord::AddHtml { uri, .. }
                    | WalRecord::Delete { uri } => uri.clone(),
                };
                last.insert(uri, rec);
            }
            for rec in last.into_values() {
                let (uri, src) = match rec {
                    WalRecord::AddXml { uri, text } => (uri, DocSource::Xml(text)),
                    WalRecord::AddHtml { uri, text } => (uri, DocSource::Html(text)),
                    WalRecord::Delete { uri } => {
                        dirty |= tombstone_live(&mut views, &uri);
                        continue;
                    }
                };
                if !published_matches(&views, &uri, &src) {
                    dirty |= tombstone_live(&mut views, &uri);
                    w.staged.insert(uri, src);
                }
            }
            w.wal = Some(log);
            drop(wal_span);
        }

        let segment_count = views.len() as u64;
        let seq = if dirty {
            // Replayed tombstones and boot-repaired segments become
            // durable in one recovery manifest before anything is served.
            self.publish_locked(&mut w, views, &trace)?
        } else {
            self.install(&w, Snapshot { seq, views });
            seq
        };
        // GC keeps the previous manifest's segments as a crash fallback,
        // and that manifest still names the condemned ones; their pages
        // are damaged, so they go now.
        for id in condemned {
            let _ = std::fs::remove_dir_all(self.dir.join(manifest::segment_dir_name(id)));
        }
        // The published layout now covers everything beyond the
        // still-staged docs: shrink the log.
        self.wal_checkpoint(&mut w);

        drop(recovery_span);
        self.umetrics.wal_replayed.add(replayed);
        if trace.is_enabled() {
            trace.event(Stage::Recovery, EventData::Count { what: "segments", n: segment_count });
            if replayed > 0 {
                trace.event(
                    Stage::WalAppend,
                    EventData::Count { what: "wal_replayed", n: replayed },
                );
            }
            let origin = trace.origin();
            self.recorder.record(
                OpKind::Recovery,
                format!("recovery seq={seq}"),
                origin,
                OpOutcome::Ok,
                trace.finish(),
            );
        }
        Ok(())
    }

    /// Pins the current published snapshot: the returned lease reads a
    /// frozen view of the index for as long as it is held, fully isolated
    /// from concurrent commits, deletes, and compactions.
    pub fn pin(&self) -> PinnedSnapshot {
        let snap = Arc::clone(&self.current.read().unwrap_or_else(|e| e.into_inner()));
        self.umetrics.snapshot_pins.add(1);
        PinnedSnapshot { snap, pins: self.umetrics.snapshot_pins.clone() }
    }

    /// Stages an XML document (validated now, searchable after
    /// [`UpdatableXRank::commit`]). Re-adding a live URI replaces it
    /// (immediate tombstone + staged add, matching the previous
    /// main+delta semantics). The accepted source is framed into the
    /// write-ahead log *before* anything is applied, so an acknowledged
    /// add survives a process kill even before the next commit.
    pub fn add_xml(&self, uri: &str, xml: &str) -> Result<(), UpdateError> {
        xrank_xml::parse(xml)?; // validate before accepting
        let mut w = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        self.wal_append(
            &mut w,
            &WalRecord::AddXml { uri: uri.to_string(), text: xml.to_string() },
        )?;
        self.delete_locked(&mut w, uri)?;
        w.staged.insert(uri.to_string(), DocSource::Xml(xml.to_string()));
        self.umetrics.staged_docs.set(w.staged.len() as i64);
        Ok(())
    }

    /// Stages an HTML page (write-ahead-logged like
    /// [`UpdatableXRank::add_xml`]).
    pub fn add_html(&self, uri: &str, html: &str) -> Result<(), UpdateError> {
        let mut w = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        self.wal_append(
            &mut w,
            &WalRecord::AddHtml { uri: uri.to_string(), text: html.to_string() },
        )?;
        self.delete_locked(&mut w, uri)?;
        w.staged.insert(uri.to_string(), DocSource::Html(html.to_string()));
        self.umetrics.staged_docs.set(w.staged.len() as i64);
        Ok(())
    }

    /// Tombstones a document immediately (also cancels a staged add).
    /// The tombstone is published through a new manifest generation
    /// before this returns. Returns whether anything
    /// was removed.
    pub fn delete(&self, uri: &str) -> Result<bool, UpdateError> {
        let mut w = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        self.wal_append(&mut w, &WalRecord::Delete { uri: uri.to_string() })?;
        let removed = self.delete_locked(&mut w, uri)?;
        // Whatever the delete touched is now durable (published manifest
        // or in-memory staged set): the log no longer needs the record.
        self.wal_checkpoint(&mut w);
        Ok(removed)
    }

    /// The tombstone/unstage half of a delete or replace, under the
    /// writer lock, *without* touching the write-ahead log — the caller
    /// has already framed its own record covering this.
    fn delete_locked(&self, w: &mut WriterState, uri: &str) -> Result<bool, UpdateError> {
        let was_staged = w.staged.remove(uri).is_some();
        if was_staged {
            self.umetrics.staged_docs.set(w.staged.len() as i64);
        }
        let cur = self.current_arc();
        let Some(idx) = cur.live_view_of(uri) else {
            return Ok(was_staged);
        };
        let mut views = cur.views.clone();
        views[idx] = views[idx].with_tombstone(uri);
        let trace =
            if self.recorder.is_enabled() { QueryTrace::enabled() } else { QueryTrace::disabled() };
        self.publish_locked(w, views, &trace)?;
        if trace.is_enabled() {
            let origin = trace.origin();
            self.recorder.record(
                OpKind::ManifestSwap,
                format!("delete {uri}"),
                origin,
                OpOutcome::Ok,
                trace.finish(),
            );
        }
        Ok(true)
    }

    /// Makes staged documents searchable by sealing them into the next
    /// segment and publishing a new snapshot. Readers in flight keep
    /// their pinned snapshot; new reads see the new one. With nothing
    /// staged this is a no-op.
    pub fn commit(&self) -> Result<CommitStats, UpdateError> {
        let start = Instant::now();
        let mut w = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        if w.staged.is_empty() {
            return Ok(CommitStats {
                segment_id: None,
                docs_added: 0,
                tombstones_added: 0,
                seq: self.current_arc().seq,
                wall: start.elapsed(),
                trace: Trace::default(),
            });
        }
        let trace = QueryTrace::enabled();
        let origin = trace.origin();
        match self.commit_locked(&mut w, &trace, start) {
            Ok(mut stats) => {
                self.umetrics.commits.inc();
                self.umetrics
                    .commit_wall_us
                    .observe(stats.wall.as_secs_f64() * 1e6);
                stats.trace = trace.finish();
                let label = format!(
                    "commit seg-{} docs={} seq={}",
                    stats.segment_id.unwrap_or(0),
                    stats.docs_added,
                    stats.seq
                );
                self.recorder.record(
                    OpKind::Commit,
                    label.clone(),
                    origin,
                    OpOutcome::Ok,
                    stats.trace.clone(),
                );
                self.note_slow_op("commit", label, stats.wall, stats.seq, &stats.trace);
                Ok(stats)
            }
            Err(e) => {
                self.umetrics.commit_failures.inc();
                self.recorder.record(
                    OpKind::Commit,
                    format!("commit failed: {e}"),
                    origin,
                    OpOutcome::Error,
                    trace.finish(),
                );
                Err(e)
            }
        }
    }

    fn commit_locked(
        &self,
        w: &mut WriterState,
        trace: &QueryTrace,
        start: Instant,
    ) -> Result<CommitStats, UpdateError> {
        w.crash_if_armed(CrashPoint::DuringSegmentBuild)?;
        let docs = w.staged.clone();
        let seg_id = w.next_seg;

        let span = trace.span(Stage::SegmentBuild);
        let engine = self.build_segment(seg_id, &docs, None)?;
        drop(span);
        w.next_seg += 1;
        w.crash_if_armed(CrashPoint::AfterSegmentSeal)?;

        // Replaced documents: tombstone any older live copy so exactly
        // one copy of each URI is live across the snapshot. (Normally
        // `add_xml` already tombstoned it; this is the invariant's
        // backstop.)
        let cur = self.current_arc();
        let mut views = cur.views.clone();
        let mut tombstones_added = 0;
        for uri in docs.keys() {
            if let Some(idx) = cur.live_view_of(uri) {
                views[idx] = views[idx].with_tombstone(uri);
                tombstones_added += 1;
            }
        }
        let docs_added = docs.len();
        views.push(SegmentView::fresh(Arc::new(Segment::new(seg_id, engine, docs))));

        let seq = self.publish_locked(w, views, trace)?;
        w.staged.clear();
        self.umetrics.staged_docs.set(0);
        // The publish durably covers every logged mutation; shrink the
        // log down to the (now empty) staged set.
        let wal_span = trace.span(Stage::WalAppend);
        self.wal_checkpoint(w);
        drop(wal_span);
        Ok(CommitStats {
            segment_id: Some(seg_id),
            docs_added,
            tombstones_added,
            seq,
            wall: start.elapsed(),
            trace: Trace::default(),
        })
    }

    /// Folds **every** segment — plus any staged documents — into one:
    /// tombstoned postings are physically dropped, cross-segment
    /// hyperlinks re-resolve (the folded collection is one link-resolution
    /// scope again), and ElemRank is recomputed globally, warm-started
    /// from the previous segments' rank vectors.
    pub fn compact(&self) -> Result<CompactStats, UpdateError> {
        self.fold(FoldScope::Everything, None)
    }

    /// Background-compaction fold: merges segments no larger than
    /// `small_bytes` (at least two must qualify, else no-op), leaving big
    /// sealed segments untouched. Cancellable between phases via `cancel`
    /// — a cancelled fold publishes nothing and returns
    /// [`UpdateError::Cancelled`].
    pub fn merge_small(
        &self,
        small_bytes: u64,
        cancel: Option<&CancelToken>,
    ) -> Result<CompactStats, UpdateError> {
        self.fold(FoldScope::SmallerThan(small_bytes), cancel)
    }

    fn fold(
        &self,
        scope: FoldScope,
        cancel: Option<&CancelToken>,
    ) -> Result<CompactStats, UpdateError> {
        let start = Instant::now();
        let trace = QueryTrace::enabled();
        let origin = trace.origin();
        let mut w = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        match self.fold_locked(&mut w, scope, cancel, &trace, start) {
            Ok(mut stats) => {
                stats.trace = trace.finish();
                if stats.segments_folded > 0 || stats.docs_live > 0 {
                    self.umetrics.compactions.inc();
                    self.umetrics
                        .compact_wall_us
                        .observe(stats.wall.as_secs_f64() * 1e6);
                    self.umetrics
                        .tombstones_gced
                        .add(stats.tombstones_dropped as u64);
                    let label = format!(
                        "compaction folded={} live={} seq={}",
                        stats.segments_folded, stats.docs_live, stats.seq
                    );
                    self.recorder.record(
                        OpKind::Compaction,
                        label.clone(),
                        origin,
                        OpOutcome::Ok,
                        stats.trace.clone(),
                    );
                    self.note_slow_op("compaction", label, stats.wall, stats.seq, &stats.trace);
                }
                Ok(stats)
            }
            Err(e) => {
                let outcome = if matches!(e, UpdateError::Cancelled) {
                    OpOutcome::Cancelled
                } else {
                    self.umetrics.compaction_failures.inc();
                    OpOutcome::Error
                };
                self.recorder.record(
                    OpKind::Compaction,
                    format!("compaction {}: {e}", outcome.name()),
                    origin,
                    outcome,
                    trace.finish(),
                );
                Err(e)
            }
        }
    }

    /// Offers a finished background op to the slow-op ring (the analogue
    /// of the engine's slow-query log for commits and compactions).
    fn note_slow_op(
        &self,
        kind: &'static str,
        label: String,
        elapsed: Duration,
        seq: u64,
        trace: &Trace,
    ) {
        if elapsed >= self.slow_op_log.threshold() {
            let captured = self.slow_op_log.offer(SlowOpEntry {
                kind,
                label,
                elapsed,
                seq,
                trace: trace.clone(),
            });
            if captured {
                self.umetrics.slow_ops.inc();
            }
        }
    }

    fn fold_locked(
        &self,
        w: &mut WriterState,
        scope: FoldScope,
        cancel: Option<&CancelToken>,
        trace: &QueryTrace,
        start: Instant,
    ) -> Result<CompactStats, UpdateError> {
        let check_cancel = |c: Option<&CancelToken>| -> Result<(), UpdateError> {
            match c {
                Some(t) if t.is_cancelled() => Err(UpdateError::Cancelled),
                _ => Ok(()),
            }
        };
        check_cancel(cancel)?;
        let cur = self.current_arc();

        let no_op = |wall: Duration| CompactStats {
            segments_folded: 0,
            docs_live: 0,
            tombstones_dropped: 0,
            rank_iterations: 0,
            rank_seeded: false,
            seq: cur.seq,
            wall,
            trace: Trace::default(),
        };

        let merge_span = trace.span(Stage::CompactMerge);
        // Staged docs are only cleared after a successful publish, so an
        // injected crash (or a real build failure) loses nothing.
        let (fold_idx, staged): (Vec<usize>, BTreeMap<String, DocSource>) = match scope {
            FoldScope::Everything => ((0..cur.views.len()).collect(), w.staged.clone()),
            FoldScope::SmallerThan(limit) => {
                let idx: Vec<usize> = cur
                    .views
                    .iter()
                    .enumerate()
                    .filter(|(_, v)| v.seg.bytes <= limit)
                    .map(|(i, _)| i)
                    .collect();
                if idx.len() < 2 {
                    return Ok(no_op(start.elapsed()));
                }
                (idx, BTreeMap::new())
            }
        };
        let folds_staged = matches!(scope, FoldScope::Everything);
        // A full compact with nothing anywhere is a no-op.
        if fold_idx.is_empty() && staged.is_empty() {
            return Ok(no_op(start.elapsed()));
        }

        w.crash_if_armed(CrashPoint::DuringSegmentBuild)?;

        // Gather live documents (oldest segment first; staged adds win
        // last) and the warm-start rank seed from the folded engines.
        let mut docs: BTreeMap<String, DocSource> = BTreeMap::new();
        let mut tombstones_dropped = 0;
        let mut seed: HashMap<String, Vec<f64>> = HashMap::new();
        for &i in &fold_idx {
            let v = &cur.views[i];
            tombstones_dropped += v.tombstones.len();
            for (uri, src) in v.live_docs() {
                docs.insert(uri.clone(), src.clone());
            }
            v.seg.rank_slices(&mut seed);
        }
        for (uri, src) in staged {
            docs.insert(uri, src);
        }
        let rank_seeded = !seed.is_empty();
        drop(merge_span);
        check_cancel(cancel)?;

        let mut new_view = None;
        let mut rank_iterations = 0;
        if !docs.is_empty() {
            let seg_id = w.next_seg;
            let span = trace.span(Stage::SegmentBuild);
            let engine = self.build_segment(seg_id, &docs, rank_seeded.then_some(seed))?;
            drop(span);
            w.next_seg += 1;
            rank_iterations = engine.rank_result().iterations;
            new_view = Some(SegmentView::fresh(Arc::new(Segment::new(seg_id, engine, docs.clone()))));
        }
        w.crash_if_armed(CrashPoint::AfterSegmentSeal)?;
        check_cancel(cancel)?;

        // The new segment takes the position of the oldest folded one;
        // untouched segments keep their order.
        let mut views = Vec::with_capacity(cur.views.len() + 1 - fold_idx.len());
        let insert_at = fold_idx.first().copied().unwrap_or(0);
        for (i, v) in cur.views.iter().enumerate() {
            if i == insert_at {
                if let Some(nv) = new_view.take() {
                    views.push(nv);
                }
            }
            if !fold_idx.contains(&i) {
                views.push(v.clone());
            }
        }
        if let Some(nv) = new_view.take() {
            views.push(nv);
        }

        let docs_live = docs.len();
        let seq = self.publish_locked(w, views, trace)?;
        if folds_staged {
            w.staged.clear();
        }
        self.umetrics.staged_docs.set(w.staged.len() as i64);
        let wal_span = trace.span(Stage::WalAppend);
        self.wal_checkpoint(w);
        drop(wal_span);
        Ok(CompactStats {
            segments_folded: fold_idx.len(),
            docs_live,
            tombstones_dropped,
            rank_iterations,
            rank_seeded,
            seq,
            wall: start.elapsed(),
            trace: Trace::default(),
        })
    }

    /// Builds one sealed segment over `docs` through the crash-safe
    /// staged-write layout under `dir/seg-<id>/` (document sidecar first,
    /// then the engine store, so a sealed directory is always complete).
    /// Commits, folds, repairs and boot repairs all seal through here.
    fn build_segment(
        &self,
        seg_id: u64,
        docs: &BTreeMap<String, DocSource>,
        seed: Option<HashMap<String, Vec<f64>>>,
    ) -> Result<XRankEngine<FileStore>, UpdateError> {
        let mut builder = EngineBuilder::with_config(self.seg_config.clone());
        if let Some(seed) = seed {
            builder.set_rank_seed(seed);
        }
        for (uri, src) in docs {
            match src {
                DocSource::Xml(xml) => builder.add_xml(uri, xml)?,
                DocSource::Html(html) => builder.add_html(uri, html),
            }
        }
        let seg_dir = self.dir.join(manifest::segment_dir_name(seg_id));
        std::fs::create_dir_all(&seg_dir)?;
        manifest::write_docs_sidecar(&seg_dir, docs)?;
        let mut engine = builder.build_persistent(&seg_dir)?;
        engine.set_recorder(Arc::clone(&self.recorder));
        Ok(engine)
    }

    /// Publishes `views` as the next snapshot: durable manifest write +
    /// atomic `CURRENT` swap, then [`UpdatableXRank::install`] and GC.
    /// The caller holds the writer lock; readers are never blocked (they only
    /// take the `current` read lock for an `Arc` clone).
    fn publish_locked(
        &self,
        w: &mut WriterState,
        views: Vec<SegmentView>,
        trace: &QueryTrace,
    ) -> Result<u64, UpdateError> {
        let seq = w.next_seq;
        let span = trace.span(Stage::ManifestSwap);
        let data = ManifestData {
            seq,
            segments: views
                .iter()
                .map(|v| {
                    let mut tombstones: Vec<String> = v.tombstones.iter().cloned().collect();
                    tombstones.sort_unstable();
                    ManifestSegment { id: v.seg.id, tombstones }
                })
                .collect(),
        };
        manifest::write_manifest(&self.dir, &data)?;
        w.crash_if_armed(CrashPoint::AfterManifestWrite)?;
        manifest::publish_current(&self.dir, seq)?;
        trace.event(Stage::ManifestSwap, EventData::Count { what: "manifest_seq", n: seq });
        drop(span);
        w.next_seq = seq + 1;
        // Durably published; a kill here loses only the in-memory install,
        // which reopening reconstructs from CURRENT.
        w.crash_if_armed(CrashPoint::AfterPublish)?;
        let live: Vec<u64> = views.iter().map(|v| v.seg.id).collect();
        self.install(w, Snapshot { seq, views });
        // GC is its own flight-recorder op: it runs after the swap is
        // visible and its cost should not be blamed on the publish span.
        let gc_trace =
            if self.recorder.is_enabled() { QueryTrace::enabled() } else { QueryTrace::disabled() };
        let gc_origin = gc_trace.origin();
        let gc_span = gc_trace.span(Stage::Gc);
        manifest::gc(&self.dir, seq, &live);
        drop(gc_span);
        self.recorder.record(
            OpKind::Gc,
            format!("gc seq={seq}"),
            gc_origin,
            OpOutcome::Ok,
            gc_trace.finish(),
        );
        Ok(seq)
    }

    /// Makes `snap` the snapshot readers pin: shape gauges, then the
    /// `Arc` swap.
    fn install(&self, w: &WriterState, snap: Snapshot) {
        let snap = Arc::new(snap);
        self.umetrics.publish_shape(&snap, w.staged.len());
        *self.current.write().unwrap_or_else(|e| e.into_inner()) = snap;
    }

    /// Arms a deterministic crash point: the next mutation that reaches
    /// it stops dead with [`UpdateError::InjectedCrash`], modelling a
    /// process kill at that step (test hook; see the crash-injection
    /// suite).
    pub fn inject_crash(&self, at: CrashPoint) {
        self.writer.lock().unwrap_or_else(|e| e.into_inner()).crash = Some(at);
    }

    /// Appends one record to the write-ahead log (no-op for pipelines
    /// without one). On failure the caller must reject the mutation
    /// without applying anything — the contract behind
    /// [`UpdateError::WalAppend`]: an error here leaves at most a torn
    /// tail on disk, which replay drops.
    fn wal_append(&self, w: &mut WriterState, rec: &WalRecord) -> Result<(), UpdateError> {
        let Some(wal) = w.wal.as_mut() else { return Ok(()) };
        match wal.append(rec) {
            Ok(synced) => {
                self.umetrics.wal_appends.inc();
                if synced {
                    self.umetrics.wal_fsyncs.inc();
                }
                self.umetrics.wal_bytes.set(wal.len() as i64);
                Ok(())
            }
            Err(e) => {
                self.umetrics.wal_append_failures.inc();
                Err(UpdateError::WalAppend(StorageError::io("wal append", e)))
            }
        }
    }

    /// Rewrites the log down to the still-staged set once the state it
    /// protected is durable in the manifest layout. Best-effort: a failed
    /// checkpoint leaves a larger but still-correct log.
    fn wal_checkpoint(&self, w: &mut WriterState) {
        let WriterState { ref staged, ref mut wal, .. } = *w;
        let Some(wal) = wal.as_mut() else { return };
        if wal.checkpoint(staged).is_ok() {
            self.umetrics.wal_checkpoints.inc();
            self.umetrics.wal_bytes.set(wal.len() as i64);
        }
    }

    /// Arms (or clears with `None`) a deterministic write-ahead-log
    /// append fault: the targeted appends fail as if the device were full
    /// or broken, proving rejected mutations leave no trace (test hook,
    /// the WAL analogue of [`UpdatableXRank::inject_crash`]).
    pub fn wal_inject_fault(&self, fault: Option<WalFault>) {
        let mut w = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(wal) = w.wal.as_mut() {
            wal.set_fault(fault);
        }
    }

    /// Flushes any group-commit-buffered WAL appends to the device now
    /// (bounds the [`crate::SyncPolicy::GroupCommit`] loss window to this
    /// instant).
    pub fn wal_sync(&self) -> Result<(), UpdateError> {
        let mut w = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(wal) = w.wal.as_mut() {
            wal.sync()
                .map_err(|e| UpdateError::WalAppend(StorageError::io("wal sync", e)))?;
            self.umetrics.wal_fsyncs.inc();
        }
        Ok(())
    }

    /// Verifies up to `page_budget` physical pages of the live sealed
    /// segments, resuming from `cursor` (segments in id order, pages in
    /// flat order). The first damaged page *quarantines* its whole
    /// segment — reads fail fast with
    /// [`xrank_storage::StorageError::Quarantined`] (or degrade under
    /// `allow_partial`) until [`UpdatableXRank::repair_segment`]
    /// republishes a rebuilt replacement. Already-quarantined segments
    /// are skipped: repair, not re-scrubbing, clears them.
    pub fn scrub_chunk(&self, page_budget: u64, cursor: &mut ScrubCursor) -> ScrubReport {
        let pinned = self.pin();
        let mut report = ScrubReport::default();
        let trace =
            if self.recorder.is_enabled() { QueryTrace::enabled() } else { QueryTrace::disabled() };
        let origin = trace.origin();
        let span = trace.span(Stage::Scrub);
        let mut ordered: Vec<&SegmentView> = pinned.views.iter().collect();
        ordered.sort_by_key(|v| v.seg.id);
        let mut budget = page_budget;
        let mut exhausted = false;
        let resume_seg = cursor.next_seg;
        let resume_page = cursor.next_page;
        for v in ordered.into_iter().filter(|v| v.seg.id >= resume_seg) {
            if self.is_quarantined(v.seg.id) {
                continue;
            }
            let total = v.seg.page_total();
            let start = if v.seg.id == resume_seg { resume_page.min(total) } else { 0 };
            for flat in start..total {
                if budget == 0 {
                    cursor.next_seg = v.seg.id;
                    cursor.next_page = flat;
                    exhausted = true;
                    break;
                }
                budget -= 1;
                report.pages_scanned += 1;
                if v.seg.verify_page(flat).is_err() {
                    self.quarantine(v.seg.id);
                    report.corrupt_segments.push(v.seg.id);
                    trace.event(
                        Stage::Scrub,
                        EventData::Count { what: "quarantined_segment", n: v.seg.id },
                    );
                    break; // the segment is condemned; scan the next one
                }
            }
            if exhausted {
                break;
            }
        }
        if !exhausted {
            *cursor = ScrubCursor::default();
            report.wrapped = true;
            self.umetrics.scrub_passes.inc();
        }
        drop(span);
        self.umetrics.scrub_pages.add(report.pages_scanned);
        if !report.corrupt_segments.is_empty() {
            self.umetrics.scrub_corruptions.add(report.corrupt_segments.len() as u64);
            self.recorder.record(
                OpKind::Scrub,
                format!("scrub quarantined {:?}", report.corrupt_segments),
                origin,
                OpOutcome::Error,
                trace.finish(),
            );
        } else if report.wrapped && report.pages_scanned > 0 {
            self.recorder.record(
                OpKind::Scrub,
                format!("scrub pass clean ({} pages)", report.pages_scanned),
                origin,
                OpOutcome::Ok,
                trace.finish(),
            );
        }
        report
    }

    /// One unthrottled full verification pass over every live segment
    /// (the PR 3 open-time scan, online): scans everything, quarantines
    /// what fails.
    pub fn scrub_full(&self) -> ScrubReport {
        let mut cursor = ScrubCursor::default();
        self.scrub_chunk(u64::MAX, &mut cursor)
    }

    /// Quarantines a segment by pipeline id: its reads fail fast until
    /// repaired. Normally driven by the scrubber; public as a test hook
    /// and operator override. Returns whether the segment was newly
    /// quarantined.
    pub fn quarantine(&self, seg_id: u64) -> bool {
        let mut q = self.quarantined.lock().unwrap_or_else(|e| e.into_inner());
        let fresh = q.insert(seg_id);
        if fresh {
            self.umetrics.scrub_quarantined.set(q.len() as i64);
            self.metrics.gauge(&quarantine_series(seg_id)).set(1);
        }
        fresh
    }

    /// Releases a quarantine and retires its per-segment gauge series —
    /// the flag's identity dies with the quarantine, so scrapes never
    /// keep reporting a repaired segment.
    fn release_quarantine(&self, seg_id: u64) {
        let mut q = self.quarantined.lock().unwrap_or_else(|e| e.into_inner());
        if q.remove(&seg_id) {
            self.umetrics.scrub_quarantined.set(q.len() as i64);
            self.metrics.retire(&quarantine_series(seg_id));
        }
    }

    /// The currently quarantined segment ids, ascending.
    pub fn quarantined_segments(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .quarantined
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .copied()
            .collect();
        ids.sort_unstable();
        ids
    }

    fn is_quarantined(&self, seg_id: u64) -> bool {
        self.quarantined.lock().unwrap_or_else(|e| e.into_inner()).contains(&seg_id)
    }

    /// Self-repair: rebuilds a quarantined segment's index from its
    /// in-memory document set (loaded from the CRC-checked docs sidecar)
    /// into a brand-new segment id, publishes the replacement with one
    /// atomic manifest swap, and releases the quarantine. Rebuilding
    /// *all* of the segment's documents — tombstoned ones included —
    /// preserves document order, Dewey IDs, and ElemRank inputs exactly,
    /// so a repaired commit-built segment serves bit-identical rankings;
    /// the replacement view keeps carrying the old tombstones. Returns
    /// `false` when the segment is no longer in the published snapshot
    /// (compacted away since quarantine — nothing left to repair).
    pub fn repair_segment(&self, seg_id: u64) -> Result<bool, UpdateError> {
        let start = Instant::now();
        let trace = QueryTrace::enabled();
        let origin = trace.origin();
        let mut w = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        let cur = self.current_arc();
        let Some(pos) = cur.views.iter().position(|v| v.seg.id == seg_id) else {
            self.release_quarantine(seg_id);
            return Ok(false);
        };
        let docs = cur.views[pos].seg.docs.clone();
        let new_id = w.next_seg;
        let span = trace.span(Stage::Repair);
        let engine = match self.build_segment(new_id, &docs, None) {
            Ok(engine) => engine,
            Err(e) => {
                drop(span);
                self.recorder.record(
                    OpKind::Repair,
                    format!("repair seg-{seg_id} failed: {e}"),
                    origin,
                    OpOutcome::Error,
                    trace.finish(),
                );
                return Err(e);
            }
        };
        drop(span);
        w.next_seg += 1;
        let mut views = cur.views.clone();
        views[pos] = SegmentView {
            seg: Arc::new(Segment::new(new_id, engine, docs)),
            tombstones: Arc::clone(&cur.views[pos].tombstones),
        };
        match self.publish_locked(&mut w, views, &trace) {
            Ok(seq) => {
                self.release_quarantine(seg_id);
                self.umetrics.scrub_repairs.inc();
                let label = format!("repair seg-{seg_id} rebuilt as seg-{new_id} seq={seq}");
                let finished = trace.finish();
                self.note_slow_op("repair", label.clone(), start.elapsed(), seq, &finished);
                self.recorder.record(OpKind::Repair, label, origin, OpOutcome::Ok, finished);
                Ok(true)
            }
            Err(e) => {
                self.recorder.record(
                    OpKind::Repair,
                    format!("repair seg-{seg_id} failed: {e}"),
                    origin,
                    OpOutcome::Error,
                    trace.finish(),
                );
                Err(e)
            }
        }
    }

    /// Searches live documents across every segment of a pinned snapshot
    /// (tombstones filtered), merging by score. Takes `&self` and runs
    /// concurrently with commits and compactions. A storage fault in any
    /// segment surfaces as a typed [`QueryError`] for this query only.
    pub fn search(&self, query: &str, m: usize) -> Result<SearchResults, QueryError> {
        self.search_opts(query, m, QueryOptions::default())
    }

    /// [`UpdatableXRank::search`] with explicit options. A relative
    /// `timeout` is resolved to one absolute deadline *before* the first
    /// segment pass and shared by all passes — they are one query and get
    /// one time budget, not a fresh timeout each. `allow_partial` and
    /// `io_budget` apply to every pass; a degraded flag from any pass
    /// marks the merged result.
    ///
    /// Tombstone filtering happens at presentation time, so the per-pass
    /// fetch depth over-fetches (`m + 8`) and — when filtering leaves the
    /// merged page underfull while some segment still had a full raw page
    /// (i.e. more live hits may exist past the cut) — re-fetches deeper,
    /// doubling up to `MAX_REFILL_DOUBLINGS` (6) times. A single heavily
    /// tombstoned document can therefore no longer starve the result
    /// page below `m` when `m` live results exist.
    pub fn search_opts(
        &self,
        query: &str,
        m: usize,
        opts: QueryOptions,
    ) -> Result<SearchResults, QueryError> {
        let start = Instant::now();
        let pinned = self.pin();
        let mut opts = opts;
        if let Some(shared) = opts.deadline() {
            opts.deadline_at = Some(shared);
            opts.timeout = None;
        }

        // Read the quarantine set once per query: a segment condemned by
        // the scrubber fails the query fast (typed, never garbage) — or,
        // under `allow_partial`, is skipped with the result marked
        // degraded while every healthy segment keeps serving.
        let quarantined: HashSet<u64> =
            self.quarantined.lock().unwrap_or_else(|e| e.into_inner()).clone();

        let mut eval = xrank_query::EvalStats::default();
        let mut io = xrank_storage::IoStats::default();
        let mut degraded = None;
        let mut hits: Vec<(usize, SearchHit)> = Vec::new();
        let mut fetch = m.saturating_add(8);
        for attempt in 0..=MAX_REFILL_DOUBLINGS {
            hits.clear();
            let pass_opts = QueryOptions { top_m: fetch, ..opts.clone() };
            let mut any_saturated = false;
            for (vi, view) in pinned.views.iter().enumerate() {
                if quarantined.contains(&view.seg.id) {
                    if pass_opts.allow_partial {
                        if degraded.is_none() {
                            self.umetrics.degraded_quarantined.inc();
                        }
                        degraded = degraded.or(Some(DegradeReason::Quarantined));
                        continue;
                    }
                    return Err(QueryError::Storage(StorageError::Quarantined {
                        segment: view.seg.id,
                    }));
                }
                let mut r = view.seg.engine.query(query, Strategy::Hdil, &pass_opts)?;
                let raw = r.hits.len();
                eval.entries_scanned += r.eval.entries_scanned;
                eval.postings_decoded += r.eval.postings_decoded;
                eval.btree_probes += r.eval.btree_probes;
                io.seq_reads += r.io.seq_reads;
                io.rand_reads += r.io.rand_reads;
                io.cache_hits += r.io.cache_hits;
                degraded = degraded.or(r.degraded);
                r.hits.retain(|h| !view.tombstones.contains(&h.doc_uri));
                any_saturated |= raw >= fetch && r.hits.len() < raw;
                hits.extend(r.hits.into_iter().map(|h| (vi, h)));
            }
            if hits.len() >= m || !any_saturated || attempt == MAX_REFILL_DOUBLINGS {
                break;
            }
            // Underfull after tombstone filtering, and at least one
            // segment's raw page was both full and filtered — deeper live
            // hits may exist. Re-fill with a doubled fetch depth.
            fetch = fetch.saturating_mul(2);
        }

        hits.sort_by(|(va, a), (vb, b)| {
            b.score
                .total_cmp(&a.score)
                .then_with(|| a.dewey.cmp(&b.dewey))
                .then_with(|| va.cmp(vb))
        });
        let mut hits: Vec<SearchHit> = hits.into_iter().map(|(_, h)| h).collect();
        hits.truncate(m);
        Ok(SearchResults { hits, eval, io, elapsed: start.elapsed(), trace: None, degraded })
    }

    fn current_arc(&self) -> Arc<Snapshot> {
        Arc::clone(&self.current.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Number of live (searchable or staged) documents.
    pub fn doc_count(&self) -> usize {
        let staged = self.writer.lock().unwrap_or_else(|e| e.into_inner()).staged.len();
        self.current_arc().live_doc_count() + staged
    }

    /// Number of staged (not yet searchable) documents.
    pub fn staged_count(&self) -> usize {
        self.writer.lock().unwrap_or_else(|e| e.into_inner()).staged.len()
    }

    /// Number of tombstoned documents awaiting compaction.
    pub fn tombstone_count(&self) -> usize {
        self.current_arc().tombstone_count()
    }

    /// Number of live segments in the published snapshot.
    pub fn segment_count(&self) -> usize {
        self.current_arc().segment_count()
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The pipeline's metrics registry (segment lifecycle counters and
    /// gauges; shared with [`crate::Compactor`]).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The pipeline's flight recorder: one bounded timeline holding
    /// finished traces from queries, commits, compactions, manifest
    /// swaps, GC, and recovery.
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// Renders every retained flight-recorder op as Chrome trace-event
    /// JSON (loadable in `ui.perfetto.dev` / `chrome://tracing`).
    pub fn dump_trace_json(&self) -> String {
        xrank_obs::render_chrome_trace(&self.recorder.records())
    }

    /// The captured slow background ops (commits and compactions at
    /// least [`ObsConfig::slow_op_threshold`](crate::ObsConfig) slow),
    /// oldest first — the background-work analogue of
    /// [`crate::XRankEngine::slow_queries`].
    pub fn slow_ops(&self) -> Vec<SlowOpEntry> {
        self.slow_op_log.snapshot()
    }

    /// Prometheus text exposition with the snapshot-shape gauges freshly
    /// published.
    pub fn render_metrics(&self) -> String {
        let staged = self.staged_count();
        let snap = self.current_arc();
        self.umetrics.publish_shape(&snap, staged);
        // Per-segment shape series carry a transient identity: publish
        // the live set, then retire series for segments dropped by
        // compaction or GC so a scrape never reports deleted segments.
        let mut fresh = HashSet::new();
        for v in &snap.views {
            let series = [
                ("xrank_update_segment_docs", v.seg.docs.len() as i64),
                ("xrank_update_segment_tombstones", v.tombstones.len() as i64),
                ("xrank_update_segment_bytes", v.seg.bytes as i64),
            ];
            for (base, value) in series {
                let name = format!("{base}{{segment=\"{}\"}}", v.seg.id);
                self.metrics.gauge(&name).set(value);
                fresh.insert(name);
            }
        }
        let mut prev = self.segment_series.lock().unwrap_or_else(|e| e.into_inner());
        for stale in prev.difference(&fresh) {
            self.metrics.retire(stale);
        }
        *prev = fresh;
        drop(prev);
        self.metrics.render_prometheus()
    }
}

/// Which segments a fold covers.
#[derive(Clone, Copy)]
enum FoldScope {
    /// Every segment plus staged docs (full compaction).
    Everything,
    /// Only segments at most this many source bytes (background merge).
    SmallerThan(u64),
}

#[cfg(test)]
mod tests {
    use super::is_damage;
    use std::io::{Error, ErrorKind};
    use xrank_storage::{PageId, SegmentId, StorageError};

    /// Boot repair rebuilds a segment only when its open failed on the
    /// segment's own bytes; an environment fault fails the open.
    #[test]
    fn boot_repair_classifies_only_damage_as_rebuildable() {
        let checksum = StorageError::ChecksumMismatch {
            id: PageId::new(SegmentId(0), 3),
            stored: 1,
            computed: 2,
        };
        let damage = [
            Error::from(checksum),
            Error::from(StorageError::TornWrite { id: PageId::new(SegmentId(1), 0) }),
            Error::from(ErrorKind::UnexpectedEof),
            Error::new(ErrorKind::NotFound, "no xrank index under seg-00000001"),
        ];
        for e in &damage {
            assert!(is_damage(e), "{e} must trigger a rebuild");
        }
        let environment = [
            Error::from(ErrorKind::PermissionDenied),
            Error::from_raw_os_error(24), // EMFILE: fd exhaustion
            Error::from(StorageError::io("read page", Error::from(ErrorKind::Interrupted))),
            Error::other("device busy"),
        ];
        for e in &environment {
            assert!(!is_damage(e), "{e} must fail the open, not rebuild");
        }
    }
}
