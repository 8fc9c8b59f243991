//! The update pipeline's background work: one worker skeleton, two
//! policies.
//!
//! A [`BackgroundWorker`] owns one named thread that wakes every
//! [`WorkerPolicy::interval`] (or when [`BackgroundWorker::nudge`]d) and
//! runs its policy's [`WorkerPolicy::tick`] against the pipeline:
//!
//! * a [`Compactor`] (policy [`CompactionPolicy`]) folds the small
//!   segments through [`UpdatableXRank::merge_small`] once commits have
//!   accumulated more than [`CompactionPolicy::max_segments`] of them —
//!   dropping tombstoned postings, re-resolving cross-segment hyperlinks,
//!   and warm-starting ElemRank from the folded segments' rank vectors;
//! * a [`Scrubber`] (policy [`ScrubPolicy`]) re-reads
//!   [`ScrubPolicy::pages_per_chunk`] sealed pages off the medium per
//!   wake-up through [`UpdatableXRank::scrub_chunk`], which quarantines a
//!   segment whose page fails its checksum; with
//!   [`ScrubPolicy::auto_repair`] the worker then rebuilds it through
//!   [`UpdatableXRank::repair_segment`].
//!
//! Shutdown (explicit or on drop) cancels a shared [`CancelToken`] —
//! observed by an in-flight fold at its phase boundaries, so a cancelled
//! fold publishes nothing — wakes the worker, and joins it. The worker
//! holds only a `Weak` reference to the pipeline and upgrades it for one
//! tick at a time, so dropping the last user `Arc` frees the pipeline and
//! ends the thread at its next wake-up.
//!
//! The thread names (`xrank-compactor`, `xrank-scrubber`) give each
//! worker's folds, scrubs and repairs their own track in flight-recorder
//! trace dumps ([`UpdatableXRank::dump_trace_json`]).

use crate::update::{ScrubCursor, UpdatableXRank};
use std::marker::PhantomData;
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::Duration;
use xrank_query::CancelToken;

/// What a [`BackgroundWorker`] does on each wake-up.
pub trait WorkerPolicy: Send + 'static {
    /// The worker thread's name (its flight-recorder track).
    const THREAD: &'static str;
    /// State the worker carries from one tick to the next.
    type State: Default;
    /// How long the worker sleeps between ticks without a nudge.
    fn interval(&self) -> Duration;
    /// One unit of background work. Failures are counted by the
    /// pipeline's own counters; the worker keeps serving.
    fn tick(&self, state: &mut Self::State, index: &UpdatableXRank, cancel: &CancelToken);
}

/// When and what the background compactor folds.
#[derive(Debug, Clone)]
pub struct CompactionPolicy {
    /// Fold when the published snapshot holds more than this many
    /// segments.
    pub max_segments: usize,
    /// Only segments of at most this many source bytes are folded; big
    /// sealed segments stay untouched until a full
    /// [`UpdatableXRank::compact`].
    pub small_bytes: u64,
    /// How often the worker re-checks without a nudge.
    pub interval: Duration,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        CompactionPolicy {
            max_segments: 4,
            small_bytes: 8 << 20,
            interval: Duration::from_millis(500),
        }
    }
}

impl WorkerPolicy for CompactionPolicy {
    const THREAD: &'static str = "xrank-compactor";
    type State = ();

    fn interval(&self) -> Duration {
        self.interval
    }

    fn tick(&self, _: &mut (), index: &UpdatableXRank, cancel: &CancelToken) {
        if index.segment_count() > self.max_segments {
            // A cancelled fold ends the loop at its next cancel check; a
            // failed one is counted and retried on a later tick.
            let _ = index.merge_small(self.small_bytes, Some(cancel));
        }
    }
}

/// How fast (and how autonomously) the background scrubber works.
#[derive(Debug, Clone)]
pub struct ScrubPolicy {
    /// Pause between verification chunks — the throttle that keeps the
    /// scrub's read traffic from competing with queries.
    pub interval: Duration,
    /// Physical pages verified per chunk.
    pub pages_per_chunk: u64,
    /// Whether a quarantined segment is repaired immediately by the
    /// worker itself. Off, the quarantine stands until an operator (or
    /// test) calls [`UpdatableXRank::repair_segment`].
    pub auto_repair: bool,
}

impl Default for ScrubPolicy {
    fn default() -> Self {
        ScrubPolicy {
            interval: Duration::from_millis(250),
            pages_per_chunk: 256,
            auto_repair: true,
        }
    }
}

impl WorkerPolicy for ScrubPolicy {
    const THREAD: &'static str = "xrank-scrubber";
    type State = ScrubCursor;

    fn interval(&self) -> Duration {
        self.interval
    }

    fn tick(&self, cursor: &mut ScrubCursor, index: &UpdatableXRank, _: &CancelToken) {
        let report = index.scrub_chunk(self.pages_per_chunk, cursor);
        if self.auto_repair {
            for seg_id in report.corrupt_segments {
                // A failed repair leaves the quarantine standing: the
                // segment keeps failing fast and the next report (or an
                // operator) retries.
                let _ = index.repair_segment(seg_id);
            }
        }
    }
}

/// The background compaction worker.
pub type Compactor = BackgroundWorker<CompactionPolicy>;
/// The background integrity-scrub worker.
pub type Scrubber = BackgroundWorker<ScrubPolicy>;

struct Shared {
    cancel: CancelToken,
    nudged: Mutex<bool>,
    cv: Condvar,
}

/// Handle to one background worker thread. Dropping it (or calling
/// [`BackgroundWorker::shutdown`]) cancels any in-flight fold at its next
/// phase boundary and joins the thread.
pub struct BackgroundWorker<P: WorkerPolicy> {
    shared: Arc<Shared>,
    handle: Option<std::thread::JoinHandle<()>>,
    policy: PhantomData<fn() -> P>,
}

impl<P: WorkerPolicy> BackgroundWorker<P> {
    /// Spawns the worker against `index` under `policy`.
    pub fn spawn(index: &Arc<UpdatableXRank>, policy: P) -> Self {
        let shared = Arc::new(Shared {
            cancel: CancelToken::new(),
            nudged: Mutex::new(false),
            cv: Condvar::new(),
        });
        let weak = Arc::downgrade(index);
        let worker_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name(P::THREAD.into())
            .spawn(move || Self::run(weak, policy, worker_shared))
            .expect("spawn background worker");
        BackgroundWorker { shared, handle: Some(handle), policy: PhantomData }
    }

    fn run(weak: Weak<UpdatableXRank>, policy: P, shared: Arc<Shared>) {
        let mut state = P::State::default();
        loop {
            {
                let guard = shared.nudged.lock().unwrap_or_else(|e| e.into_inner());
                let (mut guard, _) = shared
                    .cv
                    .wait_timeout_while(guard, policy.interval(), |nudged| {
                        !*nudged && !shared.cancel.is_cancelled()
                    })
                    .unwrap_or_else(|e| e.into_inner());
                *guard = false;
            }
            if shared.cancel.is_cancelled() {
                return;
            }
            let Some(index) = weak.upgrade() else { return };
            policy.tick(&mut state, &index, &shared.cancel);
        }
    }

    /// Wakes the worker now instead of waiting out its interval.
    pub fn nudge(&self) {
        let mut nudged = self.shared.nudged.lock().unwrap_or_else(|e| e.into_inner());
        *nudged = true;
        self.shared.cv.notify_all();
    }

    /// Cancels any in-flight fold (observed at its phase boundaries — a
    /// cancelled fold publishes nothing) and joins the worker. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.cancel.cancel();
        self.nudge();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl<P: WorkerPolicy> Drop for BackgroundWorker<P> {
    fn drop(&mut self) {
        self.shutdown();
    }
}
