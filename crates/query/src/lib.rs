//! Query processors for ranked XML keyword search (paper, Section 4).
//!
//! All processors evaluate *conjunctive* keyword queries and return the
//! top-`m` results under the Section 2.3.2 ranking:
//!
//! ```text
//! r(v₁, kᵢ)  = ElemRank(v_t) · decay^(t-1)        (specificity scaling)
//! r̂(v₁, kᵢ) = f(r₁ … r_m),  f ∈ {max, sum}       (occurrence aggregation)
//! R(v₁, Q)   = (Σᵢ r̂(v₁, kᵢ)) · p(v₁, k₁ … k_n)  (proximity factor)
//! ```
//!
//! * [`dil_query::evaluate`] — the single-pass Dewey-stack merge of
//!   Figure 5 (sorted-by-Dewey lists).
//! * [`rdil_query::evaluate`] — the Threshold-Algorithm evaluation of
//!   Figure 7 (rank-sorted lists + B+-tree longest-common-prefix probes),
//!   generic over [`access::RankedAccess`] so it drives both RDIL and
//!   HDIL's rank-sorted prefix.
//! * [`hdil_query::evaluate`] — the Section 4.4.2 adaptive strategy:
//!   start as RDIL, monitor progress, and switch to DIL when the estimated
//!   remaining RDIL cost exceeds the (computable a priori) DIL cost.
//! * [`naive_query`] — the two baselines: equality merge-join (Naive-ID)
//!   and hash-probe TA (Naive-Rank). They return *every* element
//!   containing all keywords — ancestors included — reproducing the
//!   spurious-result behaviour of Section 4.1.
//!
//! The DIL processor is the executable specification: property tests in
//! the workspace assert that RDIL and HDIL return exactly its result set
//! and top-m ranking, and that the naive result set is its ancestor
//! closure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod dil_query;
pub mod disjunctive;
pub mod hdil_query;
pub mod naive_query;
pub mod rdil_query;
pub mod score;

pub use access::RankedAccess;
pub use score::{Aggregation, Proximity, QueryOptions, QueryResult, TopM};

use xrank_storage::StorageError;

/// Why a query evaluation could not produce a result set.
///
/// Every processor returns `Result<QueryOutcome, QueryError>`: a fault in
/// the storage layer (I/O error, checksum mismatch, corrupt page) surfaces
/// as a typed error on exactly the queries whose page reads touched the
/// damage, never as a panic — the engine keeps serving everything else.
#[derive(Debug)]
pub enum QueryError {
    /// A page read or decode failed beneath the processor.
    Storage(StorageError),
    /// [`QueryOptions::timeout`] elapsed before evaluation finished.
    Timeout,
    /// The serving infrastructure rejected the query (e.g. the executor
    /// is shutting down).
    Unavailable(&'static str),
    /// Admission control shed the query: the executor's bounded queue was
    /// full (or stayed full past the submission deadline). The query never
    /// ran; resubmitting later is safe.
    Overloaded,
    /// [`QueryOptions::io_budget`] was exhausted before evaluation
    /// finished and `allow_partial` was not set.
    BudgetExhausted,
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Storage(e) => write!(f, "storage failure during query: {e}"),
            QueryError::Timeout => write!(f, "query deadline exceeded"),
            QueryError::Unavailable(why) => write!(f, "query service unavailable: {why}"),
            QueryError::Overloaded => write!(f, "query shed: executor at capacity"),
            QueryError::BudgetExhausted => write!(f, "query i/o budget exhausted"),
        }
    }
}

impl std::error::Error for QueryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QueryError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StorageError> for QueryError {
    fn from(e: StorageError) -> Self {
        QueryError::Storage(e)
    }
}

/// A shared cancellation flag observed by running queries at their loop
/// boundaries (the same places the deadline is checked).
///
/// The executor hands every in-flight query a clone of its shutdown token,
/// so `QueryExecutor::shutdown` (in the core crate) cannot hang on a
/// long-running evaluation: the next guard check surfaces
/// [`QueryError::Unavailable`]. Cheap to clone (one `Arc`).
#[derive(Debug, Clone, Default)]
pub struct CancelToken(std::sync::Arc<std::sync::atomic::AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Flags the token; every clone observes it.
    pub fn cancel(&self) {
        self.0.store(true, std::sync::atomic::Ordering::Release);
    }

    /// Whether [`CancelToken::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(std::sync::atomic::Ordering::Acquire)
    }
}

// Token identity is the shared flag, not its current value: two options
// structs are equal when they observe the same signal.
impl PartialEq for CancelToken {
    fn eq(&self, other: &Self) -> bool {
        std::sync::Arc::ptr_eq(&self.0, &other.0)
    }
}

/// The per-evaluation stop-condition monitor, checked at every processor
/// loop boundary (the PR 3 `check_deadline` sites, now also covering the
/// I/O budget and cooperative cancellation).
///
/// `should_stop` returns:
/// * `Ok(false)` — keep going;
/// * `Ok(true)` — a deadline or budget tripped **with `allow_partial`
///   set**: stop cleanly and return the best top-k so far, marked with
///   [`EvalGuard::degraded`];
/// * `Err(_)` — a hard stop: `Timeout`/`BudgetExhausted` without
///   `allow_partial`, or cancellation.
///
/// The budget is denominated in *logical page reads* (cache hits count:
/// the budget bounds work, and a fully cached query still burns CPU per
/// page touched), measured by a nested [`StatsScope`] so concurrent
/// queries meter only their own I/O.
pub(crate) struct EvalGuard {
    deadline: Option<std::time::Instant>,
    budget: Option<u64>,
    allow_partial: bool,
    cancel: Option<CancelToken>,
    scope: Option<xrank_storage::StatsScope>,
    tripped: Option<xrank_obs::DegradeReason>,
}

impl EvalGuard {
    pub(crate) fn new(opts: &QueryOptions) -> EvalGuard {
        EvalGuard {
            deadline: opts.deadline(),
            budget: opts.io_budget,
            allow_partial: opts.allow_partial,
            cancel: opts.cancel.clone(),
            // Only meter I/O when a budget is set: scopes are cheap but
            // not free, and the unbudgeted path must stay unchanged.
            scope: opts.io_budget.map(|_| xrank_storage::StatsScope::begin()),
            tripped: None,
        }
    }

    pub(crate) fn should_stop(&mut self) -> Result<bool, QueryError> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Err(QueryError::Unavailable("engine shutting down"));
            }
        }
        if self.tripped.is_some() {
            return Ok(true);
        }
        if let Some(d) = self.deadline {
            if std::time::Instant::now() >= d {
                if !self.allow_partial {
                    return Err(QueryError::Timeout);
                }
                self.tripped = Some(xrank_obs::DegradeReason::Deadline);
                return Ok(true);
            }
        }
        if let (Some(budget), Some(scope)) = (self.budget, &self.scope) {
            if scope.so_far().logical_reads() > budget {
                if !self.allow_partial {
                    return Err(QueryError::BudgetExhausted);
                }
                self.tripped = Some(xrank_obs::DegradeReason::IoBudget);
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// What tripped the early stop, if anything did.
    pub(crate) fn degraded(&self) -> Option<xrank_obs::DegradeReason> {
        self.tripped
    }

    /// Records the degradation (if any) as a trace event.
    pub(crate) fn note(&self, trace: &xrank_obs::QueryTrace) {
        if let Some(reason) = self.tripped {
            trace.event(
                xrank_obs::Stage::Degraded,
                xrank_obs::EventData::Degraded { reason },
            );
        }
    }
}

/// Counters a query evaluation reports alongside its results. I/O volume
/// is read from the buffer pool's own ledger; these count algorithmic
/// work.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct EvalStats {
    /// Inverted-list entries consumed.
    pub entries_scanned: u64,
    /// B+-tree `lowest_geq` probes issued (logically — memo hits count,
    /// since the algorithm asked the question even when the answer was
    /// cached; `btree_probes = probe_memo_hits + cursor_seeks +
    /// cursor_seeks_back + cursor_descents` on the cursor-driven path).
    pub btree_probes: u64,
    /// Probes answered from the per-term gap memo without touching the
    /// list at all (HDIL, whose probe searches a list block; an RDIL probe
    /// on its pinned leaf costs less than a memo lookup, so RDIL keeps
    /// none).
    pub probe_memo_hits: u64,
    /// Probes served by a stateful cursor seeking forward from its pinned
    /// leaf (no root re-descent).
    pub cursor_seeks: u64,
    /// Probes served by a cursor's backward sibling walk (no root
    /// re-descent).
    pub cursor_seeks_back: u64,
    /// Probes that fell back to a full root-to-leaf descent (cold cursor,
    /// or a target beyond the sibling-walk bound in either direction).
    pub cursor_descents: u64,
    /// Hash-index lookups issued.
    pub hash_probes: u64,
    /// Compressed list blocks decoded: by the list readers, and (HDIL) each
    /// block a probe or range scan loaded into its keyword cursor's
    /// decoded column.
    pub blocks_decoded: u64,
    /// Compressed list blocks skipped whole — their skip entry proved no
    /// needed posting could live inside, so they were never decoded.
    pub blocks_skipped: u64,
    /// Posting entries decoded off list pages and B+-tree leaves, whether
    /// or not the algorithm went on to use them: entries a reader yielded
    /// or dropped while seeking, entries a probe passed from its landing
    /// block's start (cached or not), and the entries a range scan read. HDIL's monitor uses it as its clock
    /// when the pool is warm (see [`SwitchDecision::clock`]).
    pub postings_decoded: u64,
    /// Prefix range scans issued.
    pub range_scans: u64,
    /// HDIL only: the adaptive strategy abandoned RDIL for DIL.
    pub switched_to_dil: bool,
    /// HDIL only: the quantities behind the Section 4.4.2 switch decision,
    /// recorded at the moment the strategy left RDIL. `None` when the
    /// query finished on RDIL (no switch) or did not run HDIL at all.
    pub switch: Option<SwitchDecision>,
}

/// Why (and with which numbers) HDIL abandoned RDIL for DIL — the
/// Section 4.4.2 decision, made auditable. `spent`, `rdil_remaining` and
/// `dil_estimate` are all in the unit of `clock`: simulated I/O units of
/// the engine's `CostModel` (the quantity Figures 10–11 plot) when the
/// RDIL phase did physical reads, postings decoded when it did none.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchDecision {
    /// The resource the monitor measured.
    pub clock: xrank_obs::SwitchClock,
    /// Spent in the RDIL phase when the decision fired.
    pub spent: f64,
    /// The `(m-r)·t/r` estimate of the remaining RDIL cost; `None` when
    /// no result had been confirmed yet (the estimate is undefined) or
    /// when the switch was forced by prefix exhaustion.
    pub rdil_remaining: Option<f64>,
    /// The a-priori DIL cost estimate: seeks + sequential scans over the
    /// keyword lists' pages on the I/O clock, the lists' entry count on
    /// the work clock.
    pub dil_estimate: f64,
    /// Results confirmed above the TA threshold at the decision point.
    pub confirmed: usize,
    /// What triggered the switch.
    pub reason: xrank_obs::SwitchReason,
}

/// A query outcome: ranked results plus work counters.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Results in descending overall rank (at most `m`).
    pub results: Vec<QueryResult>,
    /// Work counters.
    pub stats: EvalStats,
    /// `Some(reason)` when the evaluation stopped early (deadline or I/O
    /// budget, with `allow_partial` set) and `results` is the best top-k
    /// accumulated so far. Every returned hit carries its *exact* score:
    /// processors only emit elements whose evaluation completed, so a
    /// degraded result is an order-consistent subset of the full ranking,
    /// never an approximation of it.
    pub degraded: Option<xrank_obs::DegradeReason>,
}
