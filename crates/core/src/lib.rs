//! The XRANK engine facade: the end-to-end system of Figure 2.
//!
//! Ties the substrates together into the pipeline the paper's architecture
//! diagram shows: documents → XML graph (`xrank-graph`) → *ElemRank
//! Computation* (`xrank-rank`) → *HDIL generation* (`xrank-index`) →
//! *Query Evaluator* (`xrank-query`) → ranked results.
//!
//! ```
//! use xrank_core::{EngineBuilder, Strategy};
//!
//! let mut builder = EngineBuilder::new();
//! builder
//!     .add_xml(
//!         "workshop",
//!         "<workshop><paper><title>XQL and Proximal Nodes</title>\
//!          <body>the XQL query language</body></paper></workshop>",
//!     )
//!     .unwrap();
//! let engine = builder.build();
//! let hits = engine.search("xql language", 10).unwrap();
//! assert!(!hits.hits.is_empty());
//! assert_eq!(hits.hits[0].path.last().map(String::as_str), Some("body"));
//! ```
//!
//! [`XRankEngine::search`] and [`XRankEngine::search_any`] empty the
//! shared buffer pool before they evaluate (the paper's cold-start
//! setup), so they are single-stream entry points; concurrent callers use
//! [`XRankEngine::query`], which reads the warm shared cache.
//!
//! The engine also implements the paper's two result-presentation aids
//! (Section 2.2): *answer nodes* (restrict results to a set of element
//! tags, promoting deeper matches to their closest answer-node ancestor)
//! and HTML mode (each HTML page is one element, so only whole pages are
//! returned — the Google-generalization behaviour).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod executor;
mod manifest;
mod persist;
mod results;
mod snapshot;
mod telemetry;
mod update;
mod wal;
mod worker;

pub use engine::{AnswerNodes, EngineBuilder, EngineConfig, Strategy, XRankEngine};
pub use executor::{AdmissionPolicy, QueryExecutor, QueryReply, QueryRequest};
pub use results::{SearchHit, SearchResults};
pub use snapshot::Snapshot;
pub use telemetry::{Explain, ObsConfig, SlowOpEntry, SlowQueryEntry};
pub use update::{
    CommitStats, CompactStats, CrashPoint, PinnedSnapshot, ScrubCursor, ScrubReport,
    UpdatableXRank, UpdateError,
};
pub use wal::{SyncPolicy, WalConfig, WalFault};
pub use worker::{CompactionPolicy, Compactor, ScrubPolicy, Scrubber};
pub use xrank_obs::{
    render_chrome_trace, render_chrome_trace_normalized, validate_chrome_trace, DegradeReason,
    FlightRecord, FlightRecorder, OpKind, OpOutcome, RecorderConfig, TraceCheck, TrackSummary,
};
