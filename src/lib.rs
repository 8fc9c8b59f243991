//! # XRANK — Ranked Keyword Search over XML Documents
//!
//! A from-scratch Rust reproduction of *XRANK: Ranked Keyword Search over
//! XML Documents* (Guo, Shao, Botev, Shanmugasundaram — SIGMOD 2003),
//! including every substrate the paper depends on: an XML parser, the
//! hyperlinked element graph, the ElemRank computation, Dewey-encoded
//! inverted lists (DIL / RDIL / HDIL plus the two naive baselines), a
//! paged storage layer with a disk-cost simulator, the Figure 5 / Figure 7
//! query algorithms, and dataset generators reproducing the evaluation.
//!
//! ## Quickstart
//!
//! ```
//! use xrank::EngineBuilder;
//!
//! let mut builder = EngineBuilder::new();
//! builder.add_xml("doc", "<paper><title>XQL and Proximal Nodes</title>\
//!     <body>the XQL query language</body></paper>").unwrap();
//! let engine = builder.build();
//! for hit in engine.search("xql language", 10).unwrap().hits {
//!     println!("{:.3e}  <{}>", hit.score, hit.path.join("/"));
//! }
//! ```
//!
//! `search` and `search_any` empty the shared buffer pool before they
//! evaluate (the paper's cold-start setup), so they are single-stream
//! entry points; concurrent callers use [`XRankEngine::query`], which
//! reads the warm shared cache.
//!
//! ## Crate map
//!
//! | Module | Source crate | Paper section |
//! |---|---|---|
//! | [`engine`] | `xrank-core` | Fig. 2 architecture |
//! | [`xml`] | `xrank-xml` | §2.1 data model inputs |
//! | [`dewey`] | `xrank-dewey` | §4.2 Dewey IDs |
//! | [`graph`] | `xrank-graph` | §2.1 G = (N, CE, HE) |
//! | [`rank`] | `xrank-rank` | §3 ElemRank |
//! | [`storage`] | `xrank-storage` | §4.3 B+-trees, §5.1 setup |
//! | [`index`] | `xrank-index` | §4.1–4.4 index family |
//! | [`query`] | `xrank-query` | Fig. 5, Fig. 7, §4.4.2 |
//! | [`datagen`] | `xrank-datagen` | §5.1 datasets |
//! | [`obs`] | `xrank-obs` | metrics + query tracing |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use xrank_core::{
    render_chrome_trace, validate_chrome_trace, AdmissionPolicy, AnswerNodes, CommitStats,
    CompactStats, CompactionPolicy, Compactor, CrashPoint, DegradeReason, EngineBuilder,
    EngineConfig, Explain, FlightRecord, FlightRecorder, ObsConfig, OpKind, OpOutcome,
    PinnedSnapshot, QueryExecutor, QueryRequest, RecorderConfig, ScrubCursor, ScrubPolicy,
    ScrubReport, Scrubber, SearchHit, SearchResults, SlowOpEntry, SlowQueryEntry, Snapshot,
    Strategy, SyncPolicy, TraceCheck, TrackSummary, UpdatableXRank, UpdateError, WalConfig,
    WalFault, XRankEngine,
};

/// Dewey identifiers and codecs (`xrank-dewey`).
pub mod dewey {
    pub use xrank_dewey::*;
}

/// XML and HTML parsing (`xrank-xml`).
pub mod xml {
    pub use xrank_xml::*;
}

/// The hyperlinked XML graph model (`xrank-graph`).
pub mod graph {
    pub use xrank_graph::*;
}

/// ElemRank and PageRank (`xrank-rank`).
pub mod rank {
    pub use xrank_rank::*;
}

/// Paged storage, buffer pool, B+-trees, hash index (`xrank-storage`).
pub mod storage {
    pub use xrank_storage::*;
}

/// The inverted index family (`xrank-index`).
pub mod index {
    pub use xrank_index::*;
}

/// Query processors (`xrank-query`).
pub mod query {
    pub use xrank_query::*;
}

/// Dataset and workload generators (`xrank-datagen`).
pub mod datagen {
    pub use xrank_datagen::*;
}

/// Metrics registry and per-query tracing (`xrank-obs`).
pub mod obs {
    pub use xrank_obs::*;
}

/// The engine facade (`xrank-core`).
pub mod engine {
    pub use xrank_core::*;
}
