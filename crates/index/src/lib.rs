//! The XRANK inverted-list index family (paper, Sections 4.1–4.4).
//!
//! Five index structures over the same posting data, exactly as the
//! paper's evaluation compares them:
//!
//! | Index | List order | Entries | Auxiliary index |
//! |---|---|---|---|
//! | [`NaiveIdIndex`] | element id | every element that contains the keyword **including all ancestors** | — |
//! | [`NaiveRankIndex`] | ElemRank desc | same replicated entries | paged hash index on (term, element id) |
//! | [`DilIndex`] | Dewey ID | only elements *directly* containing the keyword | — |
//! | [`RdilIndex`] | ElemRank desc | direct elements | B+-tree on (term, Dewey) with posting payloads |
//! | [`HdilIndex`] | both | full list by Dewey + top-rank prefix by ElemRank | none stored: the Dewey list **is** the B+-tree's leaf level and its in-memory skip table the non-leaf part |
//!
//! The naive pair exists to reproduce the paper's baselines: replicating
//! ancestors is what blows up Table 1's first two rows and produces the
//! spurious-result / extra-scan overheads of Figure 10.
//!
//! Posting payloads carry the element's ElemRank and the keyword's
//! document-order word positions (`posList`), which the query layer needs
//! for decay scaling (Section 2.3.2.1) and the proximity window
//! (Section 2.3.2.2).
//!
//! All five are bulk-built from a [`xrank_graph::Collection`] plus an
//! ElemRank score vector, write their pages through a
//! [`xrank_storage::BufferPool`], and report the space breakdown that
//! regenerates Table 1.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod block;
pub mod dil;
pub mod extract;
pub mod hdil;
pub mod listio;
pub mod naive;
pub mod posting;
pub mod rdil;

pub use dil::DilIndex;
pub use extract::{direct_postings, direct_postings_weighted, naive_postings, RankWeighting};
pub use hdil::{HdilIndex, HdilProbeCursor};
pub use naive::{NaiveIdIndex, NaiveRankIndex};
pub use posting::{NaivePosting, Posting};
pub use rdil::{RdilIndex, RdilProbeCursor};

/// Space occupied by an index, in the two columns of Table 1.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpaceBreakdown {
    /// Bytes of inverted-list pages.
    pub list_bytes: u64,
    /// Bytes of auxiliary index pages (B+-trees / hash directories).
    pub index_bytes: u64,
}

impl SpaceBreakdown {
    /// Total bytes.
    pub fn total(&self) -> u64 {
        self.list_bytes + self.index_bytes
    }
}
