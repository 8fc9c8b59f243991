//! Dewey identifiers for XML elements, as used by the XRANK system
//! (Guo et al., SIGMOD 2003, Section 4.2).
//!
//! A *Dewey ID* identifies an element by the path of sibling positions from
//! the document root down to the element; the first component is the
//! document id so that a single total order covers a whole collection
//! (paper, Section 4.2.1: "To handle multiple documents, the first component
//! of each Dewey ID is the document ID").
//!
//! Two properties make Dewey IDs the backbone of the DIL/RDIL/HDIL index
//! family:
//!
//! 1. **Prefix = ancestor.** The ID of an ancestor is a strict prefix of the
//!    ID of each of its descendants, so ancestor/descendant tests and
//!    deepest-common-ancestor computations reduce to prefix operations.
//! 2. **Document order = lexicographic order.** Sorting postings by Dewey ID
//!    clusters all descendants of any element contiguously, which is what
//!    lets the Figure 5 stack algorithm run in a single pass.
//!
//! The [`codec`] module provides the compact binary encoding the paper
//! alludes to ("a small number of bits are usually sufficient to encode each
//! component"): a prefix-free, order-preserving varint per component, so
//! that *byte-lexicographic comparison of encoded IDs equals logical
//! comparison* — the disk B+-tree compares raw key bytes without decoding.
//! (Posting lists delta-encode IDs within a block on top of this; see
//! `xrank_index::block`.)

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
mod id;

pub use id::{DeweyId, DocId};
