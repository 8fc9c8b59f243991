//! The hyperlinked XML graph model of XRANK (Section 2.1).
//!
//! The paper defines a collection of hyperlinked XML documents as a directed
//! graph `G = (N, CE, HE)`: nodes are elements and values, `CE` are
//! containment edges, and `HE` are hyperlink edges (IDREFs within a
//! document, XLinks across documents). Two conventions from Section 2.1
//! are applied while building the graph:
//!
//! * **attributes are treated as sub-elements** — each `name="value"`
//!   attribute becomes a child element named `name` containing the value;
//! * **element tag names and attribute names are treated as values** — the
//!   tag name is a searchable token of its element (this is what makes the
//!   paper's `author gray` anecdote work: the keyword `author` matches the
//!   `<author>` tag itself).
//!
//! [`CollectionBuilder`] ingests parsed XML documents ([`xrank_xml::Document`])
//! and flattened HTML pages ([`xrank_xml::html::HtmlPage`]), assigns Dewey
//! IDs (document id first, then sibling positions — Figure 3), tokenizes all
//! value text into a single document-order token stream per document (the
//! basis of the one-dimensional keyword-distance axis of the proximity
//! metric), interns terms in a [`Vocabulary`], and resolves IDREF/XLink
//! hyperlinks into element-to-element edges.
//!
//! Element ids are assigned in global document order, so **`ElemId` order
//! coincides with Dewey order** — a property the index builders rely on and
//! the tests pin down.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod model;
mod serialize;
mod tokenize;
mod vocab;

pub use builder::{CollectionBuilder, LinkSpec};
pub use model::{Collection, DocInfo, ElemId, Element, SubtreeTerms, TokenOccurrence};
pub use tokenize::tokenize;
pub use vocab::{TermId, Vocabulary};
