//! The in-memory graph: element arena, containment and hyperlink edges.

use crate::vocab::{TermId, Vocabulary};
use xrank_dewey::{DeweyId, DocId};

/// Global element id, assigned in document order across the collection.
/// Because documents are numbered in insertion order and elements in
/// pre-order, `ElemId` order equals global Dewey order.
pub type ElemId = u32;

/// One token directly contained by an element: the interned term and its
/// position in the document-order token stream of the whole document.
/// Positions are document-global so that the minimal-window proximity of
/// Section 2.3.2.2 is well-defined across sub-elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenOccurrence {
    /// Interned term.
    pub term: TermId,
    /// Document-order word offset.
    pub pos: u32,
}

/// An element node (values are folded into `tokens`; attributes appear as
/// child elements per Section 2.1).
#[derive(Debug, Clone)]
pub struct Element {
    /// Owning document.
    pub doc: DocId,
    /// The element's Dewey ID (document id first).
    pub dewey: DeweyId,
    /// Tag name as written (attribute-elements use the attribute name).
    pub name: Box<str>,
    /// Parent element, `None` for document roots.
    pub parent: Option<ElemId>,
    /// Child elements in document order (attribute-elements first).
    pub children: Vec<ElemId>,
    /// Tokens *directly* contained: the tag name's tokens, then (for
    /// attribute-elements) the value's tokens, then direct text tokens —
    /// in document order.
    pub tokens: Vec<TokenOccurrence>,
    /// Resolved outgoing hyperlink edges (IDREF and XLink targets).
    pub links_out: Vec<ElemId>,
}

impl Element {
    /// Number of sub-elements, `N_c(u)` in the ElemRank formulas.
    pub fn n_children(&self) -> usize {
        self.children.len()
    }

    /// Number of outgoing hyperlinks, `N_h(u)` in the ElemRank formulas.
    pub fn n_hyperlinks(&self) -> usize {
        self.links_out.len()
    }
}

/// Per-document metadata.
#[derive(Debug, Clone)]
pub struct DocInfo {
    /// The document's URI (used to resolve XLink targets).
    pub uri: String,
    /// Root element.
    pub root: ElemId,
    /// Number of elements in the document, `N_de(v)` for its elements.
    pub element_count: u32,
    /// Number of tokens in the document's token stream.
    pub token_count: u32,
}

/// A built collection of hyperlinked documents: `G = (N, CE, HE)`.
#[derive(Debug)]
pub struct Collection {
    pub(crate) docs: Vec<DocInfo>,
    pub(crate) elements: Vec<Element>,
    pub(crate) vocab: Vocabulary,
    pub(crate) unresolved_links: u32,
}

impl Collection {
    /// Number of documents, `N_d`.
    pub fn doc_count(&self) -> usize {
        self.docs.len()
    }

    /// Number of elements, `N_e`.
    pub fn element_count(&self) -> usize {
        self.elements.len()
    }

    /// Borrow an element.
    pub fn element(&self, id: ElemId) -> &Element {
        &self.elements[id as usize]
    }

    /// All elements in `ElemId` (= document, = Dewey) order.
    pub fn elements(&self) -> impl Iterator<Item = (ElemId, &Element)> {
        self.elements.iter().enumerate().map(|(i, e)| (i as ElemId, e))
    }

    /// Per-document metadata.
    pub fn doc(&self, doc: DocId) -> &DocInfo {
        &self.docs[doc as usize]
    }

    /// All documents in id order.
    pub fn docs(&self) -> &[DocInfo] {
        &self.docs
    }

    /// The interned term table.
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocab
    }

    /// Count of hyperlink references that could not be resolved to a target
    /// element (dangling IDREFs, XLinks to unknown URIs).
    pub fn unresolved_links(&self) -> u32 {
        self.unresolved_links
    }

    /// Total number of resolved hyperlink edges, `|HE|`.
    pub fn hyperlink_count(&self) -> usize {
        self.elements.iter().map(|e| e.links_out.len()).sum()
    }

    /// Total number of containment edges, `|CE|` (equivalently, the number
    /// of non-root elements).
    pub fn containment_count(&self) -> usize {
        self.elements.iter().map(|e| e.children.len()).sum()
    }

    /// An element's resolved outgoing hyperlink targets.
    pub fn links_from(&self, id: ElemId) -> &[ElemId] {
        &self.elements[id as usize].links_out
    }

    /// An element's children in document order.
    pub fn children_of(&self, id: ElemId) -> &[ElemId] {
        &self.elements[id as usize].children
    }

    /// An element's parent (`None` for document roots).
    pub fn parent_of(&self, id: ElemId) -> Option<ElemId> {
        self.elements[id as usize].parent
    }

    /// The three out-degree figures of the ElemRank formulas in one probe:
    /// `(N_h, N_c, has_parent)` — hyperlinks out, children, and whether a
    /// reverse containment edge exists. Lets a rank-graph builder size CSR
    /// rows in a single sweep without touching the edge `Vec`s twice.
    pub fn out_degrees(&self, id: ElemId) -> (usize, usize, bool) {
        let e = &self.elements[id as usize];
        (e.links_out.len(), e.children.len(), e.parent.is_some())
    }

    /// Upper bound on the total directed edge count of the ElemRank
    /// navigation graph: `|HE| + 2·|CE|` (every containment edge appears
    /// forward and reverse). Used to pre-size flattened edge arrays.
    pub fn nav_edge_bound(&self) -> usize {
        self.hyperlink_count() + 2 * self.containment_count()
    }

    /// Finds the element with exactly this Dewey ID by walking its path:
    /// from the document's root, each component after the root's `0` is
    /// a child index (the builder numbers attribute-elements and child
    /// elements `0, 1, 2, …` in document order). O(depth); `None` for an
    /// unknown document, a root component other than `0`, an index past
    /// the last child, or an ID shorter than `[doc, 0]`.
    pub fn elem_by_dewey(&self, dewey: &DeweyId) -> Option<ElemId> {
        let (&doc, rest) = dewey.components().split_first()?;
        let (&0, path) = rest.split_first()? else { return None };
        let mut cur = self.docs.get(doc as usize)?.root;
        let mut elem = self.elements.get(cur as usize)?;
        for &c in path {
            cur = *elem.children.get(c as usize)?;
            elem = &self.elements[cur as usize];
        }
        Some(cur)
    }

    /// Maximum element depth over the collection (document roots are depth
    /// 0); a dataset-shape statistic used by the experiments.
    pub fn max_depth(&self) -> usize {
        self.elements
            .iter()
            .filter_map(|e| e.dewey.depth())
            .max()
            .unwrap_or(0)
    }

    /// Reconstructs the concatenated direct-text of an element subtree by
    /// walking tokens in document order. Debug/UX helper for examples.
    pub fn subtree_terms(&self, id: ElemId) -> Vec<&str> {
        self.subtree_term_iter(id).collect()
    }

    /// The terms of an element subtree in document order, produced lazily
    /// by a pre-order walk whose stack holds one child cursor per level,
    /// so taking the first few terms costs O(depth + terms taken).
    pub fn subtree_term_iter(&self, id: ElemId) -> SubtreeTerms<'_> {
        let e = self.element(id);
        SubtreeTerms {
            collection: self,
            tokens: e.tokens.iter(),
            stack: vec![e.children.iter()],
        }
    }
}

/// Iterator returned by [`Collection::subtree_term_iter`].
#[derive(Debug)]
pub struct SubtreeTerms<'a> {
    collection: &'a Collection,
    /// The direct tokens of the element being visited.
    tokens: std::slice::Iter<'a, TokenOccurrence>,
    /// The unvisited children of each open ancestor, innermost last.
    stack: Vec<std::slice::Iter<'a, ElemId>>,
}

impl<'a> Iterator for SubtreeTerms<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        loop {
            if let Some(t) = self.tokens.next() {
                return Some(self.collection.vocab.term(t.term));
            }
            let next = loop {
                match self.stack.last_mut()?.next() {
                    Some(&c) => break c,
                    None => {
                        self.stack.pop();
                    }
                }
            };
            let e = self.collection.element(next);
            self.tokens = e.tokens.iter();
            self.stack.push(e.children.iter());
        }
    }
}
