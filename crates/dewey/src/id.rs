//! The [`DeweyId`] type and its ordering / prefix algebra.

use std::cmp::Ordering;
use std::fmt;

/// A document identifier. Stored as the first Dewey component.
pub type DocId = u32;

/// A Dewey identifier: document id followed by the sibling-position path
/// from the root element to the identified element.
///
/// `d.c1.c2.....ck` identifies the element reached from the root of document
/// `d` by taking its `c1`-th child, then that element's `c2`-th child, and
/// so on (0-based, as in the paper's Figure 3). The root element of document
/// `d` is `d.0`.
///
/// The natural ordering is lexicographic on components, which coincides with
/// document order and sorts every ancestor immediately before its
/// descendants.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct DeweyId {
    components: Vec<u32>,
}

impl DeweyId {
    /// The ID of the root element of document `doc`.
    pub fn root(doc: DocId) -> Self {
        DeweyId { components: vec![doc, 0] }
    }

    /// Builds an ID from raw components. The first component is the document
    /// id. An empty component list is the (artificial) "collection root",
    /// which is an ancestor of everything; it never appears in an index.
    pub fn from_components(components: Vec<u32>) -> Self {
        DeweyId { components }
    }

    /// The raw components, document id first.
    pub fn components(&self) -> &[u32] {
        &self.components
    }

    /// The component buffer itself, so a decoder can refill an existing ID
    /// in place and keep its allocation instead of building a new one.
    pub fn components_mut(&mut self) -> &mut Vec<u32> {
        &mut self.components
    }

    /// Number of components (document id included).
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// True for the artificial collection root (no components).
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// The document this element belongs to. `None` for the collection root.
    pub fn doc(&self) -> Option<DocId> {
        self.components.first().copied()
    }

    /// Depth of the element within its document: the root element has depth
    /// 0, its children depth 1, and so on. `None` for the collection root.
    pub fn depth(&self) -> Option<usize> {
        if self.components.len() >= 2 {
            Some(self.components.len() - 2)
        } else {
            None
        }
    }

    /// The ID of this element's `child`-th child.
    pub fn child(&self, child: u32) -> Self {
        let mut components = Vec::with_capacity(self.components.len() + 1);
        components.extend_from_slice(&self.components);
        components.push(child);
        DeweyId { components }
    }

    /// The ID of the parent element, or `None` if this is a document root
    /// (whose parent would be the artificial collection root) or the
    /// collection root itself.
    pub fn parent(&self) -> Option<Self> {
        if self.components.len() <= 2 {
            None
        } else {
            Some(DeweyId { components: self.components[..self.components.len() - 1].to_vec() })
        }
    }

    /// True iff `self` is an ancestor of `other` (strict: an element is not
    /// its own ancestor). Per the prefix property this is a prefix test.
    pub fn is_ancestor_of(&self, other: &DeweyId) -> bool {
        self.components.len() < other.components.len()
            && other.components[..self.components.len()] == self.components[..]
    }

    /// True iff `self` is `other` or an ancestor of `other`.
    pub fn is_ancestor_or_self_of(&self, other: &DeweyId) -> bool {
        self.components.len() <= other.components.len()
            && other.components[..self.components.len()] == self.components[..]
    }

    /// Length (in components) of the longest common prefix of two IDs.
    /// This is the core operation of both the Figure 5 merge (line 11) and
    /// the Figure 7 B+-tree probe.
    pub fn common_prefix_len(&self, other: &DeweyId) -> usize {
        self.components
            .iter()
            .zip(other.components.iter())
            .take_while(|(a, b)| a == b)
            .count()
    }

    /// The deepest common ancestor-or-self of two IDs: the longest common
    /// prefix, as an ID.
    pub fn common_prefix(&self, other: &DeweyId) -> DeweyId {
        let n = self.common_prefix_len(other);
        DeweyId { components: self.components[..n].to_vec() }
    }

    /// Truncates to the first `len` components, yielding the ancestor at
    /// that prefix length (or the ID itself when `len >= self.len()`).
    pub fn prefix(&self, len: usize) -> DeweyId {
        let len = len.min(self.components.len());
        DeweyId { components: self.components[..len].to_vec() }
    }

    /// [`DeweyId::prefix`] in place: shortens the ID to its first `len`
    /// components (a no-op when `len >= self.len()`), keeping the buffer.
    pub fn truncate(&mut self, len: usize) {
        self.components.truncate(len);
    }

    /// The smallest ID strictly greater than every ID having `self` as a
    /// prefix — i.e. the exclusive upper bound of `self`'s subtree in the
    /// total order. Used to delimit B+-tree prefix range scans.
    ///
    /// Returns `None` for the pathological ID whose every component is
    /// `u32::MAX` (its subtree has no upper bound); real collections never
    /// produce it.
    pub fn subtree_upper_bound(&self) -> Option<DeweyId> {
        let mut components = self.components.clone();
        while let Some(last) = components.pop() {
            if let Some(bumped) = last.checked_add(1) {
                components.push(bumped);
                return Some(DeweyId { components });
            }
        }
        None
    }
}

impl Ord for DeweyId {
    fn cmp(&self, other: &Self) -> Ordering {
        self.components.cmp(&other.components)
    }
}

impl PartialOrd for DeweyId {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for DeweyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.components.is_empty() {
            return write!(f, "<collection-root>");
        }
        for (i, c) in self.components.iter().enumerate() {
            if i > 0 {
                write!(f, ".")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for DeweyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DeweyId({self})")
    }
}

impl From<&[u32]> for DeweyId {
    fn from(components: &[u32]) -> Self {
        DeweyId { components: components.to_vec() }
    }
}

impl<const N: usize> From<[u32; N]> for DeweyId {
    fn from(components: [u32; N]) -> Self {
        DeweyId { components: components.to_vec() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(c: &[u32]) -> DeweyId {
        DeweyId::from(c)
    }

    #[test]
    fn root_and_children() {
        let r = DeweyId::root(5);
        assert_eq!(r.components(), &[5, 0]);
        assert_eq!(r.doc(), Some(5));
        assert_eq!(r.depth(), Some(0));
        let c = r.child(3);
        assert_eq!(c.components(), &[5, 0, 3]);
        assert_eq!(c.depth(), Some(1));
        assert_eq!(c.parent(), Some(r.clone()));
        assert_eq!(r.parent(), None);
    }

    #[test]
    fn paper_figure3_example_ordering() {
        // Figure 4 of the paper merges 5.0.3.0.0 and 5.0.3.0.1 before
        // 6.0.3.8.3: verify lexicographic order matches.
        let a = id(&[5, 0, 3, 0, 0]);
        let b = id(&[5, 0, 3, 0, 1]);
        let c = id(&[6, 0, 3, 8, 3]);
        assert!(a < b && b < c);
        assert_eq!(a.common_prefix(&b), id(&[5, 0, 3, 0]));
        assert_eq!(a.common_prefix_len(&c), 0);
    }

    #[test]
    fn ancestor_is_prefix() {
        let anc = id(&[1, 0, 2]);
        let desc = id(&[1, 0, 2, 5, 7]);
        assert!(anc.is_ancestor_of(&desc));
        assert!(!desc.is_ancestor_of(&anc));
        assert!(!anc.is_ancestor_of(&anc));
        assert!(anc.is_ancestor_or_self_of(&anc));
        // ancestor sorts immediately before descendants
        assert!(anc < desc);
    }

    #[test]
    fn sibling_not_ancestor() {
        let a = id(&[1, 0, 2]);
        let b = id(&[1, 0, 3]);
        assert!(!a.is_ancestor_of(&b));
        assert_eq!(a.common_prefix(&b), id(&[1, 0]));
    }

    #[test]
    fn refilled_in_place_keeps_the_buffer() {
        let mut d = id(&[9, 0, 4, 2, 0]);
        let before = d.components().as_ptr();
        let buf = d.components_mut();
        buf.clear();
        buf.extend_from_slice(&[3, 0, 1]);
        assert_eq!(d, id(&[3, 0, 1]));
        assert_eq!(d.components().as_ptr(), before, "no reallocation for a shorter ID");
    }

    #[test]
    fn prefix_truncation() {
        let d = id(&[9, 0, 4, 2, 0]);
        assert_eq!(d.prefix(3), id(&[9, 0, 4]));
        assert_eq!(d.prefix(0), DeweyId::default());
        assert_eq!(d.prefix(99), d);
        let mut t = d.clone();
        let before = t.components().as_ptr();
        t.truncate(99);
        assert_eq!(t, d);
        t.truncate(3);
        assert_eq!(t, d.prefix(3));
        assert_eq!(t.components().as_ptr(), before, "truncation keeps the buffer");
    }

    #[test]
    fn subtree_upper_bound_simple() {
        let d = id(&[1, 0, 2]);
        let ub = d.subtree_upper_bound().unwrap();
        assert_eq!(ub, id(&[1, 0, 3]));
        assert!(d < ub);
        assert!(id(&[1, 0, 2, 1000]) < ub);
        assert!(!d.is_ancestor_or_self_of(&ub));
    }

    #[test]
    fn subtree_upper_bound_carries_over_max() {
        let d = id(&[1, 0, u32::MAX]);
        assert_eq!(d.subtree_upper_bound().unwrap(), id(&[1, 1]));
        let all_max = id(&[u32::MAX, u32::MAX]);
        assert_eq!(all_max.subtree_upper_bound(), None);
    }

    #[test]
    fn display_roundtrip_format() {
        assert_eq!(id(&[5, 0, 3, 0, 1]).to_string(), "5.0.3.0.1");
        assert_eq!(DeweyId::default().to_string(), "<collection-root>");
    }

    #[test]
    fn depth_of_document_root_is_zero() {
        assert_eq!(id(&[7]).depth(), None); // bare document component
        assert_eq!(id(&[7, 0]).depth(), Some(0));
        assert_eq!(id(&[7, 0, 1, 2]).depth(), Some(2));
    }
}
