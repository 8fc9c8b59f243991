//! Term interning: term string ⇄ dense [`TermId`].
//!
//! Inverted lists are keyed by term; interning once at graph-build time
//! means the index and query layers work with dense integer ids.

use std::borrow::Cow;
use std::collections::HashMap;

/// Dense id of an interned term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u32);

impl TermId {
    /// The dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Bidirectional term table.
#[derive(Debug, Default, Clone)]
pub struct Vocabulary {
    map: HashMap<String, TermId>,
    terms: Vec<String>,
}

impl Vocabulary {
    /// Empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `term` (already lowercased by the tokenizer), returning its id.
    pub fn intern(&mut self, term: &str) -> TermId {
        if let Some(&id) = self.map.get(term) {
            return id;
        }
        let id = TermId(self.terms.len() as u32);
        self.terms.push(term.to_string());
        self.map.insert(term.to_string(), id);
        id
    }

    /// Looks up a term without interning. Query keywords are lowercased
    /// before lookup so user input matches the tokenizer's normalization;
    /// only a term that lowercasing changes (one holding an uppercase or
    /// titlecase character) is copied to do so.
    pub fn lookup(&self, term: &str) -> Option<TermId> {
        let lowered: Cow<str> = if term.chars().any(|c| c.to_lowercase().ne([c])) {
            Cow::Owned(term.to_lowercase())
        } else {
            Cow::Borrowed(term)
        };
        self.map.get(lowered.as_ref()).copied()
    }

    /// The term string for `id`.
    pub fn term(&self, id: TermId) -> &str {
        &self.terms[id.index()]
    }

    /// Number of distinct terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True when no terms are interned.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Iterates `(TermId, term)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (TermId, &str)> {
        self.terms
            .iter()
            .enumerate()
            .map(|(i, t)| (TermId(i as u32), t.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut v = Vocabulary::new();
        let a = v.intern("xql");
        let b = v.intern("xql");
        assert_eq!(a, b);
        assert_eq!(v.len(), 1);
        assert_eq!(v.term(a), "xql");
    }

    #[test]
    fn lookup_lowercases_queries() {
        let mut v = Vocabulary::new();
        let id = v.intern("ricardo");
        assert_eq!(v.lookup("Ricardo"), Some(id));
        assert_eq!(v.lookup("RICARDO"), Some(id));
        assert_eq!(v.lookup("missing"), None);
        // Titlecase letters are not uppercase, but lowercasing changes them.
        let dz = v.intern("\u{01C6}x");
        assert_eq!(v.lookup("\u{01C5}x"), Some(dz));
        assert_eq!(v.lookup("\u{01C6}x"), Some(dz));
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut v = Vocabulary::new();
        let ids: Vec<_> = ["a", "b", "c"].iter().map(|t| v.intern(t)).collect();
        assert_eq!(ids, vec![TermId(0), TermId(1), TermId(2)]);
        let collected: Vec<_> = v.iter().map(|(_, t)| t.to_string()).collect();
        assert_eq!(collected, vec!["a", "b", "c"]);
    }
}
