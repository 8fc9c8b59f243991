//! Binary persistence for [`Collection`].
//!
//! A persistent engine needs the collection back at query time (vocabulary
//! lookups, Dewey → element resolution, snippets), so the graph serializes
//! to a compact binary stream: Dewey IDs and child lists are *not* stored —
//! they are reconstructed from each element's parent pointer, because
//! element ids ascend in document order (children re-attach in their
//! original sibling order).
//!
//! Varints reuse the ordered-varint codec from `xrank-dewey` (any
//! prefix-free varint works for wire framing).

use crate::model::{Collection, DocInfo, Element, TokenOccurrence};
use crate::vocab::{TermId, Vocabulary};
use std::io::{self, Read, Write};
use xrank_dewey::{codec, DeweyId};

const MAGIC: &[u8; 4] = b"XRKC";
const VERSION: u32 = 1;
const NO_PARENT: u32 = u32::MAX;
/// Cap on a capacity reserved from a count the stream claims: the stream
/// carries no checksum, so a flipped count must end in an error at the
/// first missing record, not in an allocation abort.
const MAX_PREALLOC: u32 = 1 << 20;

fn put_u32<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn get_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn put_varint<W: Write>(w: &mut W, v: u32) -> io::Result<()> {
    let mut buf = Vec::with_capacity(5);
    codec::write_component(v, &mut buf);
    w.write_all(&buf)
}

fn get_varint<R: Read>(r: &mut R) -> io::Result<u32> {
    // Ordered varints are ≤ 5 bytes; read the tag byte, then the tail.
    let mut first = [0u8; 1];
    r.read_exact(&mut first)?;
    let extra = match first[0] {
        0x00..=0x7F => return Ok(first[0] as u32),
        0x80..=0xBF => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        0xF0 => 4,
        _ => return Err(bad("invalid varint tag")),
    };
    let mut buf = [first[0], 0, 0, 0, 0];
    r.read_exact(&mut buf[1..=extra])?;
    codec::read_component(&buf[..=extra])
        .map(|(v, _)| v)
        .map_err(|e| bad(&format!("varint: {e}")))
}

fn put_str<W: Write>(w: &mut W, s: &str) -> io::Result<()> {
    put_varint(w, s.len() as u32)?;
    w.write_all(s.as_bytes())
}

fn get_str<R: Read>(r: &mut R) -> io::Result<String> {
    let len = get_varint(r)? as usize;
    if len > 1 << 24 {
        return Err(bad("implausible string length"));
    }
    let mut b = vec![0u8; len];
    r.read_exact(&mut b)?;
    String::from_utf8(b).map_err(|_| bad("invalid utf-8"))
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("collection stream: {msg}"))
}

impl Collection {
    /// Serializes the collection.
    pub fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(MAGIC)?;
        put_u32(w, VERSION)?;

        put_u32(w, self.docs.len() as u32)?;
        for d in &self.docs {
            put_str(w, &d.uri)?;
            put_u32(w, d.root)?;
            put_u32(w, d.element_count)?;
            put_u32(w, d.token_count)?;
        }

        put_u32(w, self.vocab.len() as u32)?;
        for (_, term) in self.vocab.iter() {
            put_str(w, term)?;
        }

        put_u32(w, self.unresolved_links)?;

        put_u32(w, self.elements.len() as u32)?;
        for e in &self.elements {
            put_u32(w, e.doc)?;
            put_str(w, &e.name)?;
            put_u32(w, e.parent.unwrap_or(NO_PARENT))?;
            put_varint(w, e.tokens.len() as u32)?;
            let mut prev_pos = 0u32;
            for (i, t) in e.tokens.iter().enumerate() {
                put_varint(w, t.term.0)?;
                let delta = if i == 0 { t.pos } else { t.pos - prev_pos };
                put_varint(w, delta)?;
                prev_pos = t.pos;
            }
            put_varint(w, e.links_out.len() as u32)?;
            for &l in &e.links_out {
                put_varint(w, l)?;
            }
        }
        Ok(())
    }

    /// Deserializes a collection written by [`Collection::write_to`],
    /// reconstructing child lists and Dewey IDs from parent pointers.
    pub fn read_from<R: Read>(r: &mut R) -> io::Result<Collection> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(bad("bad magic"));
        }
        let version = get_u32(r)?;
        if version != VERSION {
            return Err(bad(&format!("unsupported version {version}")));
        }

        let n_docs = get_u32(r)?;
        let mut docs = Vec::with_capacity(n_docs.min(MAX_PREALLOC) as usize);
        for _ in 0..n_docs {
            docs.push(DocInfo {
                uri: get_str(r)?,
                root: get_u32(r)?,
                element_count: get_u32(r)?,
                token_count: get_u32(r)?,
            });
        }

        let n_terms = get_u32(r)?;
        let mut vocab = Vocabulary::new();
        for i in 0..n_terms {
            let term = get_str(r)?;
            let id = vocab.intern(&term);
            if id.0 != i {
                return Err(bad("duplicate vocabulary term"));
            }
        }

        let unresolved_links = get_u32(r)?;

        let n_elements = get_u32(r)?;
        let mut elements: Vec<Element> =
            Vec::with_capacity(n_elements.min(MAX_PREALLOC) as usize);
        for id in 0..n_elements {
            let doc = get_u32(r)?;
            if doc >= n_docs {
                return Err(bad("element references unknown document"));
            }
            let name = get_str(r)?;
            let parent_raw = get_u32(r)?;
            let parent = if parent_raw == NO_PARENT {
                None
            } else if parent_raw < id {
                Some(parent_raw)
            } else {
                return Err(bad("parent id not before child"));
            };

            let n_tokens = get_varint(r)?;
            let mut tokens = Vec::with_capacity(n_tokens.min(MAX_PREALLOC) as usize);
            let mut pos = 0u32;
            for _ in 0..n_tokens {
                let term = get_varint(r)?;
                if term >= n_terms {
                    return Err(bad("token references unknown term"));
                }
                let delta = get_varint(r)?;
                pos = pos.checked_add(delta).ok_or_else(|| bad("token position overflows"))?;
                tokens.push(TokenOccurrence { term: TermId(term), pos });
            }

            let n_links = get_varint(r)?;
            let mut links_out = Vec::with_capacity(n_links.min(MAX_PREALLOC) as usize);
            for _ in 0..n_links {
                let l = get_varint(r)?;
                if l >= n_elements {
                    return Err(bad("hyperlink to unknown element"));
                }
                links_out.push(l);
            }

            // Reconstruct Dewey: parent's dewey + sibling position.
            let dewey = match parent {
                None => DeweyId::root(doc),
                Some(p) => {
                    let sibling = elements[p as usize].children.len() as u32;
                    elements[p as usize].children.push(id);
                    elements[p as usize].dewey.child(sibling)
                }
            };
            elements.push(Element {
                doc,
                dewey,
                name: name.into(),
                parent,
                children: Vec::new(),
                tokens,
                links_out,
            });
        }

        // `elem_by_dewey` starts every lookup at a document's root, so each
        // root must be the parentless element of its own document.
        for (d, info) in docs.iter().enumerate() {
            match elements.get(info.root as usize) {
                Some(e) if e.parent.is_none() && e.doc as usize == d => {}
                _ => return Err(bad("document root is not that document's root element")),
            }
        }

        Ok(Collection { docs, elements, vocab, unresolved_links })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CollectionBuilder;

    fn sample() -> Collection {
        let mut b = CollectionBuilder::new();
        b.add_xml_str(
            "w",
            r#"<workshop date="2000"><paper id="1"><title>XQL nodes</title>
               <cite ref="2">x</cite></paper><paper id="2"><t>y</t></paper></workshop>"#,
        )
        .unwrap();
        b.add_xml_str("other", "<r><a>second doc</a></r>").unwrap();
        b.build()
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let c = sample();
        let mut buf = Vec::new();
        c.write_to(&mut buf).unwrap();
        let d = Collection::read_from(&mut buf.as_slice()).unwrap();

        assert_eq!(c.doc_count(), d.doc_count());
        assert_eq!(c.element_count(), d.element_count());
        assert_eq!(c.unresolved_links(), d.unresolved_links());
        assert_eq!(c.vocabulary().len(), d.vocabulary().len());
        for (id, e) in c.elements() {
            let f = d.element(id);
            assert_eq!(e.dewey, f.dewey, "dewey of element {id}");
            assert_eq!(e.name, f.name);
            assert_eq!(e.parent, f.parent);
            assert_eq!(e.children, f.children);
            assert_eq!(e.tokens, f.tokens);
            assert_eq!(e.links_out, f.links_out);
            assert_eq!(e.doc, f.doc);
        }
        for (i, doc) in c.docs().iter().enumerate() {
            let g = d.doc(i as u32);
            assert_eq!(doc.uri, g.uri);
            assert_eq!(doc.root, g.root);
            assert_eq!(doc.element_count, g.element_count);
            assert_eq!(doc.token_count, g.token_count);
        }
        // vocabulary ids stable
        for (id, term) in c.vocabulary().iter() {
            assert_eq!(d.vocabulary().lookup(term), Some(id));
        }
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        let c = sample();
        let mut buf = Vec::new();
        c.write_to(&mut buf).unwrap();

        let mut corrupted = buf.clone();
        corrupted[0] = b'Z';
        assert!(Collection::read_from(&mut corrupted.as_slice()).is_err());

        // Every strict prefix, so every field — and every tail length of
        // every varint — is cut somewhere.
        for len in 0..buf.len() {
            assert!(Collection::read_from(&mut &buf[..len]).is_err(), "prefix of {len} bytes");
        }
    }

    #[test]
    fn varints_of_every_width_read_back_and_every_cut_is_an_error() {
        // The first and last value of each width: 1 to 5 bytes.
        let widths = [0, 127, 128, 16_511, 16_512, 2_113_663, 2_113_664, 270_549_119, 270_549_120];
        for v in widths.into_iter().chain([u32::MAX]) {
            let mut buf = Vec::new();
            put_varint(&mut buf, v).unwrap();
            assert_eq!(get_varint(&mut buf.as_slice()).unwrap(), v);
            for len in 0..buf.len() {
                assert!(get_varint(&mut &buf[..len]).is_err(), "{v}: prefix of {len} bytes");
            }
        }
        assert!(get_varint(&mut &[0xF8u8, 0, 0, 0, 0][..]).is_err(), "invalid tag");
    }

    #[test]
    fn rejects_a_document_root_that_is_not_a_root() {
        let c = sample();
        let mut buf = Vec::new();
        c.write_to(&mut buf).unwrap();
        // magic, version, document count, then document 0: its one-byte
        // URI length, the URI "w", and the root element id.
        let root_at = 4 + 4 + 4 + 1 + 1;
        assert_eq!(buf[root_at..root_at + 4], c.doc(0).root.to_le_bytes());
        for bogus in [1u32, c.doc(1).root, c.element_count() as u32] {
            let mut corrupted = buf.clone();
            corrupted[root_at..root_at + 4].copy_from_slice(&bogus.to_le_bytes());
            assert!(Collection::read_from(&mut corrupted.as_slice()).is_err(), "root {bogus}");
        }
    }

    #[test]
    fn rejects_wrong_version() {
        let c = sample();
        let mut buf = Vec::new();
        c.write_to(&mut buf).unwrap();
        buf[4] = 99;
        assert!(Collection::read_from(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn empty_collection_roundtrips() {
        let c = CollectionBuilder::new().build();
        let mut buf = Vec::new();
        c.write_to(&mut buf).unwrap();
        let d = Collection::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(d.element_count(), 0);
        assert_eq!(d.doc_count(), 0);
    }
}
