//! Building a [`Collection`] from parsed documents.

use crate::model::{Collection, DocInfo, ElemId, Element, TokenOccurrence};
use crate::tokenize::tokenize_into;
use crate::vocab::Vocabulary;
use std::collections::HashMap;
use xrank_dewey::{DeweyId, DocId};
use xrank_xml::html::HtmlPage;
use xrank_xml::{Document, NodeId, XmlError};

/// Declares which attributes define element ids, which are IDREF-style
/// intra-document references, and which are XLink-style inter-document
/// references (paper, Section 2.1: "We refer to both IDREFs and XLinks as
/// hyperlinks").
///
/// XML without a DTD cannot distinguish these mechanically, so the builder
/// uses attribute-name conventions. The defaults cover the paper's Figure 1
/// (`<cite ref="2">`, `<cite xlink="...">`), DBLP-style citations, and the
/// XMark reference attributes (`item`, `person`, `open_auction`).
#[derive(Debug, Clone)]
pub struct LinkSpec {
    /// Attributes whose value names the element within its document.
    pub id_attrs: Vec<String>,
    /// Attributes whose (whitespace-separated) values reference ids in the
    /// same document.
    pub idref_attrs: Vec<String>,
    /// Attributes whose value is the URI of another document in the
    /// collection.
    pub xlink_attrs: Vec<String>,
}

impl Default for LinkSpec {
    fn default() -> Self {
        LinkSpec {
            id_attrs: vec!["id".into()],
            idref_attrs: vec![
                "ref".into(),
                "idref".into(),
                "refs".into(),
                "item".into(),
                "person".into(),
                "open_auction".into(),
                "category".into(),
            ],
            xlink_attrs: vec!["xlink".into(), "href".into(), "xlink:href".into()],
        }
    }
}

impl LinkSpec {
    /// A spec that resolves no hyperlinks at all.
    pub fn none() -> Self {
        LinkSpec { id_attrs: vec![], idref_attrs: vec![], xlink_attrs: vec![] }
    }
}

/// Incrementally assembles a [`Collection`] from XML and HTML documents,
/// then resolves hyperlinks in [`CollectionBuilder::build`].
pub struct CollectionBuilder {
    spec: LinkSpec,
    docs: Vec<DocInfo>,
    elements: Vec<Element>,
    vocab: Vocabulary,
    /// `(source element, doc, target id)` awaiting resolution.
    pending_idrefs: Vec<(ElemId, DocId, String)>,
    /// `(source element, target uri)` awaiting resolution.
    pending_xlinks: Vec<(ElemId, String)>,
    /// `(doc, id attribute value)` → element.
    ids: HashMap<(DocId, String), ElemId>,
    uri_map: HashMap<String, DocId>,
}

impl CollectionBuilder {
    /// New builder with the default [`LinkSpec`].
    pub fn new() -> Self {
        Self::with_spec(LinkSpec::default())
    }

    /// New builder with an explicit link convention.
    pub fn with_spec(spec: LinkSpec) -> Self {
        CollectionBuilder {
            spec,
            docs: Vec::new(),
            elements: Vec::new(),
            vocab: Vocabulary::new(),
            pending_idrefs: Vec::new(),
            pending_xlinks: Vec::new(),
            ids: HashMap::new(),
            uri_map: HashMap::new(),
        }
    }

    /// Parses and adds an XML document.
    pub fn add_xml_str(&mut self, uri: &str, xml: &str) -> Result<DocId, XmlError> {
        let doc = Document::parse(xml)?;
        Ok(self.add_xml_document(uri, &doc))
    }

    /// Adds an already-parsed XML document.
    pub fn add_xml_document(&mut self, uri: &str, doc: &Document) -> DocId {
        let doc_id = self.register_doc(uri);
        let mut word_pos = 0u32;
        let root_dewey = DeweyId::root(doc_id);
        self.add_element(doc, doc.root(), doc_id, None, root_dewey, &mut word_pos);
        self.finish_doc(doc_id, word_pos);
        doc_id
    }

    /// Adds a flattened HTML page as a single root element (paper,
    /// Section 2.2). `root_name` is the synthetic tag (e.g. `"html"`);
    /// the page's links become pending XLinks.
    pub fn add_html_document(&mut self, uri: &str, root_name: &str, page: &HtmlPage) -> DocId {
        let doc_id = self.register_doc(uri);
        let mut word_pos = 0u32;
        let mut tokens = Vec::new();
        self.intern_tokens(root_name, &mut word_pos, &mut tokens);
        self.intern_tokens(&page.text, &mut word_pos, &mut tokens);
        let elem_id = self.elements.len() as ElemId;
        self.elements.push(Element {
            doc: doc_id,
            dewey: DeweyId::root(doc_id),
            name: root_name.into(),
            parent: None,
            children: Vec::new(),
            tokens,
            links_out: Vec::new(),
        });
        for link in &page.links {
            self.pending_xlinks.push((elem_id, link.clone()));
        }
        self.finish_doc(doc_id, word_pos);
        doc_id
    }

    fn register_doc(&mut self, uri: &str) -> DocId {
        let doc_id = self.docs.len() as DocId;
        self.docs.push(DocInfo {
            uri: uri.to_string(),
            root: self.elements.len() as ElemId,
            element_count: 0,
            token_count: 0,
        });
        self.uri_map.insert(uri.to_string(), doc_id);
        doc_id
    }

    fn finish_doc(&mut self, doc_id: DocId, token_count: u32) {
        let info = &mut self.docs[doc_id as usize];
        info.element_count = self.elements.len() as u32 - info.root;
        info.token_count = token_count;
    }

    fn intern_tokens(&mut self, text: &str, word_pos: &mut u32, out: &mut Vec<TokenOccurrence>) {
        let vocab = &mut self.vocab;
        tokenize_into(text, |w| {
            out.push(TokenOccurrence { term: vocab.intern(w), pos: *word_pos });
            *word_pos += 1;
        });
    }

    /// Recursively adds the element for tree node `node`, returning its id.
    fn add_element(
        &mut self,
        doc: &Document,
        node: NodeId,
        doc_id: DocId,
        parent: Option<ElemId>,
        dewey: DeweyId,
        word_pos: &mut u32,
    ) -> ElemId {
        let n = doc.node(node);
        let name = n.name().expect("add_element called on a text node");

        // Tag names are values of their element (Section 2.1).
        let mut tokens = Vec::new();
        self.intern_tokens(name, word_pos, &mut tokens);

        let elem_id = self.elements.len() as ElemId;
        self.elements.push(Element {
            doc: doc_id,
            dewey: dewey.clone(),
            name: name.into(),
            parent,
            children: Vec::new(),
            tokens,
            links_out: Vec::new(),
        });

        let mut child_pos = 0u32;

        // Attributes become sub-elements, positioned before child elements.
        for attr in n.attributes().to_vec() {
            if self.spec.id_attrs.iter().any(|a| a == &attr.name) {
                self.ids.insert((doc_id, attr.value.clone()), elem_id);
            }
            if self.spec.idref_attrs.iter().any(|a| a == &attr.name) {
                for target in attr.value.split_whitespace() {
                    self.pending_idrefs.push((elem_id, doc_id, target.to_string()));
                }
            }
            if self.spec.xlink_attrs.iter().any(|a| a == &attr.name) {
                self.pending_xlinks.push((elem_id, attr.value.trim().to_string()));
            }
            // Attribute names and values are values of the attribute-element.
            let mut attr_tokens = Vec::new();
            self.intern_tokens(&attr.name, word_pos, &mut attr_tokens);
            self.intern_tokens(&attr.value, word_pos, &mut attr_tokens);
            let attr_elem = self.elements.len() as ElemId;
            self.elements.push(Element {
                doc: doc_id,
                dewey: dewey.child(child_pos),
                name: attr.name.as_str().into(),
                parent: Some(elem_id),
                children: Vec::new(),
                tokens: attr_tokens,
                links_out: Vec::new(),
            });
            self.elements[elem_id as usize].children.push(attr_elem);
            child_pos += 1;
        }

        // Children in document order: text folds into this element's
        // tokens, element children recurse.
        for &child in doc.children(node) {
            match doc.node(child).text() {
                Some(text) => {
                    let mut text_tokens = Vec::new();
                    self.intern_tokens(text, word_pos, &mut text_tokens);
                    self.elements[elem_id as usize].tokens.extend(text_tokens);
                }
                None => {
                    let child_dewey = dewey.child(child_pos);
                    let child_id =
                        self.add_element(doc, child, doc_id, Some(elem_id), child_dewey, word_pos);
                    self.elements[elem_id as usize].children.push(child_id);
                    child_pos += 1;
                }
            }
        }
        elem_id
    }

    /// Resolves hyperlinks and returns the finished collection.
    pub fn build(mut self) -> Collection {
        let mut unresolved = 0u32;
        for (src, doc, target) in std::mem::take(&mut self.pending_idrefs) {
            match self.ids.get(&(doc, target)) {
                Some(&dst) => self.elements[src as usize].links_out.push(dst),
                None => unresolved += 1,
            }
        }
        for (src, uri) in std::mem::take(&mut self.pending_xlinks) {
            match self.uri_map.get(uri.as_str()) {
                Some(&doc) => {
                    let dst = self.docs[doc as usize].root;
                    self.elements[src as usize].links_out.push(dst);
                }
                None => unresolved += 1,
            }
        }
        Collection {
            docs: self.docs,
            elements: self.elements,
            vocab: self.vocab,
            unresolved_links: unresolved,
        }
    }
}

impl Default for CollectionBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WORKSHOP: &str = r#"<workshop date="28 July 2000">
      <title>XML and IR</title>
      <proceedings>
        <paper id="1">
          <title>XQL and Proximal Nodes</title>
          <author>Ricardo Baeza-Yates</author>
          <cite ref="2">Querying XML in Xyleme</cite>
          <cite xlink="doc:xmlql">A Query</cite>
        </paper>
        <paper id="2"><title>Querying XML in Xyleme</title></paper>
      </proceedings>
    </workshop>"#;

    fn build_one() -> Collection {
        let mut b = CollectionBuilder::new();
        b.add_xml_str("doc:workshop", WORKSHOP).unwrap();
        b.add_xml_str("doc:xmlql", "<paper><title>A Query Language for XML</title></paper>")
            .unwrap();
        b.build()
    }

    fn find_by_name(c: &Collection, name: &str) -> Vec<ElemId> {
        c.elements()
            .filter(|(_, e)| &*e.name == name)
            .map(|(id, _)| id)
            .collect()
    }

    #[test]
    fn elem_ids_are_in_dewey_order() {
        let c = build_one();
        let deweys: Vec<_> = c.elements().map(|(_, e)| e.dewey.clone()).collect();
        let mut sorted = deweys.clone();
        sorted.sort();
        assert_eq!(deweys, sorted);
    }

    #[test]
    fn attributes_become_subelements() {
        let c = build_one();
        let date = find_by_name(&c, "date");
        assert_eq!(date.len(), 1);
        let d = c.element(date[0]);
        assert_eq!(d.parent, Some(0)); // child of <workshop>
        // attribute-element is the first child (before <title>)
        assert_eq!(c.element(0).children[0], date[0]);
        // its tokens include the attribute name and value words
        let terms = c.subtree_terms(date[0]);
        assert_eq!(terms, vec!["date", "28", "july", "2000"]);
    }

    #[test]
    fn tag_names_are_searchable_values() {
        let c = build_one();
        let authors = find_by_name(&c, "author");
        let a = c.element(authors[0]);
        let first = c.vocabulary().term(a.tokens[0].term);
        assert_eq!(first, "author");
    }

    #[test]
    fn idref_resolves_within_document() {
        let c = build_one();
        let cites = find_by_name(&c, "cite");
        let ref_cite = c.element(cites[0]);
        assert_eq!(ref_cite.links_out.len(), 1);
        let target = c.element(ref_cite.links_out[0]);
        assert_eq!(&*target.name, "paper");
        assert_eq!(target.dewey.to_string(), "0.0.2.1"); // second paper
    }

    #[test]
    fn xlink_resolves_to_other_documents_root() {
        let c = build_one();
        let cites = find_by_name(&c, "cite");
        let xlink_cite = c.element(cites[1]);
        assert_eq!(xlink_cite.links_out.len(), 1);
        let target = c.element(xlink_cite.links_out[0]);
        assert_eq!(target.doc, 1);
        assert_eq!(target.parent, None);
    }

    #[test]
    fn dangling_links_are_counted_not_fatal() {
        let mut b = CollectionBuilder::new();
        b.add_xml_str("d", r#"<a><b ref="nope"/><c href="gone"/></a>"#).unwrap();
        let c = b.build();
        assert_eq!(c.unresolved_links(), 2);
        assert_eq!(c.hyperlink_count(), 0);
    }

    #[test]
    fn token_positions_are_document_order_and_dense() {
        let c = build_one();
        // Collect all token positions of doc 0; they must be 0..n distinct.
        let mut positions: Vec<u32> = c
            .elements()
            .filter(|(_, e)| e.doc == 0)
            .flat_map(|(_, e)| e.tokens.iter().map(|t| t.pos))
            .collect();
        positions.sort_unstable();
        let expect: Vec<u32> = (0..positions.len() as u32).collect();
        assert_eq!(positions, expect);
        assert_eq!(c.doc(0).token_count as usize, expect.len());
    }

    #[test]
    fn mixed_content_text_belongs_to_parent() {
        let mut b = CollectionBuilder::new();
        b.add_xml_str("d", "<p>before <em>mid</em> after</p>").unwrap();
        let c = b.build();
        let p = c.element(0);
        let words: Vec<_> = p.tokens.iter().map(|t| c.vocabulary().term(t.term)).collect();
        assert_eq!(words, vec!["p", "before", "after"]);
        // but positions interleave correctly: "after" comes after em's tokens
        let em = c.element(1);
        let em_last = em.tokens.last().unwrap().pos;
        let after_pos = p.tokens.last().unwrap().pos;
        assert!(after_pos > em_last);
    }

    #[test]
    fn html_page_is_single_element() {
        let mut b = CollectionBuilder::new();
        let page = xrank_xml::html::parse_html(
            r#"<html><body>hello <a href="other">world</a></body></html>"#,
        );
        b.add_html_document("page1", "html", &page);
        b.add_html_document("other", "html", &xrank_xml::html::parse_html("<p>target</p>"));
        let c = b.build();
        assert_eq!(c.doc(0).element_count, 1);
        let root = c.element(0);
        assert_eq!(root.links_out.len(), 1);
        assert_eq!(c.element(root.links_out[0]).doc, 1);
    }

    #[test]
    fn idrefs_attribute_with_multiple_targets() {
        let mut b = CollectionBuilder::new();
        b.add_xml_str(
            "d",
            r#"<r><x id="a"/><x id="b"/><y refs="a b"/></r>"#,
        )
        .unwrap();
        let c = b.build();
        let y = find_by_name(&c, "y")[0];
        assert_eq!(c.element(y).links_out.len(), 2);
    }

    fn assert_dewey_lookups(c: &Collection) {
        for (id, e) in c.elements() {
            assert_eq!(c.elem_by_dewey(&e.dewey), Some(id));
        }
        let root = c.doc(0).root;
        let past_end = c.element(root).dewey.child(c.children_of(root).len() as u32);
        let leaf = c.elements().find(|(_, e)| e.children.is_empty()).unwrap().1;
        for missing in [
            DeweyId::from([99, 0]),
            DeweyId::from([0, 1]),
            past_end,
            DeweyId::from([0]),
            DeweyId::from_components(Vec::new()),
            leaf.dewey.child(0),
        ] {
            assert_eq!(c.elem_by_dewey(&missing), None, "{missing}");
        }
    }

    #[test]
    fn elem_by_dewey_walks_child_indices() {
        let c = build_one();
        assert_dewey_lookups(&c);
        let mut buf = Vec::new();
        c.write_to(&mut buf).unwrap();
        assert_dewey_lookups(&Collection::read_from(&mut buf.as_slice()).unwrap());
    }
}
