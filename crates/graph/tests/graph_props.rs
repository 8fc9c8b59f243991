//! Property tests for the graph builder invariants the index layer
//! depends on (DESIGN.md §4): ElemId order = Dewey order, dense
//! document-order token positions, parent/child consistency,
//! serialization round-trips, and Dewey → element lookups on random trees.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use xrank_dewey::DeweyId;
use xrank_graph::{Collection, CollectionBuilder, ElemId};

#[derive(Debug, Clone)]
enum Tree {
    Leaf(u8),
    Node(u8, Vec<Tree>),
}

fn tree() -> impl Strategy<Value = Tree> {
    let leaf = any::<u8>().prop_map(Tree::Leaf);
    leaf.prop_recursive(5, 32, 5, |inner| {
        (any::<u8>(), proptest::collection::vec(inner, 0..5))
            .prop_map(|(tag, kids)| Tree::Node(tag, kids))
    })
}

fn render(t: &Tree, out: &mut String) {
    match t {
        Tree::Leaf(w) => out.push_str(&format!("<leaf{w}>word{w} text</leaf{w}>", w = w % 16)),
        Tree::Node(tag, kids) => {
            let tag = tag % 16;
            out.push_str(&format!("<n{tag} id=\"x{tag}\">"));
            for k in kids {
                render(k, out);
            }
            out.push_str(&format!("</n{tag}>"));
        }
    }
}

fn build(trees: &[Tree]) -> Collection {
    let mut b = CollectionBuilder::new();
    for (i, t) in trees.iter().enumerate() {
        let mut xml = String::from("<root>");
        render(t, &mut xml);
        xml.push_str("</root>");
        b.add_xml_str(&format!("doc{i}"), &xml).unwrap();
    }
    b.build()
}

/// Element content with attributes and text interleaved between child
/// elements (mixed content), the shapes that number child positions.
#[derive(Debug, Clone)]
enum Mixed {
    Text(u8),
    Elem { tag: u8, attrs: u8, kids: Vec<Mixed> },
}

fn mixed() -> impl Strategy<Value = Mixed> {
    let text = any::<u8>().prop_map(Mixed::Text);
    text.prop_recursive(5, 40, 6, |inner| {
        (any::<u8>(), 0u8..3, proptest::collection::vec(inner, 0..6))
            .prop_map(|(tag, attrs, kids)| Mixed::Elem { tag, attrs, kids })
    })
}

fn render_mixed(m: &Mixed, out: &mut String) {
    match m {
        Mixed::Text(w) => out.push_str(&format!(" w{} text ", w % 32)),
        Mixed::Elem { tag, attrs, kids } => {
            let tag = tag % 8;
            out.push_str(&format!("<e{tag}"));
            for a in 0..*attrs {
                out.push_str(&format!(" a{a}=\"v{a} {tag}\""));
            }
            out.push('>');
            for k in kids {
                render_mixed(k, out);
            }
            out.push_str(&format!("</e{tag}>"));
        }
    }
}

/// One XML document per entry (its nodes under a `<root>`), with a
/// flattened HTML page after the first.
fn build_mixed(docs: &[Vec<Mixed>]) -> Collection {
    let mut b = CollectionBuilder::new();
    for (i, nodes) in docs.iter().enumerate() {
        let mut xml = String::from("<root k=\"r\">");
        for n in nodes {
            render_mixed(n, &mut xml);
        }
        xml.push_str("</root>");
        b.add_xml_str(&format!("doc{i}"), &xml).unwrap();
        if i == 0 {
            let page = xrank_xml::html::parse_html("<html><body>a <b>page</b></body></html>");
            b.add_html_document("page", "html", &page);
        }
    }
    b.build()
}

fn brute_force_lookup(c: &Collection, dewey: &DeweyId) -> Option<ElemId> {
    c.elements().find(|(_, e)| &e.dewey == dewey).map(|(id, _)| id)
}

fn recursive_terms<'a>(c: &'a Collection, id: ElemId, out: &mut Vec<&'a str>) {
    let e = c.element(id);
    out.extend(e.tokens.iter().map(|t| c.vocabulary().term(t.term)));
    for &ch in &e.children {
        recursive_terms(c, ch, out);
    }
}

/// Every element's own ID, its neighbours just outside the tree, and
/// `extra` arbitrary component vectors resolve exactly as a scan of
/// `elements()` does; subtree terms match a recursive walk.
fn check_lookups(c: &Collection, extra: &[Vec<u32>]) -> Result<(), TestCaseError> {
    let mut probes: Vec<DeweyId> = extra.iter().map(|v| DeweyId::from(v.as_slice())).collect();
    for (_, e) in c.elements() {
        let n = e.children.len() as u32;
        probes.extend([e.dewey.clone(), e.dewey.child(0), e.dewey.child(n), e.dewey.child(n + 1)]);
        let comps = e.dewey.components();
        probes.push(DeweyId::from(&comps[..1]));
        let mut bumped = comps.to_vec();
        *bumped.last_mut().unwrap() += 1;
        probes.push(DeweyId::from(bumped.as_slice()));
        bumped[0] += 1;
        probes.push(DeweyId::from(bumped.as_slice()));
    }
    for p in &probes {
        prop_assert_eq!(c.elem_by_dewey(p), brute_force_lookup(c, p), "probe {}", p);
    }
    for (id, _) in c.elements() {
        let mut expect = Vec::new();
        recursive_terms(c, id, &mut expect);
        prop_assert_eq!(c.subtree_terms(id), expect);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn elem_id_order_is_dewey_order(trees in proptest::collection::vec(tree(), 1..4)) {
        let c = build(&trees);
        let mut prev = None;
        for (_, e) in c.elements() {
            if let Some(p) = &prev {
                prop_assert!(p < &e.dewey, "ids out of Dewey order");
            }
            prev = Some(e.dewey.clone());
        }
    }

    #[test]
    fn token_positions_dense_per_document(trees in proptest::collection::vec(tree(), 1..4)) {
        let c = build(&trees);
        for d in 0..c.doc_count() as u32 {
            let mut positions: Vec<u32> = c
                .elements()
                .filter(|(_, e)| e.doc == d)
                .flat_map(|(_, e)| e.tokens.iter().map(|t| t.pos))
                .collect();
            positions.sort_unstable();
            let expect: Vec<u32> = (0..positions.len() as u32).collect();
            prop_assert_eq!(&positions, &expect, "doc {} positions not dense", d);
            prop_assert_eq!(c.doc(d).token_count as usize, expect.len());
        }
    }

    #[test]
    fn parent_child_links_are_consistent(trees in proptest::collection::vec(tree(), 1..4)) {
        let c = build(&trees);
        for (id, e) in c.elements() {
            for &ch in &e.children {
                prop_assert_eq!(c.element(ch).parent, Some(id));
                prop_assert!(e.dewey.is_ancestor_of(&c.element(ch).dewey));
                prop_assert_eq!(c.element(ch).dewey.len(), e.dewey.len() + 1);
            }
            if let Some(p) = e.parent {
                prop_assert!(c.element(p).children.contains(&id));
            }
            // dewey resolves back to the element
            prop_assert_eq!(c.elem_by_dewey(&e.dewey), Some(id));
        }
    }

    #[test]
    fn serialization_roundtrip_on_random_trees(trees in proptest::collection::vec(tree(), 1..3)) {
        let c = build(&trees);
        let mut buf = Vec::new();
        c.write_to(&mut buf).unwrap();
        let d = Collection::read_from(&mut buf.as_slice()).unwrap();
        prop_assert_eq!(c.element_count(), d.element_count());
        for (id, e) in c.elements() {
            let f = d.element(id);
            prop_assert_eq!(&e.dewey, &f.dewey);
            prop_assert_eq!(&e.tokens, &f.tokens);
            prop_assert_eq!(&e.children, &f.children);
        }
    }

    #[test]
    fn subtree_terms_match_token_multiset(trees in proptest::collection::vec(tree(), 1..3)) {
        let c = build(&trees);
        for (id, _) in c.elements().take(20) {
            let mut terms = c.subtree_terms(id);
            terms.sort_unstable();
            // oracle: collect tokens from all descendants directly
            let mut oracle: Vec<&str> = c
                .elements()
                .filter(|(other, _)| {
                    c.element(id).dewey.is_ancestor_or_self_of(&c.element(*other).dewey)
                })
                .flat_map(|(_, e)| e.tokens.iter().map(|t| c.vocabulary().term(t.term)))
                .collect();
            oracle.sort_unstable();
            prop_assert_eq!(terms, oracle);
        }
    }

    #[test]
    fn elem_by_dewey_matches_a_scan_of_elements(
        docs in proptest::collection::vec(proptest::collection::vec(mixed(), 0..5), 1..4),
        extra in proptest::collection::vec(proptest::collection::vec(0u32..6, 0..7), 0..16),
    ) {
        let c = build_mixed(&docs);
        check_lookups(&c, &extra)?;
        let mut buf = Vec::new();
        c.write_to(&mut buf).unwrap();
        check_lookups(&Collection::read_from(&mut buf.as_slice()).unwrap(), &extra)?;
    }
}
