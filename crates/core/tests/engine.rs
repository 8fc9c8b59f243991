//! End-to-end tests of the engine facade.

use std::collections::HashSet;
use xrank_core::{AnswerNodes, EngineBuilder, EngineConfig, Strategy, XRankEngine};
use xrank_query::QueryOptions;

const WORKSHOP: &str = r#"<workshop>
  <wtitle>XML and IR a SIGIR Workshop</wtitle>
  <proceedings>
    <paper id="1">
      <title>XQL and Proximal Nodes</title>
      <author>Ricardo Baeza-Yates</author>
      <abstract>We consider the recently proposed language</abstract>
      <body>
        <section name="Implementing XML Operations">
          <subsection name="Path Expressions">At first sight the XQL query language looks</subsection>
        </section>
        <cite ref="2">Querying XML in Xyleme</cite>
      </body>
    </paper>
    <paper id="2"><title>Querying XML in Xyleme</title></paper>
  </proceedings>
</workshop>"#;

fn engine() -> XRankEngine {
    let mut b = EngineBuilder::new();
    b.add_xml("workshop", WORKSHOP).unwrap();
    b.build()
}

fn full_engine() -> XRankEngine {
    let mut b = EngineBuilder::with_config(EngineConfig {
        with_rdil: true,
        with_naive: true,
        ..Default::default()
    });
    b.add_xml("workshop", WORKSHOP).unwrap();
    b.build()
}

#[test]
fn search_returns_most_specific_results() {
    let e = engine();
    let res = e.search("xql language", 10).unwrap();
    let tags: Vec<&str> =
        res.hits.iter().map(|h| h.path.last().unwrap().as_str()).collect();
    assert!(tags.contains(&"subsection"), "most specific element missing: {tags:?}");
    assert!(
        !tags.contains(&"section") && !tags.contains(&"body"),
        "spurious ancestors present: {tags:?}"
    );
    // hits carry presentation context
    let top = &res.hits[0];
    assert!(!top.snippet.is_empty());
    assert_eq!(top.doc_uri, "workshop");
    assert_eq!(top.path.first().map(String::as_str), Some("workshop"));
}

#[test]
fn strategies_agree_on_results() {
    let e = full_engine();
    let opts = QueryOptions { top_m: 10, ..Default::default() };
    let dil = e.search_with("xql language", Strategy::Dil, &opts).unwrap();
    let rdil = e.search_with("xql language", Strategy::Rdil, &opts).unwrap();
    let hdil = e.search_with("xql language", Strategy::Hdil, &opts).unwrap();
    assert_eq!(dil.hits.len(), rdil.hits.len());
    assert_eq!(dil.hits.len(), hdil.hits.len());
    for (a, b) in dil.hits.iter().zip(rdil.hits.iter()) {
        assert_eq!(a.dewey, b.dewey);
        assert!((a.score - b.score).abs() < 1e-9);
    }
    for (a, b) in dil.hits.iter().zip(hdil.hits.iter()) {
        assert_eq!(a.dewey, b.dewey);
    }
}

/// An element repeating one word thousands of times in its own text used
/// to produce a posting larger than a list page and panic the build.
#[test]
fn heavily_repeated_word_builds_and_is_found() {
    let mut b = EngineBuilder::with_config(EngineConfig {
        with_rdil: true,
        with_naive: true,
        ..Default::default()
    });
    b.add_xml("workshop", WORKSHOP).unwrap();
    b.add_xml("zeros", &format!("<doc><p>{}</p></doc>", "zero ".repeat(6000))).unwrap();
    let e = b.build();
    let opts = QueryOptions { top_m: 10, ..Default::default() };
    for strategy in [Strategy::Dil, Strategy::Rdil, Strategy::Hdil] {
        let res = e.search_with("zero", strategy, &opts).unwrap();
        assert_eq!(res.hits.len(), 1, "{strategy:?}");
        assert_eq!(res.hits[0].doc_uri, "zeros");
        assert_eq!(res.hits[0].path.last().map(String::as_str), Some("p"));
    }
}

#[test]
fn naive_strategies_include_spurious_ancestors() {
    let e = full_engine();
    let opts = QueryOptions { top_m: 50, ..Default::default() };
    let dil = e.search_with("xql language", Strategy::Dil, &opts).unwrap();
    let nid = e.search_with("xql language", Strategy::NaiveId, &opts).unwrap();
    let nrk = e.search_with("xql language", Strategy::NaiveRank, &opts).unwrap();
    assert!(nid.hits.len() > dil.hits.len());
    assert_eq!(nid.hits.len(), nrk.hits.len());
}

#[test]
fn unknown_keyword_yields_empty() {
    let e = engine();
    assert!(e.search("xql zzzzunknown", 10).unwrap().hits.is_empty());
    assert!(e.search("", 10).unwrap().hits.is_empty());
    assert!(e.search("   ", 10).unwrap().hits.is_empty());
}

#[test]
fn query_normalization_matches_tokenizer() {
    let e = engine();
    let a = e.search("XQL Language", 10).unwrap();
    let b = e.search("xql language", 10).unwrap();
    assert_eq!(a.hits.len(), b.hits.len());
    // punctuation separates like the indexer
    let c = e.search("xql, language!", 10).unwrap();
    assert_eq!(c.hits.len(), b.hits.len());
}

#[test]
fn answer_nodes_promote_results() {
    let tags: HashSet<String> =
        ["workshop", "paper", "section"].iter().map(|s| s.to_string()).collect();
    let mut b = EngineBuilder::with_config(EngineConfig {
        answer_nodes: AnswerNodes::Tags(tags),
        ..Default::default()
    });
    b.add_xml("workshop", WORKSHOP).unwrap();
    let e = b.build();
    let res = e.search("xql language", 10).unwrap();
    for h in &res.hits {
        let tag = h.path.last().unwrap().as_str();
        assert!(
            matches!(tag, "workshop" | "paper" | "section"),
            "hit {tag} is not an answer node"
        );
    }
    // the subsection hit is promoted to its section
    assert!(res.hits.iter().any(|h| h.path.last().unwrap() == "section"));
}

#[test]
fn html_mode_returns_whole_pages_and_uses_links() {
    let mut b = EngineBuilder::new();
    b.add_html(
        "page/popular",
        r#"<html><title>Popular</title><body>rust search engine</body></html>"#,
    );
    b.add_html(
        "page/fan1",
        r#"<html><body>I love it <a href="page/popular">link</a> rust search</body></html>"#,
    );
    b.add_html(
        "page/fan2",
        r#"<html><body>me too <a href="page/popular">link</a> rust search</body></html>"#,
    );
    let e = b.build();
    let res = e.search("rust search", 10).unwrap();
    assert_eq!(res.hits.len(), 3, "every page matches");
    // linked-to page ranks first (PageRank behaviour)
    assert_eq!(res.hits[0].doc_uri, "page/popular");
    // whole documents only: path is just the root element
    for h in &res.hits {
        assert_eq!(h.path.len(), 1);
    }
}

#[test]
fn mixed_html_and_xml_collections() {
    let mut b = EngineBuilder::new();
    b.add_xml("x", "<doc><part>hybrid corpus</part></doc>").unwrap();
    b.add_html("h", "<html><body>hybrid corpus too</body></html>");
    let e = b.build();
    let res = e.search("hybrid corpus", 10).unwrap();
    assert_eq!(res.hits.len(), 2);
    let uris: HashSet<_> = res.hits.iter().map(|h| h.doc_uri.as_str()).collect();
    assert!(uris.contains("x") && uris.contains("h"));
}

#[test]
fn tag_names_are_searchable() {
    // Section 2.1: element tag names are values — the paper's
    // 'author gray' anecdote depends on this.
    let e = engine();
    let res = e.search("author ricardo", 10).unwrap();
    assert!(!res.hits.is_empty(), "tag name 'author' should match");
}

#[test]
fn io_and_timing_metrics_populated() {
    let e = engine();
    let res = e.search("xql language", 10).unwrap();
    assert!(res.io.physical_reads() > 0, "cold query must do I/O");
    assert!(res.elapsed.as_nanos() > 0);
}

#[test]
fn elem_rank_accessors() {
    let e = engine();
    let r = e.rank_result();
    assert!(r.converged);
    let total: f64 = (0..e.collection().element_count() as u32)
        .map(|i| e.elem_rank_of(i))
        .sum();
    assert!((total - 1.0).abs() < 1e-9);
}

#[test]
fn render_produces_readable_output() {
    let e = engine();
    let res = e.search("xql language", 5).unwrap();
    let text = res.render();
    assert!(text.contains("workshop/"));
    assert!(text.lines().count() >= 2);
}
