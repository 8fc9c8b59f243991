//! Result presentation and the flight record, pinned to golden files.
//!
//! `golden/search_hits.txt` holds every `SearchHit` field (Dewey ID,
//! element, score bits, path, snippet, URI) for DIL, RDIL and HDIL over a
//! corpus that exercises answer-node promotion, an HTML page collapsed to
//! its root, and snippets whose 17th subtree token sits in a nested
//! child. `golden/recorder_trace.json` is the normalized Chrome trace of a
//! fixed sequence of commits, queries, a delete and a fold on an
//! `UpdatableXRank`. Both were captured before the Dewey-path lookup and
//! the by-value flight record. The trace was re-captured once when the
//! recorder's traces of untraced queries became stage level: that dropped
//! exactly its `btree_probe` / `range_scan` spans and `ta_round` events.
//! Neither may move otherwise.

mod common;

use common::temp_pipeline;
use std::fmt::Write as _;
use std::time::Duration;
use xrank_core::{
    render_chrome_trace_normalized, AnswerNodes, EngineBuilder, EngineConfig, ObsConfig,
    SearchHit, Strategy, XRankEngine,
};
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

/// `paper` holds 11 tokens before `sub` (its tag, title's six, body's
/// four), so the 17th token of `paper` — and the 5th of `body` — lies in
/// the nested `sub`, after `body`'s trailing text.
const DEEP: &str = r#"<journal>
  <paper>
    <title>xml retrieval with ranked keyword</title>
    <body>the xql engine <sub>walks each dewey path from the root to every
      ranked answer node of the xml query language</sub> after words</body>
  </paper>
  <paper><title>short xql language note</title></paper>
</journal>"#;

const PAGE: &str = "<html><head><title>XQL language tutorial</title></head>\
    <body><p>Querying XML with the XQL query language, ranked.</p>\
    <a href=\"workshop\">the workshop</a></body></html>";

fn corpus(config: EngineConfig) -> XRankEngine {
    let mut b = EngineBuilder::with_config(EngineConfig { with_rdil: true, ..config });
    b.add_xml("workshop", WORKSHOP).unwrap();
    b.add_xml("deep", DEEP).unwrap();
    b.add_html("page.html", PAGE);
    b.build()
}

fn render_hit(out: &mut String, h: &SearchHit) {
    let _ = writeln!(
        out,
        "  {} elem={} score={:016x} path={} uri={} snippet={:?}",
        h.dewey,
        h.elem,
        h.score.to_bits(),
        h.path.join("/"),
        h.doc_uri,
        h.snippet
    );
}

/// Every hit of every (engine, strategy, query, m) combination.
fn render_hits() -> String {
    let tags = AnswerNodes::Tags(["paper", "section", "title"].map(String::from).into());
    let engines = [
        ("all", corpus(EngineConfig::default())),
        ("tags", corpus(EngineConfig { answer_nodes: tags, ..Default::default() })),
    ];
    let queries =
        ["xql language", "xml", "ranked", "dewey path", "querying xml", "xyleme", "the"];
    let mut out = String::new();
    for (name, e) in &engines {
        for strategy in [Strategy::Dil, Strategy::Rdil, Strategy::Hdil] {
            for q in queries {
                for m in [1, 3, 10] {
                    let opts = QueryOptions { top_m: m, ..Default::default() };
                    let r = e.query(q, strategy, &opts).unwrap();
                    let _ = writeln!(out, "{name} {strategy:?} {q:?} m={m}: {} hits", r.hits.len());
                    for h in &r.hits {
                        render_hit(&mut out, h);
                    }
                }
            }
        }
        for q in queries {
            let r = e.search_any(q, 10).unwrap();
            let _ = writeln!(out, "{name} any {q:?} m=10: {} hits", r.hits.len());
            for h in &r.hits {
                render_hit(&mut out, h);
            }
        }
    }
    out
}

/// The normalized trace of a fixed op sequence, run on a named thread so
/// its track label does not depend on the test harness.
fn render_recorder_trace() -> String {
    std::thread::Builder::new()
        .name("golden".into())
        .spawn(|| {
            let config = EngineConfig {
                obs: ObsConfig {
                    slow_query_threshold: Duration::from_secs(3600),
                    slow_op_threshold: Duration::from_secs(3600),
                    ..Default::default()
                },
                ..Default::default()
            };
            let e = temp_pipeline(config);
            e.add_xml("workshop", WORKSHOP).unwrap();
            e.commit().unwrap();
            e.search("xql language", 10).unwrap();
            e.add_xml("deep", DEEP).unwrap();
            e.add_html("page.html", PAGE).unwrap();
            e.commit().unwrap();
            e.search("xql language", 3).unwrap();
            e.search("missingword xql", 10).unwrap();
            e.delete("deep").unwrap();
            e.compact().unwrap();
            e.search("xml", 10).unwrap();
            render_chrome_trace_normalized(&e.recorder().records())
        })
        .unwrap()
        .join()
        .unwrap()
}

#[test]
fn every_hit_field_matches_the_golden() {
    let got = render_hits();
    let want = include_str!("golden/search_hits.txt");
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "line {}", i + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count());
}

#[test]
fn recorder_trace_matches_the_golden() {
    let got = render_recorder_trace();
    let want = include_str!("golden/recorder_trace.json");
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "line {}", i + 1);
    }
    assert_eq!(got, want);
}

/// Answer-node promotion and HTML documents each make the evaluation
/// over-fetch (`4m + 8`); `top_m = 0` must still present nothing.
#[test]
fn top_m_zero_returns_no_hits() {
    let tags = AnswerNodes::Tags(["paper"].map(String::from).into());
    let mut tags_only =
        EngineBuilder::with_config(EngineConfig { answer_nodes: tags, ..Default::default() });
    tags_only.add_xml("workshop", WORKSHOP).unwrap();
    tags_only.add_xml("deep", DEEP).unwrap();
    let mut html_only = EngineBuilder::new();
    html_only.add_html("page.html", PAGE);
    let engines = [tags_only.build(), html_only.build(), corpus(EngineConfig::default())];
    for e in &engines {
        for strategy in [Strategy::Dil, Strategy::Rdil, Strategy::Hdil] {
            let opts = QueryOptions { top_m: 0, ..Default::default() };
            match e.query("xql language", strategy, &opts) {
                Ok(r) => assert!(r.hits.is_empty(), "{strategy:?}: {:?}", r.hits),
                // Only `corpus` builds RDIL.
                Err(err) => assert_eq!(strategy, Strategy::Rdil, "{err}"),
            }
        }
        assert!(e.search("xql language", 0).unwrap().hits.is_empty());
        assert!(e.search_any("xql language", 0).unwrap().hits.is_empty());
    }
}
