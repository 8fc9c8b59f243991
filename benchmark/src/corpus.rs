//! Seeded inputs: every document and every query the engine sees comes
//! from here, derived from `--seed` through `xrank::datagen`.

use xrank::datagen::plant::PlantConfig;
use xrank::datagen::workload::{self, Correlation};
use xrank::datagen::{dblp, xmark};

/// Input sizes. `FULL` is what `BENCHMARK.json` measures; `TINY` exists
/// for the package's own smoke tests only.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Publications of the `C20k` corpus (`warm-*`, `cold-pool`).
    pub dblp_docs: usize,
    /// XMark scale of `deep-xmark`.
    pub xmark_scale: f64,
    /// The two corpora `ingest` builds.
    pub ingest_dblp_docs: usize,
    pub ingest_xmark_scale: f64,
    /// `update-mixed`: committed base, documents per add batch, and per
    /// fifth round the documents replaced and deleted.
    pub update_base_docs: usize,
    pub update_batch: usize,
    pub update_replaced: usize,
    pub update_deleted: usize,
    /// Rounds the writer runs at least, whatever the time budget.
    pub update_min_rounds: usize,
    /// Rounds of the fixed update scenario traced runs of the other
    /// workloads use for the `core.*` update metrics.
    pub rig_update_rounds: usize,
    /// Appended to scratch-directory and trace-file names, so the smoke
    /// tests never overwrite a real run's trace.
    pub tag: &'static str,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        dblp_docs: 20_000,
        xmark_scale: 8.0,
        ingest_dblp_docs: 10_000,
        ingest_xmark_scale: 4.0,
        update_base_docs: 5_000,
        update_batch: 50,
        update_replaced: 10,
        update_deleted: 5,
        update_min_rounds: 18,
        rig_update_rounds: 12,
        tag: "",
    };

    #[cfg(test)]
    pub const TINY: Sizes = Sizes {
        dblp_docs: 200,
        xmark_scale: 0.2,
        ingest_dblp_docs: 200,
        ingest_xmark_scale: 0.1,
        update_base_docs: 200,
        update_batch: 10,
        update_replaced: 2,
        update_deleted: 1,
        update_min_rounds: 10,
        rig_update_rounds: 10,
        tag: "-tiny",
    };
}

/// A generated document set.
pub struct Corpus {
    pub label: String,
    /// `(uri, xml)` in insertion order.
    pub docs: Vec<(String, String)>,
    pub xml_bytes: usize,
}

impl Corpus {
    fn new(label: String, docs: Vec<(String, String)>) -> Corpus {
        let xml_bytes = docs.iter().map(|(_, xml)| xml.len()).sum();
        Corpus {
            label,
            docs,
            xml_bytes,
        }
    }

    pub fn xml_mb(&self) -> f64 {
        self.xml_bytes as f64 / 1e6
    }
}

/// Slots in which all keywords of a low-correlation group co-occur.
/// Fewer than the page size `m` = 10, on purpose: the Threshold-Algorithm
/// processors can then never fill their page early and always run their
/// lists to the end (Fig. 11's worst case), so their cost is set by the
/// list lengths. With `slots / 400` = 50 co-occurrences, as the paper
/// reproduction's figures use, the depth at which they stop is the tenth
/// best of a 2 % sample of the rank distribution and swung RDIL's latency
/// by ±25 % from seed to seed.
const LOW_COOCCURRENCES: usize = 4;

/// The planting every corpus uses: two high- and two low-correlation
/// groups of four keywords, each keyword in an eighth of the text slots.
fn plant(slots: usize) -> PlantConfig {
    PlantConfig {
        groups: 2,
        group_size: 4,
        high_frequency: (slots / 8).max(8),
        low_frequency: (slots / 8).max(8),
        low_cooccurrences: LOW_COOCCURRENCES,
    }
}

pub fn dblp_corpus(publications: usize, seed: u64) -> Corpus {
    let config = dblp::DblpConfig {
        publications,
        seed,
        plant: Some(plant(publications)),
        ..Default::default()
    };
    Corpus::new(
        format!("dblp({publications})"),
        dblp::generate(&config).docs,
    )
}

pub fn xmark_corpus(scale: f64, seed: u64) -> Corpus {
    let unplanted = xmark::XmarkConfig {
        scale,
        seed,
        ..Default::default()
    };
    let counts = unplanted.counts();
    let slots = counts.items + counts.open_auctions + counts.closed_auctions;
    let config = xmark::XmarkConfig {
        plant: Some(plant(slots)),
        ..unplanted
    };
    Corpus::new(format!("xmark({scale})"), xmark::generate(&config).docs)
}

/// One keyword query. `planted` queries are built from planted keywords
/// and must have an answer; natural-vocabulary queries may be empty.
#[derive(Debug, Clone)]
pub struct Query {
    pub text: String,
    pub keywords: Vec<String>,
    pub planted: bool,
}

impl Query {
    fn new(keywords: Vec<String>, planted: bool) -> Query {
        Query {
            text: keywords.join(" "),
            keywords,
            planted,
        }
    }
}

/// Planted queries of one regime: every group × every keyword count.
pub fn planted_queries(correlation: Correlation, keyword_counts: &[usize]) -> Vec<Query> {
    let mut out = Vec::new();
    for group in 0..2 {
        for &k in keyword_counts {
            out.push(Query::new(workload::query(correlation, group, k), true));
        }
    }
    out
}

/// Natural-vocabulary queries around the given frequency ranks.
pub fn natural_queries(ranks: &[usize], keyword_counts: &[usize]) -> Vec<Query> {
    let mut out = Vec::new();
    for &rank in ranks {
        for &k in keyword_counts {
            out.push(Query::new(workload::selectivity_query(rank, k), false));
        }
    }
    out
}

/// SplitMix64: the benchmark's own generator for orderings and picks, so
/// `--seed` fixes them without reaching into the engine's dependencies.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Returns `xml` with `<note>marker</note>` appended inside its root
/// element, so the document is findable by a token nothing else carries.
pub fn with_marker(xml: &str, marker: &str) -> String {
    let close = xml
        .rfind("</")
        .expect("generated document has a closing root tag");
    format!("{}<note>{marker}</note>{}", &xml[..close], &xml[close..])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = dblp_corpus(50, 7);
        let b = dblp_corpus(50, 7);
        let c = dblp_corpus(50, 8);
        assert_eq!(a.docs, b.docs);
        assert_ne!(a.docs, c.docs);
        assert_eq!(
            a.xml_bytes,
            a.docs.iter().map(|(_, x)| x.len()).sum::<usize>()
        );
        assert_eq!(xmark_corpus(0.1, 3).docs, xmark_corpus(0.1, 3).docs);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..24).collect();
        let mut b = a.clone();
        Rng::new(5).shuffle(&mut a);
        Rng::new(5).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..24).collect::<Vec<u32>>());
        assert_ne!(a, sorted);
    }

    #[test]
    fn marker_lands_inside_the_root() {
        let doc = with_marker("<article><title>t</title></article>", "zmk1");
        assert_eq!(doc, "<article><title>t</title><note>zmk1</note></article>");
        assert!(xrank::xml::parse(&doc).is_ok());
    }

    #[test]
    fn query_sets_have_the_documented_shape() {
        assert_eq!(planted_queries(Correlation::High, &[2, 3]).len(), 4);
        assert_eq!(natural_queries(&[5, 50], &[1, 2, 3, 4]).len(), 8);
        let q = &planted_queries(Correlation::Low, &[2])[1];
        assert_eq!(q.text, "qlow1k0 qlow1k1");
        assert!(q.planted);
    }
}
