//! Answer checking — the paper's `Result(Q)` semantics seen from outside:
//! the three processors must return the same ranked page, and every hit
//! must contain every keyword.

use crate::corpus::Query;
use xrank::dewey::DeweyId;
use xrank::query::{QueryError, QueryOptions};
use xrank::storage::PageStore;
use xrank::{SearchResults, Strategy, XRankEngine};

pub const STRATEGIES: [Strategy; 3] = [Strategy::Dil, Strategy::Rdil, Strategy::Hdil];

/// Operations attempted and failed in a run. A failure is an error, a
/// wrong or degraded answer, or an acknowledged write that did not
/// survive.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the human reading the output.
    pub notes: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(describe());
            }
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
        self.notes.truncate(8);
    }
}

/// A query whose reference answer has been established.
#[derive(Debug, Clone)]
pub struct Checked {
    pub query: Query,
    /// The ranked page all three processors agreed on.
    pub expected: Vec<DeweyId>,
}

impl Checked {
    /// Whether a timed reply is the expected page. Cheap enough to run on
    /// every reply: the full three-way comparison already ran up front.
    pub fn accepts(&self, reply: &Result<SearchResults, QueryError>) -> bool {
        match reply {
            Ok(r) => {
                !r.is_degraded()
                    && r.hits.len() == self.expected.len()
                    && r.hits
                        .iter()
                        .zip(&self.expected)
                        .all(|(hit, want)| hit.dewey == *want)
            }
            Err(_) => false,
        }
    }
}

fn scores_agree(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
}

/// Runs each query once under DIL, RDIL and HDIL and compares: same
/// element sequence, scores equal to 1e-9 relative, planted queries
/// non-empty, every hit's subtree holding all keywords. Each comparison
/// counts as one attempted operation.
pub fn establish<S: PageStore>(
    engine: &XRankEngine<S>,
    queries: &[Query],
    opts: &QueryOptions,
    tally: &mut Tally,
) -> Vec<Checked> {
    queries
        .iter()
        .map(|query| {
            let verdict = check_one(engine, query, opts);
            let expected = verdict.as_ref().map_or_else(|_| Vec::new(), Clone::clone);
            tally.record(verdict.is_ok(), || {
                format!("query {:?}: {}", query.text, verdict.unwrap_err())
            });
            Checked {
                query: query.clone(),
                expected,
            }
        })
        .collect()
}

fn check_one<S: PageStore>(
    engine: &XRankEngine<S>,
    query: &Query,
    opts: &QueryOptions,
) -> Result<Vec<DeweyId>, String> {
    let mut pages = Vec::new();
    for strategy in STRATEGIES {
        let page = engine
            .query(&query.text, strategy, opts)
            .map_err(|e| format!("{strategy:?} failed: {e}"))?;
        if page.is_degraded() {
            return Err(format!("{strategy:?} answered degraded"));
        }
        pages.push(page);
    }
    let reference = &pages[2];
    if query.planted && reference.hits.is_empty() {
        return Err("planted query has no answer".to_string());
    }
    for (strategy, page) in STRATEGIES.iter().zip(&pages) {
        if page.hits.len() != reference.hits.len() {
            return Err(format!(
                "{strategy:?} returned {} hits, HDIL {}",
                page.hits.len(),
                reference.hits.len()
            ));
        }
        for (rank, (hit, want)) in page.hits.iter().zip(&reference.hits).enumerate() {
            if hit.dewey != want.dewey {
                return Err(format!("{strategy:?} differs from HDIL at rank {rank}"));
            }
            if !scores_agree(hit.score, want.score) {
                return Err(format!(
                    "{strategy:?} scores {} at rank {rank}, HDIL {}",
                    hit.score, want.score
                ));
            }
        }
    }
    for hit in &reference.hits {
        let terms = engine.collection().subtree_terms(hit.elem);
        if let Some(missing) = query.keywords.iter().find(|k| !terms.contains(&k.as_str())) {
            return Err(format!(
                "hit <{}> lacks keyword {missing:?}",
                hit.path.join("/")
            ));
        }
    }
    Ok(reference.hits.iter().map(|hit| hit.dewey.clone()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_counts_and_keeps_the_first_notes() {
        let mut tally = Tally::default();
        tally.record(true, || unreachable!());
        for i in 0..10 {
            tally.record(false, || format!("failure {i}"));
        }
        assert_eq!(
            (tally.attempted, tally.failed, tally.notes.len()),
            (11, 10, 8)
        );
        let mut total = Tally::default();
        total.absorb(tally);
        assert_eq!((total.attempted, total.failed), (11, 10));
    }

    #[test]
    fn relative_score_tolerance() {
        assert!(scores_agree(1.0, 1.0 + 5e-10));
        assert!(!scores_agree(1.0, 1.0 + 5e-9));
        assert!(scores_agree(0.0, 0.0));
        assert!(scores_agree(3e-12, 3e-12 * (1.0 + 1e-10)));
    }
}
