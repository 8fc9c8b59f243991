//! The write side of `update-mixed`: seeded rounds of add / replace /
//! delete / commit / fold against a durable `UpdatableXRank`, with a
//! ledger of what was acknowledged so the reopened index can be audited.

use crate::check::Tally;
use crate::corpus::{with_marker, Rng, Sizes};
use crate::spans::Tracer;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;
use xrank::{EngineConfig, UpdatableXRank};

/// Segments above which the writer folds inline.
const MAX_SEGMENTS: usize = 8;

/// Only segments up to this many source bytes are folded, so the
/// committed base stays sealed and folds cost what the deltas cost.
const SMALL_SEGMENT_BYTES: u64 = 1 << 20;

/// Opens the durable pipeline. `EngineConfig::wal` is left at its default
/// — `SyncPolicy::Always`, an fsync per acknowledged mutation — on every
/// commit this benchmark compares.
pub fn open_pipeline(dir: &Path, config: &EngineConfig) -> Result<(UpdatableXRank, f64), String> {
    let start = Instant::now();
    let db =
        UpdatableXRank::open(dir, config.clone()).map_err(|e| format!("pipeline open: {e}"))?;
    Ok((db, start.elapsed().as_secs_f64() * 1e3))
}

/// What one round cost.
pub struct Round {
    /// Add-batch (+ replaces and deletes) + `commit`, until searchable.
    pub commit_ms: f64,
    /// Inline `merge_small`, when the round needed one.
    pub merge_ms: Option<f64>,
    pub xml_bytes: usize,
    pub segments_after: usize,
}

/// Feeds documents from a stream into the pipeline round by round and
/// remembers every acknowledged mutation.
pub struct Writer<'a> {
    stream: &'a [(String, String)],
    next: usize,
    round: usize,
    sizes: Sizes,
    seed: u64,
    rng: Rng,
    /// Live added documents: uri → (marker, xml bytes).
    live: BTreeMap<String, (String, usize)>,
    /// Markers of deleted documents and of replaced versions.
    dead: Vec<String>,
}

impl<'a> Writer<'a> {
    pub fn new(stream: &'a [(String, String)], sizes: Sizes, seed: u64) -> Writer<'a> {
        Writer {
            stream,
            next: 0,
            round: 0,
            sizes,
            seed,
            rng: Rng::new(seed ^ 0x5eed),
            live: BTreeMap::new(),
            dead: Vec::new(),
        }
    }

    pub fn has_input(&self) -> bool {
        self.next + self.sizes.update_batch <= self.stream.len()
    }

    pub fn live_xml_bytes(&self) -> usize {
        self.live.values().map(|(_, bytes)| bytes).sum()
    }

    fn marker(&self, serial: usize) -> String {
        format!("zmk{}r{}n{serial}", self.seed, self.round)
    }

    /// One round: add a batch, each document carrying a unique marker
    /// token; every fifth round also replace some earlier documents and
    /// delete others; `commit`; fold inline past [`MAX_SEGMENTS`].
    pub fn round(&mut self, db: &UpdatableXRank, t: &mut Tracer) -> Result<Round, String> {
        let start = Instant::now();
        let mut xml_bytes = 0;
        let mut serial = 0;
        let mut add =
            |this: &mut Self, uri: &str, xml: &str, t: &mut Tracer| -> Result<(), String> {
                let marker = this.marker(serial);
                serial += 1;
                let doc = with_marker(xml, &marker);
                t.leaf("core.add_xml", "core", || db.add_xml(uri, &doc))
                    .map_err(|e| format!("add_xml {uri}: {e}"))?;
                xml_bytes += doc.len();
                if let Some((old, _)) = this.live.insert(uri.to_string(), (marker, doc.len())) {
                    this.dead.push(old);
                }
                Ok(())
            };

        let stream = self.stream;
        for (uri, xml) in &stream[self.next..self.next + self.sizes.update_batch] {
            add(self, uri, xml, t)?;
        }
        self.next += self.sizes.update_batch;

        if self.round % 5 == 4 {
            for _ in 0..self.sizes.update_replaced {
                let uri = self.pick_live();
                let source = &stream
                    .iter()
                    .find(|(u, _)| *u == uri)
                    .expect("live uri is from the stream")
                    .1;
                add(self, &uri, source, t)?;
            }
            for _ in 0..self.sizes.update_deleted {
                let uri = self.pick_live();
                let removed = t
                    .leaf("core.delete", "core", || db.delete(&uri))
                    .map_err(|e| format!("delete {uri}: {e}"))?;
                if !removed {
                    return Err(format!("delete {uri}: nothing removed"));
                }
                let (marker, _) = self.live.remove(&uri).expect("picked from live");
                self.dead.push(marker);
            }
        }

        t.leaf("core.commit", "core", || db.commit())
            .map_err(|e| format!("commit: {e}"))?;
        let commit_ms = start.elapsed().as_secs_f64() * 1e3;

        let merge_ms = if db.segment_count() > MAX_SEGMENTS {
            let fold = Instant::now();
            t.leaf("core.merge_small", "core", || {
                db.merge_small(SMALL_SEGMENT_BYTES, None)
            })
            .map_err(|e| format!("merge_small: {e}"))?;
            Some(fold.elapsed().as_secs_f64() * 1e3)
        } else {
            None
        };
        self.round += 1;
        Ok(Round {
            commit_ms,
            merge_ms,
            xml_bytes,
            segments_after: db.segment_count(),
        })
    }

    fn pick_live(&mut self) -> String {
        let index = self.rng.below(self.live.len());
        self.live
            .keys()
            .nth(index)
            .expect("index below len")
            .clone()
    }

    /// Audits a (re)opened index against the ledger: every acknowledged
    /// add findable by its marker in the right document, every deleted
    /// or replaced version gone. Each marker is one attempted operation.
    pub fn audit(&self, db: &UpdatableXRank, tally: &mut Tally) {
        for (uri, (marker, _)) in &self.live {
            let found = db.search(marker, 3).is_ok_and(|page| {
                !page.hits.is_empty() && page.hits.iter().all(|h| h.doc_uri == *uri)
            });
            tally.record(found, || {
                format!("acknowledged add {uri} ({marker}) not found after reopen")
            });
        }
        for marker in &self.dead {
            let gone = db.search(marker, 3).is_ok_and(|page| page.hits.is_empty());
            tally.record(gone, || {
                format!("deleted or replaced version {marker} still answers")
            });
        }
    }

    pub fn acknowledged(&self) -> (usize, usize) {
        (self.live.len(), self.dead.len())
    }
}
