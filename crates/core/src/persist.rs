//! Engine persistence: metadata file format, crash-safe commit, and
//! recovery-aware reopening.
//!
//! [`crate::EngineBuilder::build_persistent`] builds the index pages and
//! the metadata file (`xrank-meta.bin`, holding the collection, the
//! ElemRank vector, and the index directories) inside a staging directory
//! `dir/store.tmp/`, fsyncs everything, and then commits by renaming:
//!
//! ```text
//! dir/store      → dir/store.old     (previous index, kept until commit)
//! dir/store.tmp  → dir/store         (the atomic commit point)
//! ```
//!
//! A crash before the first rename leaves the previous `store/` intact; a
//! crash between the renames leaves `store.old/` intact; after the second
//! rename the new `store/` is complete. [`XRankEngine::open`] resolves in
//! that order (`store/`, then `store.old/`), so *some* complete index is
//! always openable. Opening also verifies every page checksum so that
//! silent on-disk corruption fails loudly at open instead of poisoning
//! queries later. That scan ([`FileStore::verify`]: 1 MiB batches of page
//! slots across the cores, lowest damaged page reported) runs on its own
//! thread while the main thread decodes the meta file; when both fail, the
//! meta error is the one returned.
//!
//! The meta file is `XRKE`, a `u32` version, then the sections written by
//! [`XRankEngine::write_meta_file`] in order. Exactly one version is read;
//! any other is refused with an error naming both.
//!
//! Settings that shape the *stored* data (rank parameters, weighting,
//! which indexes were built) are baked into the files; settings that only
//! shape query behaviour (query defaults, cost model, answer nodes, pool
//! size) come from the [`EngineConfig`] passed at open time.

use crate::engine::{EngineConfig, XRankEngine};
use std::collections::HashSet;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;
use xrank_graph::Collection;
use xrank_index::{HdilIndex, NaiveIdIndex, NaiveRankIndex, RdilIndex};
use xrank_rank::RankResult;
use xrank_storage::wire::{get_f64, get_u32, get_u64, put_f64, put_u32, put_u64};
use xrank_storage::{BufferPool, FileStore, PageStore};

const MAGIC: &[u8; 4] = b"XRKE";
/// The meta-file version this build writes and reads (5: RDIL's B+-tree
/// leaves carry a slot directory; 4 had a count and per-entry lengths).
const VERSION: u32 = 5;

/// The live store directory under the engine dir.
pub(crate) const STORE_DIR: &str = "store";
/// Staging directory a save builds into before the commit renames.
pub(crate) const STORE_TMP: &str = "store.tmp";
/// Where the previous index sits between the two commit renames.
pub(crate) const STORE_OLD: &str = "store.old";
/// The metadata file name (inside the store directory).
pub(crate) const META_FILE: &str = "xrank-meta.bin";

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("engine meta: {msg}"))
}

/// Fsyncs a directory so renames/creations inside it are durable.
pub(crate) fn fsync_dir(dir: &Path) -> io::Result<()> {
    std::fs::File::open(dir)?.sync_all()
}

/// Commits a fully-fsynced `dir/store.tmp/` over `dir/store/`. The rename
/// of `store.tmp` is the atomic commit point; the previous index survives
/// as `store.old/` until the commit lands, and [`XRankEngine::open`] falls
/// back to it if a crash strikes between the renames.
pub(crate) fn commit_store_swap(dir: &Path) -> io::Result<()> {
    let tmp = dir.join(STORE_TMP);
    let live = dir.join(STORE_DIR);
    let old = dir.join(STORE_OLD);
    fsync_dir(&tmp)?;
    if old.exists() {
        std::fs::remove_dir_all(&old)?;
    }
    if live.exists() {
        std::fs::rename(&live, &old)?;
    }
    std::fs::rename(&tmp, &live)?;
    fsync_dir(dir)?;
    // The commit has landed; the previous index is superseded.
    // Best-effort cleanup.
    let _ = std::fs::remove_dir_all(&old);
    Ok(())
}

impl<S: PageStore> XRankEngine<S> {
    /// Writes the metadata file next to a file-backed store.
    pub(crate) fn write_meta_file(&self, path: &Path) -> io::Result<()> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        w.write_all(MAGIC)?;
        put_u32(&mut w, VERSION)?;

        self.collection_ref().write_to(&mut w)?;

        // ElemRank result.
        let ranks = self.rank_result();
        put_u64(&mut w, ranks.scores.len() as u64)?;
        for &s in &ranks.scores {
            put_f64(&mut w, s)?;
        }
        put_u32(&mut w, ranks.iterations as u32)?;
        put_u32(&mut w, u32::from(ranks.converged))?;
        put_f64(&mut w, ranks.residual)?;

        // HTML-document set.
        let html = self.html_docs_ref();
        put_u32(&mut w, html.len() as u32)?;
        for &d in html {
            put_u32(&mut w, d)?;
        }

        // Index directories.
        self.hdil_ref().write_meta(&mut w)?;
        match self.rdil_ref() {
            Some(r) => {
                put_u32(&mut w, 1)?;
                r.write_meta(&mut w)?;
            }
            None => put_u32(&mut w, 0)?,
        }
        match (self.naive_id_ref(), self.naive_rank_ref()) {
            (Some(a), Some(b)) => {
                put_u32(&mut w, 1)?;
                a.write_meta(&mut w)?;
                b.write_meta(&mut w)?;
            }
            _ => put_u32(&mut w, 0)?,
        }
        w.flush()?;
        // Durability: the commit rename must never land before the meta
        // bytes it points at.
        w.get_ref().sync_all()
    }
}

impl XRankEngine<FileStore> {
    /// Reopens an engine built by
    /// [`crate::EngineBuilder::build_persistent`]. `config` supplies the
    /// query-time settings (its `with_rdil`/`with_naive`/`weighting` are
    /// ignored in favor of what is on disk).
    pub fn open(dir: impl AsRef<Path>, config: EngineConfig) -> io::Result<Self> {
        let dir = dir.as_ref();
        // Resolution order mirrors the commit protocol: the live store,
        // then the pre-commit snapshot a crash may have stranded.
        let Some(store_dir) = [dir.join(STORE_DIR), dir.join(STORE_OLD)]
            .into_iter()
            .find(|store| store.join(META_FILE).is_file())
        else {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!(
                    "no xrank index under {}: expected {STORE_DIR}/{META_FILE} or \
                     {STORE_OLD}/{META_FILE}",
                    dir.display()
                ),
            ));
        };
        Self::open_at(&store_dir, config)
    }

    fn open_at(store_dir: &Path, config: EngineConfig) -> io::Result<Self> {
        // The full checksum scan — a bit-flipped or truncated segment fails
        // the open with a descriptive error instead of surfacing mid-query —
        // runs beside the meta decode; they share nothing. The store is
        // attached on that thread too, so that when both sides fail the
        // meta error is returned, as when the two ran in sequence.
        let (meta, store) = std::thread::scope(|s| {
            let store = s.spawn(|| -> io::Result<FileStore> {
                let store = FileStore::open(store_dir)?;
                store.verify()?;
                Ok(store)
            });
            let meta = read_meta_file(&store_dir.join(META_FILE));
            (meta, store.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
        });
        let Meta { collection, ranks, html_docs, hdil, rdil, naive_id, naive_rank } = meta?;
        let pool = BufferPool::new(store?, config.pool_pages);
        Ok(XRankEngine::from_parts(
            config, collection, ranks, pool, hdil, rdil, naive_id, naive_rank, html_docs,
        ))
    }
}

/// Everything the meta file holds, decoded.
struct Meta {
    collection: Collection,
    ranks: RankResult,
    html_docs: HashSet<u32>,
    hdil: HdilIndex,
    rdil: Option<RdilIndex>,
    naive_id: Option<NaiveIdIndex>,
    naive_rank: Option<NaiveRankIndex>,
}

/// Decodes the meta file written by [`XRankEngine::write_meta_file`].
fn read_meta_file(path: &Path) -> io::Result<Meta> {
    let mut r = BufReader::new(std::fs::File::open(path)?);
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(bad("bad magic"));
    }
    let version = get_u32(&mut r)?;
    if version != VERSION {
        return Err(bad(&format!(
            "unsupported version {version} (this build reads version {VERSION} only; \
             rebuild the index from source)"
        )));
    }

    let collection = Collection::read_from(&mut r)?;

    let n_scores = get_u64(&mut r)?;
    if n_scores != collection.element_count() as u64 {
        return Err(bad("rank vector does not match the collection"));
    }
    let mut scores = Vec::with_capacity(n_scores as usize);
    for _ in 0..n_scores {
        scores.push(get_f64(&mut r)?);
    }
    let iterations = get_u32(&mut r)? as usize;
    let converged = get_u32(&mut r)? != 0;
    let residual = get_f64(&mut r)?;
    let ranks = RankResult { scores, iterations, converged, residual };

    let n_html = get_u32(&mut r)?;
    let mut html_docs = HashSet::with_capacity(n_html.min(1 << 20) as usize);
    for _ in 0..n_html {
        html_docs.insert(get_u32(&mut r)?);
    }

    let hdil = HdilIndex::read_meta(&mut r)?;
    let rdil = match get_u32(&mut r)? {
        0 => None,
        1 => Some(RdilIndex::read_meta(&mut r)?),
        k => return Err(bad(&format!("bad rdil tag {k}"))),
    };
    let (naive_id, naive_rank) = match get_u32(&mut r)? {
        0 => (None, None),
        1 => (
            Some(NaiveIdIndex::read_meta(&mut r)?),
            Some(NaiveRankIndex::read_meta(&mut r)?),
        ),
        k => return Err(bad(&format!("bad naive tag {k}"))),
    };
    Ok(Meta { collection, ranks, html_docs, hdil, rdil, naive_id, naive_rank })
}
