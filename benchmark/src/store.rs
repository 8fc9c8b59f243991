//! Building and opening the engine the way a user does: the set-up of
//! every query workload and the timed operation of `ingest`.

use crate::corpus::Corpus;
use std::path::Path;
use std::time::Instant;
use xrank::storage::FileStore;
use xrank::{EngineBuilder, EngineConfig, XRankEngine};

/// Pool that holds any index this benchmark builds.
pub const POOL_FITS: usize = 65_536;

/// `cold-pool`: far below the ≈ 300-page working set of its query stream.
pub const POOL_COLD: usize = 32;

/// The engine configuration of every workload: defaults (full 4 KiB
/// pages, metrics and flight recorder on, WAL `SyncPolicy::Always`) plus
/// the standalone RDIL index so all three strategies can run.
pub fn engine_config(pool_pages: usize) -> EngineConfig {
    EngineConfig {
        with_rdil: true,
        pool_pages,
        ..Default::default()
    }
}

/// `EngineBuilder::add_xml` × n → `build_persistent` → drop. Returns the
/// wall seconds of the whole sequence.
pub fn build_index(corpus: &Corpus, dir: &Path, config: &EngineConfig) -> Result<f64, String> {
    let start = Instant::now();
    let mut builder = EngineBuilder::with_config(config.clone());
    for (uri, xml) in &corpus.docs {
        builder
            .add_xml(uri, xml)
            .map_err(|e| format!("add_xml {uri}: {e}"))?;
    }
    let engine = builder
        .build_persistent(dir)
        .map_err(|e| format!("build_persistent: {e}"))?;
    drop(engine);
    Ok(start.elapsed().as_secs_f64())
}

/// `XRankEngine::open`, with its wall milliseconds.
pub fn open_index(
    dir: &Path,
    config: &EngineConfig,
) -> Result<(XRankEngine<FileStore>, f64), String> {
    let start = Instant::now();
    let engine = XRankEngine::open(dir, config.clone()).map_err(|e| format!("open: {e}"))?;
    Ok((engine, start.elapsed().as_secs_f64() * 1e3))
}
