//! A durable pipeline in a private temporary directory, for the suites
//! that exercise pipeline semantics rather than its files.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use xrank_core::{EngineConfig, UpdatableXRank};

/// Derefs to the pipeline; the directory is removed on drop.
pub struct TempPipeline {
    pub index: Arc<UpdatableXRank>,
    dir: PathBuf,
}

impl std::ops::Deref for TempPipeline {
    type Target = UpdatableXRank;
    fn deref(&self) -> &UpdatableXRank {
        &self.index
    }
}

impl Drop for TempPipeline {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Opens a fresh pipeline under `config` in a directory no other test
/// (or test process) shares.
pub fn temp_pipeline(config: EngineConfig) -> TempPipeline {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "xrank-pipeline-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let index = Arc::new(UpdatableXRank::open(&dir, config).expect("open temp pipeline"));
    TempPipeline { index, dir }
}
