//! The benchmark's footprint on the machine: scratch directories inside
//! the package, on-disk sizes, peak memory, hardware threads.

use std::path::{Path, PathBuf};

/// `benchmark/out/`: traces, result files and scratch stores live here
/// and nowhere else (the directory is git-ignored).
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A scratch directory under [`out_dir`], removed when dropped.
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    /// Creates `out/tmp-<pid>-<label>/`, replacing any leftover of the
    /// same name.
    pub fn new(label: &str) -> std::io::Result<Scratch> {
        let path = out_dir().join(format!("tmp-{}-{label}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(Scratch { path })
    }

    /// A fresh, not yet created, sub-directory path.
    pub fn sub(&self, name: &str) -> PathBuf {
        self.path.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Bytes of every regular file under `dir`.
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Hardware threads; no phase runs more runnable threads than this.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_lives_under_out_and_cleans_up() {
        let path;
        {
            let scratch = Scratch::new("env-test").unwrap();
            path = scratch.path.clone();
            assert!(path.starts_with(out_dir()));
            std::fs::create_dir_all(scratch.sub("a/b")).unwrap();
            std::fs::write(scratch.sub("a/b/f"), [0u8; 10]).unwrap();
            std::fs::write(scratch.sub("g"), [0u8; 5]).unwrap();
            assert_eq!(dir_bytes(&path).unwrap(), 15);
        }
        assert!(!path.exists());
    }

    #[test]
    fn peak_rss_reads_a_positive_number() {
        assert!(peak_rss_mb() > 1.0);
        assert!(hardware_threads() >= 1);
    }
}
