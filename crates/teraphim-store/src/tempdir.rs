//! Self-cleaning scratch directories for tests and benches.
//!
//! The workspace carries no general-purpose temp-dir dependency, and the
//! crash-recovery suites need many isolated store directories per
//! process. [`TempDir`] creates a uniquely named directory under the
//! system temp root and removes it (recursively, best-effort) on drop.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

static COUNTER: AtomicU64 = AtomicU64::new(0);

/// A uniquely named temporary directory, deleted on drop.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates `teraphim-<prefix>-<pid>-<nanos>-<n>` under the system
    /// temp directory.
    ///
    /// # Errors
    ///
    /// Returns [`crate::StoreError::Io`] if the directory cannot be
    /// created.
    pub fn new(prefix: &str) -> crate::Result<TempDir> {
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let nanos = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0);
        let path = std::env::temp_dir().join(format!(
            "teraphim-{prefix}-{}-{nanos:x}-{n}",
            std::process::id()
        ));
        std::fs::create_dir_all(&path).map_err(crate::io_err("create temp dir"))?;
        Ok(TempDir { path })
    }

    /// The directory's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn creates_and_removes() {
        let kept;
        {
            let dir = TempDir::new("unit").unwrap();
            kept = dir.path().to_path_buf();
            assert!(kept.is_dir());
            std::fs::write(dir.path().join("f"), b"x").unwrap();
        }
        assert!(!kept.exists());
    }

    #[test]
    fn unique_names() {
        let a = TempDir::new("uniq").unwrap();
        let b = TempDir::new("uniq").unwrap();
        assert_ne!(a.path(), b.path());
    }
}
