//! Write accounting from directory snapshots.
//!
//! The store does not report how many bytes it writes, and the
//! benchmark may not add a counter inside it. What the benchmark can
//! see is the store directory before and after each call: an
//! append-only file that grew wrote its growth, and a file that was not
//! there before wrote its whole size. Summed over every call of a run
//! this gives bytes written to disk per byte of ingested text, which
//! counts every rewrite a checkpoint or compaction makes and which a
//! final directory size cannot show. A same-name replacement of equal
//! or smaller size (the manifest's tmp+rename) is not visible this way;
//! it is a few hundred bytes per checkpoint.

use std::collections::BTreeMap;
use std::path::Path;

/// File name to size, for the regular files directly inside one
/// directory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DirSnapshot {
    files: BTreeMap<String, u64>,
}

impl DirSnapshot {
    /// Reads the directory; a missing directory is an empty snapshot.
    pub fn take(dir: &Path) -> std::io::Result<DirSnapshot> {
        let mut files = BTreeMap::new();
        let entries = match std::fs::read_dir(dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(DirSnapshot::default()),
            Err(e) => return Err(e),
        };
        for entry in entries {
            let entry = entry?;
            let meta = entry.metadata()?;
            if meta.is_file() {
                files.insert(entry.file_name().to_string_lossy().into_owned(), meta.len());
            }
        }
        Ok(DirSnapshot { files })
    }

    #[cfg(test)]
    fn of(files: &[(&str, u64)]) -> DirSnapshot {
        DirSnapshot {
            files: files.iter().map(|(n, s)| ((*n).to_owned(), *s)).collect(),
        }
    }

    /// Sum of all file sizes.
    pub fn total_bytes(&self) -> u64 {
        self.files.values().sum()
    }

    /// Size of one file, 0 if absent.
    pub fn size_of(&self, name: &str) -> u64 {
        self.files.get(name).copied().unwrap_or(0)
    }

    /// Bytes written between `self` (earlier) and `later`: the growth of
    /// every file present in both, plus the size of every new file.
    /// Shrinking and deletion write nothing.
    pub fn written_until(&self, later: &DirSnapshot) -> u64 {
        later
            .files
            .iter()
            .map(|(name, &size)| match self.files.get(name) {
                Some(&before) => size.saturating_sub(before),
                None => size,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn growth_of_existing_files_and_whole_new_files_count() {
        let before = DirSnapshot::of(&[("wal.log", 100), ("seg-0.tsg", 5000), ("MANIFEST", 80)]);
        // A batch append: the WAL grows by 250.
        let after = DirSnapshot::of(&[("wal.log", 350), ("seg-0.tsg", 5000), ("MANIFEST", 80)]);
        assert_eq!(before.written_until(&after), 250);
        assert_eq!(after.total_bytes(), 5430);
    }

    #[test]
    fn checkpoint_truncation_and_deletion_write_nothing() {
        let before = DirSnapshot::of(&[("wal.log", 900), ("seg-0.tsg", 5000)]);
        // A checkpoint folds the WAL into a new segment and truncates it.
        let after = DirSnapshot::of(&[("wal.log", 0), ("seg-0.tsg", 5000), ("seg-1.tsg", 1200)]);
        assert_eq!(before.written_until(&after), 1200);
        // A compaction writes one merged segment and deletes the others.
        let compacted = DirSnapshot::of(&[("wal.log", 0), ("seg-2.tsg", 6100)]);
        assert_eq!(after.written_until(&compacted), 6100);
        assert_eq!(compacted.size_of("wal.log"), 0);
        assert_eq!(compacted.size_of("absent"), 0);
    }

    #[test]
    fn snapshots_of_a_real_directory() {
        let dir = crate::env::scratch_dir("dirsnap-test").unwrap();
        assert_eq!(
            DirSnapshot::take(&dir.join("missing")).unwrap(),
            DirSnapshot::default()
        );
        let empty = DirSnapshot::take(&dir).unwrap();
        std::fs::write(dir.join("a"), [0u8; 10]).unwrap();
        let one = DirSnapshot::take(&dir).unwrap();
        std::fs::write(dir.join("a"), [0u8; 25]).unwrap();
        std::fs::write(dir.join("b"), [0u8; 7]).unwrap();
        let two = DirSnapshot::take(&dir).unwrap();
        assert_eq!(empty.written_until(&one), 10);
        assert_eq!(one.written_until(&two), 15 + 7);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
