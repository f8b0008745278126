//! Crash-point injection for durability testing.
//!
//! A crash can leave a file in exactly two interesting states relative to
//! an in-flight append: a **prefix** of the new bytes made it to disk
//! (torn write), or all bytes made it but one sector holds garbage
//! (misdirected/interrupted sector write). A [`CrashPoint`] armed on a
//! store ([`crate::StoreWriter::inject_crash`]) makes its next WAL append
//! write only what `CrashPoint::landed` says of the record, then
//! "kills the process": the append fails and the store refuses further
//! work. The recovery proptests sweep the crash offset across an entire
//! WAL commit and assert that reopening always lands on a durable epoch.

/// How the simulated crash mangles the in-flight write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashMode {
    /// Only the first `offset` bytes of the write reach the file; the
    /// rest are lost (torn write).
    Truncate,
    /// Every byte reaches the file, but the byte at `offset` is XOR-ed
    /// with `0xA5` (corrupted sector). An `offset` past the end of the
    /// written data garbles nothing — the crash then strikes *after* a
    /// fully durable write.
    Garble,
}

/// A byte offset (relative to the first byte of the append) at which
/// the simulated crash strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// Offset into the bytes of the append.
    pub offset: u64,
    /// What happens to the data around the crash.
    pub mode: CrashMode,
}

impl CrashPoint {
    /// What of `bytes`, written by a process that dies at this point,
    /// reaches the file. An `offset` at or past the end loses nothing.
    pub(crate) fn landed(&self, bytes: &[u8]) -> Vec<u8> {
        let at = usize::try_from(self.offset).unwrap_or(usize::MAX);
        let mut landed = bytes.to_vec();
        match self.mode {
            CrashMode::Truncate => landed.truncate(at),
            CrashMode::Garble => {
                if let Some(byte) = landed.get_mut(at) {
                    *byte ^= 0xA5;
                }
            }
        }
        landed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(offset: u64, mode: CrashMode) -> CrashPoint {
        CrashPoint { offset, mode }
    }

    #[test]
    fn truncate_keeps_exact_prefix() {
        let data: Vec<u8> = (0u8..100).collect();
        for offset in 0..=101u64 {
            let landed = point(offset, CrashMode::Truncate).landed(&data);
            assert_eq!(landed, data[..offset.min(100) as usize], "offset {offset}");
        }
    }

    #[test]
    fn garble_flips_exactly_one_byte() {
        let data: Vec<u8> = (0u8..50).collect();
        for offset in 0..50u64 {
            let landed = point(offset, CrashMode::Garble).landed(&data);
            assert_eq!(landed.len(), data.len());
            let diffs: Vec<usize> = (0..data.len()).filter(|&i| landed[i] != data[i]).collect();
            assert_eq!(diffs, vec![offset as usize]);
            assert_eq!(landed[offset as usize], data[offset as usize] ^ 0xA5);
        }
    }

    #[test]
    fn garble_past_end_is_a_clean_write() {
        assert_eq!(point(99, CrashMode::Garble).landed(b"short"), b"short");
        assert_eq!(
            point(u64::MAX, CrashMode::Garble).landed(b"short"),
            b"short"
        );
    }
}
