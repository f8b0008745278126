//! Crash-point injection for durability testing.
//!
//! A crash can leave a file in exactly two interesting states relative to
//! an in-flight append: a **prefix** of the new bytes made it to disk
//! (torn write), or all bytes made it but one sector holds garbage
//! (misdirected/interrupted sector write). [`FailingFile`] wraps any
//! writer and simulates both, "killing the process" (returning an error
//! and refusing further writes) once the configured [`CrashPoint`] is
//! reached. The recovery proptests sweep the crash offset across an
//! entire WAL commit and assert that reopening always lands on a durable
//! epoch.

use std::io::{self, Write};

/// How the simulated crash mangles the in-flight write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashMode {
    /// Only the first `offset` bytes of the write reach the file; the
    /// rest are lost (torn write).
    Truncate,
    /// Every byte reaches the file, but the byte at `offset` is XOR-ed
    /// with `0xA5` (corrupted sector); writes keep succeeding so the
    /// full stream lands, corruption included. An `offset` past the end
    /// of the written data garbles nothing — the crash then strikes
    /// *after* a fully durable write.
    Garble,
}

/// A byte offset (relative to the wrapped writer's first byte) at which
/// the simulated crash strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// Offset into the stream of bytes written through the wrapper.
    pub offset: u64,
    /// What happens to the data around the crash.
    pub mode: CrashMode,
}

/// Error kind used for the simulated crash.
fn crash_error() -> io::Error {
    io::Error::other("injected crash point fired")
}

/// A writer that persists data faithfully up to a [`CrashPoint`], then
/// fails like a crashing process.
///
/// Semantics per mode:
///
/// * [`CrashMode::Truncate`] — bytes `0..offset` are forwarded, then
///   the write covering the crash point and every later one return an
///   error. If `offset` is at or beyond the end of all data written,
///   nothing is lost (the crash lands after the write completed).
/// * [`CrashMode::Garble`] — all bytes are forwarded with the byte at
///   `offset` flipped; writes keep succeeding (the corruption is
///   already planted; the store treats an armed crash point as fatal
///   after the write).
#[derive(Debug)]
pub struct FailingFile<W: Write> {
    inner: W,
    point: CrashPoint,
    written: u64,
    fired: bool,
}

impl<W: Write> FailingFile<W> {
    /// Wraps `inner`, arming the given crash point.
    pub fn new(inner: W, point: CrashPoint) -> Self {
        FailingFile {
            inner,
            point,
            written: 0,
            fired: false,
        }
    }
}

impl<W: Write> Write for FailingFile<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.fired && self.point.mode == CrashMode::Truncate {
            return Err(crash_error());
        }
        let end = self.written + buf.len() as u64;
        match self.point.mode {
            CrashMode::Truncate => {
                if end > self.point.offset {
                    let keep = (self.point.offset.saturating_sub(self.written)) as usize;
                    self.inner.write_all(&buf[..keep])?;
                    self.written += keep as u64;
                    self.fired = true;
                    return Err(crash_error());
                }
                self.inner.write_all(buf)?;
                self.written = end;
                Ok(buf.len())
            }
            CrashMode::Garble => {
                if !self.fired && self.point.offset >= self.written && self.point.offset < end {
                    let mut garbled = buf.to_vec();
                    garbled[(self.point.offset - self.written) as usize] ^= 0xA5;
                    self.inner.write_all(&garbled)?;
                    self.fired = true;
                } else {
                    self.inner.write_all(buf)?;
                }
                self.written = end;
                Ok(buf.len())
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(point: CrashPoint, chunks: &[&[u8]]) -> (Vec<u8>, bool) {
        let mut sink = Vec::new();
        let crashed;
        {
            let mut f = FailingFile::new(&mut sink, point);
            for chunk in chunks {
                if f.write_all(chunk).is_err() {
                    break;
                }
            }
            crashed = f.fired;
        }
        (sink, crashed)
    }

    #[test]
    fn truncate_keeps_exact_prefix() {
        let data: Vec<u8> = (0u8..100).collect();
        for offset in 0..=100u64 {
            let point = CrashPoint {
                offset,
                mode: CrashMode::Truncate,
            };
            let (persisted, crashed) = run(point, &[&data]);
            assert_eq!(persisted, data[..offset as usize], "offset {offset}");
            assert_eq!(crashed, offset < 100, "offset {offset}");
        }
    }

    #[test]
    fn truncate_spanning_multiple_writes() {
        let point = CrashPoint {
            offset: 5,
            mode: CrashMode::Truncate,
        };
        let (persisted, crashed) = run(point, &[b"abc", b"def", b"ghi"]);
        assert_eq!(persisted, b"abcde");
        assert!(crashed);
    }

    #[test]
    fn garble_flips_exactly_one_byte() {
        let data: Vec<u8> = (0u8..50).collect();
        for offset in 0..50u64 {
            let point = CrashPoint {
                offset,
                mode: CrashMode::Garble,
            };
            let (persisted, crashed) = run(point, &[&data[..20], &data[20..]]);
            assert!(crashed, "offset {offset}");
            assert_eq!(persisted.len(), data.len());
            let diffs: Vec<usize> = (0..data.len())
                .filter(|&i| persisted[i] != data[i])
                .collect();
            assert_eq!(diffs, vec![offset as usize]);
            assert_eq!(persisted[offset as usize], data[offset as usize] ^ 0xA5);
        }
    }

    #[test]
    fn garble_past_end_is_a_clean_write() {
        let point = CrashPoint {
            offset: 99,
            mode: CrashMode::Garble,
        };
        let (persisted, crashed) = run(point, &[b"short"]);
        assert_eq!(persisted, b"short");
        assert!(!crashed);
    }

    #[test]
    fn no_writes_accepted_after_crash() {
        let mut sink = Vec::new();
        let mut f = FailingFile::new(
            &mut sink,
            CrashPoint {
                offset: 1,
                mode: CrashMode::Truncate,
            },
        );
        assert!(f.write_all(b"xy").is_err());
        assert!(f.fired);
        assert!(f.write_all(b"z").is_err());
        let _ = f;
        assert_eq!(sink, b"x");
    }
}
