//! The store's root pointer: which segment is live, at which epoch.
//!
//! The manifest is the only mutable file in a store besides the WAL. It
//! is always replaced atomically — written to `MANIFEST.tmp`, synced,
//! then renamed over `MANIFEST` — so a reader either sees the old
//! manifest or the new one, never a torn mix. Layout:
//!
//! ```text
//! magic "TMF1"
//! format version (u32 LE)
//! collection name (u32 length + bytes)
//! analyzer flags: stopping (u8), stemming (u8)
//! checkpointed epoch (u64 LE)
//! next segment id (u64 LE)
//! segment count (u32 LE), always 1, then the segment:
//!     file name (u32 length + bytes)
//!     batch count (u32 LE), then per batch: epoch u64 LE, docs u64 LE
//! CRC-32 over everything above (u32 LE)
//! ```
//!
//! A store has exactly one segment; the count field is what remains of
//! a layout that once listed several, and any other value is rejected
//! as corrupt.

use crate::segment::SegmentBatch;
use crate::{Result, StoreError};
use teraphim_compress::checksum::crc32;

/// Magic bytes opening the manifest.
pub const MAGIC: [u8; 4] = *b"TMF1";
/// The current manifest format version.
pub const VERSION: u32 = 1;

/// The live segment file as recorded in the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentEntry {
    /// File name relative to the store directory.
    pub file: String,
    /// The batches the segment covers (mirrors the segment's own meta;
    /// the two are cross-checked when the segment is read).
    pub batches: Vec<SegmentBatch>,
}

impl SegmentEntry {
    /// Total documents across the segment's batches.
    #[must_use]
    pub fn num_docs(&self) -> u64 {
        self.batches.iter().map(|b| b.docs).sum()
    }
}

/// The decoded manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Collection name (e.g. "AP").
    pub name: String,
    /// Analyzer stop-word flag at indexing time.
    pub stopping: bool,
    /// Analyzer stemming flag at indexing time.
    pub stemming: bool,
    /// Highest epoch captured in the segment (WAL records above this
    /// are pending).
    pub epoch: u64,
    /// Counter for naming the next segment file.
    pub next_segment_id: u64,
    /// The live segment.
    pub segment: SegmentEntry,
}

impl Manifest {
    /// Serializes the manifest with its trailing CRC.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        let name = self.name.as_bytes();
        out.extend_from_slice(&(name.len() as u32).to_le_bytes());
        out.extend_from_slice(name);
        out.push(u8::from(self.stopping));
        out.push(u8::from(self.stemming));
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.next_segment_id.to_le_bytes());
        out.extend_from_slice(&1u32.to_le_bytes());
        let file = self.segment.file.as_bytes();
        out.extend_from_slice(&(file.len() as u32).to_le_bytes());
        out.extend_from_slice(file);
        out.extend_from_slice(&(self.segment.batches.len() as u32).to_le_bytes());
        for batch in &self.segment.batches {
            out.extend_from_slice(&batch.epoch.to_le_bytes());
            out.extend_from_slice(&batch.docs.to_le_bytes());
        }
        out.extend_from_slice(&crc32(&out).to_le_bytes());
        out
    }

    /// Decodes and validates a manifest.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Corrupt`] on structural or checksum
    /// problems and [`StoreError::BadVersion`] for unknown format
    /// versions.
    pub fn decode(bytes: &[u8]) -> Result<Manifest> {
        if bytes.len() < 4 + 4 + 4 {
            return Err(StoreError::Corrupt {
                what: "manifest too short",
            });
        }
        if bytes[0..4] != MAGIC {
            return Err(StoreError::Corrupt {
                what: "manifest magic",
            });
        }
        let body = &bytes[..bytes.len() - 4];
        let crc = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
        if crc32(body) != crc {
            return Err(StoreError::Corrupt {
                what: "manifest checksum",
            });
        }
        let mut pos = 4usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8]> {
            let slice = body.get(*pos..*pos + n).ok_or(StoreError::Corrupt {
                what: "manifest truncated",
            })?;
            *pos += n;
            Ok(slice)
        };
        let take_u32 = |pos: &mut usize| -> Result<u32> {
            Ok(u32::from_le_bytes(
                take(pos, 4)?.try_into().expect("4 bytes"),
            ))
        };
        let take_u64 = |pos: &mut usize| -> Result<u64> {
            Ok(u64::from_le_bytes(
                take(pos, 8)?.try_into().expect("8 bytes"),
            ))
        };
        let take_str = |pos: &mut usize| -> Result<String> {
            let len = take_u32(pos)? as usize;
            Ok(std::str::from_utf8(take(pos, len)?)
                .map_err(|_| StoreError::Corrupt {
                    what: "manifest string is not UTF-8",
                })?
                .to_owned())
        };
        let version = take_u32(&mut pos)?;
        if version != VERSION {
            return Err(StoreError::BadVersion { found: version });
        }
        let name = take_str(&mut pos)?;
        let stopping = *take(&mut pos, 1)?.first().expect("one byte") != 0;
        let stemming = *take(&mut pos, 1)?.first().expect("one byte") != 0;
        let epoch = take_u64(&mut pos)?;
        let next_segment_id = take_u64(&mut pos)?;
        if take_u32(&mut pos)? != 1 {
            return Err(StoreError::Corrupt {
                what: "manifest does not list exactly one segment",
            });
        }
        let file = take_str(&mut pos)?;
        let batch_count = take_u32(&mut pos)? as usize;
        let mut batches = Vec::with_capacity(batch_count.min(body.len()));
        for _ in 0..batch_count {
            batches.push(SegmentBatch {
                epoch: take_u64(&mut pos)?,
                docs: take_u64(&mut pos)?,
            });
        }
        if pos != body.len() {
            return Err(StoreError::Corrupt {
                what: "trailing bytes in manifest",
            });
        }
        let manifest = Manifest {
            name,
            stopping,
            stemming,
            epoch,
            next_segment_id,
            segment: SegmentEntry { file, batches },
        };
        manifest.validate()?;
        Ok(manifest)
    }

    /// Checks internal consistency: batches contiguous from epoch 0 up
    /// to the manifest epoch.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Corrupt`] describing the inconsistency.
    pub fn validate(&self) -> Result<()> {
        let batches = &self.segment.batches;
        if (0u64..)
            .zip(batches)
            .any(|(expected, b)| b.epoch != expected)
        {
            return Err(StoreError::Corrupt {
                what: "manifest batch epochs not contiguous",
            });
        }
        if Some(batches.len() as u64) != self.epoch.checked_add(1) {
            return Err(StoreError::Corrupt {
                what: "manifest epoch disagrees with segment batches",
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            name: "AP".into(),
            stopping: true,
            stemming: false,
            epoch: 3,
            next_segment_id: 2,
            segment: SegmentEntry {
                file: "seg-000001.seg".into(),
                batches: vec![
                    SegmentBatch { epoch: 0, docs: 10 },
                    SegmentBatch { epoch: 1, docs: 4 },
                    SegmentBatch { epoch: 2, docs: 5 },
                    SegmentBatch { epoch: 3, docs: 0 },
                ],
            },
        }
    }

    /// Recomputes the trailing CRC after a hand edit, so only the
    /// structural check under test can fire.
    fn reseal(bytes: &mut [u8]) {
        let body_len = bytes.len() - 4;
        let crc = crc32(&bytes[..body_len]).to_le_bytes();
        bytes[body_len..].copy_from_slice(&crc);
    }

    #[test]
    fn roundtrip() {
        let m = sample();
        let decoded = Manifest::decode(&m.encode()).unwrap();
        assert_eq!(decoded, m);
        assert_eq!(decoded.segment.num_docs(), 19);
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            let mut garbled = bytes.clone();
            garbled[i] ^= 0x04;
            assert!(
                Manifest::decode(&garbled).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn unknown_version_is_typed() {
        let mut bytes = sample().encode();
        bytes[4] = 9;
        reseal(&mut bytes);
        assert_eq!(
            Manifest::decode(&bytes),
            Err(StoreError::BadVersion { found: 9 })
        );
    }

    #[test]
    fn gap_in_epochs_rejected() {
        let mut m = sample();
        m.segment.batches[2].epoch = 5;
        m.segment.batches[3].epoch = 6;
        assert!(matches!(
            Manifest::decode(&m.encode()),
            Err(StoreError::Corrupt { .. })
        ));
    }

    /// Well-formed, CRC-valid manifests in the layout that once listed
    /// several segments: none, and the sample's batches split over two.
    #[test]
    fn segment_counts_other_than_one_are_corrupt() {
        let m = sample();
        let encoded = m.encode();
        // magic, version, name, two flags, epoch, next id.
        let count_at = 4 + 4 + 4 + m.name.len() + 2 + 8 + 8;
        assert_eq!(encoded[count_at..count_at + 4], 1u32.to_le_bytes());
        let entry = |file: &str, batches: &[SegmentBatch]| {
            let mut out = (file.len() as u32).to_le_bytes().to_vec();
            out.extend_from_slice(file.as_bytes());
            out.extend_from_slice(&(batches.len() as u32).to_le_bytes());
            for b in batches {
                out.extend_from_slice(&b.epoch.to_le_bytes());
                out.extend_from_slice(&b.docs.to_le_bytes());
            }
            out
        };
        let (first, second) = m.segment.batches.split_at(2);
        let two = [
            entry("seg-000000.seg", first),
            entry("seg-000001.seg", second),
        ]
        .concat();
        for (count, entries) in [(0u32, Vec::new()), (2, two)] {
            let mut bytes = encoded[..count_at].to_vec();
            bytes.extend_from_slice(&count.to_le_bytes());
            bytes.extend_from_slice(&entries);
            bytes.extend_from_slice(&[0; 4]);
            reseal(&mut bytes);
            assert_eq!(
                Manifest::decode(&bytes),
                Err(StoreError::Corrupt {
                    what: "manifest does not list exactly one segment"
                }),
                "segment count {count}"
            );
        }
    }
}
