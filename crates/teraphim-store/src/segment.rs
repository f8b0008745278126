//! Immutable on-disk segment files.
//!
//! A segment freezes a serialized [`teraphim_engine::Collection`] — the
//! compressed postings, document-weights table and compressed document
//! store — together with the list of committed batches it covers, so an
//! as-of query can slice the segment back into the epochs its documents
//! arrived in. Layout:
//!
//! ```text
//! offset            size  field
//! 0                 4     magic "TSG1"
//! 4                 p     payload: Collection::to_bytes
//! 4+p               m     meta: batch list (u32 count, then per batch
//!                         epoch u64 LE, doc count u64 LE)
//! 4+p+m             8     payload length p (u64 LE)
//! 4+p+m+8           4     meta length m (u32 LE)
//! 4+p+m+12          4     CRC-32 over payload ‖ meta (u32 LE)
//! 4+p+m+16          4     footer magic "1GST"
//! ```
//!
//! Segments are written once (to their final name, synced, and only then
//! referenced from the manifest) and never modified. The checksummed
//! footer means a torn segment write — possible only for files the
//! manifest does not yet reference — is detected immediately if it is
//! ever read.

use std::borrow::Cow;
use std::io::Write;

use crate::{Result, StoreError};
use teraphim_compress::checksum::Crc32;

/// Magic bytes opening every segment file.
pub const HEAD_MAGIC: [u8; 4] = *b"TSG1";
/// Magic bytes closing every segment file.
pub const FOOT_MAGIC: [u8; 4] = *b"1GST";
/// Fixed footer size: payload length + meta length + CRC + magic.
pub const FOOTER_LEN: usize = 20;

/// One committed batch covered by a segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentBatch {
    /// The epoch the batch committed.
    pub epoch: u64,
    /// How many documents the batch added.
    pub docs: u64,
}

/// A segment: collection bytes plus batch metadata. The collection
/// bytes are never copied: a segment to be written owns the buffer
/// [`teraphim_engine::Collection::to_bytes`] returned, and a decoded one
/// borrows them from the file's bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment<'a> {
    /// Serialized collection ([`teraphim_engine::Collection::to_bytes`]).
    pub collection: Cow<'a, [u8]>,
    /// The batches this segment covers, in epoch order. Never empty.
    pub batches: Vec<SegmentBatch>,
}

impl<'a> Segment<'a> {
    /// Writes the segment (payload + meta + checksummed footer) to `out`
    /// in three writes: the payload goes from the caller's buffer
    /// straight to `out`.
    ///
    /// # Errors
    ///
    /// Returns what a write to `out` returns.
    pub fn write_to(&self, out: &mut impl Write) -> std::io::Result<()> {
        let mut tail = Vec::with_capacity(4 + self.batches.len() * 16 + FOOTER_LEN);
        tail.extend_from_slice(&(self.batches.len() as u32).to_le_bytes());
        for batch in &self.batches {
            tail.extend_from_slice(&batch.epoch.to_le_bytes());
            tail.extend_from_slice(&batch.docs.to_le_bytes());
        }
        let meta_len = tail.len() as u32;
        tail.extend_from_slice(&(self.collection.len() as u64).to_le_bytes());
        tail.extend_from_slice(&meta_len.to_le_bytes());
        let mut crc = Crc32::new();
        crc.update(&self.collection);
        crc.update(&tail);
        tail.extend_from_slice(&crc.finish().to_le_bytes());
        tail.extend_from_slice(&FOOT_MAGIC);
        out.write_all(&HEAD_MAGIC)?;
        out.write_all(&self.collection)?;
        out.write_all(&tail)
    }

    /// Decodes a segment file, validating both magics, the length
    /// bookkeeping and the CRC.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Corrupt`] describing the first structural
    /// problem found; never panics and never returns partial data.
    pub fn decode(bytes: &'a [u8]) -> Result<Segment<'a>> {
        if bytes.len() < 4 + FOOTER_LEN {
            return Err(StoreError::Corrupt {
                what: "segment too short",
            });
        }
        if bytes[0..4] != HEAD_MAGIC {
            return Err(StoreError::Corrupt {
                what: "segment header magic",
            });
        }
        if bytes[bytes.len() - 4..] != FOOT_MAGIC {
            return Err(StoreError::Corrupt {
                what: "segment footer magic",
            });
        }
        let footer = &bytes[bytes.len() - FOOTER_LEN..];
        let payload_len = u64::from_le_bytes(footer[0..8].try_into().expect("8 bytes")) as usize;
        let meta_len = u32::from_le_bytes(footer[8..12].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(footer[12..16].try_into().expect("4 bytes"));
        let expected_len = 4usize
            .checked_add(payload_len)
            .and_then(|n| n.checked_add(meta_len))
            .and_then(|n| n.checked_add(FOOTER_LEN));
        if expected_len != Some(bytes.len()) {
            return Err(StoreError::Corrupt {
                what: "segment length bookkeeping",
            });
        }
        let body = &bytes[4..4 + payload_len + meta_len];
        // The CRC also covers the footer's own length fields, which were
        // appended to the buffer before the checksum was taken.
        let mut hasher = Crc32::new();
        hasher.update(body);
        hasher.update(&footer[0..12]);
        if hasher.finish() != crc {
            return Err(StoreError::Corrupt {
                what: "segment checksum",
            });
        }
        let collection = Cow::Borrowed(&body[..payload_len]);
        let meta = &body[payload_len..];
        if meta.len() < 4 {
            return Err(StoreError::Corrupt {
                what: "segment meta truncated",
            });
        }
        let count = u32::from_le_bytes(meta[0..4].try_into().expect("4 bytes")) as usize;
        if meta.len() != 4 + count * 16 {
            return Err(StoreError::Corrupt {
                what: "segment batch list length",
            });
        }
        let mut batches = Vec::with_capacity(count);
        for i in 0..count {
            let at = 4 + i * 16;
            batches.push(SegmentBatch {
                epoch: u64::from_le_bytes(meta[at..at + 8].try_into().expect("8 bytes")),
                docs: u64::from_le_bytes(meta[at + 8..at + 16].try_into().expect("8 bytes")),
            });
        }
        if batches.is_empty() {
            return Err(StoreError::Corrupt {
                what: "segment covers no batches",
            });
        }
        for pair in batches.windows(2) {
            if pair[1].epoch != pair[0].epoch + 1 {
                return Err(StoreError::Corrupt {
                    what: "segment batch epochs not contiguous",
                });
            }
        }
        Ok(Segment {
            collection,
            batches,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The segment's bytes, as [`Segment::write_to`] writes them.
    fn encode(segment: &Segment) -> Vec<u8> {
        let mut out = Vec::new();
        segment.write_to(&mut out).unwrap();
        out
    }

    fn sample() -> Segment<'static> {
        Segment {
            collection: Cow::Owned((0u16..900).map(|i| (i % 251) as u8).collect()),
            batches: vec![
                SegmentBatch { epoch: 0, docs: 12 },
                SegmentBatch { epoch: 1, docs: 0 },
                SegmentBatch { epoch: 2, docs: 7 },
            ],
        }
    }

    #[test]
    fn roundtrip() {
        let seg = sample();
        let bytes = encode(&seg);
        let decoded = Segment::decode(&bytes).unwrap();
        assert_eq!(decoded, seg);
        let epochs: Vec<u64> = decoded.batches.iter().map(|b| b.epoch).collect();
        assert_eq!((epochs.first(), epochs.last()), (Some(&0), Some(&2)));
        assert_eq!(decoded.batches.iter().map(|b| b.docs).sum::<u64>(), 19);
    }

    #[test]
    fn the_payload_is_never_copied() {
        let payload = sample().collection;
        let bytes = encode(&sample());
        let decoded = Segment::decode(&bytes).unwrap();
        assert!(std::ptr::eq(
            &*decoded.collection,
            &bytes[4..4 + payload.len()]
        ));
        assert_eq!(decoded.collection, payload);
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let bytes = encode(&sample());
        for i in 0..bytes.len() {
            let mut garbled = bytes.clone();
            garbled[i] ^= 0x01;
            assert!(
                matches!(Segment::decode(&garbled), Err(StoreError::Corrupt { .. })),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn truncation_is_detected() {
        let bytes = encode(&sample());
        for cut in [0, 3, 4, 23, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                matches!(
                    Segment::decode(&bytes[..cut]),
                    Err(StoreError::Corrupt { .. })
                ),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn non_contiguous_batches_rejected() {
        let seg = Segment {
            collection: Cow::Borrowed(&[1, 2, 3]),
            batches: vec![
                SegmentBatch { epoch: 0, docs: 1 },
                SegmentBatch { epoch: 2, docs: 1 },
            ],
        };
        assert_eq!(
            Segment::decode(&encode(&seg)),
            Err(StoreError::Corrupt {
                what: "segment batch epochs not contiguous"
            })
        );
    }

    #[test]
    fn empty_batch_list_rejected() {
        let seg = Segment {
            collection: Cow::Borrowed(&[9; 40]),
            batches: vec![],
        };
        assert_eq!(
            Segment::decode(&encode(&seg)),
            Err(StoreError::Corrupt {
                what: "segment covers no batches"
            })
        );
    }
}
