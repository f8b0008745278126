//! Write-ahead log records for incremental document batches.
//!
//! Each committed `add_docs` batch becomes one record appended to
//! `wal.log` and synced before the in-memory index is touched — the
//! synced record *is* the commit point, and advances the durable epoch
//! by one. The wire format per record:
//!
//! ```text
//! offset  size  field
//! 0       4     magic "TWL1"
//! 4       8     epoch (u64 LE) this record commits
//! 12      4     payload length (u32 LE)
//! 16      4     CRC-32 over epoch ‖ length ‖ payload (u32 LE)
//! 20      n     payload: document batch
//! ```
//!
//! The checksum covers the header's epoch and length fields as well as
//! the payload, so a single garbled byte anywhere after the magic is
//! detected.
//!
//! The payload is a document batch: a `u32` count followed by, per
//! document, length-prefixed docno and text bytes.
//!
//! Recovery ([`scan`]) parses the **valid prefix**. A crash can only
//! damage the *final* record (torn or garbled tail), so an invalid tail
//! is reported as [`WalTail::Torn`] and dropped; an invalid record
//! *followed by more data* cannot be crash damage and fails with a typed
//! [`StoreError::Corrupt`].

use crate::{Result, StoreError};
use teraphim_compress::bytes::Reader;
use teraphim_text::sgml::TrecDoc;

/// Magic bytes opening every WAL record.
pub const RECORD_MAGIC: [u8; 4] = *b"TWL1";
/// Fixed-size record header: magic + epoch + payload length + CRC.
pub const HEADER_LEN: usize = 20;

/// Encodes a document batch as the WAL payload.
#[must_use]
pub fn encode_batch(docs: &[TrecDoc]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(docs.len() as u32).to_le_bytes());
    for doc in docs {
        let docno = doc.docno.as_bytes();
        out.extend_from_slice(&(docno.len() as u32).to_le_bytes());
        out.extend_from_slice(docno);
        let text = doc.text.as_bytes();
        out.extend_from_slice(&(text.len() as u32).to_le_bytes());
        out.extend_from_slice(text);
    }
    out
}

/// Decodes a WAL payload back into a document batch.
///
/// # Errors
///
/// Returns [`StoreError::Corrupt`] on truncation, bad UTF-8 or trailing
/// bytes.
pub fn decode_batch(bytes: &[u8]) -> Result<Vec<TrecDoc>> {
    let mut r = Reader::new(bytes, "wal batch truncated");
    // A document takes at least its two 4-byte lengths.
    let count = r.u32()?;
    let count = r.count(count.into(), 8)?;
    let mut docs = Vec::with_capacity(count);
    for _ in 0..count {
        let len = r.u32()?;
        let docno = r.str(len.into())?.to_owned();
        let len = r.u32()?;
        let text = r.str(len.into())?.to_owned();
        docs.push(TrecDoc { docno, text });
    }
    r.finish()?;
    Ok(docs)
}

/// Encodes one complete record (header + payload) committing `epoch`.
#[must_use]
pub fn encode_record(epoch: u64, docs: &[TrecDoc]) -> Vec<u8> {
    let payload = encode_batch(docs);
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&RECORD_MAGIC);
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&record_crc(epoch, &payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// CRC-32 over the epoch, payload length and payload of one record.
fn record_crc(epoch: u64, payload: &[u8]) -> u32 {
    let mut h = teraphim_compress::checksum::Crc32::new();
    h.update(&epoch.to_le_bytes());
    h.update(&(payload.len() as u32).to_le_bytes());
    h.update(payload);
    h.finish()
}

/// One decoded WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// The epoch this record committed.
    pub epoch: u64,
    /// The document batch.
    pub docs: Vec<TrecDoc>,
}

/// What the scanner found at the end of the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalTail {
    /// The log ends exactly on a record boundary.
    Clean,
    /// The final bytes are a torn or garbled record (crash damage); they
    /// were dropped.
    Torn(&'static str),
}

/// Result of scanning a WAL byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalScan {
    /// All fully valid records, in file order.
    pub records: Vec<WalRecord>,
    /// Length of the valid prefix in bytes (the tail past this point, if
    /// any, is crash damage and should be truncated away).
    pub valid_len: u64,
    /// How the log ended.
    pub tail: WalTail,
}

/// Scans a WAL byte stream into its valid record prefix.
///
/// # Errors
///
/// Returns [`StoreError::Corrupt`] if an invalid record is followed by
/// further data — damage a crash cannot produce.
pub fn scan(bytes: &[u8]) -> Result<WalScan> {
    let mut records = Vec::new();
    let mut pos = 0usize;
    loop {
        let remaining = bytes.len() - pos;
        if remaining == 0 {
            return Ok(WalScan {
                records,
                valid_len: pos as u64,
                tail: WalTail::Clean,
            });
        }
        if remaining < HEADER_LEN {
            return Ok(WalScan {
                records,
                valid_len: pos as u64,
                tail: WalTail::Torn("truncated record header"),
            });
        }
        let mut r = Reader::new(&bytes[pos..], "wal record truncated");
        if r.take(4)? != RECORD_MAGIC {
            return Ok(WalScan {
                records,
                valid_len: pos as u64,
                tail: WalTail::Torn("bad record magic at tail"),
            });
        }
        let (epoch, len, crc) = (r.u64()?, r.u32()?, r.u32()?);
        let Ok(payload) = r.take(len.into()) else {
            return Ok(WalScan {
                records,
                valid_len: pos as u64,
                tail: WalTail::Torn("truncated record payload"),
            });
        };
        if record_crc(epoch, payload) != crc {
            if r.rest().is_empty() {
                return Ok(WalScan {
                    records,
                    valid_len: pos as u64,
                    tail: WalTail::Torn("checksum mismatch in final record"),
                });
            }
            // A checksum failure mid-log cannot be crash damage: every
            // earlier record was synced before the next was written.
            return Err(StoreError::Corrupt {
                what: "wal record checksum",
            });
        }
        let docs = decode_batch(payload)?;
        records.push(WalRecord { epoch, docs });
        pos += HEADER_LEN + payload.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(docno: &str, text: &str) -> TrecDoc {
        TrecDoc {
            docno: docno.into(),
            text: text.into(),
        }
    }

    fn sample_log() -> (Vec<u8>, Vec<WalRecord>) {
        let batches = vec![
            (1u64, vec![doc("A-1", "alpha beta"), doc("A-2", "gamma")]),
            (2u64, vec![doc("B-1", "delta epsilon zeta")]),
            (3u64, vec![]),
        ];
        let mut bytes = Vec::new();
        let mut records = Vec::new();
        for (epoch, docs) in batches {
            bytes.extend_from_slice(&encode_record(epoch, &docs));
            records.push(WalRecord { epoch, docs });
        }
        (bytes, records)
    }

    #[test]
    fn roundtrip_multiple_records() {
        let (bytes, records) = sample_log();
        let scanned = scan(&bytes).unwrap();
        assert_eq!(scanned.records, records);
        assert_eq!(scanned.valid_len, bytes.len() as u64);
        assert_eq!(scanned.tail, WalTail::Clean);
    }

    #[test]
    fn empty_log_is_clean() {
        let scanned = scan(&[]).unwrap();
        assert!(scanned.records.is_empty());
        assert_eq!(scanned.tail, WalTail::Clean);
    }

    #[test]
    fn torn_tail_drops_only_final_record() {
        let (bytes, records) = sample_log();
        let second_end = bytes.len() - encode_record(3, &[]).len();
        for cut in second_end + 1..bytes.len() {
            let scanned = scan(&bytes[..cut]).unwrap();
            assert_eq!(scanned.records, records[..2], "cut {cut}");
            assert_eq!(scanned.valid_len, second_end as u64, "cut {cut}");
            assert!(matches!(scanned.tail, WalTail::Torn(_)), "cut {cut}");
        }
    }

    #[test]
    fn garbled_final_record_is_torn() {
        let (bytes, records) = sample_log();
        // Garble every byte position of the final record in turn: the
        // scan must always salvage exactly the first two records.
        let final_start = bytes.len() - encode_record(3, &[]).len();
        for i in final_start..bytes.len() {
            let mut garbled = bytes.clone();
            garbled[i] ^= 0xA5;
            let scanned = scan(&garbled).unwrap();
            assert_eq!(scanned.records, records[..2], "garble at {i}");
            assert_eq!(scanned.valid_len, final_start as u64, "garble at {i}");
            assert!(matches!(scanned.tail, WalTail::Torn(_)), "garble at {i}");
        }
    }

    #[test]
    fn garbled_middle_record_is_typed_corruption() {
        let (mut bytes, _) = sample_log();
        // Garble a payload byte of the FIRST record (well before the
        // tail): scan must fail with a typed error, not salvage.
        bytes[HEADER_LEN + 6] ^= 0x10;
        match scan(&bytes) {
            Err(StoreError::Corrupt { what }) => assert_eq!(what, "wal record checksum"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn batch_decode_rejects_trailing_bytes() {
        let mut payload = encode_batch(&[doc("X", "y")]);
        payload.push(0);
        assert!(matches!(
            decode_batch(&payload),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn batch_decode_rejects_truncation() {
        let payload = encode_batch(&[doc("X-1", "some words here")]);
        for cut in 0..payload.len() {
            assert!(decode_batch(&payload[..cut]).is_err(), "cut {cut}");
        }
    }
}
