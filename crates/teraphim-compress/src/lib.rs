//! Bit-level integer coding and text compression primitives.
//!
//! This crate supplies the compression machinery that the MG system (and
//! therefore TERAPHIM, the distributed retrieval system reproduced in this
//! workspace) relies on:
//!
//! * [`bytes`] — the one reader of bytes from outside the program
//!   (files and sockets): little-endian integers, v-bytes, lengths,
//!   counts checked against the bytes left, and trailing bytes.
//! * [`bitio`] — MSB-first bit readers and writers over byte buffers.
//! * [`codes`] — parameterless integer codes (unary, Elias γ, Elias δ),
//!   parameterised Golomb codes and byte-aligned v-byte coding.
//!   These are used to store inverted-list d-gaps and in-document
//!   frequencies compressed.
//! * [`checksum`] — CRC-32 (IEEE/zlib polynomial) for sealing on-disk
//!   blobs; the persistent store frames segments, WAL records and the
//!   manifest with it so torn writes are detected at open time.
//! * [`huffman`] — canonical Huffman coding over arbitrary symbol
//!   alphabets, with length-limited code construction.
//! * [`textcomp`] — a word-based zero-order text model (alternating
//!   word/non-word tokens, two Huffman models plus an escape channel) used
//!   by the compressed document store, mirroring MG's approach of storing
//!   all documents compressed so that they can also be *transmitted*
//!   compressed.
//!
//! # Examples
//!
//! Round-tripping a list of d-gaps with Elias γ:
//!
//! ```
//! use teraphim_compress::bitio::{BitReader, BitWriter};
//! use teraphim_compress::codes::{read_gamma, write_gamma};
//!
//! # fn main() -> Result<(), teraphim_compress::CodeError> {
//! let gaps = [1u64, 3, 2, 57, 1];
//! let mut w = BitWriter::new();
//! for &g in &gaps {
//!     write_gamma(&mut w, g);
//! }
//! let bytes = w.into_bytes();
//! let mut r = BitReader::new(&bytes);
//! for &g in &gaps {
//!     assert_eq!(read_gamma(&mut r)?, g);
//! }
//! # Ok(())
//! # }
//! ```

pub mod bitio;
pub mod bytes;
pub mod checksum;
pub mod codes;
pub mod dict;
pub mod huffman;
pub mod textcomp;

use std::error::Error;
use std::fmt;

/// Error produced when decoding a compressed stream fails.
///
/// Encoding in this crate is infallible (writers grow their buffers);
/// decoding can fail if the stream is truncated or corrupt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodeError {
    /// The input ended before a complete codeword was read.
    UnexpectedEof,
    /// A decoded value does not fit in the target integer width, or a
    /// structurally impossible codeword was encountered.
    Corrupt(&'static str),
}

impl fmt::Display for CodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodeError::UnexpectedEof => write!(f, "unexpected end of compressed stream"),
            CodeError::Corrupt(what) => write!(f, "corrupt compressed stream: {what}"),
        }
    }
}

impl Error for CodeError {}

/// Convenience alias for decode results.
pub type Result<T> = std::result::Result<T, CodeError>;
