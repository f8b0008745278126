//! The one reader of bytes that come from outside the program: a peer's
//! frame, a segment, a WAL record, a manifest, a serialized index,
//! document store or text model. Every decoder reads through a
//! [`Reader`], so the questions such bytes raise are answered here, once:
//!
//! * **Lengths.** [`Reader::take`] and [`Reader::str`] accept any claimed
//!   length and fail, with no arithmetic overflow, when fewer bytes are
//!   left.
//! * **Counts.** A count is a claim. [`Reader::count`] accepts it only
//!   if the bytes left could hold that many elements of the smallest
//!   size one can be encoded in, so a few bytes that claim a billion
//!   elements reserve nothing.
//! * **Widths.** A v-byte read into a `u32` ([`Reader::vbyte_u32`]) that
//!   is wider than 32 bits is corrupt, not truncated.
//! * **Ends.** [`Reader::finish`] makes bytes left over corrupt.
//!
//! A reader carries the message its truncation reports (for example
//! `"vocabulary truncated"`); each crate maps [`Corrupt`] into its own
//! error with `From`. The reader allocates nothing.
//!
//! ```
//! use teraphim_compress::bytes::{Corrupt, Reader};
//!
//! let bytes = [2, 0, 0, 0, b'h', b'i', 0x85];
//! let mut r = Reader::new(&bytes, "greeting truncated");
//! let len = r.u32()?;
//! assert_eq!(r.str(len.into())?, "hi");
//! assert_eq!(r.vbyte_u32()?, 5);
//! r.finish()?;
//! let cut = Reader::new(&bytes[..2], "greeting truncated").u32();
//! assert_eq!(cut, Err(Corrupt("greeting truncated")));
//! # Ok::<(), Corrupt>(())
//! ```

use crate::codes::read_vbyte;
use crate::CodeError;
use std::fmt;

/// Bytes that do not hold what they claim: what was being read, or why
/// it was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Corrupt(pub &'static str);

impl fmt::Display for Corrupt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

impl std::error::Error for Corrupt {}

impl From<Corrupt> for CodeError {
    fn from(e: Corrupt) -> Self {
        CodeError::Corrupt(e.0)
    }
}

/// Borrowed bytes, read little-endian, front to back.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    /// The bytes not yet read.
    rest: &'a [u8],
    /// What running out of bytes reports.
    what: &'static str,
}

#[allow(
    clippy::disallowed_methods,
    reason = "the reader is the one place bytes from outside become integers"
)]
impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`, whose truncation is
    /// `Corrupt(what)`.
    pub fn new(bytes: &'a [u8], what: &'static str) -> Self {
        Reader { rest: bytes, what }
    }

    /// From here on, truncation is `Corrupt(what)`.
    pub fn reading(&mut self, what: &'static str) {
        self.what = what;
    }

    /// The bytes not yet read.
    #[inline]
    pub fn rest(&self) -> &'a [u8] {
        self.rest
    }

    /// The next `n` bytes.
    ///
    /// # Errors
    ///
    /// `Corrupt(what)` if fewer are left.
    #[inline]
    pub fn take(&mut self, n: u64) -> Result<&'a [u8], Corrupt> {
        match usize::try_from(n) {
            Ok(n) if n <= self.rest.len() => {
                let (head, rest) = self.rest.split_at(n);
                self.rest = rest;
                Ok(head)
            }
            _ => Err(Corrupt(self.what)),
        }
    }

    /// The next `n` bytes as UTF-8.
    ///
    /// # Errors
    ///
    /// `Corrupt(what)` if fewer are left, and `Corrupt("not UTF-8")` if
    /// they are not UTF-8.
    #[inline]
    pub fn str(&mut self, n: u64) -> Result<&'a str, Corrupt> {
        std::str::from_utf8(self.take(n)?).map_err(|_| Corrupt("not UTF-8"))
    }

    /// The next `u32`-length-prefixed run of bytes, for a decoder of its
    /// own to read.
    ///
    /// # Errors
    ///
    /// `Corrupt(what)` if the length or the bytes are not all there.
    pub fn section(&mut self) -> Result<&'a [u8], Corrupt> {
        let len = self.u32()?;
        self.take(len.into())
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], Corrupt> {
        let (head, rest) = self
            .rest
            .split_first_chunk::<N>()
            .ok_or(Corrupt(self.what))?;
        self.rest = rest;
        Ok(*head)
    }

    /// The next byte.
    ///
    /// # Errors
    ///
    /// `Corrupt(what)` if none is left.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, Corrupt> {
        Ok(self.array::<1>()?[0])
    }

    /// The next little-endian `u16`.
    ///
    /// # Errors
    ///
    /// `Corrupt(what)` if fewer than 2 bytes are left.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, Corrupt> {
        self.array().map(u16::from_le_bytes)
    }

    /// The next little-endian `u32`.
    ///
    /// # Errors
    ///
    /// `Corrupt(what)` if fewer than 4 bytes are left.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, Corrupt> {
        self.array().map(u32::from_le_bytes)
    }

    /// The next little-endian `u64`.
    ///
    /// # Errors
    ///
    /// `Corrupt(what)` if fewer than 8 bytes are left.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, Corrupt> {
        self.array().map(u64::from_le_bytes)
    }

    /// The next `f64`, from its little-endian bit pattern.
    ///
    /// # Errors
    ///
    /// `Corrupt(what)` if fewer than 8 bytes are left.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, Corrupt> {
        self.u64().map(f64::from_bits)
    }

    /// The next v-byte code ([`crate::codes::write_vbyte`]).
    ///
    /// # Errors
    ///
    /// `Corrupt(what)` if its last byte is missing, and `Corrupt` if it
    /// overflows a `u64`.
    #[inline]
    pub fn vbyte(&mut self) -> Result<u64, Corrupt> {
        let mut len = 0;
        let v = read_vbyte(self.rest, &mut len).map_err(|e| match e {
            CodeError::UnexpectedEof => Corrupt(self.what),
            CodeError::Corrupt(why) => Corrupt(why),
        })?;
        self.rest = &self.rest[len..];
        Ok(v)
    }

    /// The next v-byte code, which must fit 32 bits.
    ///
    /// # Errors
    ///
    /// As [`Reader::vbyte`], and `Corrupt("integer wider than 32 bits")`
    /// for a value past `u32::MAX`.
    #[inline]
    pub fn vbyte_u32(&mut self) -> Result<u32, Corrupt> {
        u32::try_from(self.vbyte()?).map_err(|_| Corrupt("integer wider than 32 bits"))
    }

    /// A count of elements no smaller than `min_width` bytes each,
    /// accepted only if the bytes left could hold them: what a decoder
    /// may reserve for them is then bounded by the input's length.
    ///
    /// # Errors
    ///
    /// `Corrupt(what)` if the bytes left are too few.
    #[inline]
    pub fn count(&self, claimed: u64, min_width: usize) -> Result<usize, Corrupt> {
        usize::try_from(claimed)
            .ok()
            .filter(|&n| {
                n.checked_mul(min_width)
                    .is_some_and(|need| need <= self.rest.len())
            })
            .ok_or(Corrupt(self.what))
    }

    /// Ends the read.
    ///
    /// # Errors
    ///
    /// `Corrupt("trailing bytes")` if any byte is left unread.
    #[inline]
    pub fn finish(&self) -> Result<(), Corrupt> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(Corrupt("trailing bytes"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codes::write_vbyte;

    const WHAT: &str = "sample truncated";

    #[test]
    fn fixed_width_integers_are_little_endian() {
        let mut bytes = vec![7];
        bytes.extend_from_slice(&0xBEEFu16.to_le_bytes());
        bytes.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        bytes.extend_from_slice(&u64::MAX.to_le_bytes());
        bytes.extend_from_slice(&(-1.5f64).to_bits().to_le_bytes());
        let mut r = Reader::new(&bytes, WHAT);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u16(), Ok(0xBEEF));
        assert_eq!(r.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.u64(), Ok(u64::MAX));
        assert_eq!(r.f64().map(f64::to_bits), Ok((-1.5f64).to_bits()));
        assert_eq!(r.finish(), Ok(()));
        assert_eq!(r.u8(), Err(Corrupt(WHAT)));
    }

    #[test]
    fn every_read_of_a_cut_input_is_corrupt_and_moves_nothing() {
        let bytes = [1, 2, 3];
        let mut r = Reader::new(&bytes, WHAT);
        assert_eq!(r.u32(), Err(Corrupt(WHAT)));
        assert_eq!(r.u64(), Err(Corrupt(WHAT)));
        assert_eq!(r.f64(), Err(Corrupt(WHAT)));
        assert_eq!(r.take(4), Err(Corrupt(WHAT)));
        assert_eq!(r.take(u64::MAX), Err(Corrupt(WHAT)));
        assert_eq!(r.str(u64::MAX), Err(Corrupt(WHAT)));
        assert_eq!(r.vbyte(), Err(Corrupt(WHAT)));
        assert_eq!(r.rest(), &bytes);
        assert_eq!(r.finish(), Err(Corrupt("trailing bytes")));
    }

    #[test]
    fn vbytes_roundtrip_and_a_wide_one_is_not_a_u32() {
        let mut bytes = Vec::new();
        for v in [0, 1, 127, 128, u64::from(u32::MAX), (1 << 32) | 9, u64::MAX] {
            write_vbyte(&mut bytes, v);
        }
        let mut r = Reader::new(&bytes, WHAT);
        for v in [0, 1, 127, 128, u64::from(u32::MAX)] {
            assert_eq!(r.vbyte_u32().map(u64::from), Ok(v));
        }
        assert_eq!(r.vbyte_u32(), Err(Corrupt("integer wider than 32 bits")));
        assert_eq!(r.vbyte(), Ok(u64::MAX));
        assert_eq!(r.finish(), Ok(()));
        // Eleven continuation bytes overflow 64 bits.
        let long = [0; 11];
        assert!(matches!(Reader::new(&long, WHAT).vbyte(), Err(Corrupt(why)) if why != WHAT));
    }

    #[test]
    fn strings_sections_and_the_rest() {
        let mut bytes = 3u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(b"abc");
        bytes.extend_from_slice(&[0xFF, 0xFE, b'z']);
        let mut r = Reader::new(&bytes, WHAT);
        assert_eq!(r.section(), Ok(&b"abc"[..]));
        assert_eq!(r.clone().str(2), Err(Corrupt("not UTF-8")));
        assert_eq!(r.take(2), Ok(&[0xFF, 0xFE][..]));
        assert_eq!(r.rest(), b"z");
        assert_eq!(r.str(1), Ok("z"));
        assert_eq!(
            Reader::new(&u32::MAX.to_le_bytes(), WHAT).section(),
            Err(Corrupt(WHAT))
        );
    }

    #[test]
    fn a_count_is_accepted_only_if_the_bytes_left_can_hold_it() {
        let bytes = [0; 17];
        let mut r = Reader::new(&bytes, WHAT);
        r.u8().unwrap();
        assert_eq!(r.count(2, 8), Ok(2));
        assert_eq!(r.count(3, 8), Err(Corrupt(WHAT)));
        assert_eq!(r.count(16, 1), Ok(16));
        assert_eq!(r.count(u64::MAX, 1), Err(Corrupt(WHAT)));
        assert_eq!(r.count(u64::MAX / 2, 4), Err(Corrupt(WHAT)));
        assert_eq!(r.count(0, 1 << 20), Ok(0));
    }
}
