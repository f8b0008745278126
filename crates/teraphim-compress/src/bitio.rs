//! MSB-first bit-granular readers and writers.
//!
//! All integer codes in [`crate::codes`] and the Huffman coder in
//! [`crate::huffman`] are defined over these two types. Bits are packed
//! most-significant-bit first within each byte, which makes canonical
//! Huffman decoding by numeric comparison straightforward and matches the
//! conventions of the MG system.

use crate::{CodeError, Result};

/// An append-only bit sink backed by a growable byte buffer.
///
/// Bits are written MSB-first. The final byte is zero-padded when the
/// writer is converted into bytes.
///
/// # Examples
///
/// ```
/// use teraphim_compress::bitio::BitWriter;
///
/// let mut w = BitWriter::new();
/// w.write_bit(true);
/// w.write_bits(0b101, 3);
/// assert_eq!(w.bit_len(), 4);
/// assert_eq!(w.into_bytes(), vec![0b1101_0000]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Number of valid bits in the final partial byte (0..=7). When zero,
    /// `bytes` contains only complete bytes.
    partial_bits: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty writer with capacity for `bits` bits.
    pub fn with_capacity_bits(bits: usize) -> Self {
        BitWriter {
            bytes: Vec::with_capacity(bits / 8 + 1),
            partial_bits: 0,
        }
    }

    /// Total number of bits written so far.
    pub fn bit_len(&self) -> u64 {
        if self.partial_bits == 0 {
            self.bytes.len() as u64 * 8
        } else {
            (self.bytes.len() as u64 - 1) * 8 + u64::from(self.partial_bits)
        }
    }

    /// Appends a single bit.
    pub fn write_bit(&mut self, bit: bool) {
        self.write_bits(u64::from(bit), 1);
    }

    /// Appends the `count` low-order bits of `value`, most significant
    /// first.
    ///
    /// # Panics
    ///
    /// Panics if `count > 64`, or if `value` has bits set above `count`
    /// (debug builds only).
    #[inline]
    pub fn write_bits(&mut self, value: u64, count: u32) {
        assert!(count <= 64, "cannot write more than 64 bits at once");
        debug_assert!(
            count == 64 || value < (1u64 << count),
            "value {value} does not fit in {count} bits"
        );
        // `left` bits of `value` are still to be written: first whatever
        // tops up the open byte, then whole bytes, then a new open byte.
        let mut left = count;
        if self.partial_bits != 0 && left > 0 {
            let room = 8 - self.partial_bits;
            let take = left.min(room);
            left -= take;
            let chunk = (value >> left) as u8 & (0xFF >> (8 - take));
            let last = self.bytes.last_mut().expect("an open byte exists");
            *last |= chunk << (room - take);
            self.partial_bits = (self.partial_bits + take) % 8;
        }
        while left >= 8 {
            left -= 8;
            self.bytes.push((value >> left) as u8);
        }
        if left > 0 {
            self.bytes.push((value << (8 - left)) as u8);
            self.partial_bits = left;
        }
    }

    /// Pads with zero bits to the next byte boundary.
    pub fn align_to_byte(&mut self) {
        self.partial_bits = 0;
    }

    /// Appends a whole byte, aligning first.
    pub fn write_aligned_byte(&mut self, byte: u8) {
        self.align_to_byte();
        self.bytes.push(byte);
    }

    /// Consumes the writer and returns the packed bytes (final byte
    /// zero-padded).
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Borrowed view of the packed bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }
}

/// A bit-granular cursor over a byte slice, MSB-first.
///
/// The reader keeps the next few dozen bits of the stream in a 64-bit
/// window, so a whole codeword is usually taken with one shift instead of
/// one call per bit. [`BitReader::peek`] and [`BitReader::consume`] expose
/// that window to decoders; `read_bit`/`read_bits` are built on it.
///
/// # Examples
///
/// ```
/// use teraphim_compress::bitio::BitReader;
///
/// # fn main() -> Result<(), teraphim_compress::CodeError> {
/// let mut r = BitReader::new(&[0b1101_0000]);
/// assert!(r.read_bit()?);
/// assert_eq!(r.read_bits(3)?, 0b101);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// The tail of `bytes` the window does not yet account for.
    rest: &'a [u8],
    /// The upcoming bits, most significant first. Window invariant: the
    /// top `avail` bits are stream bits `bit_pos() .. bit_pos() + avail`;
    /// every lower bit is either the stream bit that follows them or
    /// zero, and never comes from beyond the buffer. A decoder may look
    /// at the whole word but must only act on what the top `avail` bits
    /// decide.
    window: u64,
    /// Number of accounted-for bits in `window`, at most 63. The cursor
    /// sits `avail` bits before the start of `rest`.
    avail: u32,
}

/// [`BitReader::peek`] tops the window up to at least this many bits
/// unless the buffer ends first; a codeword no longer than this never
/// needs the bit-at-a-time path.
pub(crate) const WINDOW_BITS: u32 = 56;

impl<'a> BitReader<'a> {
    /// Creates a reader positioned at the first bit of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader {
            bytes,
            rest: bytes,
            window: 0,
            avail: 0,
        }
    }

    /// Current absolute bit position.
    pub fn bit_pos(&self) -> u64 {
        (self.bytes.len() - self.rest.len()) as u64 * 8 - u64::from(self.avail)
    }

    /// Total number of bits available in the underlying buffer.
    pub fn bit_len(&self) -> u64 {
        self.bytes.len() as u64 * 8
    }

    /// Number of bits remaining from the cursor to the end of the buffer.
    pub fn remaining_bits(&self) -> u64 {
        self.rest.len() as u64 * 8 + u64::from(self.avail)
    }

    /// Repositions the cursor at an absolute bit offset.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::UnexpectedEof`] if `pos` is beyond the end of
    /// the buffer.
    pub fn seek_to_bit(&mut self, pos: u64) -> Result<()> {
        if pos > self.bit_len() {
            return Err(CodeError::UnexpectedEof);
        }
        self.rest = &self.bytes[(pos / 8) as usize..];
        self.window = 0;
        self.avail = 0;
        let into_byte = (pos % 8) as u32;
        if into_byte != 0 {
            // `pos` lies inside the first byte of `rest`, so the refill
            // loads it.
            self.refill();
            self.consume(into_byte);
        }
        Ok(())
    }

    /// Loads whole bytes into the window until it holds at least
    /// `WINDOW_BITS` bits or the buffer is exhausted.
    #[inline(always)]
    fn refill(&mut self) {
        if let Some(chunk) = self.rest.first_chunk::<8>() {
            // The bits of a byte that only partly fits land below `avail`:
            // they are the stream bits that follow, as the invariant
            // allows, and the next refill writes the same bits again.
            self.window |= u64::from_be_bytes(*chunk) >> self.avail;
            let whole = (63 - self.avail) / 8;
            self.rest = &self.rest[whole as usize..];
            self.avail += whole * 8;
        } else {
            self.detour(Self::refill_bytewise);
        }
    }

    /// [`BitReader::refill`] within eight bytes of the end of the buffer.
    #[cold]
    #[inline(never)]
    fn refill_bytewise(&mut self) {
        while self.avail < WINDOW_BITS {
            let Some((&byte, rest)) = self.rest.split_first() else {
                break;
            };
            self.window |= u64::from(byte) << (WINDOW_BITS - self.avail);
            self.rest = rest;
            self.avail += 8;
        }
    }

    /// Runs an out-of-line arm on a copy of the reader and moves the copy
    /// back. The window pays off only while a decoding loop keeps it in
    /// registers, which the optimiser gives up on once the loop's reader
    /// is borrowed by a real call; through here only the copy is.
    #[inline(always)]
    pub(crate) fn detour<T>(&mut self, slow: impl FnOnce(&mut Self) -> T) -> T {
        let mut copy = self.clone();
        let out = slow(&mut copy);
        *self = copy;
        out
    }

    /// The window, topped up, and how many of its leading bits are real:
    /// at least 56 unless fewer remain in the buffer, never more than 63.
    /// Bits below that count must not decide anything.
    #[inline(always)]
    pub fn peek(&mut self) -> (u64, u32) {
        if self.avail < WINDOW_BITS {
            self.refill();
        }
        (self.window, self.avail)
    }

    /// Advances the cursor by `count` bits.
    ///
    /// # Panics
    ///
    /// Panics if `count` exceeds the valid-bit count the last
    /// [`BitReader::peek`] returned.
    #[inline(always)]
    pub fn consume(&mut self, count: u32) {
        assert!(count <= self.avail, "consumed past the peeked window");
        self.window <<= count;
        self.avail -= count;
    }

    /// Reads one bit.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::UnexpectedEof`] at end of buffer.
    #[inline]
    pub fn read_bit(&mut self) -> Result<bool> {
        let (window, valid) = self.peek();
        if valid == 0 {
            return Err(CodeError::UnexpectedEof);
        }
        self.consume(1);
        Ok(window >> 63 == 1)
    }

    /// Reads `count` bits into the low-order bits of a `u64`, MSB-first.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::UnexpectedEof`] if fewer than `count` bits
    /// remain.
    ///
    /// # Panics
    ///
    /// Panics if `count > 64`.
    #[inline]
    pub fn read_bits(&mut self, count: u32) -> Result<u64> {
        assert!(count <= 64, "cannot read more than 64 bits at once");
        let (window, valid) = self.peek();
        if count > valid || count == 0 {
            return self.detour(|r| r.read_bits_slow(count));
        }
        self.consume(count);
        Ok(window >> (64 - count))
    }

    /// [`BitReader::read_bits`] one bit at a time: for a count wider than
    /// the window, and for the end of the buffer.
    #[cold]
    #[inline(never)]
    fn read_bits_slow(&mut self, count: u32) -> Result<u64> {
        if self.remaining_bits() < u64::from(count) {
            return Err(CodeError::UnexpectedEof);
        }
        let mut value = 0u64;
        for _ in 0..count {
            value = (value << 1) | u64::from(self.read_bit()?);
        }
        Ok(value)
    }

    /// Skips forward to the next byte boundary (no-op if already aligned).
    pub fn align_to_byte(&mut self) {
        // The window ends on a byte boundary, `avail` bits ahead.
        self.consume(self.avail % 8);
    }
}

/// The bit-at-a-time reader and writer this module had before the window:
/// one division, one bounds check and one `Result` per bit. Kept as the
/// oracle the differential tests here and in [`crate::codes`] compare
/// against.
#[cfg(test)]
pub(crate) mod reference {
    use crate::{CodeError, Result};

    #[derive(Debug, Default)]
    pub(crate) struct RefWriter {
        bytes: Vec<u8>,
        partial_bits: u32,
    }

    impl RefWriter {
        pub(crate) fn write_bit(&mut self, bit: bool) {
            if self.partial_bits == 0 {
                self.bytes.push(0);
            }
            if bit {
                let last = self.bytes.last_mut().expect("buffer non-empty");
                *last |= 1 << (7 - self.partial_bits);
            }
            self.partial_bits = (self.partial_bits + 1) % 8;
        }

        pub(crate) fn write_bits(&mut self, value: u64, count: u32) {
            for i in (0..count).rev() {
                self.write_bit((value >> i) & 1 == 1);
            }
        }

        pub(crate) fn align_to_byte(&mut self) {
            self.partial_bits = 0;
        }

        pub(crate) fn as_bytes(&self) -> &[u8] {
            &self.bytes
        }
    }

    #[derive(Debug, Clone)]
    pub(crate) struct RefReader<'a> {
        bytes: &'a [u8],
        pos: u64,
    }

    impl<'a> RefReader<'a> {
        pub(crate) fn new(bytes: &'a [u8]) -> Self {
            RefReader { bytes, pos: 0 }
        }

        pub(crate) fn bit_pos(&self) -> u64 {
            self.pos
        }

        fn bit_len(&self) -> u64 {
            self.bytes.len() as u64 * 8
        }

        pub(crate) fn seek_to_bit(&mut self, pos: u64) -> Result<()> {
            if pos > self.bit_len() {
                return Err(CodeError::UnexpectedEof);
            }
            self.pos = pos;
            Ok(())
        }

        pub(crate) fn read_bit(&mut self) -> Result<bool> {
            let byte_idx = (self.pos / 8) as usize;
            if byte_idx >= self.bytes.len() {
                return Err(CodeError::UnexpectedEof);
            }
            let bit_idx = (self.pos % 8) as u32;
            self.pos += 1;
            Ok((self.bytes[byte_idx] >> (7 - bit_idx)) & 1 == 1)
        }

        pub(crate) fn read_bits(&mut self, count: u32) -> Result<u64> {
            if self.bit_len().saturating_sub(self.pos) < u64::from(count) {
                return Err(CodeError::UnexpectedEof);
            }
            let mut value = 0u64;
            for _ in 0..count {
                value = (value << 1) | u64::from(self.read_bit()?);
            }
            Ok(value)
        }

        pub(crate) fn align_to_byte(&mut self) {
            self.pos = self.pos.div_ceil(8) * 8;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_writer_produces_no_bytes() {
        let w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        assert!(w.into_bytes().is_empty());
    }

    #[test]
    fn single_bits_pack_msb_first() {
        let mut w = BitWriter::new();
        for bit in [true, false, true, true, false, false, false, true, true] {
            w.write_bit(bit);
        }
        assert_eq!(w.bit_len(), 9);
        assert_eq!(w.into_bytes(), vec![0b1011_0001, 0b1000_0000]);
    }

    #[test]
    fn write_bits_matches_single_bit_writes() {
        let mut a = BitWriter::new();
        a.write_bits(0b1_0110, 5);
        let mut b = BitWriter::new();
        for bit in [true, false, true, true, false] {
            b.write_bit(bit);
        }
        assert_eq!(a.into_bytes(), b.into_bytes());
    }

    #[test]
    fn write_and_read_64_bit_values() {
        let mut w = BitWriter::new();
        w.write_bits(u64::MAX, 64);
        w.write_bits(0, 64);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(64).unwrap(), u64::MAX);
        assert_eq!(r.read_bits(64).unwrap(), 0);
    }

    #[test]
    fn reader_eof_is_detected() {
        let mut r = BitReader::new(&[0xFF]);
        assert_eq!(r.read_bits(8).unwrap(), 0xFF);
        assert_eq!(r.read_bit(), Err(CodeError::UnexpectedEof));
        assert_eq!(r.read_bits(1), Err(CodeError::UnexpectedEof));
    }

    #[test]
    fn read_bits_zero_is_empty() {
        let mut r = BitReader::new(&[]);
        assert_eq!(r.read_bits(0).unwrap(), 0);
    }

    #[test]
    fn alignment_pads_with_zeros() {
        let mut w = BitWriter::new();
        w.write_bit(true);
        w.align_to_byte();
        w.write_aligned_byte(0xAB);
        let bytes = w.into_bytes();
        assert_eq!(bytes, vec![0b1000_0000, 0xAB]);

        let mut r = BitReader::new(&bytes);
        assert!(r.read_bit().unwrap());
        r.align_to_byte();
        assert_eq!(r.read_bits(8).unwrap(), 0xAB);
    }

    #[test]
    fn align_when_already_aligned_is_noop() {
        let mut r = BitReader::new(&[0x01, 0x02]);
        r.read_bits(8).unwrap();
        r.align_to_byte();
        assert_eq!(r.bit_pos(), 8);
    }

    #[test]
    fn seek_to_bit_round_trips() {
        let mut w = BitWriter::new();
        w.write_bits(0xDEAD_BEEF, 32);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        r.seek_to_bit(16).unwrap();
        assert_eq!(r.read_bits(16).unwrap(), 0xBEEF);
        r.seek_to_bit(0).unwrap();
        assert_eq!(r.read_bits(16).unwrap(), 0xDEAD);
        assert!(r.seek_to_bit(33).is_err());
        assert!(r.seek_to_bit(32).is_ok());
    }

    #[test]
    fn bit_len_tracks_partial_bytes() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.write_bit(false);
        assert_eq!(w.bit_len(), 1);
        w.write_bits(0, 7);
        assert_eq!(w.bit_len(), 8);
        w.write_bits(0, 3);
        assert_eq!(w.bit_len(), 11);
    }

    #[test]
    fn peek_shows_the_next_bits_and_consume_moves_past_them() {
        let bytes: Vec<u8> = (1..=20).collect();
        let mut r = BitReader::new(&bytes);
        r.read_bits(3).unwrap();
        let (window, valid) = r.peek();
        assert!((56..=63).contains(&valid), "valid {valid}");
        // Bits 3..35 of 0x01 0x02 0x03 0x04 0x05.
        assert_eq!(window >> 32, 0x0810_1820);
        assert_eq!(r.bit_pos(), 3, "peek does not move the cursor");
        r.consume(13);
        assert_eq!(r.bit_pos(), 16);
        assert_eq!(r.read_bits(8).unwrap(), 0x03);
    }

    #[test]
    fn peek_reports_only_the_bits_that_remain() {
        let mut r = BitReader::new(&[0xF0, 0x0F]);
        r.read_bits(5).unwrap();
        let (window, valid) = r.peek();
        assert_eq!(valid, 11);
        assert_eq!(window, 0x00F << 53, "zero past the end of the buffer");
        r.consume(11);
        assert_eq!(r.peek(), (0, 0));
        assert_eq!(r.remaining_bits(), 0);
    }

    #[test]
    #[should_panic(expected = "consumed past the peeked window")]
    fn consume_past_the_window_panics() {
        let mut r = BitReader::new(&[0xAA]);
        let (_, valid) = r.peek();
        r.consume(valid + 1);
    }
}

#[cfg(test)]
mod proptests {
    use super::reference::{RefReader, RefWriter};
    use super::*;
    use proptest::prelude::*;

    /// One step of a reader or writer script.
    #[derive(Debug, Clone)]
    enum Op {
        Bits(u64, u32),
        Bit(bool),
        Align,
        Seek(u64),
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u8..10, any::<u64>(), 0u32..=64).prop_map(|(kind, v, c)| match kind {
            0..=5 => Op::Bits(if c == 64 { v } else { v & ((1u64 << c) - 1) }, c),
            6 | 7 => Op::Bit(v & 1 == 1),
            8 => Op::Align,
            _ => Op::Seek(v),
        })
    }

    proptest! {
        /// The byte-at-a-time writer emits exactly what the bit-at-a-time
        /// one does, after every operation.
        #[test]
        fn writer_matches_the_bit_at_a_time_writer(ops in proptest::collection::vec(op(), 0..60)) {
            let mut fast = BitWriter::new();
            let mut slow = RefWriter::default();
            for op in &ops {
                match *op {
                    Op::Bits(v, c) => { fast.write_bits(v, c); slow.write_bits(v, c); }
                    Op::Bit(b) => { fast.write_bit(b); slow.write_bit(b); }
                    Op::Align => { fast.align_to_byte(); slow.align_to_byte(); }
                    Op::Seek(_) => {}
                }
                prop_assert_eq!(fast.as_bytes(), slow.as_bytes());
            }
        }

        /// The windowed reader returns the same values, the same errors
        /// and the same cursor as the bit-at-a-time one, whatever mix of
        /// reads, aligns and seeks runs over whatever bytes.
        #[test]
        fn reader_matches_the_bit_at_a_time_reader(
            bytes in proptest::collection::vec(any::<u8>(), 0..40),
            ops in proptest::collection::vec(op(), 0..60),
        ) {
            let mut fast = BitReader::new(&bytes);
            let mut slow = RefReader::new(&bytes);
            for op in &ops {
                match *op {
                    Op::Bits(_, c) => prop_assert_eq!(fast.read_bits(c), slow.read_bits(c)),
                    Op::Bit(_) => prop_assert_eq!(fast.read_bit(), slow.read_bit()),
                    Op::Align => { fast.align_to_byte(); slow.align_to_byte(); }
                    Op::Seek(p) => {
                        let p = p % (bytes.len() as u64 * 8 + 3);
                        prop_assert_eq!(fast.seek_to_bit(p), slow.seek_to_bit(p));
                    }
                }
                prop_assert_eq!(fast.bit_pos(), slow.bit_pos());
            }
        }
    }
}
