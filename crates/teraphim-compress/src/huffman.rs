//! Canonical Huffman coding.
//!
//! Symbols are dense `u32` indices (the caller maps its alphabet onto
//! `0..n`). Code construction is deterministic: ties in the Huffman merge
//! are broken by symbol order, and codewords are assigned canonically
//! (shorter codes numerically first, equal-length codes in symbol order),
//! so an encoder and decoder built from the same frequency table always
//! agree. This is exactly the property that lets MG store only the code
//! *lengths* in its dictionary; we keep whole tables in memory for
//! simplicity but the canonical discipline is retained.
//!
//! # Examples
//!
//! ```
//! use teraphim_compress::bitio::{BitReader, BitWriter};
//! use teraphim_compress::huffman::HuffmanCode;
//!
//! # fn main() -> Result<(), teraphim_compress::CodeError> {
//! let code = HuffmanCode::from_frequencies(&[10, 1, 3, 3])?;
//! let mut w = BitWriter::new();
//! for &sym in &[0u32, 2, 1, 0, 3] {
//!     code.encode(&mut w, sym);
//! }
//! let bytes = w.into_bytes();
//! let mut r = BitReader::new(&bytes);
//! for &sym in &[0u32, 2, 1, 0, 3] {
//!     assert_eq!(code.decode(&mut r)?, sym);
//! }
//! # Ok(())
//! # }
//! ```

use crate::bitio::{BitReader, BitWriter, WINDOW_BITS};
use crate::{CodeError, Result};
use std::collections::BinaryHeap;

/// A canonical Huffman code over symbols `0..n`.
///
/// Symbols with zero frequency receive no codeword; encoding them panics
/// in debug builds and produces an unspecified (but decodable-as-other)
/// codeword in release builds, so callers must only encode symbols they
/// counted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HuffmanCode {
    /// Per-symbol codeword bit length; 0 means "symbol absent".
    lengths: Vec<u8>,
    /// Per-symbol codeword, right-aligned in the low bits.
    codewords: Vec<u64>,
    /// Decoding tables, indexed by (length - 1): the numerically first
    /// codeword of each length, and the index into `sorted_symbols` where
    /// that length's run begins.
    first_code: Vec<u64>,
    first_index: Vec<usize>,
    /// Symbols sorted by (length, symbol) — canonical order.
    sorted_symbols: Vec<u32>,
    max_len: u8,
    /// For decoding from a peeked window, indexed by (length - 1): one
    /// past the last codeword of each length, left-aligned in 63 bits.
    /// Codewords of a canonical code fill the code space from zero
    /// upwards in length order, so the first limit a window falls under
    /// names its codeword's length. Empty — and every symbol decoded bit
    /// by bit — when a code is wider than the window or its lengths
    /// over-subscribe the code space (only a corrupt dictionary's do).
    limits: Vec<u64>,
}

impl HuffmanCode {
    /// Builds a canonical code from per-symbol frequencies.
    ///
    /// Zero-frequency symbols get no codeword. A single-symbol alphabet is
    /// assigned a one-bit code.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::Corrupt`] if no symbol has positive frequency.
    pub fn from_frequencies(freqs: &[u64]) -> Result<Self> {
        let lengths = code_lengths(freqs)?;
        Ok(Self::from_lengths(lengths))
    }

    /// Builds the canonical code implied by per-symbol code lengths
    /// (length 0 = absent symbol).
    ///
    /// This is the form a decoder reconstructs from a serialized
    /// dictionary.
    pub fn from_lengths(lengths: Vec<u8>) -> Self {
        let max_len = lengths.iter().copied().max().unwrap_or(0);
        let mut sorted_symbols: Vec<u32> = (0..lengths.len() as u32)
            .filter(|&s| lengths[s as usize] > 0)
            .collect();
        sorted_symbols.sort_by_key(|&s| (lengths[s as usize], s));

        // Count codewords per length, then derive the numerically first
        // codeword of each length (standard canonical construction).
        let mut count = vec![0u64; max_len as usize + 1];
        for &sym in &sorted_symbols {
            count[lengths[sym as usize] as usize] += 1;
        }
        let mut first_code = vec![0u64; max_len as usize];
        let mut first_index = vec![0usize; max_len as usize];
        let mut code = 0u64;
        let mut index = 0usize;
        for len in 1..=max_len as usize {
            first_code[len - 1] = code;
            first_index[len - 1] = index;
            code = (code + count[len]) << 1;
            index += count[len] as usize;
        }

        let mut codewords = vec![0u64; lengths.len()];
        let mut next_code = first_code.clone();
        for &sym in &sorted_symbols {
            let len = lengths[sym as usize] as usize;
            codewords[sym as usize] = next_code[len - 1];
            next_code[len - 1] += 1;
        }

        let fits = u32::from(max_len) <= WINDOW_BITS
            && (1..=max_len as usize).all(|len| first_code[len - 1] + count[len] <= 1u64 << len);
        let limits = if fits {
            (1..=max_len as usize)
                .map(|len| (first_code[len - 1] + count[len]) << (63 - len))
                .collect()
        } else {
            Vec::new()
        };

        HuffmanCode {
            lengths,
            codewords,
            first_code,
            first_index,
            sorted_symbols,
            max_len,
            limits,
        }
    }

    /// Per-symbol code lengths (0 = absent); enough to reconstruct the
    /// code via [`HuffmanCode::from_lengths`].
    pub fn lengths(&self) -> &[u8] {
        &self.lengths
    }

    /// Appends the codeword for `symbol` to `w`.
    ///
    /// # Panics
    ///
    /// Panics if `symbol` has no codeword (zero frequency at build time or
    /// out of range).
    pub fn encode(&self, w: &mut BitWriter, symbol: u32) {
        let len = self.lengths[symbol as usize];
        assert!(len > 0, "symbol {symbol} has no codeword");
        w.write_bits(self.codewords[symbol as usize], u32::from(len));
    }

    /// Decodes one symbol from `r`.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::UnexpectedEof`] on truncation and
    /// [`CodeError::Corrupt`] if the bits match no codeword.
    #[inline]
    pub fn decode(&self, r: &mut BitReader<'_>) -> Result<u32> {
        let (window, valid) = r.peek();
        let aligned = window >> 1;
        if let Some(li) = self.limits.iter().position(|&limit| aligned < limit) {
            let len = li as u32 + 1;
            if len <= valid {
                r.consume(len);
                let offset = (window >> (64 - len)) - self.first_code[li];
                return Ok(self.sorted_symbols[self.first_index[li] + offset as usize]);
            }
        }
        r.detour(|r| self.decode_slow(r))
    }

    /// [`HuffmanCode::decode`] one bit at a time: for the end of the
    /// buffer, for bits that match no codeword, and for codes without a
    /// `limits` table.
    #[cold]
    #[inline(never)]
    fn decode_slow(&self, r: &mut BitReader<'_>) -> Result<u32> {
        if self.max_len == 0 {
            return Err(CodeError::Corrupt("empty huffman code"));
        }
        let mut code = 0u64;
        for len in 1..=self.max_len {
            code = (code << 1) | u64::from(r.read_bit()?);
            let li = (len - 1) as usize;
            // Determine how many codewords of this exact length exist.
            let run_end = if len == self.max_len {
                self.sorted_symbols.len()
            } else {
                self.first_index[len as usize]
            };
            let run_start = self.first_index[li];
            let count = run_end - run_start;
            if count > 0 {
                let first = self.first_code[li];
                if code >= first && code - first < count as u64 {
                    return Ok(self.sorted_symbols[run_start + (code - first) as usize]);
                }
            }
        }
        Err(CodeError::Corrupt("bits match no huffman codeword"))
    }
}

/// Computes Huffman code lengths from frequencies, deterministic under
/// symbol-order tie breaking.
///
/// # Errors
///
/// Returns [`CodeError::Corrupt`] if every frequency is zero (or the
/// table is empty).
fn code_lengths(freqs: &[u64]) -> Result<Vec<u8>> {
    #[derive(PartialEq, Eq)]
    struct Node {
        weight: u64,
        /// Tie-break key: smallest symbol contained in the subtree; makes
        /// the construction fully deterministic.
        order: u32,
        id: usize,
    }
    impl Ord for Node {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // BinaryHeap is a max-heap; invert for min-heap behaviour.
            other
                .weight
                .cmp(&self.weight)
                .then(other.order.cmp(&self.order))
        }
    }
    impl PartialOrd for Node {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    let present: Vec<u32> = (0..freqs.len() as u32)
        .filter(|&s| freqs[s as usize] > 0)
        .collect();
    if present.is_empty() {
        return Err(CodeError::Corrupt("huffman alphabet is empty"));
    }
    let mut lengths = vec![0u8; freqs.len()];
    if present.len() == 1 {
        lengths[present[0] as usize] = 1;
        return Ok(lengths);
    }

    // parents[i] = parent node id; leaves are 0..present.len(), internal
    // nodes follow.
    let mut parents: Vec<usize> = Vec::with_capacity(present.len() * 2);
    let mut heap = BinaryHeap::new();
    for (i, &sym) in present.iter().enumerate() {
        parents.push(usize::MAX);
        heap.push(Node {
            weight: freqs[sym as usize],
            order: sym,
            id: i,
        });
    }
    while heap.len() > 1 {
        let a = heap.pop().expect("heap has >= 2 items");
        let b = heap.pop().expect("heap has >= 2 items");
        let id = parents.len();
        parents.push(usize::MAX);
        parents[a.id] = id;
        parents[b.id] = id;
        heap.push(Node {
            weight: a.weight.saturating_add(b.weight),
            order: a.order.min(b.order),
            id,
        });
    }

    for (i, &sym) in present.iter().enumerate() {
        let mut depth = 0u8;
        let mut node = i;
        while parents[node] != usize::MAX {
            node = parents[node];
            depth += 1;
        }
        lengths[sym as usize] = depth;
    }
    Ok(lengths)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Total compressed size, in bits, of a message with the given symbol
    /// frequencies under `code`.
    pub(super) fn message_bits(code: &HuffmanCode, freqs: &[u64]) -> u64 {
        freqs
            .iter()
            .zip(code.lengths())
            .map(|(&f, &len)| f * u64::from(len))
            .sum()
    }

    fn roundtrip(freqs: &[u64], message: &[u32]) {
        let code = HuffmanCode::from_frequencies(freqs).unwrap();
        let mut w = BitWriter::new();
        for &s in message {
            code.encode(&mut w, s);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &s in message {
            assert_eq!(code.decode(&mut r).unwrap(), s, "message {message:?}");
        }
    }

    #[test]
    fn two_symbols_get_one_bit_each() {
        let code = HuffmanCode::from_frequencies(&[5, 3]).unwrap();
        assert_eq!(code.lengths()[0], 1);
        assert_eq!(code.lengths()[1], 1);
    }

    #[test]
    fn single_symbol_alphabet() {
        roundtrip(&[7], &[0, 0, 0]);
        let code = HuffmanCode::from_frequencies(&[7]).unwrap();
        assert_eq!(code.lengths()[0], 1);
    }

    #[test]
    fn empty_alphabet_is_an_error() {
        assert!(HuffmanCode::from_frequencies(&[]).is_err());
        assert!(HuffmanCode::from_frequencies(&[0, 0, 0]).is_err());
    }

    #[test]
    fn zero_frequency_symbols_are_skipped() {
        let code = HuffmanCode::from_frequencies(&[4, 0, 2, 0, 1]).unwrap();
        assert_eq!(code.lengths()[1], 0);
        assert_eq!(code.lengths()[3], 0);
        roundtrip(&[4, 0, 2, 0, 1], &[0, 2, 4, 0, 2]);
    }

    #[test]
    fn skewed_frequencies_give_shorter_codes_to_common_symbols() {
        let code = HuffmanCode::from_frequencies(&[1000, 10, 10, 10, 1]).unwrap();
        assert!(code.lengths()[0] < code.lengths()[4]);
        assert!(code.lengths()[1] <= code.lengths()[4]);
    }

    #[test]
    fn kraft_equality_holds() {
        let freqs = [13u64, 7, 7, 3, 2, 1, 1, 1, 5, 9];
        let code = HuffmanCode::from_frequencies(&freqs).unwrap();
        let kraft: f64 = (0..freqs.len() as u32)
            .filter(|&s| code.lengths()[s as usize] > 0)
            .map(|s| 2f64.powi(-i32::from(code.lengths()[s as usize])))
            .sum();
        assert!((kraft - 1.0).abs() < 1e-12, "kraft sum {kraft}");
    }

    #[test]
    fn canonical_codewords_are_numerically_ordered() {
        let freqs = [5u64, 5, 2, 2, 2, 1];
        let code = HuffmanCode::from_frequencies(&freqs).unwrap();
        // Within a length, codewords increase with symbol index.
        for len in 1..=8u8 {
            let syms: Vec<u32> = (0..freqs.len() as u32)
                .filter(|&s| code.lengths()[s as usize] == len)
                .collect();
            for pair in syms.windows(2) {
                assert!(code.codewords[pair[0] as usize] < code.codewords[pair[1] as usize]);
            }
        }
    }

    #[test]
    fn from_lengths_reconstructs_same_code() {
        let freqs = [31u64, 17, 8, 8, 4, 2, 1, 1];
        let a = HuffmanCode::from_frequencies(&freqs).unwrap();
        let b = HuffmanCode::from_lengths(a.lengths().to_vec());
        assert_eq!(a, b);
    }

    #[test]
    fn message_bits_accounts_exactly() {
        let freqs = [10u64, 5, 2, 1];
        let code = HuffmanCode::from_frequencies(&freqs).unwrap();
        let mut w = BitWriter::new();
        for (sym, &f) in freqs.iter().enumerate() {
            for _ in 0..f {
                code.encode(&mut w, sym as u32);
            }
        }
        assert_eq!(w.bit_len(), message_bits(&code, &freqs));
    }

    #[test]
    fn decode_rejects_garbage() {
        // Build a deep code, then feed bits that run off the end.
        let freqs = [64u64, 32, 16, 8, 4, 2, 1, 1];
        let code = HuffmanCode::from_frequencies(&freqs).unwrap();
        let mut r = BitReader::new(&[]);
        assert!(code.decode(&mut r).is_err());
    }

    #[test]
    fn huffman_beats_fixed_width_on_skewed_data() {
        let freqs = [1_000u64, 100, 10, 1, 1, 1, 1, 1];
        let code = HuffmanCode::from_frequencies(&freqs).unwrap();
        let total: u64 = freqs.iter().sum();
        let fixed_bits = total * 3; // 8 symbols -> 3 bits fixed
        assert!(message_bits(&code, &freqs) < fixed_bits);
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::message_bits;
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn roundtrips_arbitrary_messages(
            freqs in proptest::collection::vec(0u64..1_000, 1..64),
            seed in 0u64..1_000,
        ) {
            prop_assume!(freqs.iter().any(|&f| f > 0));
            let code = HuffmanCode::from_frequencies(&freqs).unwrap();
            let present: Vec<u32> = (0..freqs.len() as u32)
                .filter(|&s| freqs[s as usize] > 0)
                .collect();
            // Pseudo-random message over present symbols.
            let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let message: Vec<u32> = (0..100)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    present[(state >> 33) as usize % present.len()]
                })
                .collect();
            let mut w = BitWriter::new();
            for &s in &message { code.encode(&mut w, s); }
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            for &s in &message { prop_assert_eq!(code.decode(&mut r).unwrap(), s); }
        }

        /// Decoding from the peeked window agrees with the bit-at-a-time
        /// loop on any bytes — symbols, errors and cursor — for codes
        /// built from frequencies and for whatever code arbitrary
        /// (possibly over-subscribed) lengths describe.
        #[test]
        fn window_decode_matches_bit_at_a_time_decode(
            freqs in proptest::collection::vec(0u64..1_000, 1..300),
            raw_lengths in proptest::collection::vec(0u8..12, 1..40),
            from_lengths in any::<bool>(),
            bytes in proptest::collection::vec(any::<u8>(), 0..64),
            start in 0u64..8,
        ) {
            let code = if from_lengths {
                HuffmanCode::from_lengths(raw_lengths)
            } else {
                prop_assume!(freqs.iter().any(|&f| f > 0));
                HuffmanCode::from_frequencies(&freqs).unwrap()
            };
            let mut fast = BitReader::new(&bytes);
            let mut slow = BitReader::new(&bytes);
            let start = start.min(fast.bit_len());
            fast.seek_to_bit(start).unwrap();
            slow.seek_to_bit(start).unwrap();
            loop {
                let (got, want) = (code.decode(&mut fast), code.decode_slow(&mut slow));
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(fast.bit_pos(), slow.bit_pos());
                if got.is_err() {
                    break;
                }
            }
        }

        #[test]
        fn kraft_inequality_never_violated(
            freqs in proptest::collection::vec(0u64..10_000, 1..128),
        ) {
            prop_assume!(freqs.iter().any(|&f| f > 0));
            let code = HuffmanCode::from_frequencies(&freqs).unwrap();
            let kraft: f64 = (0..freqs.len() as u32)
                .filter(|&s| code.lengths()[s as usize] > 0)
                .map(|s| 2f64.powi(-i32::from(code.lengths()[s as usize])))
                .sum();
            prop_assert!(kraft <= 1.0 + 1e-9);
        }

        #[test]
        fn entropy_bound_holds(
            freqs in proptest::collection::vec(1u64..10_000, 2..64),
        ) {
            // Huffman is within 1 bit/symbol of the entropy.
            let code = HuffmanCode::from_frequencies(&freqs).unwrap();
            let total: f64 = freqs.iter().sum::<u64>() as f64;
            let entropy: f64 = freqs
                .iter()
                .map(|&f| {
                    let p = f as f64 / total;
                    -p * p.log2()
                })
                .sum();
            let avg_len = message_bits(&code, &freqs) as f64 / total;
            prop_assert!(avg_len >= entropy - 1e-9, "avg {avg_len} < entropy {entropy}");
            prop_assert!(avg_len <= entropy + 1.0 + 1e-9, "avg {avg_len} > entropy+1 {entropy}");
        }
    }
}
