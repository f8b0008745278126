//! Integer codes for inverted-file compression.
//!
//! The codes implemented here are the standard repertoire used by MG-style
//! compressed inverted files (Witten, Moffat & Bell, *Managing
//! Gigabytes*):
//!
//! * **Unary** — optimal for geometrically distributed values with p = ½.
//! * **Elias γ** — parameterless; good for small values such as
//!   in-document frequencies `f_dt`.
//! * **Elias δ** — parameterless; better than γ for larger magnitudes.
//! * **Golomb** — parameterised; with `b ≈ 0.69 · N/f_t` this is the
//!   near-optimal code for d-gaps of a Bernoulli-distributed term.
//! * **v-byte** — byte-aligned variable-length code, used where byte
//!   alignment matters more than density (e.g. wire headers).
//!
//! All codes operate on `u64` values ≥ 1, matching their classical
//! definitions (d-gaps and term frequencies are always ≥ 1). Use
//! [`write_gamma0`]/[`read_gamma0`] for values that may be zero.

use crate::bitio::{BitReader, BitWriter};
use crate::{CodeError, Result};

// ---------------------------------------------------------------------------
// Unary
// ---------------------------------------------------------------------------

/// Writes `n ≥ 1` in unary: `n - 1` zero bits followed by a one bit.
///
/// # Panics
///
/// Panics in debug builds if `n == 0`.
pub fn write_unary(w: &mut BitWriter, n: u64) {
    debug_assert!(n >= 1, "unary codes values >= 1");
    let mut zeros = n - 1;
    while zeros >= 64 {
        w.write_bits(0, 64);
        zeros -= 64;
    }
    w.write_bits(1, zeros as u32 + 1);
}

/// Reads a unary codeword written by [`write_unary`].
///
/// # Errors
///
/// Returns [`CodeError::UnexpectedEof`] on a truncated stream.
#[inline]
pub fn read_unary(r: &mut BitReader<'_>) -> Result<u64> {
    let (window, valid) = r.peek();
    let zeros = window.leading_zeros();
    if zeros < valid {
        r.consume(zeros + 1);
        return Ok(u64::from(zeros) + 1);
    }
    r.detour(read_unary_slow)
}

/// [`read_unary`] one bit at a time: for a run that outlasts the window,
/// and for the end of the buffer.
#[cold]
#[inline(never)]
fn read_unary_slow(r: &mut BitReader<'_>) -> Result<u64> {
    let mut n = 1u64;
    while !r.read_bit()? {
        n += 1;
        if n == u64::MAX {
            return Err(CodeError::Corrupt("unary run too long"));
        }
    }
    Ok(n)
}

// ---------------------------------------------------------------------------
// Elias gamma
// ---------------------------------------------------------------------------

/// Number of bits in the binary representation of `n ≥ 1`.
fn bit_width(n: u64) -> u32 {
    64 - n.leading_zeros()
}

/// Writes `n ≥ 1` in Elias γ: unary length prefix then the value's low
/// bits.
///
/// # Panics
///
/// Panics in debug builds if `n == 0`.
#[inline]
pub fn write_gamma(w: &mut BitWriter, n: u64) {
    debug_assert!(n >= 1, "gamma codes values >= 1");
    let width = bit_width(n);
    if width <= 32 {
        // `width - 1` zeros then the value, whose leading 1 bit ends the
        // unary prefix: `n` written in `2 * width - 1` bits is the code.
        w.write_bits(n, 2 * width - 1);
        return;
    }
    write_unary(w, u64::from(width));
    // Drop the leading 1 bit, it is implied by the length prefix.
    w.write_bits(n & !(1u64 << (width - 1)), width - 1);
}

/// Reads an Elias γ codeword written by [`write_gamma`].
///
/// # Errors
///
/// Returns [`CodeError::UnexpectedEof`] on truncation and
/// [`CodeError::Corrupt`] if the decoded width exceeds 64 bits.
#[inline]
pub fn read_gamma(r: &mut BitReader<'_>) -> Result<u64> {
    let (window, valid) = r.peek();
    let len = gamma_bits(window);
    if len <= valid {
        r.consume(len);
        return Ok(window >> (64 - len));
    }
    r.detour(read_gamma_slow)
}

/// Reads two consecutive Elias γ codewords — an inverted list's
/// `(d-gap, f_dt)` pair — from one refill of the window.
///
/// # Errors
///
/// As two calls of [`read_gamma`]: the second codeword's error leaves the
/// cursor after the first.
#[inline(always)]
pub fn read_gamma_pair(r: &mut BitReader<'_>) -> Result<(u64, u64)> {
    let (window, valid) = r.peek();
    let first = gamma_bits(window);
    if first < valid {
        let rest = window << first;
        let second = gamma_bits(rest);
        if first + second <= valid {
            r.consume(first + second);
            return Ok((window >> (64 - first), rest >> (64 - second)));
        }
    }
    Ok((read_gamma(r)?, read_gamma(r)?))
}

/// Length of the γ codeword at the top of `window`: `zeros` zero bits,
/// then the value in `zeros + 1` bits — so shifting the window right by
/// all but that many bits leaves the value. A length beyond the window's
/// valid bits means the codeword does not end inside it.
#[inline(always)]
fn gamma_bits(window: u64) -> u32 {
    2 * window.leading_zeros() + 1
}

/// [`read_gamma`] in two steps, prefix then value: for a code wider than
/// the window, and for the end of the buffer.
#[cold]
#[inline(never)]
fn read_gamma_slow(r: &mut BitReader<'_>) -> Result<u64> {
    let width = read_unary(r)?;
    if width > 64 {
        return Err(CodeError::Corrupt("gamma width exceeds 64 bits"));
    }
    let width = width as u32;
    if width == 1 {
        return Ok(1);
    }
    let low = r.read_bits(width - 1)?;
    Ok((1u64 << (width - 1)) | low)
}

/// Writes a possibly-zero value by γ-coding `n + 1`.
pub fn write_gamma0(w: &mut BitWriter, n: u64) {
    debug_assert!(n < u64::MAX);
    write_gamma(w, n + 1);
}

/// Reads a value written by [`write_gamma0`].
///
/// # Errors
///
/// Propagates errors from [`read_gamma`].
#[inline]
pub fn read_gamma0(r: &mut BitReader<'_>) -> Result<u64> {
    Ok(read_gamma(r)? - 1)
}

// ---------------------------------------------------------------------------
// Elias delta
// ---------------------------------------------------------------------------

/// Writes `n ≥ 1` in Elias δ: γ-coded length then the value's low bits.
///
/// # Panics
///
/// Panics in debug builds if `n == 0`.
pub fn write_delta(w: &mut BitWriter, n: u64) {
    debug_assert!(n >= 1, "delta codes values >= 1");
    let width = bit_width(n);
    write_gamma(w, u64::from(width));
    if width > 1 {
        w.write_bits(n & !(1u64 << (width - 1)), width - 1);
    }
}

/// Reads an Elias δ codeword written by [`write_delta`].
///
/// # Errors
///
/// Returns [`CodeError::UnexpectedEof`] on truncation and
/// [`CodeError::Corrupt`] if the decoded width exceeds 64 bits.
pub fn read_delta(r: &mut BitReader<'_>) -> Result<u64> {
    let width = read_gamma(r)?;
    if width > 64 {
        return Err(CodeError::Corrupt("delta width exceeds 64 bits"));
    }
    let width = width as u32;
    if width == 1 {
        return Ok(1);
    }
    let low = r.read_bits(width - 1)?;
    Ok((1u64 << (width - 1)) | low)
}

// ---------------------------------------------------------------------------
// Golomb
// ---------------------------------------------------------------------------

/// Computes the Golomb parameter `b ≈ 0.69 · (n / f)` recommended for
/// coding the d-gaps of a term appearing in `f` of `n` documents.
///
/// Returns at least 1. This is the classical choice of Gallager & Van
/// Voorhis applied by Witten, Moffat & Bell to inverted files.
pub fn golomb_parameter(n_docs: u64, f_t: u64) -> u64 {
    if f_t == 0 {
        return 1;
    }
    let b = (0.69 * (n_docs as f64 / f_t as f64)).ceil() as u64;
    b.max(1)
}

/// Writes `n ≥ 1` with the Golomb code of parameter `b ≥ 1`.
///
/// The quotient `(n-1)/b` is coded in unary and the remainder with a
/// truncated binary code.
///
/// # Panics
///
/// Panics in debug builds if `n == 0` or `b == 0`.
pub fn write_golomb(w: &mut BitWriter, n: u64, b: u64) {
    debug_assert!(n >= 1, "golomb codes values >= 1");
    debug_assert!(b >= 1, "golomb parameter must be >= 1");
    let v = n - 1;
    let q = v / b;
    let rem = v % b;
    write_unary(w, q + 1);
    if b == 1 {
        return;
    }
    // Truncated binary coding of rem in [0, b).
    let width = bit_width(b - 1).max(1);
    let threshold = (1u64 << width) - b; // count of short codewords
    if rem < threshold {
        w.write_bits(rem, width - 1);
    } else {
        w.write_bits(rem + threshold, width);
    }
}

/// Reads a Golomb codeword of parameter `b` written by [`write_golomb`].
///
/// # Errors
///
/// Returns [`CodeError::UnexpectedEof`] on truncation.
///
/// # Panics
///
/// Panics in debug builds if `b == 0`.
pub fn read_golomb(r: &mut BitReader<'_>, b: u64) -> Result<u64> {
    debug_assert!(b >= 1, "golomb parameter must be >= 1");
    let q = read_unary(r)? - 1;
    if b == 1 {
        return Ok(q + 1);
    }
    let width = bit_width(b - 1).max(1);
    let threshold = (1u64 << width) - b;
    let mut rem = r.read_bits(width - 1)?;
    if rem >= threshold {
        rem = (rem << 1) | u64::from(r.read_bit()?);
        rem -= threshold;
    }
    Ok(q * b + rem + 1)
}

// ---------------------------------------------------------------------------
// v-byte (byte-aligned)
// ---------------------------------------------------------------------------

/// Appends `n` to `out` as a v-byte code: seven payload bits per byte, the
/// high bit set on the final byte.
pub fn write_vbyte(out: &mut Vec<u8>, mut n: u64) {
    loop {
        let low = (n & 0x7F) as u8;
        n >>= 7;
        if n == 0 {
            out.push(low | 0x80);
            return;
        }
        out.push(low);
    }
}

/// Reads a v-byte code from `input` starting at `*pos`, advancing `*pos`.
///
/// # Errors
///
/// Returns [`CodeError::UnexpectedEof`] if the terminator byte is missing
/// and [`CodeError::Corrupt`] if the value overflows a `u64`.
pub fn read_vbyte(input: &[u8], pos: &mut usize) -> Result<u64> {
    let mut n = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *input.get(*pos).ok_or(CodeError::UnexpectedEof)?;
        *pos += 1;
        if shift >= 64 || (shift == 63 && byte & 0x7F > 1) {
            return Err(CodeError::Corrupt("v-byte value overflows u64"));
        }
        n |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 != 0 {
            return Ok(n);
        }
        shift += 7;
    }
}

/// Number of bytes the v-byte code of `n` occupies.
pub fn vbyte_len(n: u64) -> usize {
    let bits = bit_width(n.max(1));
    bits.div_ceil(7) as usize
}

// ---------------------------------------------------------------------------
// Code length helpers (used for index-size accounting without encoding)
// ---------------------------------------------------------------------------

/// Bit length of the γ code of `n ≥ 1`.
pub fn gamma_len(n: u64) -> u64 {
    debug_assert!(n >= 1);
    u64::from(2 * bit_width(n) - 1)
}

/// Bit length of the δ code of `n ≥ 1`.
pub fn delta_len(n: u64) -> u64 {
    debug_assert!(n >= 1);
    let width = u64::from(bit_width(n));
    gamma_len(width) + width - 1
}

/// Bit length of the Golomb code of `n ≥ 1` with parameter `b ≥ 1`.
pub fn golomb_len(n: u64, b: u64) -> u64 {
    debug_assert!(n >= 1 && b >= 1);
    let v = n - 1;
    let q = v / b;
    if b == 1 {
        return q + 1;
    }
    let rem = v % b;
    let width = u64::from(bit_width(b - 1).max(1));
    let threshold = (1u64 << width) - b;
    q + 1 + if rem < threshold { width - 1 } else { width }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<W, R>(values: &[u64], write: W, read: R)
    where
        W: Fn(&mut BitWriter, u64),
        R: Fn(&mut BitReader<'_>) -> Result<u64>,
    {
        let mut w = BitWriter::new();
        for &v in values {
            write(&mut w, v);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &v in values {
            assert_eq!(read(&mut r).unwrap(), v);
        }
    }

    const SAMPLE: &[u64] = &[
        1,
        2,
        3,
        4,
        5,
        7,
        8,
        15,
        16,
        100,
        1_000,
        65_535,
        65_536,
        1 << 32,
        (1 << 40) + 12345,
        u64::MAX / 2,
    ];

    #[test]
    fn unary_roundtrip_small() {
        roundtrip(&[1, 2, 3, 10, 33], write_unary, read_unary);
    }

    #[test]
    fn unary_known_encoding() {
        let mut w = BitWriter::new();
        write_unary(&mut w, 3);
        assert_eq!(w.into_bytes(), vec![0b0010_0000]);
    }

    #[test]
    fn gamma_roundtrip() {
        roundtrip(SAMPLE, write_gamma, read_gamma);
    }

    #[test]
    fn gamma_known_encodings() {
        // gamma(1) = "1", gamma(2) = "010", gamma(3) = "011", gamma(4) = "00100"
        let mut w = BitWriter::new();
        write_gamma(&mut w, 1);
        write_gamma(&mut w, 2);
        write_gamma(&mut w, 3);
        write_gamma(&mut w, 4);
        // 1 010 011 00100 -> 1010 0110 0100....
        assert_eq!(w.into_bytes(), vec![0b1010_0110, 0b0100_0000]);
    }

    #[test]
    fn gamma_max_value() {
        roundtrip(&[u64::MAX], write_gamma, read_gamma);
    }

    #[test]
    fn gamma0_codes_zero() {
        let mut w = BitWriter::new();
        write_gamma0(&mut w, 0);
        write_gamma0(&mut w, 5);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(read_gamma0(&mut r).unwrap(), 0);
        assert_eq!(read_gamma0(&mut r).unwrap(), 5);
    }

    #[test]
    fn delta_roundtrip() {
        roundtrip(SAMPLE, write_delta, read_delta);
    }

    #[test]
    fn delta_shorter_than_gamma_for_large_values() {
        assert!(delta_len(1 << 40) < gamma_len(1 << 40));
    }

    #[test]
    fn delta_max_value() {
        roundtrip(&[u64::MAX], write_delta, read_delta);
    }

    #[test]
    fn golomb_roundtrip_various_parameters() {
        // Keep quotients bounded: Golomb codes the quotient in unary, so
        // values far above the parameter would write enormous runs (in
        // real use b is tuned to the gap distribution).
        for b in [1u64, 2, 3, 5, 7, 8, 100, 1_000_000] {
            let values: Vec<u64> = SAMPLE
                .iter()
                .copied()
                .filter(|&n| (n - 1) / b < 100_000)
                .collect();
            roundtrip(&values, |w, n| write_golomb(w, n, b), |r| read_golomb(r, b));
        }
    }

    #[test]
    fn golomb_parameter_formula() {
        assert_eq!(golomb_parameter(1_000_000, 1_000), 690);
        assert_eq!(golomb_parameter(100, 100), 1);
        assert_eq!(golomb_parameter(100, 0), 1);
        assert!(golomb_parameter(10, 9) >= 1);
    }

    #[test]
    fn vbyte_roundtrip() {
        let mut out = Vec::new();
        for &v in SAMPLE {
            write_vbyte(&mut out, v);
        }
        write_vbyte(&mut out, 0);
        write_vbyte(&mut out, u64::MAX);
        let mut pos = 0;
        for &v in SAMPLE {
            assert_eq!(read_vbyte(&out, &mut pos).unwrap(), v);
        }
        assert_eq!(read_vbyte(&out, &mut pos).unwrap(), 0);
        assert_eq!(read_vbyte(&out, &mut pos).unwrap(), u64::MAX);
        assert_eq!(pos, out.len());
    }

    #[test]
    fn vbyte_len_matches_encoding() {
        for &v in SAMPLE {
            let mut out = Vec::new();
            write_vbyte(&mut out, v);
            assert_eq!(out.len(), vbyte_len(v), "value {v}");
        }
    }

    #[test]
    fn vbyte_truncated_stream_errors() {
        let out = vec![0x01u8]; // continuation bit never terminated
        let mut pos = 0;
        assert_eq!(read_vbyte(&out, &mut pos), Err(CodeError::UnexpectedEof));
    }

    #[test]
    fn length_helpers_match_actual_encodings() {
        for &v in SAMPLE {
            let mut w = BitWriter::new();
            write_gamma(&mut w, v);
            assert_eq!(w.bit_len(), gamma_len(v), "gamma {v}");

            let mut w = BitWriter::new();
            write_delta(&mut w, v);
            assert_eq!(w.bit_len(), delta_len(v), "delta {v}");

            for b in [1u64, 3, 8, 1000] {
                if (v - 1) / b > 100_000 {
                    continue; // avoid pathological unary quotients
                }
                let mut w = BitWriter::new();
                write_golomb(&mut w, v, b);
                assert_eq!(w.bit_len(), golomb_len(v, b), "golomb {v} b={b}");
            }
        }
    }

    #[test]
    fn truncated_gamma_errors() {
        let mut w = BitWriter::new();
        write_gamma(&mut w, 1_000_000);
        let bytes = w.into_bytes();
        let cut = &bytes[..bytes.len() - 1];
        let mut r = BitReader::new(cut);
        assert!(read_gamma(&mut r).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        fn gamma_roundtrips(values in proptest::collection::vec(1u64..u64::MAX, 0..200)) {
            let mut w = BitWriter::new();
            for &v in &values { write_gamma(&mut w, v); }
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            for &v in &values { prop_assert_eq!(read_gamma(&mut r).unwrap(), v); }
        }

        fn delta_roundtrips(values in proptest::collection::vec(1u64..u64::MAX, 0..200)) {
            let mut w = BitWriter::new();
            for &v in &values { write_delta(&mut w, v); }
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            for &v in &values { prop_assert_eq!(read_delta(&mut r).unwrap(), v); }
        }

        fn golomb_roundtrips(
            values in proptest::collection::vec(1u64..1u64 << 20, 0..200),
            b in 1u64..10_000,
        ) {
            let mut w = BitWriter::new();
            for &v in &values { write_golomb(&mut w, v, b); }
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            for &v in &values { prop_assert_eq!(read_golomb(&mut r, b).unwrap(), v); }
        }

        fn vbyte_roundtrips(values in proptest::collection::vec(0u64..u64::MAX, 0..200)) {
            let mut out = Vec::new();
            for &v in &values { write_vbyte(&mut out, v); }
            let mut pos = 0;
            for &v in &values { prop_assert_eq!(read_vbyte(&out, &mut pos).unwrap(), v); }
            prop_assert_eq!(pos, out.len());
        }

        fn mixed_codes_share_a_stream(values in proptest::collection::vec(1u64..1u64 << 18, 1..100)) {
            // Interleave gamma/delta/golomb in one stream: positional decode
            // must stay in lockstep.
            let mut w = BitWriter::new();
            for (i, &v) in values.iter().enumerate() {
                match i % 3 {
                    0 => write_gamma(&mut w, v),
                    1 => write_delta(&mut w, v),
                    _ => write_golomb(&mut w, v, 7),
                }
            }
            let bytes = w.into_bytes();
            let mut r = BitReader::new(&bytes);
            for (i, &v) in values.iter().enumerate() {
                let got = match i % 3 {
                    0 => read_gamma(&mut r).unwrap(),
                    1 => read_delta(&mut r).unwrap(),
                    _ => read_golomb(&mut r, 7).unwrap(),
                };
                prop_assert_eq!(got, v);
            }
        }
    }
}

/// Differential tests: every reader in this module against the same
/// reader written over the bit-at-a-time [`RefReader`], on well-formed
/// streams and on arbitrary bytes, from every start alignment and with
/// the buffer cut at every byte. Equal values, equal errors and an equal
/// cursor after each read — including the reads that fail.
#[cfg(test)]
mod differential {
    use super::*;
    use crate::bitio::reference::{RefReader, RefWriter};
    use proptest::prelude::*;

    fn ref_write_unary(w: &mut RefWriter, n: u64) {
        for _ in 1..n {
            w.write_bits(u64::from(false), 1);
        }
        w.write_bits(u64::from(true), 1);
    }

    fn ref_write_gamma(w: &mut RefWriter, n: u64) {
        let width = bit_width(n);
        ref_write_unary(w, u64::from(width));
        if width > 1 {
            w.write_bits(n & !(1u64 << (width - 1)), width - 1);
        }
    }

    /// The writers of this module as they were over the bit-at-a-time
    /// writer: a unary prefix bit by bit, then the value.
    fn ref_write(w: &mut RefWriter, read: Read) {
        match read {
            Read::Unary(v) => ref_write_unary(w, v),
            Read::Gamma(v) => ref_write_gamma(w, v),
            Read::Gamma0(v) => ref_write_gamma(w, v + 1),
            Read::Delta(v) => {
                let width = bit_width(v);
                ref_write_gamma(w, u64::from(width));
                if width > 1 {
                    w.write_bits(v & !(1u64 << (width - 1)), width - 1);
                }
            }
            Read::Golomb(v, b) => {
                let (q, rem) = ((v - 1) / b, (v - 1) % b);
                ref_write_unary(w, q + 1);
                if b > 1 {
                    let width = bit_width(b - 1).max(1);
                    let threshold = (1u64 << width) - b;
                    if rem < threshold {
                        w.write_bits(rem, width - 1);
                    } else {
                        w.write_bits(rem + threshold, width);
                    }
                }
            }
            Read::Bits(v, c) => w.write_bits(v, c),
        }
    }

    fn ref_unary(r: &mut RefReader<'_>) -> Result<u64> {
        let mut n = 1u64;
        while !r.read_bit()? {
            n += 1;
        }
        Ok(n)
    }

    fn ref_wide(r: &mut RefReader<'_>, width: u64, what: &'static str) -> Result<u64> {
        if width > 64 {
            return Err(CodeError::Corrupt(what));
        }
        let width = width as u32;
        if width == 1 {
            return Ok(1);
        }
        let low = r.read_bits(width - 1)?;
        Ok((1u64 << (width - 1)) | low)
    }

    fn ref_gamma(r: &mut RefReader<'_>) -> Result<u64> {
        let width = ref_unary(r)?;
        ref_wide(r, width, "gamma width exceeds 64 bits")
    }

    fn ref_delta(r: &mut RefReader<'_>) -> Result<u64> {
        let width = ref_gamma(r)?;
        ref_wide(r, width, "delta width exceeds 64 bits")
    }

    fn ref_golomb(r: &mut RefReader<'_>, b: u64) -> Result<u64> {
        let q = ref_unary(r)? - 1;
        if b == 1 {
            return Ok(q + 1);
        }
        let width = bit_width(b - 1).max(1);
        let threshold = (1u64 << width) - b;
        let mut rem = r.read_bits(width - 1)?;
        if rem >= threshold {
            rem = (rem << 1) | u64::from(r.read_bit()?);
            rem -= threshold;
        }
        Ok(q * b + rem + 1)
    }

    /// One read of a script, with the value a well-formed stream holds
    /// there.
    #[derive(Debug, Clone, Copy)]
    enum Read {
        Unary(u64),
        Gamma(u64),
        Gamma0(u64),
        Delta(u64),
        Golomb(u64, u64),
        Bits(u64, u32),
    }

    fn read() -> impl Strategy<Value = Read> {
        (0u8..6, any::<u64>(), 0u32..64, 1u64..5_000, 0u32..=64).prop_map(
            |(kind, raw, shift, b, count)| {
                // Mostly small values, as in an inverted list, with the
                // occasional one wider than the window.
                let v = (raw >> shift).clamp(1, u64::MAX - 1);
                match kind {
                    0 => Read::Unary(v % 150 + 1),
                    1 => Read::Gamma(v),
                    2 => Read::Gamma0(v - 1),
                    3 => Read::Delta(v),
                    4 => Read::Golomb(v % (b * 80) + 1, b),
                    _ => Read::Bits(
                        if count == 64 {
                            raw
                        } else {
                            raw & ((1 << count) - 1)
                        },
                        count,
                    ),
                }
            },
        )
    }

    fn write(w: &mut BitWriter, read: Read) {
        match read {
            Read::Unary(v) => write_unary(w, v),
            Read::Gamma(v) => write_gamma(w, v),
            Read::Gamma0(v) => write_gamma0(w, v),
            Read::Delta(v) => write_delta(w, v),
            Read::Golomb(v, b) => write_golomb(w, v, b),
            Read::Bits(v, c) => w.write_bits(v, c),
        }
    }

    /// Runs `script` over `bytes` from bit `start` on both readers; with
    /// `whole`, the stream is the complete one and every read must also
    /// return the value that was written.
    fn compare(
        bytes: &[u8],
        start: u64,
        script: &[Read],
        whole: bool,
    ) -> std::result::Result<(), String> {
        let mut fast = BitReader::new(bytes);
        let mut slow = RefReader::new(bytes);
        let sought = (fast.seek_to_bit(start), slow.seek_to_bit(start));
        if sought.0 != sought.1 {
            return Err(format!("seek to {start}: {sought:?}"));
        }
        for (i, &read) in script.iter().enumerate() {
            let got = match read {
                Read::Unary(_) => (read_unary(&mut fast), ref_unary(&mut slow)),
                Read::Gamma(_) => (read_gamma(&mut fast), ref_gamma(&mut slow)),
                Read::Gamma0(_) => (read_gamma0(&mut fast), ref_gamma(&mut slow).map(|v| v - 1)),
                Read::Delta(_) => (read_delta(&mut fast), ref_delta(&mut slow)),
                Read::Golomb(_, b) => (read_golomb(&mut fast, b), ref_golomb(&mut slow, b)),
                Read::Bits(_, c) => (fast.read_bits(c), slow.read_bits(c)),
            };
            let (Read::Unary(want)
            | Read::Gamma(want)
            | Read::Gamma0(want)
            | Read::Delta(want)
            | Read::Golomb(want, _)
            | Read::Bits(want, _)) = read;
            let wrong_value = whole && got.0 != Ok(want);
            if got.0 != got.1 || fast.bit_pos() != slow.bit_pos() || wrong_value {
                return Err(format!(
                    "read {i} ({read:?}) from bit {start} of {} bytes: {got:?}, cursors {} and {}",
                    bytes.len(),
                    fast.bit_pos(),
                    slow.bit_pos()
                ));
            }
            if got.0.is_err() {
                break;
            }
        }
        Ok(())
    }

    proptest! {
        fn written_streams_read_alike_at_every_alignment_and_cut(
            script in proptest::collection::vec(read(), 1..24),
            pad in any::<u8>(),
        ) {
            for start in 0..8u32 {
                let mut w = BitWriter::new();
                let mut slow = RefWriter::default();
                w.write_bits(u64::from(pad) >> (8 - start) & 0x7F, start);
                slow.write_bits(u64::from(pad) >> (8 - start) & 0x7F, start);
                for &read in &script {
                    write(&mut w, read);
                    ref_write(&mut slow, read);
                    // Whole words at once write the bytes bit-at-a-time
                    // writing did.
                    prop_assert_eq!(w.as_bytes(), slow.as_bytes(), "after {:?}", read);
                }
                let bytes = w.into_bytes();
                // The whole stream decodes to what was written, and every
                // prefix of it fails where and how the bit-at-a-time
                // reader does.
                for cut in 0..=bytes.len() {
                    let whole = cut == bytes.len();
                    if let Err(e) = compare(&bytes[..cut], u64::from(start), &script, whole) {
                        prop_assert!(false, "{e}");
                    }
                }
            }
        }

        fn arbitrary_bytes_read_alike(
            raw in proptest::collection::vec((0u8..4, any::<u8>(), 1usize..12), 0..24),
            script in proptest::collection::vec(read(), 1..24),
            start in 0u64..64,
        ) {
            // A quarter of the draws are runs of zero bytes: long enough
            // to outlast the window and to reach the "width exceeds 64
            // bits" errors.
            let bytes: Vec<u8> = raw
                .into_iter()
                .flat_map(|(kind, byte, run)| {
                    if kind == 0 { vec![0; run] } else { vec![byte] }
                })
                .collect();
            if let Err(e) = compare(&bytes, start, &script, false) {
                prop_assert!(false, "{e}");
            }
        }
    }
}
