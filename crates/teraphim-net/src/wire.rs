//! Primitive wire encodings: little-endian integers, v-byte lengths,
//! length-prefixed byte strings — and the stream framing built on them.
//!
//! Variable-length integers use the v-byte code from
//! `teraphim-compress`, so small values (doc ids, list lengths, k) cost
//! one byte — the protocol's sizes faithfully reflect "document
//! identifiers are only a few bytes each".
//!
//! # Framing
//!
//! Streams carry length-prefixed frames: a `u32` little-endian payload
//! length followed by the payload ([`frame`] / [`FrameReader`]). Every
//! payload, request or reply, is one envelope ([`split_envelope`]): the
//! [`ENVELOPE_TAG`] marker, a version/flags byte, a v-byte correlation
//! id, the optional sections the flags announce, then the encoded
//! [`crate::message::Message`]. Replies may
//! return in any order; the id routes each back to the exchange that
//! issued it, which is what lets hundreds of in-flight queries pipeline
//! over one connection.

use crate::NetError;
use std::io::{self, ErrorKind::UnexpectedEof, Read};
use std::ops::Range;
use std::time::Instant;
use teraphim_compress::codes::{read_vbyte, write_vbyte};
use teraphim_obs::{ServerTimings, SpanContext};

/// Appends a variable-length unsigned integer.
pub fn put_uint(out: &mut Vec<u8>, v: u64) {
    write_vbyte(out, v);
}

/// Reads a variable-length unsigned integer.
///
/// # Errors
///
/// Returns [`NetError::Corrupt`] on truncation or overflow.
pub fn get_uint(buf: &[u8], pos: &mut usize) -> Result<u64, NetError> {
    read_vbyte(buf, pos).map_err(|_| NetError::Corrupt("varint"))
}

/// Appends an `f64` as its little-endian bit pattern.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Reads an `f64`.
///
/// # Errors
///
/// Returns [`NetError::Corrupt`] on truncation.
pub fn get_f64(buf: &[u8], pos: &mut usize) -> Result<f64, NetError> {
    let slice = buf
        .get(*pos..*pos + 8)
        .ok_or(NetError::Corrupt("f64 truncated"))?;
    *pos += 8;
    Ok(f64::from_bits(u64::from_le_bytes(
        slice.try_into().expect("8 bytes"),
    )))
}

/// Appends a length-prefixed byte string.
pub fn put_bytes(out: &mut Vec<u8>, v: &[u8]) {
    put_uint(out, v.len() as u64);
    out.extend_from_slice(v);
}

/// Reads a length-prefixed byte string.
///
/// # Errors
///
/// Returns [`NetError::Corrupt`] on truncation or an absurd length.
pub fn get_bytes<'a>(buf: &'a [u8], pos: &mut usize) -> Result<&'a [u8], NetError> {
    let len = get_uint(buf, pos)?;
    let end = usize::try_from(len)
        .ok()
        .and_then(|len| pos.checked_add(len))
        .ok_or(NetError::Corrupt("bytes truncated"))?;
    let slice = buf
        .get(*pos..end)
        .ok_or(NetError::Corrupt("bytes truncated"))?;
    *pos = end;
    Ok(slice)
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, v: &str) {
    put_bytes(out, v.as_bytes());
}

/// Reads a length-prefixed UTF-8 string.
///
/// # Errors
///
/// Returns [`NetError::Corrupt`] on truncation or invalid UTF-8.
pub fn get_str(buf: &[u8], pos: &mut usize) -> Result<String, NetError> {
    let bytes = get_bytes(buf, pos)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| NetError::Corrupt("string not UTF-8"))
}

/// Maximum accepted frame, guarding against corrupt length prefixes.
pub const MAX_FRAME: u32 = 256 * 1024 * 1024;

/// The most a [`FrameReader`] reserves ahead of the bytes that have
/// arrived, so a length prefix alone buys nothing.
const FRAME_PREALLOC: usize = 64 * 1024;

/// The buffer a [`FrameReader`] keeps between frames; one grown for a
/// larger frame is given back once that frame has been consumed.
const FRAME_BUFFER: usize = 8 * 1024;

/// A frame's one allocation: room for a query or a top-k reply, so
/// that most frames never grow.
const FRAME_CAPACITY: usize = 512;

/// Reads the length-prefixed frames of one connection end through one
/// reused buffer. A `read` takes whatever bytes the source has, so a
/// lone frame that fits costs one call and frames pipelined behind it
/// cost none. [`FrameReader::advance`] moves to the next frame, and
/// [`FrameReader::frame`] lends it until the next `advance`.
#[derive(Debug)]
pub struct FrameReader<R> {
    source: R,
    /// Zero-initialised; `start..end` is read but not yet handed out.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    frame: Range<usize>,
    /// When the last read returned. Every whole frame in the buffer was
    /// completed by that read: the reader reads only when none is whole.
    arrived: Instant,
}

impl<R: Read> FrameReader<R> {
    /// A reader over `source`.
    pub fn new(source: R) -> Self {
        FrameReader {
            source,
            buf: vec![0; FRAME_BUFFER],
            start: 0,
            end: 0,
            frame: 0..0,
            arrived: Instant::now(),
        }
    }

    /// Moves to the next frame, reading until it is whole (across any
    /// number of TCP segments); `Ok(false)` on clean EOF at a frame
    /// boundary. The buffer grows with the bytes that arrive, not with
    /// what a prefix claims.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Io`] on read failure or EOF mid-frame
    /// (`UnexpectedEof`), and [`NetError::Corrupt`] when a length prefix
    /// exceeds [`MAX_FRAME`].
    pub fn advance(&mut self) -> Result<bool, NetError> {
        self.frame = 0..0;
        loop {
            let wanted = self.next_len()?;
            if let Some(len) = wanted.filter(|&len| len <= self.end - self.start) {
                self.frame = self.start + 4..self.start + len;
                self.start += len;
                return Ok(true);
            }
            if self.start > 0 {
                let rest = self.end - self.start;
                self.buf.copy_within(self.start..self.end, 0);
                (self.start, self.end) = (0, rest);
                if self.buf.len() > FRAME_BUFFER && rest <= FRAME_BUFFER {
                    // The frame that grew the buffer has been consumed.
                    self.buf.truncate(FRAME_BUFFER);
                    self.buf.shrink_to_fit();
                }
            }
            let room = wanted.unwrap_or(4).min(self.end + FRAME_PREALLOC);
            if self.buf.len() < room {
                self.buf.resize(room, 0);
            }
            match self.source.read(&mut self.buf[self.end..]) {
                Ok(0) if self.end == 0 => return Ok(false),
                Ok(0) => return Err(io::Error::new(UnexpectedEof, "closed mid frame").into()),
                Ok(n) => {
                    self.end += n;
                    self.arrived = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// The current frame's payload; empty unless the last `advance`
    /// returned `Ok(true)`.
    pub fn frame(&self) -> &[u8] {
        &self.buf[self.frame.clone()]
    }

    /// When the current frame's last byte was read off the source.
    pub fn arrived(&self) -> Instant {
        self.arrived
    }

    /// The whole length, prefix included, of the next frame once its
    /// prefix has arrived.
    fn next_len(&self) -> Result<Option<usize>, NetError> {
        let prefix = self.buf[self.start..self.end].first_chunk::<4>();
        match prefix.map(|prefix| u32::from_le_bytes(*prefix)) {
            Some(len) if len > MAX_FRAME => Err(NetError::Corrupt("frame too large")),
            len => Ok(len.map(|len| 4 + len as usize)),
        }
    }
}

/// First byte of every frame payload. Message tags are small
/// constants, so a bare message (or anything else that is not an
/// envelope) can never start with it.
pub const ENVELOPE_TAG: u8 = 0x81;

/// Envelope version: the high nibble of the version/flags byte. Readers
/// reject versions they do not know instead of misparsing them.
pub const ENVELOPE_VERSION: u8 = 2;

/// Flag: the envelope carries a [`SpanContext`] (requests).
pub const ENV_SPAN: u8 = 1;
/// Flag: the envelope carries [`ServerTimings`] (replies).
pub const ENV_TIMINGS: u8 = 1 << 1;

/// A parsed frame payload: the correlation id, the optional sections
/// and the inner message bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Envelope<'a> {
    /// Correlation id, echoed on the reply.
    pub corr: u64,
    /// Trace context propagated by the client (requests).
    pub span: Option<SpanContext>,
    /// Server-side phase timings piggybacked by the server (replies).
    pub timings: Option<ServerTimings>,
    /// The encoded inner message.
    pub message: &'a [u8],
}

/// Appends a [`SpanContext`] in its wire form (defined here rather than
/// in `teraphim-obs`, which knows nothing about wire formats).
pub fn put_span_context(out: &mut Vec<u8>, span: &SpanContext) {
    put_uint(out, span.trace_id);
    put_uint(out, u64::from(span.parent_span));
    out.push(span.flags);
}

/// Reads a [`SpanContext`].
///
/// # Errors
///
/// Returns [`NetError::Corrupt`] on truncation or overflow.
pub fn get_span_context(buf: &[u8], pos: &mut usize) -> Result<SpanContext, NetError> {
    let trace_id = get_uint(buf, pos)?;
    let parent_span = u32::try_from(get_uint(buf, pos)?)
        .map_err(|_| NetError::Corrupt("span parent overflow"))?;
    let flags = *buf.get(*pos).ok_or(NetError::Corrupt("span truncated"))?;
    *pos += 1;
    Ok(SpanContext {
        trace_id,
        parent_span,
        flags,
    })
}

/// Appends [`ServerTimings`] in their wire form ([`SERVER_PHASES`]
/// order, v-byte each — all-zero timings cost four bytes).
///
/// [`SERVER_PHASES`]: teraphim_obs::SERVER_PHASES
pub fn put_server_timings(out: &mut Vec<u8>, timings: &ServerTimings) {
    put_uint(out, timings.queue_micros);
    put_uint(out, timings.scan_micros);
    put_uint(out, timings.rank_micros);
    put_uint(out, timings.serialize_micros);
}

/// Reads [`ServerTimings`].
///
/// # Errors
///
/// Returns [`NetError::Corrupt`] on truncation.
pub fn get_server_timings(buf: &[u8], pos: &mut usize) -> Result<ServerTimings, NetError> {
    Ok(ServerTimings {
        queue_micros: get_uint(buf, pos)?,
        scan_micros: get_uint(buf, pos)?,
        rank_micros: get_uint(buf, pos)?,
        serialize_micros: get_uint(buf, pos)?,
    })
}

/// Builds one whole frame in one buffer, for one `write_all` (with
/// `TCP_NODELAY`, a small exchange is one packet): the `u32` length
/// prefix, the envelope head — correlation id, then whichever of trace
/// context and server timings there are — and the message, which
/// `encode` appends in place. `encode` returns the timings a reply
/// carries: measured once the message is encoded, their section is
/// rotated in ahead of it. Returns the frame and the message's length.
pub fn frame(
    corr: u64,
    span: Option<&SpanContext>,
    encode: impl FnOnce(&mut Vec<u8>) -> Option<ServerTimings>,
) -> (Vec<u8>, usize) {
    let mut out = Vec::with_capacity(FRAME_CAPACITY);
    // The prefix is filled in last; `out[5]` is the version/flags byte.
    out.extend_from_slice(&[0, 0, 0, 0, ENVELOPE_TAG, ENVELOPE_VERSION << 4]);
    put_uint(&mut out, corr);
    if let Some(span) = span {
        out[5] |= ENV_SPAN;
        put_span_context(&mut out, span);
    }
    let start = out.len();
    let timings = encode(&mut out);
    let len = out.len() - start;
    if let Some(timings) = timings {
        out[5] |= ENV_TIMINGS;
        put_server_timings(&mut out, &timings);
        let section = out.len() - start - len;
        out[start..].rotate_right(section);
    }
    let payload = (out.len() - 4) as u32;
    out[..4].copy_from_slice(&payload.to_le_bytes());
    (out, len)
}

/// Parses a frame payload into its [`Envelope`].
///
/// # Errors
///
/// Returns [`NetError::Corrupt`] when the payload does not start with
/// [`ENVELOPE_TAG`], announces a version or flag this peer does not
/// know, or is truncated inside the envelope.
pub fn split_envelope(payload: &[u8]) -> Result<Envelope<'_>, NetError> {
    if payload.first() != Some(&ENVELOPE_TAG) {
        return Err(NetError::Corrupt("not an envelope"));
    }
    let vf = *payload
        .get(1)
        .ok_or(NetError::Corrupt("envelope truncated"))?;
    if vf >> 4 != ENVELOPE_VERSION {
        return Err(NetError::Corrupt("unknown envelope version"));
    }
    let flags = vf & 0x0F;
    if flags & !(ENV_SPAN | ENV_TIMINGS) != 0 {
        return Err(NetError::Corrupt("unknown envelope flags"));
    }
    let mut pos = 2;
    let corr = get_uint(payload, &mut pos)?;
    let span = if flags & ENV_SPAN != 0 {
        Some(get_span_context(payload, &mut pos)?)
    } else {
        None
    };
    let timings = if flags & ENV_TIMINGS != 0 {
        Some(get_server_timings(payload, &mut pos)?)
    } else {
        None
    };
    Ok(Envelope {
        corr,
        span,
        timings,
        message: &payload[pos..],
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Appends a length-prefixed frame of any payload, envelope or not.
    pub(crate) fn put_raw_frame(stream: &mut Vec<u8>, payload: &[u8]) {
        stream.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        stream.extend_from_slice(payload);
    }

    /// The frame of an envelope around already encoded `message` bytes.
    pub(crate) fn framed(
        corr: u64,
        span: Option<&SpanContext>,
        timings: Option<ServerTimings>,
        message: &[u8],
    ) -> Vec<u8> {
        frame(corr, span, |out| {
            out.extend_from_slice(message);
            timings
        })
        .0
    }

    #[test]
    fn uint_roundtrip() {
        let mut out = Vec::new();
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            put_uint(&mut out, v);
        }
        let mut pos = 0;
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            assert_eq!(get_uint(&out, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, out.len());
    }

    #[test]
    fn small_uints_are_one_byte() {
        let mut out = Vec::new();
        put_uint(&mut out, 42);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn f64_roundtrip_bit_exact() {
        let mut out = Vec::new();
        for v in [0.0, -1.5, f64::MAX, f64::MIN_POSITIVE, f64::NAN] {
            put_f64(&mut out, v);
        }
        let mut pos = 0;
        for v in [0.0, -1.5, f64::MAX, f64::MIN_POSITIVE, f64::NAN] {
            let got = get_f64(&out, &mut pos).unwrap();
            assert_eq!(got.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn bytes_and_strings_roundtrip() {
        let mut out = Vec::new();
        put_bytes(&mut out, b"hello");
        put_str(&mut out, "wörld");
        put_bytes(&mut out, b"");
        let mut pos = 0;
        assert_eq!(get_bytes(&out, &mut pos).unwrap(), b"hello");
        assert_eq!(get_str(&out, &mut pos).unwrap(), "wörld");
        assert_eq!(get_bytes(&out, &mut pos).unwrap(), b"");
    }

    #[test]
    fn truncation_is_detected() {
        let mut out = Vec::new();
        put_str(&mut out, "hello world");
        for cut in 0..out.len() {
            let mut pos = 0;
            assert!(get_str(&out[..cut], &mut pos).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let mut out = Vec::new();
        put_bytes(&mut out, &[0xFF, 0xFE]);
        let mut pos = 0;
        assert_eq!(
            get_str(&out, &mut pos),
            Err(NetError::Corrupt("string not UTF-8"))
        );
    }

    /// A reader that hands back at most `chunk` bytes per call — the
    /// worst-case TCP segmentation a blocking reader can observe.
    struct ChunkedReader {
        data: Vec<u8>,
        pos: usize,
        chunk: usize,
    }

    impl ChunkedReader {
        fn new(data: Vec<u8>, chunk: usize) -> Self {
            ChunkedReader {
                data,
                pos: 0,
                chunk: chunk.max(1),
            }
        }
    }

    impl Read for ChunkedReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.chunk.min(buf.len()).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// The next frame, owned; `None` on clean EOF.
    fn next<R: Read>(frames: &mut FrameReader<R>) -> Result<Option<Vec<u8>>, NetError> {
        Ok(frames.advance()?.then(|| frames.frame().to_vec()))
    }

    #[test]
    fn frames_roundtrip() {
        let mut buf = Vec::new();
        put_raw_frame(&mut buf, b"hello");
        put_raw_frame(&mut buf, b"");
        let mut frames = FrameReader::new(std::io::Cursor::new(buf));
        assert!(frames.advance().unwrap());
        assert_eq!(frames.frame(), b"hello");
        assert!(frames.advance().unwrap());
        assert_eq!(frames.frame(), b"");
        assert!(!frames.advance().unwrap());
        assert_eq!(frames.frame(), b"");
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut frames = FrameReader::new(std::io::Cursor::new(buf));
        assert!(matches!(
            frames.advance(),
            Err(NetError::Corrupt("frame too large"))
        ));
    }

    /// A `Read` that counts the calls made on it.
    struct Counting<R> {
        inner: R,
        reads: usize,
    }

    impl<R: Read> Read for Counting<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.reads += 1;
            self.inner.read(buf)
        }
    }

    /// A frame whose bytes are all there costs one `read` (a prefix,
    /// then a payload, cost two), and frames that arrived with it cost
    /// none.
    #[test]
    fn a_lone_frame_costs_one_read() {
        let mut stream = Vec::new();
        for corr in 0..3 {
            stream.extend(framed(corr, None, None, b"a request"));
        }
        let lone = stream.len() / 3;
        let mut frames = FrameReader::new(Counting {
            inner: std::io::Cursor::new(stream[..lone].to_vec()),
            reads: 0,
        });
        assert!(frames.advance().unwrap());
        assert_eq!(frames.source.reads, 1);

        let mut frames = FrameReader::new(Counting {
            inner: std::io::Cursor::new(stream),
            reads: 0,
        });
        for corr in 0..3 {
            assert!(frames.advance().unwrap());
            assert_eq!(split_envelope(frames.frame()).unwrap().corr, corr);
        }
        assert_eq!(frames.source.reads, 1, "three pipelined frames, one read");
        assert!(!frames.advance().unwrap());
    }

    /// The buffer a large frame grew is given back once the frame has
    /// been consumed, not kept for the connection's lifetime.
    #[test]
    fn a_large_frame_does_not_pin_its_buffer() {
        let big = vec![7u8; 1 << 20];
        let mut stream = Vec::new();
        put_raw_frame(&mut stream, &big);
        put_raw_frame(&mut stream, b"small");
        let mut frames = FrameReader::new(std::io::Cursor::new(stream));
        assert!(frames.advance().unwrap());
        assert_eq!(frames.frame(), &big[..]);
        assert!(frames.advance().unwrap());
        assert_eq!(frames.frame(), b"small");
        assert_eq!(frames.buf.capacity(), FRAME_BUFFER);
        assert!(!frames.advance().unwrap());
    }

    #[test]
    fn split_frames_reassemble_at_every_chunk_size() {
        let payloads: [&[u8]; 4] = [b"first", b"", b"a much longer third frame payload", b"x"];
        let mut stream = Vec::new();
        for p in payloads {
            put_raw_frame(&mut stream, p);
        }
        // Every chunk size from one byte up must reassemble identically —
        // the length prefix itself may arrive split across reads.
        for chunk in 1..=stream.len() {
            let mut frames = FrameReader::new(ChunkedReader::new(stream.clone(), chunk));
            for p in payloads {
                assert_eq!(
                    next(&mut frames).unwrap().as_deref(),
                    Some(p),
                    "chunk size {chunk}"
                );
            }
            assert_eq!(next(&mut frames).unwrap(), None, "chunk size {chunk}");
        }
    }

    #[test]
    fn eof_mid_frame_is_an_error_not_a_clean_close() {
        let mut stream = Vec::new();
        put_raw_frame(&mut stream, b"whole frame");
        // Truncate anywhere after the first byte: the reader must
        // distinguish a torn frame from EOF at a boundary.
        for cut in 1..stream.len() {
            let mut frames = FrameReader::new(ChunkedReader::new(stream[..cut].to_vec(), 3));
            assert!(
                matches!(frames.advance(), Err(NetError::Io(ref e)) if e.kind() == std::io::ErrorKind::UnexpectedEof),
                "cut {cut}"
            );
        }
    }

    /// A peer that claims a 64 MiB frame, sends 10 bytes and hangs up
    /// must not get 64 MiB allocated for it.
    #[test]
    fn a_length_prefix_alone_buys_no_allocation() {
        struct Liar {
            data: Vec<u8>,
            pos: usize,
            largest_buffer: usize,
        }
        impl Read for Liar {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                self.largest_buffer = self.largest_buffer.max(buf.len());
                let n = buf.len().min(self.data.len() - self.pos);
                buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
                self.pos += n;
                Ok(n)
            }
        }
        let mut data = (64u32 << 20).to_le_bytes().to_vec();
        data.extend_from_slice(&[7; 10]);
        let mut r = Liar {
            data,
            pos: 0,
            largest_buffer: 0,
        };
        let mut frames = FrameReader::new(&mut r);
        match frames.advance() {
            Err(NetError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
            other => panic!("a torn frame must be an I/O error: {other:?}"),
        }
        assert!(
            frames.buf.len() <= 14 + FRAME_PREALLOC,
            "reserved {} bytes for 14",
            frames.buf.len()
        );
        assert_eq!(r.pos, r.data.len(), "everything sent was read");
        assert!(
            r.largest_buffer <= FRAME_PREALLOC,
            "handed a {} byte buffer",
            r.largest_buffer
        );
    }

    #[test]
    fn back_to_back_pipelined_messages_parse_in_order() {
        use crate::message::Message;
        // Three pipelined requests written back-to-back, as a
        // multiplexing client does without waiting for replies.
        let messages: Vec<Message> = (0..3)
            .map(|i| Message::RankRequest {
                query_id: i,
                k: 5,
                terms: vec![(format!("term{i}"), i + 1)],
            })
            .collect();
        let mut stream = Vec::new();
        for (i, m) in messages.iter().enumerate() {
            let (frame, len) = frame(i as u64 + 7, None, |out| {
                m.encode_into(out);
                None
            });
            assert_eq!(len, m.wire_len());
            stream.extend(frame);
        }
        // Deliver one byte at a time: framing must still find every
        // message boundary.
        let mut frames = FrameReader::new(ChunkedReader::new(stream, 1));
        for (i, m) in messages.iter().enumerate() {
            assert!(frames.advance().unwrap());
            let env = split_envelope(frames.frame()).unwrap();
            assert_eq!(env.corr, i as u64 + 7);
            assert_eq!(&Message::decode(env.message).unwrap(), m);
        }
        assert!(!frames.advance().unwrap());
    }

    /// The envelope contract, one table: every section combination
    /// round-trips, and everything that is not a whole envelope of the
    /// known version is a typed `Corrupt` — never a misparse.
    #[test]
    fn envelope_contract() {
        let span = SpanContext::sampled(u64::MAX, 7);
        let timings = ServerTimings {
            queue_micros: 1_000_000,
            scan_micros: 0,
            rank_micros: 42,
            serialize_micros: 300,
        };
        for corr in [0u64, 300, u64::MAX] {
            for s in [None, Some(span)] {
                for t in [None, Some(timings)] {
                    let frame = framed(corr, s.as_ref(), t, b"inner message");
                    let payload = &frame[4..];
                    assert_eq!(frame[..4], (payload.len() as u32).to_le_bytes());
                    let want = Envelope {
                        corr,
                        span: s,
                        timings: t,
                        message: b"inner message",
                    };
                    assert_eq!(split_envelope(payload), Ok(want));
                    // Cut anywhere inside the sections (the message
                    // itself is opaque here): truncated, not shorter.
                    let sections = payload.len() - want.message.len();
                    for cut in 0..sections {
                        assert!(
                            matches!(split_envelope(&payload[..cut]), Err(NetError::Corrupt(_))),
                            "corr {corr} span {s:?} timings {t:?} cut {cut}"
                        );
                    }
                }
            }
        }
        // The sectionless envelope is three bytes of framing.
        assert_eq!(framed(5, None, None, b"m").len(), 4 + 3 + 1);

        let rejected: [(&str, &[u8], &str); 5] = [
            ("empty payload", &[], "not an envelope"),
            ("bare message", &[1, 2, 3], "not an envelope"),
            ("PR 6 mux frame", &[0x80, 5, 1], "not an envelope"),
            (
                "PR 9 v1 envelope",
                &[ENVELOPE_TAG, (1 << 4) | 1, 5, 1],
                "unknown envelope version",
            ),
            (
                "unannounced section",
                &[ENVELOPE_TAG, (ENVELOPE_VERSION << 4) | (1 << 2), 5, 1],
                "unknown envelope flags",
            ),
        ];
        for (what, payload, why) in rejected {
            assert_eq!(
                split_envelope(payload),
                Err(NetError::Corrupt(why)),
                "{what}"
            );
        }
    }

    #[test]
    fn span_and_timings_sections_roundtrip_standalone() {
        let mut out = Vec::new();
        let span = SpanContext {
            trace_id: 1 << 40,
            parent_span: u32::MAX,
            flags: 0,
        };
        put_span_context(&mut out, &span);
        let timings = ServerTimings::default();
        put_server_timings(&mut out, &timings);
        let mut pos = 0;
        assert_eq!(get_span_context(&out, &mut pos).unwrap(), span);
        assert_eq!(get_server_timings(&out, &mut pos).unwrap(), timings);
        assert_eq!(pos, out.len());
        // All-zero timings cost four bytes on the wire.
        let mut zeros = Vec::new();
        put_server_timings(&mut zeros, &ServerTimings::default());
        assert_eq!(zeros.len(), 4);
    }
}
