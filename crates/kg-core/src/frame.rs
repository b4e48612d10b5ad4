//! Length-prefixed wire framing for the distributed shard protocol.
//!
//! A frame is the unit the coordinator and `kg-shard` servers exchange on
//! a connection: a fixed 9-byte header — magic `"KGF1"`, one codec byte,
//! a `u32` little-endian payload length — followed by the payload bytes.
//! The payload is always [`Codec::Binary`], a compact field-ordered
//! encoding; any other codec byte is rejected at the frame boundary.
//!
//! The decoder fails closed: a bad magic, an unknown codec byte, a length
//! past [`MAX_FRAME_LEN`], or a connection that ends mid-frame all become
//! structured [`FrameError`]s, never panics. A hostile length prefix
//! cannot force a large allocation — the length is validated against the
//! cap before any payload buffer exists, and the payload is then read in
//! bounded chunks so a peer that lies about the length costs at most one
//! chunk of memory beyond the bytes it actually sent.
//!
//! [`ByteWriter`] and [`ByteReader`] are the primitives binary payloads
//! are built from: fixed-width little-endian integers, `f64` as IEEE-754
//! bits (so values — including NaN and infinities — round-trip bitwise),
//! and length-prefixed strings/sequences whose declared lengths are
//! checked against the bytes actually present before allocating.

use std::fmt;
use std::io::{self, Read, Write};

/// The 4-byte magic that opens every frame.
pub const FRAME_MAGIC: [u8; 4] = *b"KGF1";

/// Hard cap on a frame payload (64 MiB). Per-round shard messages are
/// kilobytes; anything near this cap is a corrupt or hostile peer.
pub const MAX_FRAME_LEN: usize = 64 * 1024 * 1024;

/// Payload bytes are read in chunks of this size, so a length prefix that
/// overstates the payload cannot reserve more than one chunk beyond the
/// bytes the peer actually sent.
const READ_CHUNK: usize = 64 * 1024;

/// The frame header's payload-format tag.
///
/// One format exists, so the tag only ever reads [`Codec::Binary`]. It
/// stays a parameter of [`write_frame`], [`read_frame`] and the shard
/// protocol's `encode`/`decode` because it is a header field, and because
/// the benchmark in `kg-ledger/` calls those functions with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    /// The compact field-ordered binary encoding (on-wire byte 1).
    Binary,
}

impl Codec {
    /// The codec's on-wire byte.
    pub fn to_byte(self) -> u8 {
        match self {
            Codec::Binary => 1,
        }
    }

    /// Decodes an on-wire codec byte; unknown values are an error, not a
    /// default, so a skewed peer is detected at the frame boundary.
    pub fn from_byte(b: u8) -> Result<Self, FrameError> {
        match b {
            1 => Ok(Codec::Binary),
            other => Err(FrameError::UnknownCodec(other)),
        }
    }
}

/// Why a frame could not be read or written. Every variant names what the
/// decoder saw so transport-level logs can distinguish a truncated
/// connection from a hostile or skewed peer.
#[derive(Debug)]
pub enum FrameError {
    /// The first four bytes were not [`FRAME_MAGIC`] — the peer is not
    /// speaking this protocol (or the stream lost sync).
    BadMagic([u8; 4]),
    /// The codec byte was not a known [`Codec`].
    UnknownCodec(u8),
    /// The declared payload length exceeds [`MAX_FRAME_LEN`].
    Oversized {
        /// The length the header declared.
        declared: u64,
        /// The cap it exceeded.
        max: u64,
    },
    /// The stream ended before the declared frame was complete.
    Truncated {
        /// Bytes the frame (header + payload) still owed.
        expected: usize,
        /// Bytes actually received for the incomplete portion.
        got: usize,
    },
    /// Underlying I/O failure (connection reset, timeout, …).
    Io(io::Error),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::BadMagic(bytes) => {
                write!(f, "bad frame magic {bytes:?} (expected {FRAME_MAGIC:?})")
            }
            FrameError::UnknownCodec(b) => write!(f, "unknown frame codec byte {b}"),
            FrameError::Oversized { declared, max } => {
                write!(f, "frame length {declared} exceeds cap {max}")
            }
            FrameError::Truncated { expected, got } => {
                write!(
                    f,
                    "truncated frame: expected {expected} more bytes, got {got}"
                )
            }
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FrameError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes one frame (header + payload) to `w`. Fails with
/// [`FrameError::Oversized`] before touching the stream if the payload
/// exceeds [`MAX_FRAME_LEN`].
///
/// Header and payload leave in **one** `write`: on a connection that is
/// kept between requests, a small header segment followed by a small
/// payload segment and then a read is the write-write-read pattern that
/// Nagle's algorithm and delayed ACK turn into a 40 ms stall.
pub fn write_frame(w: &mut impl Write, codec: Codec, payload: &[u8]) -> Result<(), FrameError> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(FrameError::Oversized {
            declared: payload.len() as u64,
            max: MAX_FRAME_LEN as u64,
        });
    }
    let mut frame = Vec::with_capacity(9 + payload.len());
    frame.extend_from_slice(&FRAME_MAGIC);
    frame.push(codec.to_byte());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Reads exactly `buf.len()` bytes, mapping a clean EOF mid-read to
/// [`FrameError::Truncated`] so callers see one structured shape for
/// "the peer stopped talking mid-frame".
fn read_exact_or_truncated(r: &mut impl Read, buf: &mut [u8]) -> Result<(), FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(FrameError::Truncated {
                    expected: buf.len(),
                    got: filled,
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    Ok(())
}

/// Reads one frame from `r`, returning the codec and payload bytes.
///
/// The header is validated (magic, codec, length cap) before any payload
/// allocation; the payload is then read in `READ_CHUNK`-sized steps, so
/// memory consumption tracks bytes actually received, not the declared
/// length.
pub fn read_frame(r: &mut impl Read) -> Result<(Codec, Vec<u8>), FrameError> {
    let mut header = [0u8; 9];
    read_exact_or_truncated(r, &mut header)?;
    if header[..4] != FRAME_MAGIC {
        return Err(FrameError::BadMagic([
            header[0], header[1], header[2], header[3],
        ]));
    }
    let codec = Codec::from_byte(header[4])?;
    let len = u32::from_le_bytes([header[5], header[6], header[7], header[8]]) as usize;
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversized {
            declared: len as u64,
            max: MAX_FRAME_LEN as u64,
        });
    }
    let mut payload = Vec::new();
    while payload.len() < len {
        let chunk = READ_CHUNK.min(len - payload.len());
        let start = payload.len();
        payload.resize(start + chunk, 0);
        if let Err(e) = read_exact_or_truncated(r, &mut payload[start..]) {
            return Err(match e {
                FrameError::Truncated { got, .. } => FrameError::Truncated {
                    expected: len - start,
                    got,
                },
                other => other,
            });
        }
    }
    Ok((codec, payload))
}

/// Where in a binary payload decoding failed, and why. Produced by
/// [`ByteReader`]; never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset into the payload where the failure was detected.
    pub offset: usize,
    /// What was expected or what was malformed.
    pub message: String,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "binary decode error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for DecodeError {}

/// Builds a binary payload: fixed-width little-endian primitives and
/// length-prefixed variable-size fields, in the field order the matching
/// [`ByteReader`] calls replay.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (little-endian), so
    /// every value — NaN payloads included — round-trips bitwise.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a string as a `u32` byte length followed by its UTF-8 bytes.
    pub fn put_str(&mut self, v: &str) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Appends a sequence length prefix (`u32`); the caller then appends
    /// that many elements.
    pub fn put_len(&mut self, len: usize) {
        self.put_u32(len as u32);
    }

    /// The finished payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Decodes a binary payload written by [`ByteWriter`]. Every read is
/// bounds-checked against the bytes actually present: a declared string or
/// sequence length larger than the remaining buffer is a [`DecodeError`],
/// never an allocation of the declared size.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, positioned at its start.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn err(&self, message: impl Into<String>) -> DecodeError {
        DecodeError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(self.err(format!(
                "{what}: need {n} bytes, only {} remain",
                self.remaining()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a bool; any byte other than 0 or 1 is an error.
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.take(1, "bool")?[0] {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(DecodeError {
                offset: self.pos - 1,
                message: format!("bool: invalid byte {other}"),
            }),
        }
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed UTF-8 string. The declared length is
    /// checked against the remaining bytes before any copy, and the bytes
    /// must be valid UTF-8.
    pub fn str(&mut self) -> Result<String, DecodeError> {
        let len = self.u32()? as usize;
        if len > self.remaining() {
            return Err(self.err(format!(
                "string length {len} exceeds remaining {} bytes",
                self.remaining()
            )));
        }
        let offset = self.pos;
        let bytes = self.take(len, "string bytes")?;
        String::from_utf8(bytes.to_vec()).map_err(|e| DecodeError {
            offset,
            message: format!("invalid utf-8 in string: {e}"),
        })
    }

    /// Reads a sequence length prefix and validates that `len *
    /// min_elem_bytes` elements could actually fit in the remaining
    /// buffer, so a hostile count cannot pre-size a huge `Vec`.
    pub fn len(&mut self, min_elem_bytes: usize, what: &str) -> Result<usize, DecodeError> {
        let len = self.u32()? as usize;
        let need = len.saturating_mul(min_elem_bytes.max(1));
        if need > self.remaining() {
            return Err(self.err(format!(
                "{what}: declared {len} elements (≥ {need} bytes) but only {} bytes remain",
                self.remaining()
            )));
        }
        Ok(len)
    }

    /// Fails unless the whole payload was consumed — trailing garbage
    /// after a well-formed message is a skewed peer, not padding.
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.remaining() != 0 {
            return Err(DecodeError {
                offset: self.pos,
                message: format!("{} trailing bytes after message", self.remaining()),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_round_trip_both_codecs() {
        let payload = b"{\"kind\":\"ping\"}".to_vec();
        let mut wire = Vec::new();
        write_frame(&mut wire, Codec::Binary, &payload).unwrap();
        let (got_codec, got) = read_frame(&mut Cursor::new(&wire)).unwrap();
        assert_eq!(got_codec, Codec::Binary);
        assert_eq!(got, payload);
    }

    #[test]
    fn empty_payload_round_trips() {
        let mut wire = Vec::new();
        write_frame(&mut wire, Codec::Binary, &[]).unwrap();
        let (_, got) = read_frame(&mut Cursor::new(&wire)).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn bad_magic_is_structured() {
        let wire = b"NOPE\x00\x00\x00\x00\x00".to_vec();
        match read_frame(&mut Cursor::new(&wire)) {
            Err(FrameError::BadMagic(m)) => assert_eq!(&m, b"NOPE"),
            other => panic!("expected BadMagic, got {other:?}"),
        }
    }

    #[test]
    fn unknown_codec_is_structured() {
        for byte in [0, 9] {
            let mut wire = Vec::new();
            wire.extend_from_slice(&FRAME_MAGIC);
            wire.push(byte);
            wire.extend_from_slice(&0u32.to_le_bytes());
            match read_frame(&mut Cursor::new(&wire)) {
                Err(FrameError::UnknownCodec(b)) if b == byte => {}
                other => panic!("expected UnknownCodec({byte}), got {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&FRAME_MAGIC);
        wire.push(1);
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        match read_frame(&mut Cursor::new(&wire)) {
            Err(FrameError::Oversized { declared, max }) => {
                assert_eq!(declared, u64::from(u32::MAX));
                assert_eq!(max, MAX_FRAME_LEN as u64);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn truncated_header_and_payload_are_structured() {
        // Header cut short.
        match read_frame(&mut Cursor::new(b"KGF1\x00".to_vec())) {
            Err(FrameError::Truncated {
                expected: 9,
                got: 5,
            }) => {}
            other => panic!("expected Truncated header, got {other:?}"),
        }
        // Payload cut short: declares 10 bytes, sends 3.
        let mut wire = Vec::new();
        wire.extend_from_slice(&FRAME_MAGIC);
        wire.push(1);
        wire.extend_from_slice(&10u32.to_le_bytes());
        wire.extend_from_slice(b"abc");
        match read_frame(&mut Cursor::new(&wire)) {
            Err(FrameError::Truncated {
                expected: 10,
                got: 3,
            }) => {}
            other => panic!("expected Truncated payload, got {other:?}"),
        }
    }

    #[test]
    fn byte_primitives_round_trip_including_nan() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX);
        w.put_f64(f64::NAN);
        w.put_f64(-0.0);
        w.put_str("stratum κ");
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.f64().unwrap().to_bits(), f64::NAN.to_bits());
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.str().unwrap(), "stratum κ");
        r.finish().unwrap();
    }

    #[test]
    fn hostile_lengths_do_not_allocate() {
        // String claiming 4 GiB of content in a 10-byte buffer.
        let mut w = ByteWriter::new();
        w.put_u32(u32::MAX);
        w.put_u8(0);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.str().is_err());

        // Sequence claiming u32::MAX 8-byte elements.
        let mut w = ByteWriter::new();
        w.put_len(u32::MAX as usize);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.len(8, "draws").is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut w = ByteWriter::new();
        w.put_u32(1);
        w.put_u8(0xFF);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        r.u32().unwrap();
        assert!(r.finish().is_err());
    }

    #[test]
    fn invalid_bool_and_utf8_are_errors() {
        let mut r = ByteReader::new(&[2]);
        assert!(r.bool().is_err());

        let mut w = ByteWriter::new();
        w.put_u32(2);
        w.put_u8(0xFF);
        w.put_u8(0xFE);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.str().is_err());
    }
}
