//! Property tests hardening the length-prefixed frame decoder against
//! hostile or corrupt peers: arbitrary byte soup, truncation at every
//! boundary, and adversarial length prefixes must all yield a structured
//! [`FrameError`] — never a panic, and never an allocation driven by a
//! length the peer merely *declared* rather than sent.

use kg_core::{read_frame, write_frame, Codec, FrameError, FRAME_MAGIC, MAX_FRAME_LEN};
use proptest::prelude::*;
use std::io::Cursor;

/// Builds a well-formed frame for `payload`.
fn encode(payload: &[u8]) -> Vec<u8> {
    let mut wire = Vec::new();
    write_frame(&mut wire, Codec::Binary, payload).unwrap();
    wire
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Arbitrary bytes never panic the decoder: every outcome is either a
    /// successfully decoded frame (possible when the soup happens to start
    /// with a valid header) or one of the structured error variants.
    #[test]
    fn arbitrary_bytes_decode_to_structured_outcomes(
        bytes in prop::collection::vec(0u8..=255, 0..512),
    ) {
        match read_frame(&mut Cursor::new(&bytes)) {
            Ok((_, payload)) => prop_assert!(payload.len() <= bytes.len()),
            Err(
                FrameError::BadMagic(_)
                | FrameError::UnknownCodec(_)
                | FrameError::Oversized { .. }
                | FrameError::Truncated { .. },
            ) => {}
            Err(FrameError::Io(e)) => {
                prop_assert!(false, "in-memory reads cannot fail with i/o: {e}");
            }
        }
    }

    /// A well-formed frame cut anywhere before its end is always reported
    /// as `Truncated`, and the error's byte accounting is consistent:
    /// fewer bytes arrived than the decoder still expected.
    #[test]
    fn truncation_at_every_boundary_is_structured(
        payload in prop::collection::vec(0u8..=255, 0..256),
        cut_pick in 0usize..1 << 20,
    ) {
        let wire = encode(&payload);
        let cut = cut_pick % wire.len(); // 0..wire.len(): always short
        match read_frame(&mut Cursor::new(&wire[..cut])) {
            Err(FrameError::Truncated { expected, got }) => {
                prop_assert!(got < expected, "{got} >= {expected}");
            }
            other => prop_assert!(false, "cut at {cut}: expected Truncated, got {other:?}"),
        }
    }

    /// A round trip through write + read is lossless.
    #[test]
    fn round_trip_is_lossless(
        payload in prop::collection::vec(0u8..=255, 0..2048),
    ) {
        let wire = encode(&payload);
        let (got_codec, got_payload) = read_frame(&mut Cursor::new(&wire)).unwrap();
        prop_assert_eq!(got_codec, Codec::Binary);
        prop_assert_eq!(got_payload, payload);
    }

    /// A hostile length prefix (any value past the cap) is rejected from
    /// the 9 header bytes alone — before any payload allocation — even when
    /// the stream carries no payload at all.
    #[test]
    fn oversized_length_prefix_is_rejected_from_the_header(
        declared in (MAX_FRAME_LEN as u32 + 1)..=u32::MAX,
    ) {
        let mut wire = Vec::from(FRAME_MAGIC);
        wire.push(Codec::Binary.to_byte());
        wire.extend_from_slice(&declared.to_le_bytes());
        match read_frame(&mut Cursor::new(&wire)) {
            Err(FrameError::Oversized { declared: d, max }) => {
                prop_assert_eq!(d, u64::from(declared));
                prop_assert_eq!(max, MAX_FRAME_LEN as u64);
            }
            other => prop_assert!(false, "expected Oversized, got {other:?}"),
        }
    }

    /// An in-cap length prefix that overstates the bytes actually sent
    /// yields `Truncated` whose byte accounting tracks received bytes:
    /// the decoder stops at what arrived rather than trusting the header.
    #[test]
    fn overstated_length_cannot_allocate_past_received_bytes(
        sent in prop::collection::vec(0u8..=255, 0..128),
        extra in 1u32..4096,
    ) {
        let declared = sent.len() as u32 + extra;
        let mut wire = Vec::from(FRAME_MAGIC);
        wire.push(Codec::Binary.to_byte());
        wire.extend_from_slice(&declared.to_le_bytes());
        wire.extend_from_slice(&sent);
        match read_frame(&mut Cursor::new(&wire)) {
            Err(FrameError::Truncated { expected, got }) => {
                prop_assert!(got <= sent.len());
                prop_assert!(expected <= declared as usize);
            }
            other => prop_assert!(false, "expected Truncated, got {other:?}"),
        }
    }

    /// Any codec byte but the binary one — byte 0 of the retired JSON
    /// codec included — is always `UnknownCodec` naming the byte, provided
    /// the magic matched and the header is complete.
    #[test]
    fn unknown_codec_byte_is_named(
        codec_byte in 0u8..=u8::MAX,
        len in 0u32..1024,
    ) {
        if codec_byte != Codec::Binary.to_byte() {
            let mut wire = Vec::from(FRAME_MAGIC);
            wire.push(codec_byte);
            wire.extend_from_slice(&len.to_le_bytes());
            match read_frame(&mut Cursor::new(&wire)) {
                Err(FrameError::UnknownCodec(b)) => prop_assert_eq!(b, codec_byte),
                other => prop_assert!(false, "expected UnknownCodec, got {other:?}"),
            }
        }
    }

    /// Any corruption of the four magic bytes is detected as `BadMagic`
    /// echoing exactly what was received. (The 2^-32 case where the random
    /// bytes spell the real magic is skipped rather than assumed away.)
    #[test]
    fn corrupted_magic_is_echoed(
        magic in (0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255),
        rest in prop::collection::vec(0u8..=255, 5..64),
    ) {
        let magic = [magic.0, magic.1, magic.2, magic.3];
        if magic != FRAME_MAGIC {
            let mut wire = Vec::from(magic);
            wire.extend_from_slice(&rest);
            match read_frame(&mut Cursor::new(&wire)) {
                Err(FrameError::BadMagic(got)) => prop_assert_eq!(got, magic),
                other => prop_assert!(false, "expected BadMagic, got {other:?}"),
            }
        }
    }
}

/// A frame leaves in one `write`, header and payload together, and the
/// bytes are the pinned layout: on a kept connection two small writes
/// followed by a read is what Nagle and delayed ACK stall.
#[test]
fn a_frame_is_written_in_one_write() {
    /// Accepts whatever it is handed, and remembers each hand-over.
    struct Writes(Vec<Vec<u8>>);
    impl std::io::Write for Writes {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let mut writes = Writes(Vec::new());
    write_frame(&mut writes, Codec::Binary, b"payload").unwrap();
    let mut expected = Vec::from(FRAME_MAGIC);
    expected.push(1);
    expected.extend_from_slice(&7u32.to_le_bytes());
    expected.extend_from_slice(b"payload");
    assert_eq!(writes.0, [expected]);
}
