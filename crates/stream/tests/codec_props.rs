//! Property-based tests of the wire codec: arbitrary events and record sequences must
//! survive the JSON round-trip, and the frame decoder must reassemble any chunking of
//! the byte stream — the wire never guarantees record-aligned reads.
//!
//! The binary codec is pinned *differentially* against the JSON codec: for any
//! record sequence, decoding the binary encoding and decoding the JSON encoding
//! must produce identical records (timestamps bit-for-bit), under any chunking,
//! and even when the two frame formats are interleaved on a single stream.
//!
//! The last two properties are the hostile-input net: generated garbage and
//! mutated valid streams must end in a record or an error, never a panic.

use dlrv_ltl::Assignment;
use dlrv_stream::wire::write_frame;
use dlrv_stream::{
    encode_frame, encode_stream, encode_stream_binary, event_from_binary, event_from_json,
    event_to_binary, event_to_json, record_from_json, record_to_json, BinaryStreamEncoder,
    FrameDecoder, Reader, StreamRecord,
};
use dlrv_vclock::{Event, EventKind, VectorClock};
use proptest::prelude::*;

/// SplitMix64 step: expands one seed into a reproducible pseudo-random sequence.
fn mix(seed: &mut u64) -> u64 {
    *seed = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_mul(0xBF58_476D_1CE4_E5B9);
    *seed >> 17
}

/// Builds an arbitrary (but internally consistent) event from a seed.
fn event_from_seed(mut seed: u64) -> Event {
    let n = 2 + (mix(&mut seed) % 6) as usize;
    let process = (mix(&mut seed) % n as u64) as usize;
    let kind = match mix(&mut seed) % 4 {
        0 => EventKind::Internal,
        1 => EventKind::Send {
            to: (process + 1) % n,
            msg_id: mix(&mut seed),
        },
        2 => EventKind::Broadcast {
            msg_id: mix(&mut seed),
        },
        _ => EventKind::Receive {
            from: (process + 1) % n,
            msg_id: mix(&mut seed),
        },
    };
    let entries: Vec<u64> = (0..n).map(|_| mix(&mut seed) % 1000).collect();
    let sn = entries[process].max(1);
    // Times are arbitrary finite doubles; dlrv-json prints shortest round-trip form.
    let time = (mix(&mut seed) % 1_000_000) as f64 * 0.001 + (mix(&mut seed) % 997) as f64 * 1e-9;
    Event {
        process,
        kind,
        sn,
        vc: VectorClock::from_entries(entries),
        state: Assignment(mix(&mut seed)),
        time,
    }
}

/// Builds an arbitrary record from a seed.
fn record_from_seed(mut seed: u64) -> StreamRecord {
    let session = mix(&mut seed);
    match mix(&mut seed) % 3 {
        0 => StreamRecord::Open {
            session,
            property: format!("prop-{}", mix(&mut seed) % 26),
            n_processes: 2 + (mix(&mut seed) % 6) as usize,
            initial_state: mix(&mut seed),
        },
        1 => StreamRecord::Event {
            session,
            event: event_from_seed(mix(&mut seed)),
        },
        _ => StreamRecord::Close { session },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn arbitrary_events_round_trip_exactly(seed in 0u64..1 << 48) {
        let event = event_from_seed(seed);
        let back = event_from_json(&event_to_json(&event))
            .map_err(|e| format!("{e}"))
            .unwrap();
        // Bit-for-bit: the timestamp float included.
        prop_assert_eq!(&back, &event);
        prop_assert_eq!(back.time.to_bits(), event.time.to_bits());
    }

    #[test]
    fn arbitrary_records_round_trip(seed in 0u64..1 << 48) {
        let record = record_from_seed(seed);
        let json = record_to_json(&record);
        let back = record_from_json(&json).map_err(|e| format!("{e}")).unwrap();
        prop_assert_eq!(back, record);
    }

    #[test]
    fn framed_streams_survive_arbitrary_chunking(
        seed in 0u64..1 << 48,
        n_records in 1usize..20,
        chunk_seed in 1u64..1 << 32,
    ) {
        let records: Vec<StreamRecord> =
            (0..n_records).map(|i| record_from_seed(seed.wrapping_add(i as u64 * 7919))).collect();
        let bytes = encode_stream(&records);

        // The whole stream decodes, with no trailing bytes, however it is sliced.
        let mut s = chunk_seed;
        prop_assert_eq!(decode_chunked(&bytes, &mut s), (records, Ok(0)));
    }

    /// Differential event codec: for any event, the binary round-trip must land on
    /// exactly the same event as the JSON round-trip — timestamp bits included —
    /// and the binary decoder must consume exactly the bytes the encoder wrote.
    #[test]
    fn binary_and_json_event_codecs_agree(seed in 0u64..1 << 48) {
        let event = event_from_seed(seed);
        let mut buf = Vec::new();
        event_to_binary(&event, &mut buf);
        let mut r = Reader::new(&buf);
        let via_binary = event_from_binary(&mut r).map_err(|e| format!("{e}"))?;
        prop_assert!(r.finish().is_ok(), "binary decoder must consume the whole encoding");
        let via_json = event_from_json(&event_to_json(&event)).map_err(|e| format!("{e}"))?;
        prop_assert_eq!(&via_binary, &via_json);
        prop_assert_eq!(&via_binary, &event);
        prop_assert_eq!(via_binary.time.to_bits(), event.time.to_bits());
    }

    /// Differential stream codec under arbitrary chunking: the binary encoding of
    /// a record sequence, sliced into pseudo-random chunks, must decode to exactly
    /// the records the JSON encoding decodes to.  Also pins the size win: the
    /// binary stream must never be larger than the JSON stream.
    #[test]
    fn binary_framed_streams_decode_identically_to_json(
        seed in 0u64..1 << 48,
        n_records in 1usize..20,
        chunk_seed in 1u64..1 << 32,
    ) {
        let records: Vec<StreamRecord> =
            (0..n_records).map(|i| record_from_seed(seed.wrapping_add(i as u64 * 7919))).collect();
        let json_bytes = encode_stream(&records);
        let binary_bytes = encode_stream_binary(&records);
        prop_assert!(
            binary_bytes.len() <= json_bytes.len(),
            "binary stream ({} B) larger than JSON stream ({} B)",
            binary_bytes.len(),
            json_bytes.len()
        );

        let mut via_json = Vec::new();
        let mut decoder = FrameDecoder::new();
        decoder.push(&json_bytes);
        while let Some(r) = decoder.next_record().map_err(|e| format!("{e}"))? {
            via_json.push(r);
        }

        let mut s = chunk_seed;
        let (via_binary, end) = decode_chunked(&binary_bytes, &mut s);
        prop_assert_eq!(end, Ok(0));
        prop_assert_eq!(&via_binary, &via_json);
        prop_assert_eq!(via_binary, records);
    }

    /// Mixed-format streams: each record independently picks the JSON or the
    /// binary framing (the decoder autodetects per frame via the header bit), the
    /// concatenation is sliced into arbitrary chunks, and the decoder must still
    /// reproduce every record in order.  This is the exact shape a connection
    /// takes when the wire format is renegotiated mid-stream.
    #[test]
    fn mixed_binary_and_json_frames_survive_arbitrary_chunking(
        seed in 0u64..1 << 48,
        n_records in 1usize..20,
        chunk_seed in 1u64..1 << 32,
    ) {
        let records: Vec<StreamRecord> =
            (0..n_records).map(|i| record_from_seed(seed.wrapping_add(i as u64 * 7919))).collect();
        let mut s = chunk_seed;
        let mut encoder = BinaryStreamEncoder::new();
        let mut bytes = Vec::new();
        for record in &records {
            if mix(&mut s).is_multiple_of(2) {
                bytes.extend(encode_frame(record));
            } else {
                encoder.encode_frame_into(record, &mut bytes);
            }
        }

        prop_assert_eq!(decode_chunked(&bytes, &mut s), (records, Ok(0)));
    }

    /// Hostile input, generated: arbitrary bytes — raw, and behind a well-formed
    /// header of either format so the payload decoders see them — end in a
    /// record or an error, never a panic.
    #[test]
    fn arbitrary_bytes_never_panic_the_frame_decoder(seed in 0u64..1 << 48) {
        let mut s = seed;
        let len = (mix(&mut s) % 256) as usize;
        let noise: Vec<u8> = (0..len).map(|_| mix(&mut s) as u8).collect();
        let _ = decode_chunked(&noise, &mut s);
        for binary in [false, true] {
            let mut framed = Vec::new();
            write_frame(&mut framed, binary, |out| out.extend_from_slice(&noise));
            prop_assert!(decode_chunked(&framed, &mut s).0.len() <= 1);
        }
    }

    /// Hostile input, mutated: at every position of a valid mixed-format stream
    /// (headers included), a flipped byte, a truncation, and the byte replaced
    /// by a varint claiming 2²⁷ (what a corrupted length prefix looks like) all
    /// end in records or an error, and every frame that ends before the damage
    /// still decodes to its record.
    #[test]
    fn mutated_streams_decode_or_error(seed in 0u64..1 << 48, n_records in 1usize..6) {
        let mut s = seed;
        let records: Vec<StreamRecord> =
            (0..n_records).map(|i| record_from_seed(seed.wrapping_add(i as u64 * 7919))).collect();
        let mut encoder = BinaryStreamEncoder::new();
        let mut bytes = Vec::new();
        let mut frame_ends = Vec::new();
        for (i, record) in records.iter().enumerate() {
            if i % 3 == 2 {
                bytes.extend(encode_frame(record));
            } else {
                encoder.encode_frame_into(record, &mut bytes);
            }
            frame_ends.push(bytes.len());
        }
        prop_assert_eq!(decode_chunked(&bytes, &mut s), (records.clone(), Ok(0)));
        for i in 0..bytes.len() {
            let intact = frame_ends.iter().filter(|&&end| end <= i).count();
            let mut flipped = bytes.clone();
            flipped[i] ^= 1 + (mix(&mut s) % 255) as u8;
            let mut inflated = bytes[..i].to_vec();
            inflated.extend_from_slice(&[0x80, 0x80, 0x80, 0x40]);
            inflated.extend_from_slice(&bytes[i + 1..]);
            for damaged in [&flipped[..], &inflated[..]] {
                let (decoded, _) = decode_chunked(damaged, &mut s);
                prop_assert!(decoded.len() >= intact, "lost a frame before byte {}", i);
                prop_assert_eq!(&decoded[..intact], &records[..intact]);
            }
            prop_assert_eq!(&decode_chunked(&bytes[..i], &mut s).0[..], &records[..intact]);
        }
    }
}

/// Feeds `bytes` to a fresh decoder in pseudo-random chunks (1..=97 bytes each)
/// and pulls records until the input is used up or the decoder reports an error.
/// Returns what came out, and how the stream ended: the bytes left undecoded, or
/// the error.  The pull loop is bounded: every record consumes a 4-byte header.
fn decode_chunked(bytes: &[u8], s: &mut u64) -> (Vec<StreamRecord>, Result<usize, String>) {
    let mut decoder = FrameDecoder::new();
    let mut decoded = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let end = (pos + 1 + (mix(s) % 97) as usize).min(bytes.len());
        decoder.push(&bytes[pos..end]);
        pos = end;
        loop {
            match decoder.next_record() {
                Ok(Some(record)) => decoded.push(record),
                Ok(None) => break,
                Err(e) => return (decoded, Err(e.to_string())),
            }
            assert!(
                decoded.len() <= bytes.len() / 4,
                "decoder yields records out of nothing"
            );
        }
    }
    (decoded, Ok(decoder.pending_bytes()))
}
