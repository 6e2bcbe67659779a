//! The wire layer: how a frame, a varint-packed field and a vector clock look in
//! bytes.  `dlrv-stream`'s record codec and `dlrv-net`'s deploy codec both sit
//! on this module and decide nothing about the format themselves.
//!
//! A byte stream is a sequence of *frames*: a 4-byte big-endian header followed
//! by a payload.  The low 31 bits of the header are the payload length; the top
//! bit ([`BINARY_FRAME_FLAG`]) says whether the payload is JSON (clear) or a
//! binary body (set).  [`MAX_FRAME_LEN`] is far below 2³¹, so the flag can never
//! collide with a legitimate length, and a reader learns each frame's format
//! from the frame itself — mixed streams decode transparently.
//!
//! [`FrameSplitter`] is the only read side of the header and [`write_frame`] the
//! only write side.  Binary bodies (LEB128 varints of [`crate::varint`]) are
//! read through the bounds-checked [`Reader`], whose [`count`](Reader::count)
//! is the single guard on a length prefix: no input can make a decoder reserve
//! more than a small multiple of the frame it arrived in.

use crate::varint;
use dlrv_json::{Json, JsonError};
use dlrv_vclock::VectorClock;
use std::fmt;

/// Upper bound on a single frame's payload; a corrupt length prefix fails fast
/// instead of asking the decoder to buffer gigabytes.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Top bit of the 4-byte frame header: set when the payload is binary-encoded,
/// clear when it is JSON.  [`MAX_FRAME_LEN`] `< 2³¹` guarantees the bit is free.
pub const BINARY_FRAME_FLAG: u32 = 1 << 31;

/// Error of the wire and codec layers: framing, payload syntax, or I/O.
#[derive(Debug)]
pub struct StreamError {
    /// Human-readable description.
    pub message: String,
}

impl StreamError {
    /// Creates an error from a message.
    pub fn msg(message: impl Into<String>) -> Self {
        StreamError {
            message: message.into(),
        }
    }
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for StreamError {}

impl From<JsonError> for StreamError {
    fn from(e: JsonError) -> Self {
        StreamError::msg(format!("wire JSON: {e}"))
    }
}

impl From<std::io::Error> for StreamError {
    fn from(e: std::io::Error) -> Self {
        StreamError::msg(format!("wire I/O: {e}"))
    }
}

/// Appends one frame to `out`: the header, then whatever `payload` appends.
pub fn write_frame(out: &mut Vec<u8>, binary: bool, payload: impl FnOnce(&mut Vec<u8>)) {
    let header_at = out.len();
    out.extend_from_slice(&[0u8; 4]);
    payload(out);
    let len = out.len() - header_at - 4;
    assert!(len <= MAX_FRAME_LEN, "frame payload exceeds MAX_FRAME_LEN");
    let header = len as u32 | if binary { BINARY_FRAME_FLAG } else { 0 };
    out[header_at..header_at + 4].copy_from_slice(&header.to_be_bytes());
}

/// Encodes one JSON value as a standalone frame (compact text, no whitespace).
pub fn json_frame(value: &Json) -> Vec<u8> {
    let mut out = Vec::new();
    write_frame(&mut out, false, |out| {
        out.extend_from_slice(value.to_string_compact().as_bytes())
    });
    out
}

/// Parses the payload of a JSON frame.
pub fn json_payload(payload: &[u8]) -> Result<Json, StreamError> {
    let text =
        std::str::from_utf8(payload).map_err(|_| StreamError::msg("frame payload is not UTF-8"))?;
    Ok(Json::parse(text)?)
}

/// The incremental read side of the framing: feed it byte chunks of any size —
/// exactly what a socket delivers — and pull complete frames out.
#[derive(Debug, Default)]
pub struct FrameSplitter {
    buf: Vec<u8>,
    /// Bytes of `buf` already handed out (compacted lazily).
    pos: usize,
}

impl FrameSplitter {
    /// A splitter with an empty buffer.
    pub fn new() -> Self {
        FrameSplitter::default()
    }

    /// Appends raw bytes from the wire.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact before growing, so the buffer never holds frames already handed out.
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Number of buffered bytes not yet handed out as a frame.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next complete frame as `(is_binary, payload)`, or `None` when more
    /// bytes are needed.  The frame is consumed whether or not the caller can
    /// make sense of its payload; an oversized length is an error and stays one.
    #[inline]
    pub fn next_frame(&mut self) -> Result<Option<(bool, &[u8])>, StreamError> {
        let avail = &self.buf[self.pos..];
        let Some(header) = avail.first_chunk::<4>() else {
            return Ok(None);
        };
        let header = u32::from_be_bytes(*header);
        let binary = header & BINARY_FRAME_FLAG != 0;
        let len = (header & !BINARY_FRAME_FLAG) as usize;
        if len > MAX_FRAME_LEN {
            return Err(StreamError::msg(format!(
                "frame length {len} exceeds maximum {MAX_FRAME_LEN}"
            )));
        }
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let start = self.pos + 4;
        self.pos = start + len;
        Ok(Some((binary, &self.buf[start..self.pos])))
    }
}

/// A bounds-checked cursor over one binary payload.  Every read names the field
/// it is after (`what`), and every failure reports that name with the byte
/// offset the field started at.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Offset at which the most recent read started.
    field_at: usize,
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `payload`.
    pub fn new(payload: &'a [u8]) -> Self {
        Reader {
            buf: payload,
            pos: 0,
            field_at: 0,
        }
    }

    /// The error for the field read last: truncated, out of range or, when the
    /// caller says so, a value it cannot interpret (an unknown tag byte).
    pub fn corrupt(&self, what: &str) -> StreamError {
        StreamError::msg(format!(
            "binary payload truncated or corrupt at {what} (byte offset {})",
            self.field_at
        ))
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// One varint.
    #[inline]
    pub fn uv(&mut self, what: &str) -> Result<u64, StreamError> {
        self.field_at = self.pos;
        varint::read_u64(self.buf, &mut self.pos).ok_or_else(|| self.corrupt(what))
    }

    /// One varint that must fit a `usize`.
    #[inline]
    pub fn usize(&mut self, what: &str) -> Result<usize, StreamError> {
        usize::try_from(self.uv(what)?).map_err(|_| self.corrupt(what))
    }

    /// One varint that must fit a `u32`.
    pub fn u32(&mut self, what: &str) -> Result<u32, StreamError> {
        u32::try_from(self.uv(what)?).map_err(|_| self.corrupt(what))
    }

    /// One raw byte (a tag or a small enum).
    #[inline]
    pub fn byte(&mut self, what: &str) -> Result<u8, StreamError> {
        self.field_at = self.pos;
        let byte = *self.buf.get(self.pos).ok_or_else(|| self.corrupt(what))?;
        self.pos += 1;
        Ok(byte)
    }

    /// Eight bytes of little-endian `f64` bits.
    #[inline]
    pub fn f64(&mut self, what: &str) -> Result<f64, StreamError> {
        self.field_at = self.pos;
        let bits = self.buf[self.pos..]
            .first_chunk::<8>()
            .ok_or_else(|| self.corrupt(what))?;
        self.pos += 8;
        Ok(f64::from_bits(u64::from_le_bytes(*bits)))
    }

    /// The length prefix of a sequence whose items each take at least
    /// `min_item_bytes` encoded bytes.  A count that many items cannot fit in
    /// the rest of the payload is corruption, not a request to allocate — so a
    /// caller may `Vec::with_capacity` the returned count ([`seq`](Self::seq) does).
    #[inline]
    pub fn count(&mut self, what: &str, min_item_bytes: usize) -> Result<usize, StreamError> {
        let n = self.usize(what)?;
        let remaining = self.remaining();
        if n.checked_mul(min_item_bytes)
            .is_none_or(|needed| needed > remaining)
        {
            return Err(StreamError::msg(format!(
                "binary payload corrupt at {what} (byte offset {}): {n} items of at least \
                 {min_item_bytes} bytes claimed, {remaining} bytes remain",
                self.field_at
            )));
        }
        Ok(n)
    }

    /// One length-prefixed byte string ([`varint::write_bytes`]).
    pub fn bytes(&mut self, what: &str) -> Result<&'a [u8], StreamError> {
        let n = self.count(what, 1)?;
        let bytes = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(bytes)
    }

    /// One length-prefixed sequence: the [`count`](Self::count), then that many
    /// `item`s.
    pub fn seq<T>(
        &mut self,
        what: &str,
        min_item_bytes: usize,
        mut item: impl FnMut(&mut Self) -> Result<T, StreamError>,
    ) -> Result<Vec<T>, StreamError> {
        let n = self.count(what, min_item_bytes)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(item(self)?);
        }
        Ok(items)
    }

    /// One vector clock in its [`write_clock`] form, decoded into the clock
    /// itself: no vector is built on the way (a clock of up to three entries
    /// allocates nothing).
    #[inline]
    pub fn clock(&mut self, what: &str) -> Result<VectorClock, StreamError> {
        let n = self.count(what, 1)?;
        let mut clock = VectorClock::zero(n);
        for i in 0..n {
            clock.set(i, self.uv(what)?);
        }
        Ok(clock)
    }

    /// Ends the read: a payload with bytes left over is corrupt.
    #[inline]
    pub fn finish(self) -> Result<(), StreamError> {
        match self.remaining() {
            0 => Ok(()),
            extra => Err(StreamError::msg(format!(
                "binary payload has {extra} trailing bytes (byte offset {})",
                self.pos
            ))),
        }
    }
}

/// Appends a vector clock in binary form: entry count, then the entries.
pub fn write_clock(out: &mut Vec<u8>, vc: &VectorClock) {
    write_clock_entries(out, vc.entries());
}

/// Appends the clock entries `entries` in [`write_clock`]'s form.
pub fn write_clock_entries(out: &mut Vec<u8>, entries: &[u64]) {
    varint::write_u64(out, entries.len() as u64);
    for &entry in entries {
        varint::write_u64(out, entry);
    }
}

/// A vector clock as a plain JSON array.
pub fn clock_to_json(vc: &VectorClock) -> Json {
    Json::Array(vc.entries().iter().map(|&e| Json::from(e)).collect())
}

/// Parses a vector clock back from its [`clock_to_json`] form.
pub fn clock_from_json(v: &Json) -> Result<VectorClock, JsonError> {
    let entries = v
        .as_array()?
        .iter()
        .map(Json::as_u64)
        .collect::<Result<_, _>>()?;
    Ok(VectorClock::from_entries(entries))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlrv_json::object;

    #[test]
    fn splitter_handles_split_prefixes_and_both_flags() {
        let value = object([("answer", Json::from(42u64))]);
        let mut bytes = json_frame(&value);
        write_frame(&mut bytes, true, |out| varint::write_bytes(out, b"abc"));
        let mut splitter = FrameSplitter::new();
        // Push the first length prefix one byte at a time: no frame may appear early.
        for b in &bytes[..3] {
            splitter.push(&[*b]);
            assert!(splitter.next_frame().expect("split").is_none());
        }
        splitter.push(&bytes[3..]);
        let (binary, payload) = splitter.next_frame().expect("split").expect("frame");
        assert!(!binary);
        assert_eq!(json_payload(payload).expect("json"), value);
        let (binary, payload) = splitter.next_frame().expect("split").expect("frame");
        assert!(binary);
        let mut r = Reader::new(payload);
        assert_eq!(r.bytes("name").expect("bytes"), b"abc");
        r.finish().expect("consumed exactly");
        assert!(splitter.next_frame().expect("split").is_none());
        assert_eq!(splitter.pending_bytes(), 0);
    }

    #[test]
    fn oversized_frame_lengths_are_rejected_with_either_flag() {
        for header in [u32::MAX, (MAX_FRAME_LEN + 1) as u32] {
            let mut splitter = FrameSplitter::new();
            splitter.push(&header.to_be_bytes());
            assert!(splitter.next_frame().is_err());
        }
        let mut splitter = FrameSplitter::new();
        splitter.push(&(MAX_FRAME_LEN as u32).to_be_bytes());
        assert!(splitter.next_frame().expect("at the bound").is_none());
    }

    #[test]
    fn counts_are_bounded_by_the_bytes_that_remain() {
        // A 64-byte payload: a tag byte, then a length prefix claiming 2²⁰ items —
        // transitions (8 bytes each), tokens (4), clock entries, conjuncts, bytes (1).
        let mut payload = vec![0xAA];
        varint::write_u64(&mut payload, 1 << 20);
        payload.resize(64, 1);
        for min in [8, 4, 1] {
            let mut r = Reader::new(&payload);
            r.byte("tag").expect("tag");
            let err = r.count("items", min).expect_err("2^20 items cannot fit");
            assert!(err.message.contains("byte offset 1"), "{err}");
            assert!(err.message.contains("1048576 items"), "{err}");
        }
        assert!(Reader::new(&payload[1..]).clock("clock").is_err());
        assert!(Reader::new(&payload[1..]).bytes("name").is_err());

        // The guard is exact, with no slack: `claimed` items need `claimed * min`
        // bytes after the prefix.
        for (claimed, min, rest, fits) in [
            (58u64, 1, 58, true),
            (59, 1, 58, false),
            (7, 8, 56, true),
            (7, 8, 55, false),
        ] {
            let mut payload = Vec::new();
            varint::write_u64(&mut payload, claimed);
            payload.resize(payload.len() + rest, 0);
            let mut r = Reader::new(&payload);
            assert_eq!(
                r.count("items", min).is_ok(),
                fits,
                "{claimed} x {min} in {rest}"
            );
        }
    }

    #[test]
    fn clocks_round_trip_on_both_sides_of_the_inline_boundary() {
        // Three entries are inline, four and more on the heap; the reader fills
        // either form in place.
        for entries in [
            vec![7, 300],
            vec![0, u64::MAX, 128],
            vec![1, 2, 3, 1 << 40],
            (1..=9).map(|i| i * 1000).collect(),
        ] {
            let clock = VectorClock::from_entries(entries.clone());
            let mut payload = Vec::new();
            write_clock(&mut payload, &clock);
            let mut r = Reader::new(&payload);
            let back = r.clock("clock").expect("round trip");
            r.finish().expect("consumed exactly");
            assert_eq!(back.entries(), entries);
            assert_eq!(back, clock);
        }
    }

    #[test]
    fn a_clock_claiming_more_entries_than_bytes_remain_is_corrupt() {
        // Four entries claimed, three one-byte entries present: refused before a
        // clock of four entries is allocated.
        let payload = [4u8, 1, 2, 3];
        let err = Reader::new(&payload)
            .clock("clock")
            .expect_err("4 entries cannot fit in 3 bytes");
        assert!(err.message.contains("corrupt at clock"), "{err}");
        assert!(
            err.message
                .contains("4 items of at least 1 bytes claimed, 3 bytes remain"),
            "{err}"
        );
        // The same bytes with a count of three are a clock.
        let fits = [3u8, 1, 2, 3];
        assert_eq!(
            Reader::new(&fits).clock("clock").expect("fits").entries(),
            [1, 2, 3]
        );
        // A count that fits but an entry that does not: truncated, not a panic.
        assert!(Reader::new(&[4u8, 1, 2, 3, 0x80]).clock("clock").is_err());
    }

    #[test]
    fn errors_name_the_offset_of_the_failing_field() {
        let payload = [5u8, 0x80]; // one varint, then a dangling continuation
        let mut r = Reader::new(&payload);
        assert_eq!(r.uv("first").expect("fits"), 5);
        let err = r.uv("second").expect_err("truncated varint");
        assert!(err.message.contains("second (byte offset 1)"), "{err}");
        // A value the caller rejects is reported where it was read.
        let mut r = Reader::new(&payload);
        r.byte("skip").expect("byte");
        assert_eq!(r.byte("tag").expect("byte"), 0x80);
        assert!(r.corrupt("tag 128").message.contains("byte offset 1"));

        // Out-of-range narrowing, short fixed-width fields and leftovers fail, too.
        let mut wide = Vec::new();
        varint::write_u64(&mut wide, 1 << 32);
        assert!(Reader::new(&wide).u32("id").is_err());
        assert_eq!(Reader::new(&[0x7f]).u32("id").expect("fits"), 0x7f);
        assert!(Reader::new(&[0u8; 7]).f64("time").is_err());
        let err = Reader::new(&[1, 2]).finish().expect_err("trailing bytes");
        assert!(err.message.contains("2 trailing bytes"), "{err}");
    }
}
