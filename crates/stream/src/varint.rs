//! LEB128 variable-length integers — the primitive of the binary wire codec.
//!
//! Small numbers dominate the hot path (process indices, sequence numbers,
//! vector-clock entries of short runs), so encoding them in one byte instead of
//! a fixed-width field or decimal JSON digits is where most of the binary
//! codec's size win comes from.  The format is standard unsigned LEB128: seven
//! payload bits per byte, high bit set on every byte except the last.
//!
//! Both `dlrv-stream`'s record codec and `dlrv-net`'s message codec build on
//! this module, so the two layers can never disagree on integer framing.

/// Appends `v` to `out` as an unsigned LEB128 varint (1–10 bytes).
#[inline]
pub fn write_u64(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads an unsigned LEB128 varint from `buf` starting at `*pos`, advancing
/// `*pos` past it.  Returns `None` when the buffer ends mid-varint or the
/// encoding is longer than a `u64` allows (a corrupt frame, since frames are
/// fully buffered before decoding starts).
#[inline]
pub fn read_u64(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        let bits = u64::from(byte & 0x7f);
        // The 10th byte may only contribute the single remaining bit.
        if shift == 63 && bits > 1 {
            return None;
        }
        if shift > 63 {
            return None;
        }
        value |= bits << shift;
        if byte & 0x80 == 0 {
            return Some(value);
        }
        shift += 7;
    }
}

/// Appends a length-prefixed byte string (varint length + raw bytes); read
/// back with [`Reader::bytes`](crate::wire::Reader::bytes).
#[inline]
pub fn write_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    write_u64(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_boundary_values() {
        let values = [
            0u64,
            1,
            0x7f,
            0x80,
            0x3fff,
            0x4000,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ];
        for &v in &values {
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_u64(&buf, &mut pos), Some(v), "value {v}");
            assert_eq!(pos, buf.len(), "value {v} consumed exactly");
        }
    }

    #[test]
    fn small_values_take_one_byte() {
        for v in 0u64..0x80 {
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
            assert_eq!(buf.len(), 1);
        }
    }

    #[test]
    fn truncated_and_overlong_inputs_are_rejected() {
        // Continuation bit set but no next byte.
        let mut pos = 0;
        assert_eq!(read_u64(&[0x80], &mut pos), None);
        // Eleven continuation bytes can never be a valid u64.
        let overlong = [0x80u8; 11];
        let mut pos = 0;
        assert_eq!(read_u64(&overlong, &mut pos), None);
        // A 10th byte carrying more than the one remaining bit overflows.
        let mut overflow = vec![0xffu8; 9];
        overflow.push(0x02);
        let mut pos = 0;
        assert_eq!(read_u64(&overflow, &mut pos), None);
    }
}
