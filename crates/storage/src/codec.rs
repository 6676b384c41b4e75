//! Record framing and encoding.
//!
//! Each record is stored as a frame:
//!
//! ```text
//! +----------+----------+---------------------+
//! | len: u32 | crc: u32 | payload (len bytes) |
//! +----------+----------+---------------------+
//! ```
//!
//! `crc` is CRC-32 (IEEE polynomial) over the payload. The recovery scan
//! verifies every frame, so a corrupted or torn frame surfaces as a
//! [`DecodeError`] instead of silently wrong state.
//!
//! A frame is written once, in place, onto the end of a `Vec<u8>` (the
//! log's buffer or a checkpoint slot's image) and read where it lies: a
//! [`RecordReader`] is a cursor over a borrowed slice of that image, so
//! a scan copies nothing but the byte strings it returns. Integers are
//! big-endian.
//!
//! The CRC is written when the frame is *sealed*. A checkpoint slot and
//! [`encode_frame`] seal at once; the stable log appends its frames with
//! a zero CRC and seals them just before its image is first read or
//! damaged (see [`StableLog`](crate::StableLog)), so a frame a checkpoint
//! truncates unread is never checksummed.

use bytes::Bytes;
use std::fmt;

/// Bytes of frame header: `len: u32 | crc: u32`.
pub(crate) const FRAME_HEADER: usize = 8;

/// Failure while decoding a frame or a record payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Fewer bytes than a complete frame/field requires.
    Truncated,
    /// CRC mismatch — the frame is corrupt.
    Corrupt {
        /// CRC stored in the frame header.
        expected: u32,
        /// CRC computed over the payload as read.
        actual: u32,
    },
    /// An enum tag or field had an invalid value.
    Invalid(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "truncated frame"),
            DecodeError::Corrupt { expected, actual } => {
                write!(f, "corrupt frame: crc {expected:#010x} != {actual:#010x}")
            }
            DecodeError::Invalid(what) => write!(f, "invalid field: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A type that can be written to and read from a log frame.
pub trait Record: Sized + Clone + fmt::Debug {
    /// Serialize the record payload.
    fn encode(&self, w: &mut RecordWriter<'_>);
    /// Deserialize the record payload.
    fn decode(r: &mut RecordReader<'_>) -> Result<Self, DecodeError>;
}

/// Payload writer handed to [`Record::encode`].
pub struct RecordWriter<'a> {
    buf: &'a mut Vec<u8>,
}

impl<'a> RecordWriter<'a> {
    /// Wrap a buffer for writing a bare (unframed) payload — used when a
    /// record is embedded somewhere other than a log frame.
    #[inline]
    pub fn wrap(buf: &'a mut Vec<u8>) -> Self {
        RecordWriter { buf }
    }

    /// Append a `u8`.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    /// Append a `u32` (big-endian).
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }
    /// Append a `u64` (big-endian).
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }
    /// Append an `i64` (big-endian).
    #[inline]
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }
    /// Append a length-prefixed byte string.
    #[inline]
    pub fn bytes(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }
}

/// Payload reader handed to [`Record::decode`]: a cursor over a borrowed
/// slice. Every read is bounds-checked and a short one is
/// [`DecodeError::Truncated`], so no input makes it panic.
pub struct RecordReader<'a> {
    buf: &'a [u8],
}

impl<'a> RecordReader<'a> {
    /// Wrap a slice for reading a bare (unframed) payload.
    #[inline]
    pub fn wrap(buf: &'a [u8]) -> Self {
        RecordReader { buf }
    }

    /// Take the next `N` bytes.
    #[inline]
    fn take<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let (head, rest) = self
            .buf
            .split_first_chunk::<N>()
            .ok_or(DecodeError::Truncated)?;
        self.buf = rest;
        Ok(*head)
    }

    /// Read a `u8`.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        self.take::<1>().map(|[b]| b)
    }
    /// Read a `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        self.take().map(u32::from_be_bytes)
    }
    /// Read a `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        self.take().map(u64::from_be_bytes)
    }
    /// Read an `i64`.
    #[inline]
    pub fn i64(&mut self) -> Result<i64, DecodeError> {
        self.take().map(i64::from_be_bytes)
    }
    /// Read a length-prefixed byte string, copied out of the slice (one
    /// allocation).
    #[inline]
    pub fn bytes(&mut self) -> Result<Bytes, DecodeError> {
        let n = self.u32()? as usize;
        let (s, rest) = self.buf.split_at_checked(n).ok_or(DecodeError::Truncated)?;
        self.buf = rest;
        Ok(Bytes::copy_from_slice(s))
    }
    /// Read a `u32` element count, bounded by what the unread bytes can
    /// hold: every element encodes to at least `min_len` (≥ 1) bytes, so
    /// a larger count is corrupt or hostile input and is refused *before*
    /// the caller sizes an allocation from it.
    #[inline]
    pub fn count(&mut self, min_len: usize) -> Result<usize, DecodeError> {
        let n = self.u32()? as usize;
        if n > self.remaining() / min_len {
            return Err(DecodeError::Invalid("element count exceeds the bytes left"));
        }
        Ok(n)
    }
    /// Bytes left unread (a well-formed decode should leave zero).
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }
}

/// Decode the whole of `payload` with `read`; a byte left over is
/// [`DecodeError::Invalid`].
pub(crate) fn decode_exact<T>(
    payload: &[u8],
    read: impl FnOnce(&mut RecordReader<'_>) -> Result<T, DecodeError>,
) -> Result<T, DecodeError> {
    let mut r = RecordReader::wrap(payload);
    let value = read(&mut r)?;
    if r.remaining() != 0 {
        return Err(DecodeError::Invalid("trailing bytes in payload"));
    }
    Ok(value)
}

/// Append one sealed frame to `out`, its payload written in place by
/// `fill`: the header is back-patched once the payload's length and
/// checksum are known, so nothing is staged or copied. Checkpoint
/// installs and [`encode_frame`] frame through here.
pub fn frame_in_place(out: &mut Vec<u8>, fill: impl FnOnce(&mut RecordWriter<'_>)) {
    let at = out.len();
    frame_unsealed(out, fill);
    seal_frame(&mut out[at..]);
}

/// Append one frame to `out`, its payload written in place by `fill`: the
/// length is back-patched once the payload is known, so nothing is staged
/// or copied. The CRC stays zero until [`seal_frame`] writes it.
pub(crate) fn frame_unsealed(out: &mut Vec<u8>, fill: impl FnOnce(&mut RecordWriter<'_>)) {
    let at = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER]);
    fill(&mut RecordWriter { buf: out });
    let len = (out.len() - at - FRAME_HEADER) as u32;
    out[at..at + 4].copy_from_slice(&len.to_be_bytes());
}

/// Write the CRC of the whole frame that starts `buf` into its header;
/// returns the frame's length.
pub(crate) fn seal_frame(buf: &mut [u8]) -> usize {
    let len = frame_len(buf);
    let (header, payload) = buf[..len].split_at_mut(FRAME_HEADER);
    header[4..].copy_from_slice(&crc32(payload).to_be_bytes());
    len
}

/// Whole length of the frame whose header starts `buf`.
pub(crate) fn frame_len(buf: &[u8]) -> usize {
    FRAME_HEADER + u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize
}

/// Encode one record into a framed byte string.
pub fn encode_frame<R: Record>(record: &R, out: &mut Vec<u8>) {
    frame_in_place(out, |w| record.encode(w));
}

/// Split one frame off the front of `buf`, verifying length and CRC, and
/// return its payload (a slice of `buf`). On error `buf` is left as it
/// was.
pub fn take_frame<'a>(buf: &mut &'a [u8]) -> Result<&'a [u8], DecodeError> {
    let (header, rest) = buf
        .split_first_chunk::<FRAME_HEADER>()
        .ok_or(DecodeError::Truncated)?;
    let (payload, rest) = rest
        .split_at_checked(frame_len(header) - FRAME_HEADER)
        .ok_or(DecodeError::Truncated)?;
    let [.., c0, c1, c2, c3] = *header;
    let expected = u32::from_be_bytes([c0, c1, c2, c3]);
    let actual = crc32(payload);
    if actual != expected {
        return Err(DecodeError::Corrupt { expected, actual });
    }
    *buf = rest;
    Ok(payload)
}

/// Decode one frame from the front of `buf`, verifying length and CRC.
pub fn decode_frame<R: Record>(buf: &mut &[u8]) -> Result<R, DecodeError> {
    decode_exact(take_frame(buf)?, R::decode)
}

/// Lookup tables for [`crc32`]: `CRC_TABLES[0]` is the classic one-byte
/// table; `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero
/// bytes, which is what lets eight input bytes be folded per step.
static CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3 polynomial, reflected), slicing-by-8: eight bytes
/// per step through eight tables, then a bytewise tail. Every seal and
/// every read checksums its payload here.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq, Eq)]
    struct Rec {
        a: u64,
        b: i64,
        tag: u8,
        blob: Vec<u8>,
    }

    impl Record for Rec {
        fn encode(&self, w: &mut RecordWriter<'_>) {
            w.u64(self.a);
            w.i64(self.b);
            w.u8(self.tag);
            w.bytes(&self.blob);
        }
        fn decode(r: &mut RecordReader<'_>) -> Result<Self, DecodeError> {
            Ok(Rec {
                a: r.u64()?,
                b: r.i64()?,
                tag: r.u8()?,
                blob: r.bytes()?.to_vec(),
            })
        }
    }

    fn sample() -> Rec {
        Rec {
            a: 0xDEAD_BEEF_0102_0304,
            b: -42,
            tag: 7,
            blob: vec![1, 2, 3, 4, 5],
        }
    }

    #[test]
    fn crc32_known_vector() {
        // "123456789" -> 0xCBF43926 is the canonical IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_matches_the_bytewise_definition() {
        // The one-table, byte-at-a-time CRC the sliced version replaced;
        // every stored checksum was written by it.
        fn bytewise(data: &[u8]) -> u32 {
            let mut c = 0xFFFF_FFFFu32;
            for &b in data {
                c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
            }
            c ^ 0xFFFF_FFFF
        }
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut data = Vec::new();
        for len in 0..=257usize {
            data.clear();
            for _ in 0..len {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                data.push((x >> 56) as u8);
            }
            assert_eq!(crc32(&data), bytewise(&data), "length {len}");
            // Unaligned starts take the same path through `chunks_exact`.
            if len > 3 {
                assert_eq!(
                    crc32(&data[3..]),
                    bytewise(&data[3..]),
                    "length {len} offset 3"
                );
            }
        }
    }

    #[test]
    fn roundtrip_single_frame() {
        let mut buf = Vec::new();
        encode_frame(&sample(), &mut buf);
        let mut rest = &buf[..];
        let got: Rec = decode_frame(&mut rest).unwrap();
        assert_eq!(got, sample());
        assert!(rest.is_empty());
    }

    #[test]
    fn roundtrip_multiple_frames() {
        let mut buf = Vec::new();
        let recs: Vec<Rec> = (0..10)
            .map(|i| Rec {
                a: i,
                b: -(i as i64),
                tag: i as u8,
                blob: vec![i as u8; i as usize],
            })
            .collect();
        for r in &recs {
            encode_frame(r, &mut buf);
        }
        let mut rest = &buf[..];
        let mut got = Vec::new();
        while !rest.is_empty() {
            got.push(decode_frame::<Rec>(&mut rest).unwrap());
        }
        assert_eq!(got, recs);
    }

    #[test]
    fn corrupt_payload_detected() {
        let mut raw = Vec::new();
        encode_frame(&sample(), &mut raw);
        let last = raw.len() - 1;
        raw[last] ^= 0xFF; // flip a payload byte
        match decode_frame::<Rec>(&mut &raw[..]) {
            Err(DecodeError::Corrupt { .. }) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn truncated_frame_detected() {
        let mut raw = Vec::new();
        encode_frame(&sample(), &mut raw);
        let mut short = &raw[..raw.len() - 3];
        assert_eq!(
            decode_frame::<Rec>(&mut short).unwrap_err(),
            DecodeError::Truncated
        );
        assert_eq!(
            short.len(),
            raw.len() - 3,
            "a refused frame is not consumed"
        );
        assert_eq!(
            decode_frame::<Rec>(&mut &[0u8; 4][..]).unwrap_err(),
            DecodeError::Truncated
        );
    }

    #[test]
    fn trailing_payload_bytes_are_refused() {
        let mut raw = Vec::new();
        frame_in_place(&mut raw, |w| {
            sample().encode(w);
            w.u8(0);
        });
        assert_eq!(
            decode_frame::<Rec>(&mut &raw[..]).unwrap_err(),
            DecodeError::Invalid("trailing bytes in payload")
        );
    }

    #[test]
    fn reader_reports_truncation_per_field() {
        let mut r = RecordReader::wrap(&[]);
        assert_eq!(r.u8().unwrap_err(), DecodeError::Truncated);
        assert_eq!(r.u32().unwrap_err(), DecodeError::Truncated);
        assert_eq!(r.u64().unwrap_err(), DecodeError::Truncated);
        assert_eq!(r.i64().unwrap_err(), DecodeError::Truncated);
        assert_eq!(r.bytes().unwrap_err(), DecodeError::Truncated);
        // A byte string one byte short of its length prefix.
        let mut r = RecordReader::wrap(&[0, 0, 0, 2, 7]);
        assert_eq!(r.bytes().unwrap_err(), DecodeError::Truncated);
    }

    #[test]
    fn reader_reads_big_endian_fields_in_place() {
        let mut raw = Vec::new();
        let mut w = RecordWriter::wrap(&mut raw);
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(42);
        w.i64(-9);
        w.bytes(b"xyz");
        assert_eq!(raw.len(), 1 + 4 + 8 + 8 + 4 + 3);
        assert_eq!(&raw[1..5], &[0xDE, 0xAD, 0xBE, 0xEF]);
        let mut r = RecordReader::wrap(&raw);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.u64(), Ok(42));
        assert_eq!(r.i64(), Ok(-9));
        assert_eq!(&r.bytes().unwrap()[..], b"xyz");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn count_is_bounded_by_the_bytes_left() {
        // Claims 3 twelve-byte elements with exactly 36 bytes behind it.
        let mut raw = 3u32.to_be_bytes().to_vec();
        raw.extend_from_slice(&[0; 36]);
        assert_eq!(RecordReader::wrap(&raw).count(12), Ok(3));
        // One byte short, and the absurd claim: both refused.
        assert!(matches!(
            RecordReader::wrap(&raw[..raw.len() - 1]).count(12),
            Err(DecodeError::Invalid(_))
        ));
        assert!(matches!(
            RecordReader::wrap(&u32::MAX.to_be_bytes()).count(1),
            Err(DecodeError::Invalid(_))
        ));
    }

    #[test]
    fn decode_error_display() {
        assert_eq!(DecodeError::Truncated.to_string(), "truncated frame");
        assert!(DecodeError::Corrupt {
            expected: 1,
            actual: 2
        }
        .to_string()
        .contains("corrupt"));
        assert!(DecodeError::Invalid("x").to_string().contains('x'));
    }
}
