//! Zero-copy wire codec for coalesced datagrams.
//!
//! A [`WireDatagram`] is the unit the host puts on the network when
//! [`coalesce`](crate::endpoint::VmConfig::coalesce) is on: every frame
//! bound for one peer at one flush boundary, encoded as a length-prefixed
//! frame sequence. Encoding is **scatter-gather**: the header and the
//! per-frame metadata are written into one buffer and cut into
//! segments around the payloads, while each `Data` payload is appended
//! as its own refcounted [`Bytes`] segment — a payload is never copied
//! on the way out, and a datagram costs the same metadata allocations
//! however many frames it carries. Decoding slices payloads back out of
//! the segments, so the receive path is copy-free as well.
//!
//! Wire layout (big-endian):
//!
//! ```text
//! datagram  := id:u64  count:u32  frame*
//! frame     := 0x00 ack:u64                              (Ack)
//!            | 0x01 seq:u64 ack:u64 len:u32 payload      (Data)
//! ```

use crate::channel::Seq;
use crate::frame::Frame;
use bytes::{BufMut, Bytes, BytesMut};

/// Frame tag byte for a standalone ack.
const TAG_ACK: u8 = 0x00;
/// Frame tag byte for a data frame.
const TAG_DATA: u8 = 0x01;

/// Encoded size of the datagram header (`id` + `count`).
pub const DATAGRAM_HEADER_LEN: usize = 8 + 4;
/// Encoded size of a standalone ack frame (tag + ack).
pub const ACK_FRAME_LEN: usize = 1 + 8;
/// Encoded size of a data frame's metadata (tag + seq + ack + len).
pub const DATA_FRAME_META_LEN: usize = 1 + 8 + 8 + 4;

/// Encoded size of one frame on the wire.
pub fn frame_wire_len(frame: &Frame) -> usize {
    match frame {
        Frame::Ack { .. } => ACK_FRAME_LEN,
        Frame::Data { payload, .. } => DATA_FRAME_META_LEN + payload.len(),
    }
}

/// A decoded datagram: the per-(site, peer) id plus its frames in
/// original (per-channel FIFO) order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Datagram {
    /// Per-(sender, peer) datagram sequence number (1-based).
    pub id: u64,
    /// The coalesced frames, in the order they were queued.
    pub frames: Vec<Frame>,
}

/// The encoded form of one datagram: an ordered list of byte segments
/// that concatenate to the wire image. Cloning is cheap (refcount bumps)
/// — the simulated network clones datagrams for duplication faults.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireDatagram {
    /// Wire segments, in order. Metadata segments are views of one
    /// buffer; payload segments alias the sender's `Bytes` buffers.
    segs: Vec<Bytes>,
    /// Number of frames encoded (cached from the header).
    frames: u32,
    /// Total wire length in bytes (cached: sum of segment lengths).
    wire_len: usize,
}

impl WireDatagram {
    /// Encode `frames` as datagram `id`. Payload bytes are shared, not
    /// copied: each `Data` payload becomes its own segment.
    pub fn encode(id: u64, frames: &[Frame]) -> WireDatagram {
        // Pass 1: every metadata byte — header and per-frame fields —
        // goes into one exactly-sized buffer, frozen once.
        let mut meta_len = DATAGRAM_HEADER_LEN;
        let mut payload_len = 0usize;
        let mut data_frames = 0usize;
        for f in frames {
            match f {
                Frame::Ack { .. } => meta_len += ACK_FRAME_LEN,
                Frame::Data { payload, .. } => {
                    meta_len += DATA_FRAME_META_LEN;
                    payload_len += payload.len();
                    data_frames += 1;
                }
            }
        }
        let mut meta = BytesMut::with_capacity(meta_len);
        meta.put_u64(id);
        meta.put_u32(frames.len() as u32);
        for f in frames {
            match f {
                Frame::Ack { ack } => {
                    meta.put_u8(TAG_ACK);
                    meta.put_u64(*ack);
                }
                Frame::Data { seq, ack, payload } => {
                    meta.put_u8(TAG_DATA);
                    meta.put_u64(*seq);
                    meta.put_u64(*ack);
                    meta.put_u32(payload.len() as u32);
                }
            }
        }
        debug_assert_eq!(meta.len(), meta_len);
        let meta = meta.freeze();
        // Pass 2: cut the metadata run after each data frame's fields, so
        // the payload lands between the cuts as its own segment (shared,
        // never copied). The cuts are views of the one buffer — a
        // datagram costs the same two metadata allocations however many
        // frames it carries.
        let mut segs = Vec::with_capacity(1 + 2 * data_frames);
        let mut start = 0usize;
        let mut end = DATAGRAM_HEADER_LEN;
        for f in frames {
            match f {
                Frame::Ack { .. } => end += ACK_FRAME_LEN,
                Frame::Data { payload, .. } => {
                    end += DATA_FRAME_META_LEN;
                    segs.push(meta.slice(start..end));
                    segs.push(payload.clone());
                    start = end;
                }
            }
        }
        if start == 0 {
            segs.push(meta);
        } else if start < meta_len {
            segs.push(meta.slice(start..meta_len));
        }
        WireDatagram {
            segs,
            frames: frames.len() as u32,
            wire_len: meta_len + payload_len,
        }
    }

    /// Number of frames carried.
    pub fn frame_count(&self) -> u32 {
        self.frames
    }

    /// Total encoded size in bytes (header + all frames).
    pub fn wire_len(&self) -> usize {
        self.wire_len
    }

    /// Decode back into frames. Payloads are zero-copy slices of the
    /// wire segments. Panics on a malformed image — datagrams only ever
    /// come from [`encode`](Self::encode), so corruption is a bug in the
    /// transport, not an input to be tolerated.
    pub fn decode(&self) -> Datagram {
        let mut r = SegReader::new(&self.segs);
        let id = r.u64();
        let count = r.u32();
        let mut frames = Vec::with_capacity(count as usize);
        for _ in 0..count {
            match r.u8() {
                TAG_ACK => frames.push(Frame::Ack {
                    ack: r.u64() as Seq,
                }),
                TAG_DATA => {
                    let seq = r.u64() as Seq;
                    let ack = r.u64() as Seq;
                    let len = r.u32() as usize;
                    frames.push(Frame::Data {
                        seq,
                        ack,
                        payload: r.bytes(len),
                    });
                }
                tag => panic!("malformed datagram: unknown frame tag {tag:#x}"),
            }
        }
        assert_eq!(r.remaining(), 0, "malformed datagram: trailing bytes");
        Datagram { id, frames }
    }

    /// The concatenated wire image (test/debug helper; copies).
    pub fn to_vec(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(self.wire_len);
        for s in &self.segs {
            v.extend_from_slice(s);
        }
        v
    }
}

/// Cursor over an ordered list of byte segments, treating them as one
/// contiguous stream. Integer reads that straddle a segment boundary are
/// copied through a small stack buffer; `bytes` reads that fall entirely
/// inside one segment (the only case the encoder produces for payloads)
/// are zero-copy slices.
struct SegReader<'a> {
    segs: &'a [Bytes],
    /// Index of the current segment.
    seg: usize,
    /// Offset into the current segment.
    off: usize,
}

impl<'a> SegReader<'a> {
    fn new(segs: &'a [Bytes]) -> Self {
        SegReader {
            segs,
            seg: 0,
            off: 0,
        }
    }

    fn remaining(&self) -> usize {
        self.segs[self.seg..].iter().map(|s| s.len()).sum::<usize>() - self.off
    }

    /// Copy exactly `buf.len()` bytes into `buf`, advancing the cursor.
    fn fill(&mut self, buf: &mut [u8]) {
        let mut filled = 0;
        while filled < buf.len() {
            let seg = self
                .segs
                .get(self.seg)
                .expect("malformed datagram: truncated");
            let avail = seg.len() - self.off;
            if avail == 0 {
                self.seg += 1;
                self.off = 0;
                continue;
            }
            let n = avail.min(buf.len() - filled);
            buf[filled..filled + n].copy_from_slice(&seg[self.off..self.off + n]);
            self.off += n;
            filled += n;
        }
        self.skip_empty();
    }

    /// Advance past exhausted segments so `bytes` sees a fresh one.
    fn skip_empty(&mut self) {
        while self.seg < self.segs.len() && self.off == self.segs[self.seg].len() {
            self.seg += 1;
            self.off = 0;
        }
    }

    fn u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.fill(&mut b);
        b[0]
    }

    fn u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.fill(&mut b);
        u32::from_be_bytes(b)
    }

    fn u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.fill(&mut b);
        u64::from_be_bytes(b)
    }

    /// Read `n` bytes as a `Bytes`. Zero-copy when the run lies within
    /// one segment (always true for encoder-produced payloads).
    fn bytes(&mut self, n: usize) -> Bytes {
        self.skip_empty();
        if n == 0 {
            return Bytes::new();
        }
        let seg = self
            .segs
            .get(self.seg)
            .expect("malformed datagram: truncated payload");
        if seg.len() - self.off >= n {
            let out = seg.slice(self.off..self.off + n);
            self.off += n;
            self.skip_empty();
            return out;
        }
        // Straddles segments (foreign encoder); fall back to a copy.
        let mut v = vec![0u8; n];
        self.fill(&mut v);
        Bytes::from(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(seq: Seq, ack: Seq, payload: &[u8]) -> Frame {
        Frame::Data {
            seq,
            ack,
            payload: Bytes::copy_from_slice(payload),
        }
    }

    #[test]
    fn roundtrip_mixed_frames() {
        let frames = vec![
            Frame::Ack { ack: 7 },
            data(3, 7, b"hello"),
            data(4, 7, b""),
            Frame::Ack { ack: 9 },
            data(5, 9, &[0xFF; 300]),
        ];
        let wire = WireDatagram::encode(42, &frames);
        assert_eq!(wire.frame_count(), 5);
        let d = wire.decode();
        assert_eq!(d.id, 42);
        assert_eq!(d.frames, frames);
    }

    #[test]
    fn empty_datagram_roundtrips() {
        let wire = WireDatagram::encode(1, &[]);
        assert_eq!(wire.frame_count(), 0);
        assert_eq!(wire.wire_len(), DATAGRAM_HEADER_LEN);
        let d = wire.decode();
        assert_eq!(d.id, 1);
        assert!(d.frames.is_empty());
    }

    #[test]
    fn wire_len_matches_concatenated_image() {
        let frames = vec![Frame::Ack { ack: 1 }, data(1, 0, b"abcde")];
        let wire = WireDatagram::encode(9, &frames);
        assert_eq!(wire.wire_len(), wire.to_vec().len());
        assert_eq!(
            wire.wire_len(),
            DATAGRAM_HEADER_LEN + ACK_FRAME_LEN + DATA_FRAME_META_LEN + 5
        );
    }

    #[test]
    fn payload_decode_is_zero_copy() {
        // The decoded payload must alias the original buffer: equal
        // content *and* the datagram's segment list holds the payload as
        // its own segment (no metadata mixed in).
        let payload = Bytes::from(vec![7u8; 64]);
        let frames = vec![Frame::Data {
            seq: 1,
            ack: 0,
            payload: payload.clone(),
        }];
        let wire = WireDatagram::encode(1, &frames);
        assert!(
            wire.segs.iter().any(|s| s == &payload),
            "payload must be its own shared segment"
        );
        let d = wire.decode();
        match &d.frames[0] {
            Frame::Data { payload: p, .. } => assert_eq!(p, &payload),
            other => panic!("expected data frame, got {other:?}"),
        }
    }

    #[test]
    fn clone_shares_segments() {
        let wire = WireDatagram::encode(3, &[data(1, 0, b"xyz")]);
        let copy = wire.clone();
        assert_eq!(copy, wire);
        assert_eq!(copy.decode(), wire.decode());
    }

    #[test]
    fn frame_wire_len_covers_both_variants() {
        assert_eq!(frame_wire_len(&Frame::Ack { ack: 1 }), 9);
        assert_eq!(frame_wire_len(&data(1, 0, b"1234")), 21 + 4);
    }

    /// The exact image of a datagram mixing ack and data frames: every
    /// DvP wire byte in the experiment tables rests on this layout.
    #[test]
    fn mixed_datagram_encodes_to_pinned_bytes() {
        let frames = vec![data(1, 0, b"abc"), Frame::Ack { ack: 4 }, data(2, 4, b"")];
        let wire = WireDatagram::encode(9, &frames);
        #[rustfmt::skip]
        let golden: &[u8] = &[
            0, 0, 0, 0, 0, 0, 0, 9, // id
            0, 0, 0, 3,             // count
            0x01,                   // Data
            0, 0, 0, 0, 0, 0, 0, 1, //   seq
            0, 0, 0, 0, 0, 0, 0, 0, //   ack
            0, 0, 0, 3,             //   len
            b'a', b'b', b'c',       //   payload
            0x00,                   // Ack
            0, 0, 0, 0, 0, 0, 0, 4, //   ack
            0x01,                   // Data
            0, 0, 0, 0, 0, 0, 0, 2, //   seq
            0, 0, 0, 0, 0, 0, 0, 4, //   ack
            0, 0, 0, 0,             //   len (empty payload)
        ];
        assert_eq!(wire.to_vec(), golden);
        assert_eq!(wire.wire_len(), golden.len());
        assert_eq!(wire.decode().frames, frames);
    }
}
