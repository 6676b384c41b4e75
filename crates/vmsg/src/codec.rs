//! Wire codec for coalesced datagrams.
//!
//! A [`WireDatagram`] is the unit the host puts on the network when
//! [`coalesce`](crate::endpoint::VmConfig::coalesce) is on: every frame
//! bound for one peer at one flush boundary, encoded as a length-prefixed
//! frame sequence in **one contiguous image**. An image of up to 64 B
//! lives inside the datagram itself (a banking datagram carrying one
//! transfer is 62 B), a larger one in a single boxed slice, so encoding
//! allocates at most once and usually not at all. Each payload is copied
//! into the image once, on encode.
//!
//! The receive path reads the image in place: [`WireDatagram::frames`]
//! walks it and yields frames whose payloads borrow from it, so taking a
//! datagram apart allocates nothing. [`WireDatagram::decode`] is the
//! owned form, for callers that keep frames past the datagram.
//!
//! Wire layout (big-endian):
//!
//! ```text
//! datagram  := id:u64  count:u32  frame*
//! frame     := 0x00 ack:u64                              (Ack)
//!            | 0x01 seq:u64 ack:u64 len:u32 payload      (Data)
//! ```

use crate::frame::Frame;
use std::fmt;

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
/// Largest image a datagram holds inline, without a heap allocation.
pub(crate) const INLINE_LEN: usize = 64;

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

/// The encoded form of one datagram: its wire image, contiguous. The
/// simulated network clones datagrams for duplication faults; an inline
/// image clones without allocating.
#[derive(Clone)]
pub struct WireDatagram {
    image: Image,
}

/// Where a datagram's image lives: inline up to [`INLINE_LEN`] bytes
/// (zero past `len`), boxed above that.
#[derive(Clone)]
enum Image {
    Inline { len: u8, buf: [u8; INLINE_LEN] },
    Boxed(Box<[u8]>),
}

impl Image {
    /// A zeroed image of `len` bytes.
    fn zeroed(len: usize) -> Image {
        if len <= INLINE_LEN {
            Image::Inline {
                len: len as u8,
                buf: [0; INLINE_LEN],
            }
        } else {
            Image::Boxed(vec![0; len].into_boxed_slice())
        }
    }

    #[inline]
    fn bytes(&self) -> &[u8] {
        match self {
            Image::Inline { len, buf } => &buf[..*len as usize],
            Image::Boxed(b) => b,
        }
    }

    fn bytes_mut(&mut self) -> &mut [u8] {
        match self {
            Image::Inline { len, buf } => &mut buf[..*len as usize],
            Image::Boxed(b) => b,
        }
    }
}

impl WireDatagram {
    /// Encode `frames` as datagram `id`: one image of exactly the wire
    /// length, each payload copied into it once.
    pub fn encode(id: u64, frames: &[Frame]) -> WireDatagram {
        let len = DATAGRAM_HEADER_LEN + frames.iter().map(frame_wire_len).sum::<usize>();
        let mut image = Image::zeroed(len);
        let mut w = Writer {
            buf: image.bytes_mut(),
            at: 0,
        };
        w.put(&id.to_be_bytes());
        w.put(&(frames.len() as u32).to_be_bytes());
        for f in frames {
            match f {
                Frame::Ack { ack } => {
                    w.put(&[TAG_ACK]);
                    w.put(&ack.to_be_bytes());
                }
                Frame::Data { seq, ack, payload } => {
                    w.put(&[TAG_DATA]);
                    w.put(&seq.to_be_bytes());
                    w.put(&ack.to_be_bytes());
                    w.put(&(payload.len() as u32).to_be_bytes());
                    w.put(payload);
                }
            }
        }
        debug_assert_eq!(w.at, len);
        WireDatagram { image }
    }

    /// The per-(sender, peer) datagram id from the header.
    #[inline]
    pub fn id(&self) -> u64 {
        Reader::new(self.image.bytes()).u64()
    }

    /// Number of frames carried (from the header).
    #[inline]
    pub fn frame_count(&self) -> u32 {
        let mut r = Reader::new(self.image.bytes());
        r.u64();
        r.u32()
    }

    /// Total encoded size in bytes (header + all frames).
    pub fn wire_len(&self) -> usize {
        self.image.bytes().len()
    }

    /// The frames, parsed in place: each `Data` payload is a slice of
    /// this datagram's image. Panics on a malformed image — an unknown
    /// tag, a truncated frame, or bytes left over after the last frame —
    /// since datagrams only ever come from [`encode`](Self::encode),
    /// corruption is a bug in the transport, not an input to be
    /// tolerated.
    #[inline]
    pub fn frames(&self) -> Frames<'_> {
        let mut r = Reader::new(self.image.bytes());
        r.u64();
        let left = r.u32();
        Frames { r, left }
    }

    /// Decode into owned frames (payloads copied out of the image).
    /// Panics on a malformed image, as [`frames`](Self::frames) does.
    pub fn decode(&self) -> Datagram {
        // Every frame takes at least an ack's bytes, so a count the image
        // cannot hold never sizes the allocation.
        let fit = self.wire_len() / ACK_FRAME_LEN;
        let mut frames = Vec::with_capacity(fit.min(self.frame_count() as usize));
        frames.extend(self.frames().map(Frame::into_owned));
        Datagram {
            id: self.id(),
            frames,
        }
    }

    /// The wire image as a fresh `Vec` (test/debug helper; copies).
    pub fn to_vec(&self) -> Vec<u8> {
        self.image.bytes().to_vec()
    }
}

impl PartialEq for WireDatagram {
    fn eq(&self, other: &Self) -> bool {
        self.image.bytes() == other.image.bytes()
    }
}
impl Eq for WireDatagram {}

impl fmt::Debug for WireDatagram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("WireDatagram")
            .field(&self.image.bytes())
            .finish()
    }
}

/// Iterator over a datagram's frames, borrowing payloads from its image
/// (see [`WireDatagram::frames`]).
pub struct Frames<'a> {
    r: Reader<'a>,
    /// Frames the header promises that have not been read yet.
    left: u32,
}

impl<'a> Iterator for Frames<'a> {
    type Item = Frame<&'a [u8]>;

    #[inline]
    fn next(&mut self) -> Option<Frame<&'a [u8]>> {
        if self.left == 0 {
            assert_eq!(
                self.r.buf.len(),
                self.r.at,
                "malformed datagram: trailing bytes"
            );
            return None;
        }
        self.left -= 1;
        let r = &mut self.r;
        Some(match r.u8() {
            TAG_ACK => Frame::Ack { ack: r.u64() },
            TAG_DATA => {
                let seq = r.u64();
                let ack = r.u64();
                let len = r.u32() as usize;
                Frame::Data {
                    seq,
                    ack,
                    payload: r.take(len),
                }
            }
            tag => panic!("malformed datagram: unknown frame tag {tag:#x}"),
        })
    }
}

/// Cursor writing into an exactly-sized image.
struct Writer<'a> {
    buf: &'a mut [u8],
    at: usize,
}

impl Writer<'_> {
    fn put(&mut self, s: &[u8]) {
        self.buf[self.at..self.at + s.len()].copy_from_slice(s);
        self.at += s.len();
    }
}

/// Cursor reading an image in place.
struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    #[inline]
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, at: 0 }
    }

    /// The next `n` bytes, borrowed.
    #[inline]
    fn take(&mut self, n: usize) -> &'a [u8] {
        let s = self
            .buf
            .get(self.at..self.at + n)
            .expect("malformed datagram: truncated");
        self.at += n;
        s
    }

    #[inline]
    fn u8(&mut self) -> u8 {
        self.take(1)[0]
    }

    #[inline]
    fn u32(&mut self) -> u32 {
        u32::from_be_bytes(self.take(4).try_into().expect("four bytes"))
    }

    #[inline]
    fn u64(&mut self) -> u64 {
        u64::from_be_bytes(self.take(8).try_into().expect("eight bytes"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Seq;
    use bytes::Bytes;
    use proptest::prelude::*;

    fn data(seq: Seq, ack: Seq, payload: &[u8]) -> Frame {
        Frame::Data {
            seq,
            ack,
            payload: Bytes::copy_from_slice(payload),
        }
    }

    /// A datagram holding `image` verbatim, well-formed or not.
    fn raw(image: &[u8]) -> WireDatagram {
        let mut img = Image::zeroed(image.len());
        img.bytes_mut().copy_from_slice(image);
        WireDatagram { image: img }
    }

    fn owned(wire: &WireDatagram) -> Vec<Frame> {
        wire.frames().map(Frame::into_owned).collect()
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

    /// Payloads come back as slices of the datagram's own image, inline
    /// or boxed, and a clone carries its own equal image.
    #[test]
    fn frames_borrow_the_image() {
        for len in [29, 300] {
            let payload = vec![7u8; len];
            let wire = WireDatagram::encode(1, &[data(1, 0, &payload)]);
            let image = wire.image.bytes().as_ptr_range();
            let frames: Vec<_> = wire.frames().collect();
            match frames[..] {
                [Frame::Data { payload: p, .. }] => {
                    assert_eq!(p, &payload[..]);
                    let at = p.as_ptr_range();
                    assert!(image.start <= at.start && at.end <= image.end);
                    assert_eq!(at.end, image.end, "the payload is the image's tail");
                }
                ref other => panic!("expected one data frame, got {other:?}"),
            }
            let copy = wire.clone();
            assert_eq!(copy, wire);
            assert_eq!(owned(&copy), owned(&wire));
        }
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

    /// The image of one ack frame under datagram 5, with one extra
    /// frame claimed when `extra_count` is set.
    fn ack_image(extra_count: bool) -> Vec<u8> {
        let mut v = 5u64.to_be_bytes().to_vec();
        v.extend_from_slice(&(1 + extra_count as u32).to_be_bytes());
        v.push(TAG_ACK);
        v.extend_from_slice(&3u64.to_be_bytes());
        v
    }

    #[test]
    #[should_panic(expected = "unknown frame tag 0x7")]
    fn an_unknown_tag_panics() {
        let mut image = ack_image(false);
        image[DATAGRAM_HEADER_LEN] = 0x07;
        raw(&image).frames().for_each(drop);
    }

    #[test]
    #[should_panic(expected = "trailing bytes")]
    fn trailing_bytes_panic() {
        let mut image = ack_image(false);
        image.push(0);
        raw(&image).frames().for_each(drop);
    }

    #[test]
    #[should_panic(expected = "truncated")]
    fn a_missing_frame_panics() {
        raw(&ack_image(true)).frames().for_each(drop);
    }

    #[test]
    #[should_panic(expected = "truncated")]
    fn a_short_payload_panics() {
        let wire = WireDatagram::encode(1, &[data(1, 0, &[9; 40])]);
        let image = wire.to_vec();
        raw(&image[..image.len() - 1]).frames().for_each(drop);
    }

    /// The wire image built byte by byte, independently of the encoder.
    fn reference_image(id: u64, frames: &[Frame]) -> Vec<u8> {
        let mut v = Vec::new();
        v.extend_from_slice(&id.to_be_bytes());
        v.extend_from_slice(&(frames.len() as u32).to_be_bytes());
        for f in frames {
            match f {
                Frame::Ack { ack } => {
                    v.push(0x00);
                    v.extend_from_slice(&ack.to_be_bytes());
                }
                Frame::Data { seq, ack, payload } => {
                    v.push(0x01);
                    v.extend_from_slice(&seq.to_be_bytes());
                    v.extend_from_slice(&ack.to_be_bytes());
                    v.extend_from_slice(&(payload.len() as u32).to_be_bytes());
                    v.extend_from_slice(payload);
                }
            }
        }
        v
    }

    fn frame() -> impl Strategy<Value = Frame> {
        (
            any::<bool>(),
            any::<u64>(),
            any::<u64>(),
            proptest::collection::vec(any::<u8>(), 0..301),
        )
            .prop_map(|(is_data, seq, ack, payload)| {
                if is_data {
                    Frame::Data {
                        seq,
                        ack,
                        payload: Bytes::from(payload),
                    }
                } else {
                    Frame::Ack { ack }
                }
            })
    }

    proptest! {
        /// Any frame list survives the codec. `pad` (when 1..=3) appends
        /// a data frame that brings the image to 63, 64 or 65 B if the
        /// list leaves room, so both sides of the inline bound are hit.
        #[test]
        fn any_frame_list_roundtrips(
            id in any::<u64>(),
            listed in proptest::collection::vec(frame(), 0..5),
            pad in 0usize..4,
            fill in any::<u8>(),
        ) {
            let mut frames = listed;
            let target = INLINE_LEN - 2 + pad;
            let len = DATAGRAM_HEADER_LEN + frames.iter().map(frame_wire_len).sum::<usize>();
            if pad > 0 && len + DATA_FRAME_META_LEN <= target {
                let n = target - len - DATA_FRAME_META_LEN;
                frames.push(data(9, 8, &vec![fill; n]));
            }
            let wire = WireDatagram::encode(id, &frames);
            prop_assert_eq!(wire.id(), id);
            prop_assert_eq!(wire.frame_count() as usize, frames.len());
            prop_assert_eq!(owned(&wire), frames.clone());
            prop_assert_eq!(wire.decode(), Datagram { id, frames: frames.clone() });
            prop_assert_eq!(wire.to_vec(), reference_image(id, &frames));
            prop_assert_eq!(wire.wire_len(), wire.to_vec().len());
        }
    }

    /// Every image length around the inline bound, deterministically.
    #[test]
    fn images_at_the_inline_bound_roundtrip() {
        for len in INLINE_LEN - 3..=INLINE_LEN + 3 {
            let n = len - DATAGRAM_HEADER_LEN - DATA_FRAME_META_LEN;
            let frames = vec![data(1, 2, &vec![0xAB; n])];
            let wire = WireDatagram::encode(3, &frames);
            assert_eq!(wire.wire_len(), len);
            assert_eq!(
                matches!(wire.image, Image::Inline { .. }),
                len <= INLINE_LEN
            );
            assert_eq!(owned(&wire), frames);
            assert_eq!(wire.to_vec(), reference_image(3, &frames));
        }
    }
}
