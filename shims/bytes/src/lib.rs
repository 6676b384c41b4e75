//! Offline stand-in for the `bytes` crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the small API subset it actually uses: [`Bytes`] (cheap
//! Arc-backed clones and zero-copy `split_to`), [`BytesMut`], and the
//! [`Buf`]/[`BufMut`] traits with big-endian integer accessors.
//!
//! The small accessors are `#[inline]`: every log append and Vm encode
//! calls them from another crate, they are not generic, and the release
//! profile has no LTO, so without the attribute each would be a real
//! call.

#![forbid(unsafe_code)]

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// A cheaply cloneable, immutable view into a shared byte buffer.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Wrap a static byte slice (no allocation in the real crate; one
    /// Arc allocation here, amortised by cheap clones).
    pub fn from_static(s: &'static [u8]) -> Self {
        Bytes::copy_from_slice(s)
    }

    /// Copy a slice into a new buffer.
    #[inline]
    pub fn copy_from_slice(s: &[u8]) -> Self {
        // `Arc<[u8]>: From<&[u8]>` copies straight into the shared
        // block: one allocation, where going through a `Vec` takes two.
        Bytes {
            data: Arc::from(s),
            start: 0,
            end: s.len(),
        }
    }

    /// Length of the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Split off and return the first `n` bytes, advancing `self` past
    /// them. Zero-copy: both halves share the backing allocation.
    #[inline]
    pub fn split_to(&mut self, n: usize) -> Bytes {
        assert!(n <= self.len(), "split_to out of range");
        let head = Bytes {
            data: Arc::clone(&self.data),
            start: self.start,
            end: self.start + n,
        };
        self.start += n;
        head
    }

    /// Copy the view into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    #[inline]
    fn as_slice(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }

    #[inline]
    fn read(&mut self, n: usize) -> &[u8] {
        let s = &self.data[self.start..self.start + n];
        self.start += n;
        s
    }
}

impl From<Vec<u8>> for Bytes {
    #[inline]
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            data: v.into(),
            start: 0,
            end,
        }
    }
}

impl From<&'static [u8]> for Bytes {
    #[inline]
    fn from(s: &'static [u8]) -> Self {
        Bytes::from_static(s)
    }
}

impl From<BytesMut> for Bytes {
    #[inline]
    fn from(m: BytesMut) -> Self {
        m.freeze()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for Bytes {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    #[inline]
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Bytes {
    #[inline]
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        debug_bytes(self.as_slice(), f)
    }
}

fn debug_bytes(s: &[u8], f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, "b\"")?;
    for &b in s {
        for c in std::ascii::escape_default(b) {
            write!(f, "{}", c as char)?;
        }
    }
    write!(f, "\"")
}

/// A growable byte buffer; freeze into [`Bytes`] when done writing.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// An empty buffer with `cap` bytes preallocated.
    #[inline]
    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Convert into an immutable [`Bytes`].
    #[inline]
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }

    /// Copy the contents into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.buf.clone()
    }

    /// Append a slice.
    #[inline]
    pub fn extend_from_slice(&mut self, s: &[u8]) {
        self.buf.extend_from_slice(s);
    }

    /// Shorten the buffer to `len` bytes; no-op if already shorter.
    #[inline]
    pub fn truncate(&mut self, len: usize) {
        self.buf.truncate(len);
    }

    /// Empty the buffer, keeping its capacity (for reuse pools).
    #[inline]
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Reserve room for at least `additional` more bytes.
    #[inline]
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Bytes the buffer can hold without reallocating.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl std::ops::DerefMut for BytesMut {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl AsRef<[u8]> for BytesMut {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        debug_bytes(&self.buf, f)
    }
}

/// Read access to a byte buffer (big-endian integer accessors).
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// Read `n` raw bytes, advancing the cursor.
    fn take_bytes(&mut self, n: usize) -> &[u8];

    /// Skip `n` bytes.
    #[inline]
    fn advance(&mut self, n: usize) {
        self.take_bytes(n);
    }
    /// Read a `u8`.
    #[inline]
    fn get_u8(&mut self) -> u8 {
        self.take_bytes(1)[0]
    }
    /// Read a big-endian `u32`.
    #[inline]
    fn get_u32(&mut self) -> u32 {
        u32::from_be_bytes(self.take_bytes(4).try_into().unwrap())
    }
    /// Read a big-endian `u64`.
    #[inline]
    fn get_u64(&mut self) -> u64 {
        u64::from_be_bytes(self.take_bytes(8).try_into().unwrap())
    }
    /// Read a big-endian `i64`.
    #[inline]
    fn get_i64(&mut self) -> i64 {
        i64::from_be_bytes(self.take_bytes(8).try_into().unwrap())
    }
}

impl Buf for Bytes {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }
    #[inline]
    fn take_bytes(&mut self, n: usize) -> &[u8] {
        assert!(n <= self.len(), "buffer underflow");
        self.read(n)
    }
}

/// Write access to a byte buffer (big-endian integer appenders).
pub trait BufMut {
    /// Append a slice.
    fn put_slice(&mut self, s: &[u8]);

    /// Append a `u8`.
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }
    /// Append a big-endian `u32`.
    #[inline]
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }
    /// Append a big-endian `u64`.
    #[inline]
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
    /// Append a big-endian `i64`.
    #[inline]
    fn put_i64(&mut self, v: i64) {
        self.put_slice(&v.to_be_bytes());
    }
}

impl BufMut for BytesMut {
    #[inline]
    fn put_slice(&mut self, s: &[u8]) {
        self.buf.extend_from_slice(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_integers_big_endian() {
        let mut m = BytesMut::new();
        m.put_u8(7);
        m.put_u32(0xDEAD_BEEF);
        m.put_u64(42);
        m.put_i64(-9);
        m.put_slice(b"xyz");
        let mut b = m.freeze();
        assert_eq!(b.remaining(), 1 + 4 + 8 + 8 + 3);
        assert_eq!(b.get_u8(), 7);
        assert_eq!(b.get_u32(), 0xDEAD_BEEF);
        assert_eq!(b.get_u64(), 42);
        assert_eq!(b.get_i64(), -9);
        assert_eq!(&b[..], b"xyz");
    }

    #[test]
    fn split_to_shares_backing() {
        let mut b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let head = b.split_to(2);
        assert_eq!(&head[..], &[1, 2]);
        assert_eq!(&b[..], &[3, 4, 5]);
        assert_eq!(b.remaining(), 3);
    }

    #[test]
    fn equality_and_clone_are_by_content() {
        let a = Bytes::from(vec![9, 9]);
        let b = Bytes::copy_from_slice(&[9, 9]);
        assert_eq!(a, b);
        assert_eq!(a.clone(), b);
        assert!(Bytes::new().is_empty());
    }
}
