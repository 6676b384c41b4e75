//! Offline stand-in for the `bytes` crate.
//!
//! The build environment has no access to crates.io, so the workspace
//! vendors the one type its engines still share: [`Bytes`], an immutable
//! byte string whose clones share one allocation (a Vm's payload, held
//! by the channel, the log record and the datagram that carry it). Every
//! item here has the same name and meaning in the real crate.
//!
//! Storage writes plain `Vec<u8>` images and reads them as borrowed
//! slices, so no cursor, writer or zero-copy view lives here.

#![forbid(unsafe_code)]

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// An immutable, cheaply cloneable byte string.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Bytes(Arc<[u8]>);

impl Bytes {
    /// An empty byte string.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// Wrap a static byte slice (no allocation in the real crate; one
    /// here, amortised by cheap clones).
    pub fn from_static(s: &'static [u8]) -> Self {
        Bytes::copy_from_slice(s)
    }

    /// Copy a slice into a new byte string: one allocation, straight
    /// into the shared block.
    #[inline]
    pub fn copy_from_slice(s: &[u8]) -> Self {
        Bytes(Arc::from(s))
    }
}

impl From<Vec<u8>> for Bytes {
    #[inline]
    fn from(v: Vec<u8>) -> Self {
        Bytes(v.into())
    }
}

impl Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"{}\"", self.escape_ascii())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equality_and_clone_are_by_content() {
        let a = Bytes::from(vec![9, 9]);
        let b = Bytes::copy_from_slice(&[9, 9]);
        assert_eq!(a, b);
        assert_eq!(a.clone(), b);
        assert_eq!(&a[..], &[9, 9]);
        assert!(Bytes::new().is_empty());
        assert_eq!(Bytes::from_static(b"xyz").len(), 3);
    }

    #[test]
    fn debug_escapes_like_a_byte_string_literal() {
        assert_eq!(
            format!("{:?}", Bytes::from_static(b"a\"\n\x01")),
            r#"b"a\"\n\x01""#
        );
    }
}
