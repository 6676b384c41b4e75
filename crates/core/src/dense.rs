//! Small-vector storage for hot-path payloads.
//!
//! [`SVec`] is an inline small vector for record payloads that are
//! almost always tiny (a transaction touches 1–2 items), so committing
//! a transaction does not allocate a fresh `Vec` per log record.

use std::fmt;

/// A small vector that stores up to `N` elements inline and spills to a
/// heap `Vec` beyond that. Used for log-record and commit-journal
/// payloads, where the common case (1–2 entries) must not allocate.
///
/// When spilled, `spill` holds *all* elements (the inline array is dead);
/// `T: Copy + Default` keeps the implementation free of `unsafe`.
#[derive(Clone, Debug)]
pub struct SVec<T: Copy + Default, const N: usize> {
    inline: [T; N],
    len: usize,
    spill: Vec<T>,
}

impl<T: Copy + Default, const N: usize> SVec<T, N> {
    /// An empty vector (no allocation).
    pub fn new() -> Self {
        SVec {
            inline: [T::default(); N],
            len: 0,
            spill: Vec::new(),
        }
    }

    /// A one-element vector (no allocation while `N >= 1`).
    pub fn one(v: T) -> Self {
        let mut s = Self::new();
        s.push(v);
        s
    }

    /// Copy a slice in (allocates only when `s.len() > N`).
    pub fn from_slice(s: &[T]) -> Self {
        let mut out = Self::new();
        for &v in s {
            out.push(v);
        }
        out
    }

    /// Append an element, spilling to the heap past `N`.
    pub fn push(&mut self, v: T) {
        if self.len < N {
            self.inline[self.len] = v;
        } else {
            if self.len == N {
                self.spill.reserve(N + 1);
                self.spill.extend_from_slice(&self.inline[..N]);
            }
            self.spill.push(v);
        }
        self.len += 1;
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The elements as a slice.
    pub fn as_slice(&self) -> &[T] {
        if self.len <= N {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }

    /// Iterate the elements.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.as_slice().iter()
    }

    /// Copy the elements into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<T> {
        self.as_slice().to_vec()
    }
}

impl<T: Copy + Default, const N: usize> Default for SVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + Default + PartialEq, const N: usize> PartialEq for SVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<T: Copy + Default + Eq, const N: usize> Eq for SVec<T, N> {}

impl<T: Copy + Default, const N: usize> std::ops::Deref for SVec<T, N> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy + Default, const N: usize> FromIterator<T> for SVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut s = Self::new();
        for v in iter {
            s.push(v);
        }
        s
    }
}

impl<T: Copy + Default, const N: usize> From<Vec<T>> for SVec<T, N> {
    fn from(v: Vec<T>) -> Self {
        Self::from_slice(&v)
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a SVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl<T: Copy + Default, const N: usize> IntoIterator for SVec<T, N> {
    type Item = T;
    type IntoIter = std::vec::IntoIter<T>;
    fn into_iter(mut self) -> Self::IntoIter {
        if self.len <= N {
            // Inline case: `spill` is empty, so this is the one
            // unavoidable allocation of a consuming iteration.
            self.spill.extend_from_slice(&self.inline[..self.len]);
        }
        self.spill.into_iter()
    }
}

impl<T: Copy + Default + fmt::Display, const N: usize> fmt::Display for SVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn svec_stays_inline_then_spills() {
        let mut s: SVec<u32, 2> = SVec::new();
        assert!(s.is_empty());
        s.push(10);
        s.push(20);
        assert_eq!(s.as_slice(), &[10, 20]);
        s.push(30);
        s.push(40);
        assert_eq!(s.as_slice(), &[10, 20, 30, 40]);
        assert_eq!(s.len(), 4);
        assert_eq!(s.to_vec(), vec![10, 20, 30, 40]);
        assert_eq!(s.into_iter().collect::<Vec<_>>(), vec![10, 20, 30, 40]);
    }

    #[test]
    fn svec_equality_and_construction() {
        let a: SVec<u8, 4> = SVec::from_slice(&[1, 2, 3]);
        let b: SVec<u8, 4> = vec![1, 2, 3].into();
        let c: SVec<u8, 4> = [1u8, 2, 3].into_iter().collect();
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_eq!(SVec::<u8, 2>::one(9).as_slice(), &[9]);
        assert_eq!(&a[..2], &[1, 2], "deref to slice");
    }
}
