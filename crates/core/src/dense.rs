//! Small-vector storage for hot-path payloads.
//!
//! [`SVec`] is an inline small vector for record payloads that are
//! almost always tiny (a transaction touches 1–2 items), so committing
//! a transaction does not allocate a fresh `Vec` per log record.

use std::fmt;

/// A small vector that stores up to `N` elements inline and spills to a
/// heap `Vec` beyond that. Used for transaction specs, log-record and
/// commit-journal payloads, where the common case (1–2 entries) must not
/// allocate.
///
/// The two states are the two variants of one enum, so the inline case
/// pays for no dormant `Vec` header: `SVec<(ItemId, i64), 2>` is 40
/// bytes. `T: Copy + Default` keeps the implementation free of `unsafe`
/// (unused inline slots hold `T::default()`).
#[derive(Clone)]
pub struct SVec<T: Copy + Default, const N: usize>(Repr<T, N>);

#[derive(Clone)]
enum Repr<T: Copy + Default, const N: usize> {
    /// `items[..len]` are the elements; `len <= N`.
    Inline { len: u8, items: [T; N] },
    /// More than `N` elements were pushed; holds *all* of them.
    Spill(Vec<T>),
}

impl<T: Copy + Default, const N: usize> SVec<T, N> {
    /// The inline length is a `u8`.
    const FITS: () = assert!(N <= u8::MAX as usize, "SVec inline capacity exceeds u8");

    /// An empty vector (no allocation).
    pub fn new() -> Self {
        let () = Self::FITS;
        SVec(Repr::Inline {
            len: 0,
            items: [T::default(); N],
        })
    }

    /// A one-element vector (no allocation while `N >= 1`).
    pub fn one(v: T) -> Self {
        let mut s = Self::new();
        s.push(v);
        s
    }

    /// Copy a slice in (allocates only when `s.len() > N`).
    pub fn from_slice(s: &[T]) -> Self {
        if s.len() > N {
            return SVec(Repr::Spill(s.to_vec()));
        }
        let () = Self::FITS;
        let mut items = [T::default(); N];
        items[..s.len()].copy_from_slice(s);
        SVec(Repr::Inline {
            len: s.len() as u8,
            items,
        })
    }

    /// Append an element, spilling to the heap past `N`.
    pub fn push(&mut self, v: T) {
        match &mut self.0 {
            Repr::Inline { len, items } => {
                let n = *len as usize;
                if n < N {
                    items[n] = v;
                    *len += 1;
                } else {
                    let mut spill = Vec::with_capacity(N + 1);
                    spill.extend_from_slice(&items[..]);
                    spill.push(v);
                    self.0 = Repr::Spill(spill);
                }
            }
            Repr::Spill(spill) => spill.push(v),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// The elements as a slice.
    pub fn as_slice(&self) -> &[T] {
        match &self.0 {
            Repr::Inline { len, items } => &items[..*len as usize],
            Repr::Spill(spill) => spill,
        }
    }

    /// The elements as a mutable slice.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        match &mut self.0 {
            Repr::Inline { len, items } => &mut items[..*len as usize],
            Repr::Spill(spill) => spill,
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

impl<T: Copy + Default + fmt::Debug, const N: usize> fmt::Debug for SVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
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
        if v.len() > N {
            SVec(Repr::Spill(v))
        } else {
            Self::from_slice(&v)
        }
    }
}

impl<'a, T: Copy + Default, const N: usize> IntoIterator for &'a SVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// By-value iterator over an [`SVec`] (copies elements out; never
/// allocates).
pub struct IntoIter<T: Copy + Default, const N: usize> {
    vec: SVec<T, N>,
    next: usize,
}

impl<T: Copy + Default, const N: usize> Iterator for IntoIter<T, N> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        let v = self.vec.as_slice().get(self.next).copied();
        self.next += v.is_some() as usize;
        v
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.vec.len() - self.next;
        (left, Some(left))
    }
}

impl<T: Copy + Default, const N: usize> IntoIterator for SVec<T, N> {
    type Item = T;
    type IntoIter = IntoIter<T, N>;
    fn into_iter(self) -> Self::IntoIter {
        IntoIter { vec: self, next: 0 }
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
    use crate::item::ItemId;
    use proptest::prelude::*;

    #[test]
    fn svec_stays_inline_then_spills() {
        let mut s: SVec<u32, 2> = SVec::new();
        assert!(s.is_empty());
        s.push(10);
        s.push(20);
        assert_eq!(s.as_slice(), &[10, 20]);
        assert!(matches!(s.0, Repr::Inline { .. }));
        s.push(30);
        s.push(40);
        assert!(matches!(s.0, Repr::Spill(_)));
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
        assert_eq!(format!("{a:?}"), "[1, 2, 3]", "debugs as its elements");
    }

    /// The layout this module exists for: the inline case carries no
    /// dormant `Vec` header, so the per-commit and per-arrival records
    /// built from it stay within these sizes.
    #[test]
    fn sizes_are_pinned() {
        use crate::txn::TxnSpec;
        use dvp_simnet::time::SimTime;
        use std::mem::size_of;
        assert!(size_of::<SVec<(ItemId, i64), 2>>() <= 40);
        assert!(size_of::<(SimTime, TxnSpec)>() <= 64);
    }

    proptest! {
        /// Model test against `Vec`: every way of building an `SVec`, on
        /// both sides of the spill boundary, reads back as the same
        /// elements through every accessor.
        #[test]
        fn svec_behaves_like_vec(
            model in proptest::collection::vec(any::<u16>(), 0..9),
            other in proptest::collection::vec(any::<u16>(), 0..9),
        ) {
            let mut pushed: SVec<u16, 3> = SVec::new();
            for (i, &v) in model.iter().enumerate() {
                prop_assert_eq!(pushed.len(), i);
                pushed.push(v);
            }
            let sliced: SVec<u16, 3> = SVec::from_slice(&model);
            let collected: SVec<u16, 3> = model.iter().copied().collect();
            let converted: SVec<u16, 3> = model.clone().into();
            for built in [&pushed, &sliced, &collected, &converted, &pushed.clone()] {
                prop_assert_eq!(built.as_slice(), model.as_slice());
                prop_assert_eq!(&built[..], model.as_slice());
                prop_assert_eq!(built.len(), model.len());
                prop_assert_eq!(built.is_empty(), model.is_empty());
                prop_assert_eq!(built.to_vec(), model.clone());
                prop_assert_eq!(built.iter().copied().collect::<Vec<_>>(), model.clone());
                prop_assert_eq!(built.into_iter().copied().collect::<Vec<_>>(), model.clone());
                prop_assert_eq!(built, &pushed);
                let by_value = built.clone().into_iter();
                prop_assert_eq!(by_value.size_hint(), (model.len(), Some(model.len())));
                prop_assert_eq!(by_value.collect::<Vec<_>>(), model.clone());
            }
            let other_s: SVec<u16, 3> = SVec::from_slice(&other);
            prop_assert_eq!(pushed == other_s, model == other);
            let (mut sorted, mut model_sorted) = (pushed.clone(), model.clone());
            sorted.as_mut_slice().sort_unstable();
            model_sorted.sort_unstable();
            prop_assert_eq!(sorted.as_slice(), model_sorted.as_slice());
        }
    }
}
