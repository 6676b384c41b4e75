//! Collection strategies: `vec` and `btree_map` with size ranges.

use crate::strategy::Strategy;
use crate::test_runner::TestRng;
use std::collections::BTreeMap;
use std::ops::Range;

/// Generate a `Vec` whose length is drawn from `size` and whose elements
/// come from `element`.
pub fn vec<S: Strategy>(element: S, size: Range<usize>) -> VecStrategy<S> {
    VecStrategy { element, size }
}

/// Strategy returned by [`vec()`].
pub struct VecStrategy<S> {
    element: S,
    size: Range<usize>,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn gen(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let n = self.size.gen(rng);
        (0..n).map(|_| self.element.gen(rng)).collect()
    }
}

/// Generate a `BTreeMap` with up to `size` entries (duplicate keys
/// collapse, exactly like real proptest).
pub fn btree_map<K: Strategy, V: Strategy>(
    key: K,
    value: V,
    size: Range<usize>,
) -> BTreeMapStrategy<K, V>
where
    K::Value: Ord,
{
    BTreeMapStrategy { key, value, size }
}

/// Strategy returned by [`btree_map`].
pub struct BTreeMapStrategy<K, V> {
    key: K,
    value: V,
    size: Range<usize>,
}

impl<K: Strategy, V: Strategy> Strategy for BTreeMapStrategy<K, V>
where
    K::Value: Ord,
{
    type Value = BTreeMap<K::Value, V::Value>;
    fn gen(&self, rng: &mut TestRng) -> BTreeMap<K::Value, V::Value> {
        let n = self.size.gen(rng);
        (0..n)
            .map(|_| (self.key.gen(rng), self.value.gen(rng)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_length_in_range() {
        let mut rng = TestRng::new(5);
        let s = vec(0u8..10, 2..6);
        for _ in 0..100 {
            let v = s.gen(&mut rng);
            assert!((2..6).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 10));
        }
    }

    #[test]
    fn btree_map_respects_bounds() {
        let mut rng = TestRng::new(6);
        let s = btree_map(0u64..8, 1u64..5, 0..4);
        for _ in 0..100 {
            let m = s.gen(&mut rng);
            assert!(m.len() < 4);
            assert!(m.keys().all(|&k| k < 8));
            assert!(m.values().all(|&v| (1..5).contains(&v)));
        }
    }
}
