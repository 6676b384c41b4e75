//! Replica control: which sites must be touched to read/write an item.

use dvp_core::ItemId;
use dvp_simnet::NodeId;
use std::ops::{BitOr, BitOrAssign, Sub};

/// A set of sites as a bitmask: bit `s` is site `s`, so a set is one
/// word, copies for free, and iterates in ascending site order. It holds
/// sites `0..64`, so a 2PC cluster has at most [`Sites::MAX`] sites —
/// enough for E4, whose largest row is 64 sites.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Sites(u64);

impl Sites {
    /// The most sites a set can hold.
    pub const MAX: usize = u64::BITS as usize;

    /// The empty set.
    pub const EMPTY: Sites = Sites(0);

    /// The set holding `site` alone.
    pub fn one(site: NodeId) -> Sites {
        assert!(
            site < Self::MAX,
            "site {site} is past the {} a set holds",
            Self::MAX
        );
        Sites(1 << site)
    }

    /// Remove `site` (a no-op if absent).
    pub fn remove(&mut self, site: NodeId) {
        *self = *self - Sites::one(site);
    }

    /// Is `site` in the set?
    pub fn contains(self, site: NodeId) -> bool {
        site < Self::MAX && self.0 & (1 << site) != 0
    }

    /// Is the set empty?
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of sites in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// The sites, ascending.
    pub fn iter(self) -> impl Iterator<Item = NodeId> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let site = bits.trailing_zeros() as NodeId;
                bits &= bits - 1;
                site
            })
        })
    }
}

impl BitOr for Sites {
    type Output = Sites;
    fn bitor(self, rhs: Sites) -> Sites {
        Sites(self.0 | rhs.0)
    }
}

impl BitOrAssign for Sites {
    fn bitor_assign(&mut self, rhs: Sites) {
        self.0 |= rhs.0;
    }
}

/// Set difference.
impl Sub for Sites {
    type Output = Sites;
    fn sub(self, rhs: Sites) -> Sites {
        Sites(self.0 & !rhs.0)
    }
}

/// Replica-control strategy for the traditional baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// Every site holds a copy; reads and writes lock a **majority**
    /// quorum (quorum consensus). Survives minority partitions at the
    /// price of majority coordination on every access.
    ReplicatedQuorum,
    /// One primary per item (`item mod n`); all access goes through it.
    /// Cheap when healthy; the item is wholly unavailable when its
    /// primary is unreachable.
    PrimaryCopy,
}

impl Placement {
    /// The set of sites a transaction coordinated at `home` must lock for
    /// `item` in an `n`-site cluster.
    pub fn quorum(&self, item: ItemId, home: NodeId, n: usize) -> Vec<NodeId> {
        match self {
            Placement::ReplicatedQuorum => {
                let need = n / 2 + 1;
                // Prefer the home site (free locality), then ascending ids.
                let mut q = vec![home];
                q.extend((0..n).filter(|&s| s != home).take(need - 1));
                q.truncate(need);
                q
            }
            Placement::PrimaryCopy => vec![item.0 as usize % n],
        }
    }

    /// The sites of [`quorum`](Self::quorum) as a set: the home site and
    /// the lowest other ids under quorum consensus, the primary under
    /// primary copy. `n` is at most [`Sites::MAX`].
    pub fn quorum_mask(&self, item: ItemId, home: NodeId, n: usize) -> Sites {
        match self {
            Placement::ReplicatedQuorum => {
                let need = Self::majority(n);
                let lowest = |k: usize| Sites((1 << k) - 1);
                if home < need {
                    lowest(need)
                } else {
                    lowest(need - 1) | Sites::one(home)
                }
            }
            Placement::PrimaryCopy => Sites::one(item.0 as usize % n),
        }
    }

    /// Majority size for `n` sites.
    pub fn majority(n: usize) -> usize {
        n / 2 + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_is_majority_and_includes_home() {
        let q = Placement::ReplicatedQuorum.quorum(ItemId(0), 2, 5);
        assert_eq!(q.len(), 3);
        assert!(q.contains(&2));
        let uniq: std::collections::HashSet<_> = q.iter().collect();
        assert_eq!(uniq.len(), q.len(), "no duplicate sites");
    }

    #[test]
    fn primary_copy_is_single_site() {
        assert_eq!(Placement::PrimaryCopy.quorum(ItemId(7), 0, 4), vec![3]);
        assert_eq!(Placement::PrimaryCopy.quorum(ItemId(8), 0, 4), vec![0]);
    }

    #[test]
    fn majority_sizes() {
        assert_eq!(Placement::majority(1), 1);
        assert_eq!(Placement::majority(4), 3);
        assert_eq!(Placement::majority(5), 3);
    }

    #[test]
    fn the_quorum_mask_holds_the_quorum() {
        for n in [1, 2, 3, 4, 5, 8, 16, 63, 64] {
            for home in [0, n / 2, n - 1] {
                for item in [ItemId(0), ItemId(7)] {
                    for p in [Placement::ReplicatedQuorum, Placement::PrimaryCopy] {
                        let mut q = p.quorum(item, home, n);
                        q.sort_unstable();
                        let mask = p.quorum_mask(item, home, n);
                        assert_eq!(
                            mask.iter().collect::<Vec<_>>(),
                            q,
                            "{p:?} n={n} home={home}"
                        );
                        assert_eq!(mask.len(), q.len());
                    }
                }
            }
        }
    }

    #[test]
    fn sites_iterate_ascending() {
        let mut s = Sites::one(63) | Sites::one(5);
        s |= Sites::one(0);
        s |= Sites::one(5);
        assert_eq!(s.iter().collect::<Vec<_>>(), [0, 5, 63]);
        assert_eq!(s.len(), 3);
        assert!(s.contains(63) && !s.contains(64) && !s.contains(1));
        s.remove(5);
        s.remove(6);
        assert_eq!((s - Sites::one(0)).iter().collect::<Vec<_>>(), [63]);
        assert!((s - s).is_empty());
    }

    #[test]
    fn two_site_quorum_needs_both() {
        let q = Placement::ReplicatedQuorum.quorum(ItemId(0), 1, 2);
        assert_eq!(q.len(), 2);
    }
}
