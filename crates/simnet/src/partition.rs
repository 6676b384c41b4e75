//! Network partition schedules.
//!
//! A [`PartitionSchedule`] is a piecewise-constant function of time mapping
//! the site set to a *grouping*: sites in the same group can exchange
//! messages, sites in different groups cannot. This models the paper's
//! network-partition failures, including the "not clean" cases (a site may
//! be alone in its group — indistinguishable, from the outside, from a
//! crashed site, exactly as Section 2.2 observes).
//!
//! The schedule is an *oracle*: protocol code never reads it. Only the
//! network model consults it when deciding whether a message crosses.

use crate::time::SimTime;
use crate::NodeId;

/// One phase of connectivity, active from `from` until the next phase.
#[derive(Clone, Debug)]
struct Phase {
    from: SimTime,
    /// `group[i]` is the partition-group id of site `i`;
    /// `None` means fully connected.
    groups: Option<Vec<u32>>,
}

/// A piecewise-constant partition history.
///
/// Build with [`PartitionSchedule::fully_connected`] then add transitions in
/// increasing time order with [`split_at`](Self::split_at) /
/// [`isolate_at`](Self::isolate_at) / [`heal_at`](Self::heal_at).
#[derive(Clone, Debug, Default)]
pub struct PartitionSchedule {
    phases: Vec<Phase>,
    n: usize,
}

impl PartitionSchedule {
    /// A schedule for `n` sites with no partition ever occurring.
    pub fn fully_connected(n: usize) -> Self {
        PartitionSchedule {
            phases: vec![Phase {
                from: SimTime::ZERO,
                groups: None,
            }],
            n,
        }
    }

    /// At time `at`, split the sites into the given groups.
    ///
    /// Sites not mentioned in any group are isolated (each becomes a
    /// singleton group). Panics if `at` is earlier than the last transition,
    /// if a group mentions an out-of-range site, or if a site appears in
    /// two different groups (which would otherwise silently last-win).
    /// Empty groups are allowed and mean nothing.
    pub fn split_at(mut self, at: SimTime, groups: &[&[NodeId]]) -> Self {
        self.check_monotone(at);
        // Default: every site isolated in its own group.
        let mut g: Vec<u32> = (0..self.n as u32).map(|i| u32::MAX - i).collect();
        for (gid, members) in groups.iter().enumerate() {
            for &m in *members {
                assert!(m < self.n, "site {m} out of range (n={})", self.n);
                let assigned = g[m];
                assert!(
                    assigned == u32::MAX - m as u32 || assigned == gid as u32,
                    "site {m} appears in more than one group"
                );
                g[m] = gid as u32;
            }
        }
        self.phases.push(Phase {
            from: at,
            groups: Some(g),
        });
        self
    }

    /// At time `at`, isolate exactly the listed sites (everyone else stays
    /// mutually connected).
    pub fn isolate_at(self, at: SimTime, isolated: &[NodeId]) -> Self {
        let n = self.n;
        let rest: Vec<NodeId> = (0..n).filter(|i| !isolated.contains(i)).collect();
        let mut groups: Vec<&[NodeId]> = Vec::with_capacity(1 + isolated.len());
        groups.push(&rest[..]);
        let singletons: Vec<[NodeId; 1]> = isolated.iter().map(|&i| [i]).collect();
        for s in &singletons {
            groups.push(&s[..]);
        }
        self.split_at(at, &groups)
    }

    /// At time `at`, restore full connectivity.
    pub fn heal_at(mut self, at: SimTime) -> Self {
        self.check_monotone(at);
        self.phases.push(Phase {
            from: at,
            groups: None,
        });
        self
    }

    fn check_monotone(&self, at: SimTime) {
        if let Some(last) = self.phases.last() {
            assert!(
                at >= last.from,
                "partition transitions must be added in time order"
            );
        }
    }

    /// Can a message sent from `a` reach `b` at time `t`?
    ///
    /// Sites outside the schedule's range are never connected to anything
    /// but themselves (previously two out-of-range sites compared equal as
    /// `None == None` and counted as connected).
    #[inline]
    pub fn connected(&self, a: NodeId, b: NodeId, t: SimTime) -> bool {
        if a == b {
            return true;
        }
        if a >= self.n || b >= self.n {
            return false;
        }
        match self.active(t) {
            None => true,
            Some(groups) => groups[a] == groups[b],
        }
    }

    /// Is the network partitioned at all at time `t`?
    pub fn is_partitioned(&self, t: SimTime) -> bool {
        match self.active(t) {
            None => false,
            Some(groups) => groups.windows(2).any(|w| w[0] != w[1]),
        }
    }

    /// The set of sites reachable from `a` at time `t` (including `a`).
    pub fn group_of(&self, a: NodeId, t: SimTime) -> Vec<NodeId> {
        (0..self.n).filter(|&b| self.connected(a, b, t)).collect()
    }

    #[inline]
    fn active(&self, t: SimTime) -> Option<&[u32]> {
        // Phases are in increasing `from` order; find the last one <= t.
        let idx = self.phases.partition_point(|p| p.from <= t);
        if idx == 0 {
            return None; // before the first phase: fully connected
        }
        self.phases[idx - 1].groups.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::millis(ms)
    }

    #[test]
    fn fully_connected_never_partitions() {
        let s = PartitionSchedule::fully_connected(4);
        for a in 0..4 {
            for b in 0..4 {
                assert!(s.connected(a, b, t(5)));
            }
        }
        assert!(!s.is_partitioned(t(5)));
    }

    #[test]
    fn split_separates_groups() {
        let s = PartitionSchedule::fully_connected(4).split_at(t(10), &[&[0, 1], &[2, 3]]);
        // Before the split: connected.
        assert!(s.connected(0, 3, t(9)));
        // After: only within groups.
        assert!(s.connected(0, 1, t(10)));
        assert!(s.connected(2, 3, t(11)));
        assert!(!s.connected(0, 2, t(10)));
        assert!(!s.connected(1, 3, t(999)));
        assert!(s.is_partitioned(t(10)));
    }

    #[test]
    fn heal_restores_connectivity() {
        let s = PartitionSchedule::fully_connected(3)
            .split_at(t(10), &[&[0], &[1, 2]])
            .heal_at(t(20));
        assert!(!s.connected(0, 1, t(15)));
        assert!(s.connected(0, 1, t(20)));
        assert!(!s.is_partitioned(t(25)));
    }

    #[test]
    fn unlisted_sites_are_isolated() {
        let s = PartitionSchedule::fully_connected(4).split_at(t(0), &[&[0, 1]]);
        assert!(!s.connected(2, 3, t(1)), "unlisted sites must be isolated");
        assert!(!s.connected(2, 0, t(1)));
        assert!(s.connected(2, 2, t(1)), "a site always reaches itself");
    }

    #[test]
    fn isolate_at_keeps_rest_connected() {
        let s = PartitionSchedule::fully_connected(5).isolate_at(t(10), &[2, 4]);
        assert!(s.connected(0, 1, t(11)));
        assert!(s.connected(0, 3, t(11)));
        assert!(!s.connected(2, 4, t(11)), "two isolated sites are separate");
        assert!(!s.connected(2, 0, t(11)));
        assert!(!s.connected(4, 3, t(11)));
    }

    #[test]
    fn group_of_lists_reachable_sites() {
        let s = PartitionSchedule::fully_connected(4).split_at(t(0), &[&[0, 2], &[1, 3]]);
        assert_eq!(s.group_of(0, t(1)), vec![0, 2]);
        assert_eq!(s.group_of(3, t(1)), vec![1, 3]);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn transitions_must_be_monotone() {
        let _ = PartitionSchedule::fully_connected(2)
            .split_at(t(10), &[&[0], &[1]])
            .heal_at(t(5));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn split_checks_site_range() {
        let _ = PartitionSchedule::fully_connected(2).split_at(t(0), &[&[0, 7]]);
    }

    #[test]
    #[should_panic(expected = "more than one group")]
    fn split_rejects_overlapping_groups() {
        let _ = PartitionSchedule::fully_connected(3).split_at(t(0), &[&[0, 1], &[1, 2]]);
    }

    #[test]
    fn out_of_range_sites_are_not_connected() {
        let s = PartitionSchedule::fully_connected(2);
        assert!(s.connected(7, 7, t(1)), "self-loop still holds");
        assert!(!s.connected(7, 8, t(1)));
        assert!(!s.connected(0, 7, t(1)));
        assert!(!s.connected(7, 0, t(1)));
    }

    #[test]
    fn empty_groups_are_allowed() {
        let s = PartitionSchedule::fully_connected(3).split_at(t(0), &[&[], &[0, 1, 2]]);
        assert!(s.connected(0, 2, t(1)));
        assert!(!s.is_partitioned(t(1)));
    }

    #[test]
    fn multiple_phases_resolve_by_time() {
        let s = PartitionSchedule::fully_connected(2)
            .split_at(t(10), &[&[0], &[1]])
            .heal_at(t(20))
            .split_at(t(30), &[&[0], &[1]]);
        assert!(s.connected(0, 1, t(5)));
        assert!(!s.connected(0, 1, t(15)));
        assert!(s.connected(0, 1, t(25)));
        assert!(!s.connected(0, 1, t(35)));
    }
}
