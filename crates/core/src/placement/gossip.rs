//! Outbound availability gossip: what this site offers each peer, and
//! which of it is news worth a datagram's bytes right now.
//!
//! Two steps. [`Planner::gossip`] recomputes the per-peer offer lists
//! from the site's spareable surplus and the peers' observed demand;
//! [`Planner::piggyback`] is asked once per outgoing datagram and passes
//! an offer through the one gate — resend window, delta gate, window
//! budget. The transport carries the answer without reading it.

use super::{spare, Planner, View, HINT_TTL};
use crate::dense::SVec;
use crate::item::ItemId;
use crate::Qty;
use dvp_simnet::time::SimTime;
use dvp_simnet::NodeId;

/// Resend window in microseconds: a hint whose surplus has not moved
/// materially (see [`HINT_MIN_DELTA_PCT`]) since it was last sent to a
/// peer is suppressed for this long, per peer and per item. Also the
/// length of the [`HINT_WINDOW_BUDGET`] accounting window.
pub(super) const HINT_RESEND_AFTER_US: u64 = 125_000;
/// Delta gate: inside the resend window a hint is news only when its
/// surplus moved by at least this percentage of the value last sent to
/// that peer. Under a churning workload the surplus moves by a token or
/// two on every commit, so without the gate nearly every datagram would
/// carry a "changed" hint. A surplus last sent as `0` always passes (any
/// recovery from empty is news).
const HINT_MIN_DELTA_PCT: u64 = 25;
/// Hint entries a site may send per resend window, across all peers and
/// datagrams. Bounds gossip volume per unit time however many datagrams
/// the workload emits.
const HINT_WINDOW_BUDGET: u32 = 4;
/// Demand floor for targeted hints: one recent solicitation (EWMA
/// contribution `gain * qty`) stays above it for roughly the hint TTL
/// under the per-tick decay, so exactly the peers that asked lately
/// keep receiving updates.
const HINT_DEMAND_FLOOR: f64 = 0.1;
/// Scope-to-budget fanout: each advertised item goes to at most this
/// many peers — the ones soliciting it hardest (ties to the lower peer
/// id). Under uniform access every peer clears the bare demand floor,
/// which would re-spread the per-window hint budget (n-1) ways.
const HINT_FANOUT: usize = 2;

/// The hints riding one datagram: `(item, advertised surplus)` entries,
/// never more than the window budget, so building one allocates nothing.
pub type Section = SVec<(u32, Qty), { HINT_WINDOW_BUDGET as usize }>;

/// Outbound gossip memory. Volatile like the rest of the planner.
#[derive(Clone, Debug, PartialEq)]
pub(super) struct Gossip {
    /// Sim-instant (µs) of the last offer recompute, `None` before the
    /// first. Recomputing costs an O(items · peers) sweep, so it runs at
    /// most once per `HINT_TTL` instead of on every flush — the gate
    /// decides what actually goes on the wire, so recomputing any faster
    /// changes no bytes (verified identical wire/hint counts at
    /// quarter-TTL cadence).
    last_refresh: Option<u64>,
    /// Per peer: the `(item, surplus)` entries on offer to every
    /// datagram toward it.
    offers: Vec<Vec<(u32, Qty)>>,
    /// Per peer: `(item, surplus, sent_at)` for each hint last sent to
    /// it. Small linear lists — a site gossips a handful of hints.
    sent: Vec<Vec<(u32, Qty, u64)>>,
    /// Start of the current budget window (µs).
    window_start: u64,
    /// Entries already sent in the current window, across all peers.
    window_used: u32,
    /// Recompute buffers, retained so a refresh allocates nothing.
    surplus_scratch: Vec<(u32, Qty)>,
    fanout_scratch: Vec<[NodeId; HINT_FANOUT]>,
}

impl Gossip {
    /// Nothing on offer to, and nothing yet sent to, any of `n` sites.
    pub(super) fn new(n: usize) -> Self {
        Gossip {
            last_refresh: None,
            offers: vec![Vec::new(); n],
            sent: vec![Vec::new(); n],
            window_start: 0,
            window_used: 0,
            surplus_scratch: Vec::new(),
            fanout_scratch: Vec::new(),
        }
    }
}

impl Planner {
    /// Recompute what is on offer to each peer — at most once per
    /// `HINT_TTL`, and only under the adaptive policy: the top few items
    /// by spareable surplus, targeted per peer by observed demand. A peer
    /// is only offered the items it has recently solicited, because a
    /// surplus figure for an item a peer never asks about is gossip it
    /// can never act on. Advisory — a peer believing a stale figure only
    /// wastes a solicitation. Returns whether the offers were recomputed.
    pub fn gossip(&mut self, now: SimTime, view: &impl View) -> bool {
        if !self.policy.is_adaptive() {
            return false;
        }
        let now_us = now.micros();
        let g = &mut self.gossip;
        if g.last_refresh
            .is_some_and(|t| now_us.saturating_sub(t) < HINT_TTL.as_micros())
        {
            return false;
        }
        g.last_refresh = Some(now_us);
        let hints = &mut g.surplus_scratch;
        hints.clear();
        for (idx, &own) in self.own_demand.iter().enumerate() {
            let s = spare(view.have(ItemId(idx as u32)), own);
            if s > 0 {
                hints.push((idx as u32, s));
            }
        }
        hints.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
        // Scope-to-budget matching: the gate admits only
        // `HINT_WINDOW_BUDGET` entries per resend window, so offering a
        // longer list spreads that budget across more (item, peer) pairs
        // than it can keep fresh — every table entry ends up older than
        // the TTL and the hinted path starves. Advertise only the few
        // best surpluses (and, below, only to the couple of peers most
        // likely to act) so each advertised pair is re-gossiped well
        // inside the TTL.
        hints.truncate(HINT_WINDOW_BUDGET as usize);
        // Second half of scope-to-budget: each advertised item goes only
        // to its `HINT_FANOUT` hardest-soliciting peers above the demand
        // floor. Rank once per item — one O(peers) pass filling a top-k
        // insertion array (ascending peer order, strictly-greater
        // replacement, so ties keep the lower id) — instead of re-ranking
        // the whole peer set for every (peer, item) pair.
        let fanout = &mut g.fanout_scratch;
        fanout.clear();
        for &(item, _) in hints.iter() {
            let base = item as usize * self.n;
            let mut top = [usize::MAX; HINT_FANOUT];
            let mut top_d = [0.0f64; HINT_FANOUT];
            for q in 0..self.n {
                if q == self.id {
                    continue;
                }
                let mut cand = (self.peer_demand[base + q], q);
                if cand.0 < HINT_DEMAND_FLOOR {
                    continue;
                }
                for k in 0..HINT_FANOUT {
                    if top[k] == usize::MAX || cand.0 > top_d[k] {
                        std::mem::swap(&mut cand.0, &mut top_d[k]);
                        std::mem::swap(&mut cand.1, &mut top[k]);
                        if cand.1 == usize::MAX {
                            break;
                        }
                    }
                }
            }
            fanout.push(top);
        }
        for (peer, offer) in g.offers.iter_mut().enumerate() {
            offer.clear();
            offer.extend(
                hints
                    .iter()
                    .zip(fanout.iter())
                    .filter(|(_, top)| top.contains(&peer))
                    .map(|(&h, _)| h),
            );
        }
        true
    }

    /// What rides the datagram leaving toward `to` at `now` — the one
    /// hint gate. An offered entry is held back while its surplus has
    /// moved less than `HINT_MIN_DELTA_PCT` since it was last sent to
    /// this peer within `HINT_RESEND_AFTER_US`; survivors are charged
    /// against `HINT_WINDOW_BUDGET`, which cuts the rest off until the
    /// window rolls. An empty answer costs the datagram no bytes; `None`
    /// means nothing is on offer toward `to`, so the gate was not asked.
    pub fn piggyback(&mut self, to: NodeId, now: SimTime) -> Option<Section> {
        let mut section = Section::new();
        let Gossip {
            offers,
            sent,
            window_start,
            window_used,
            ..
        } = &mut self.gossip;
        if offers[to].is_empty() {
            return None;
        }
        let now = now.micros();
        if now.saturating_sub(*window_start) >= HINT_RESEND_AFTER_US {
            *window_start = now;
            *window_used = 0;
        }
        for &(item, surplus) in &offers[to] {
            if *window_used >= HINT_WINDOW_BUDGET {
                break;
            }
            match sent[to].iter_mut().find(|e| e.0 == item) {
                // The memory is deliberately NOT updated on a held-back
                // entry — the delta keeps accumulating against the value
                // the peer actually saw, so a slow drift eventually
                // crosses the gate. (Compared in `u128`: catalog totals
                // are caller input, and `surplus * 100` can pass `u64`.)
                Some(e)
                    if now.saturating_sub(e.2) < HINT_RESEND_AFTER_US
                        && u128::from(surplus.abs_diff(e.1)) * 100
                            < u128::from(e.1) * u128::from(HINT_MIN_DELTA_PCT) =>
                {
                    continue;
                }
                Some(e) => {
                    e.1 = surplus;
                    e.2 = now;
                }
                None => sent[to].push((item, surplus, now)),
            }
            *window_used += 1;
            section.push((item, surplus));
        }
        Some(section)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Placement;
    use dvp_simnet::time::SimDuration;

    /// Site 0 of 4 over a 16-item catalog, with `offers` on the table
    /// (what a `gossip` refresh would have left there).
    fn offering(offers: &[(NodeId, &[(u32, Qty)])]) -> Planner {
        let mut p = Planner::new(0, 4, Placement::adaptive(), 16);
        for &(peer, list) in offers {
            offer(&mut p, peer, list);
        }
        p
    }

    fn offer(p: &mut Planner, peer: NodeId, list: &[(u32, Qty)]) {
        p.gossip.offers[peer] = list.to_vec();
    }

    /// The hints riding a datagram toward `to` at `now_us`.
    fn riding(p: &mut Planner, to: NodeId, now_us: u64) -> Vec<(u32, Qty)> {
        p.piggyback(to, SimTime::ZERO + SimDuration::micros(now_us))
            .unwrap_or_default()
            .to_vec()
    }

    #[test]
    fn unmoved_hints_are_suppressed_within_the_resend_window() {
        let mut p = offering(&[(1, &[(7, 40), (9, 8)]), (2, &[(7, 40)])]);
        assert_eq!(riding(&mut p, 1, 100), vec![(7, 40), (9, 8)]);
        // Unmoved and still inside the window: nothing rides.
        assert!(riding(&mut p, 1, 200).is_empty());
        // Memory is per peer: what peer 1 saw does not gate peer 2.
        assert_eq!(riding(&mut p, 2, 300), vec![(7, 40)]);
        // The window expires: unmoved hints are refreshed.
        assert_eq!(
            riding(&mut p, 1, 100 + HINT_RESEND_AFTER_US),
            vec![(7, 40), (9, 8)]
        );
    }

    #[test]
    fn delta_gate_passes_material_moves_and_accumulates_slow_drift() {
        assert_eq!(HINT_MIN_DELTA_PCT, 25, "the figures below assume 25 %");
        let mut p = offering(&[(1, &[(7, 100)])]);
        assert_eq!(riding(&mut p, 1, 0), vec![(7, 100)]);

        // +24 % of what the peer saw: noise.
        offer(&mut p, 1, &[(7, 124)]);
        assert!(riding(&mut p, 1, 10).is_empty());
        // A further 2-token step is small against 124 but 26 % against
        // the 100 the peer actually saw — the drift accumulated.
        offer(&mut p, 1, &[(7, 126)]);
        assert_eq!(riding(&mut p, 1, 20), vec![(7, 126)]);

        // Downward moves are gated the same way, against the new 126.
        offer(&mut p, 1, &[(7, 95)]);
        assert!(riding(&mut p, 1, 30).is_empty());
        offer(&mut p, 1, &[(7, 94)]);
        assert_eq!(riding(&mut p, 1, 40), vec![(7, 94)]);

        // Next window: a drop to empty is material, and any recovery from
        // a surplus last sent as 0 is news.
        let t = HINT_RESEND_AFTER_US;
        offer(&mut p, 1, &[(7, 0)]);
        assert_eq!(riding(&mut p, 1, t), vec![(7, 0)]);
        offer(&mut p, 1, &[(7, 1)]);
        assert_eq!(riding(&mut p, 1, t + 10), vec![(7, 1)]);
    }

    #[test]
    fn delta_gate_compares_wide_so_huge_fragments_neither_panic_nor_wrap() {
        // `surplus * 100` overflows `u64` from here up; a wrapped product
        // would read a 10 % move as material (or panic a debug build).
        let big = Qty::MAX / 100 + 1;
        let mut p = offering(&[(1, &[(7, big)])]);
        assert_eq!(riding(&mut p, 1, 0), vec![(7, big)]);
        offer(&mut p, 1, &[(7, big - big / 10)]);
        assert!(riding(&mut p, 1, 10).is_empty(), "-10 % is noise");
        offer(&mut p, 1, &[(7, big - big / 3)]);
        assert_eq!(riding(&mut p, 1, 20), vec![(7, big - big / 3)]);
        // The extremes of the type, both directions.
        offer(&mut p, 1, &[(7, Qty::MAX)]);
        assert_eq!(riding(&mut p, 1, 30), vec![(7, Qty::MAX)]);
        offer(&mut p, 1, &[(7, Qty::MAX - 1)]);
        assert!(riding(&mut p, 1, 40).is_empty());
        offer(&mut p, 1, &[(7, 0)]);
        assert_eq!(riding(&mut p, 1, 50), vec![(7, 0)]);
    }

    #[test]
    fn window_budget_caps_entries_across_peers_until_the_window_rolls() {
        let budget = HINT_WINDOW_BUDGET as usize;
        let offered: Vec<(u32, Qty)> = (0..budget as u32 + 2).map(|i| (i, 10 + i as u64)).collect();
        let mut p = offering(&[(1, &offered), (2, &offered)]);

        // The first datagram spends the whole budget; the tail is cut.
        assert_eq!(riding(&mut p, 1, 0), offered[..budget]);
        // The budget is global: peer 2 has seen nothing yet gets nothing.
        assert!(riding(&mut p, 2, 10).is_empty());
        // The window rolls and the budget is whole again.
        assert_eq!(riding(&mut p, 2, HINT_RESEND_AFTER_US), offered[..budget]);
    }

    #[test]
    fn crash_wipes_offered_hints_and_dedupe_memory() {
        let mut p = offering(&[(1, &[(7, 40)])]);
        assert_eq!(riding(&mut p, 1, 100), vec![(7, 40)]);

        // The offers are gossip about pre-crash surplus: gone.
        p.reset();
        assert!(p.piggyback(1, SimTime(200)).is_none());
        // So is the memory: the same figure, re-offered inside the old
        // resend window, goes out again.
        offer(&mut p, 1, &[(7, 40)]);
        assert_eq!(riding(&mut p, 1, 300), vec![(7, 40)]);
    }
}
