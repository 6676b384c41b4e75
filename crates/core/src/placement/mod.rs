//! Value placement as a pure policy: observations in, decisions out.
//!
//! Every redistribution of value preserves Π (Section 4.1) and
//! serializability holds "subject to redistribution" (Section 6), so
//! *where* value goes — the "best distribution of data values" Section 9
//! leaves open — cannot affect safety. This module makes that cut in
//! the code: the [`Planner`] owns everything a site remembers about
//! placement and every placement constant, and sees the site only
//! through the two per-item facts of a caller-supplied [`View`]. It
//! holds no fragment, no log, no lock table, no kernel handle and no
//! transport, so "placement is safety-inert" holds by construction (a
//! guard test keeps those names out of this directory). All of its state
//! is volatile: [`Planner::reset`] is what a crash does to it. DESIGN.md
//! §4h has the API table.
//!
//! Demand estimation, donation sizing and the periodic rebalance tick
//! live here. The planner is the only code that reads the [`Placement`]
//! policy: the site hands it over at construction and never branches on
//! it again.

use crate::item::ItemId;
use crate::policy::{Placement, RefillPolicy};
use crate::Qty;
use dvp_simnet::time::SimDuration;
use dvp_simnet::NodeId;

/// How often the demand-driven rebalancer wakes. Each tick costs an
/// O(items · peers) demand scan plus a Vm flush on every site, so the
/// cadence is sized for drift detection (hotspot epochs are seconds),
/// not per-transaction reaction — solicitation handles that.
const ADAPTIVE_REBALANCE_EVERY: SimDuration = SimDuration::millis(100);
/// EWMA gain of the demand estimators (higher tracks shifts faster but
/// is noisier).
const DEMAND_GAIN: f64 = 0.25;
/// A donor keeps `HEADROOM ×` its own predicted demand before counting
/// value as spareable surplus (for predictive refill and the rebalancer
/// alike).
const HEADROOM: f64 = 1.5;
/// Persistence gate of the adaptive rebalancer: a genuine demand
/// gradient keeps the same (item, peer) pair on top across ticks,
/// because the hot peer keeps soliciting faster than the EWMA decays.
/// Request noise under symmetric load instead rotates the top pair
/// nearly every tick (whoever asked last wins). Shipping only on the
/// third consecutive tick costs a hotspot two ticks of latency and
/// filters out almost every circular ship.
const SHIP_PERSISTENCE: u32 = 3;

/// `x.ceil() as Qty`, for every `x`, without the libm call `f64::ceil`
/// lowers to on baseline x86-64 (no `roundsd`): truncate, then add one
/// if that dropped a fraction. The adaptive arm rounds a demand figure
/// per donation and per advertised demand, so the call showed up in its
/// profile.
fn ceil_qty(x: f64) -> Qty {
    let t = x as Qty;
    t.saturating_add(Qty::from((t as f64) < x))
}

/// Fragment value beyond the headroom a site keeps for its own predicted
/// demand `own` — what it can predictively donate or proactively
/// rebalance away.
fn spare(have: Qty, own: f64) -> Qty {
    have.saturating_sub(ceil_qty(HEADROOM * own))
}

/// One step of the estimators' shared EWMA toward `sample`.
fn ewma(e: &mut f64, sample: f64) {
    *e += DEMAND_GAIN * (sample - *e);
}

/// The only facts about a site its planner may consult: read-only, per
/// item, supplied by the caller for the duration of one query.
pub trait View {
    /// Local fragment value of `item`.
    fn have(&self, item: ItemId) -> Qty;
    /// Whether `item` is locked (by a transaction or a read lease).
    fn locked(&self, item: ItemId) -> bool;
}

/// One spontaneous Rds transfer a rebalance tick decided on: `(item,
/// destination, amount)`, the amount never more than the view's `have`.
pub type Ship = (ItemId, NodeId, Qty);

/// A site's placement memory and policy. See the module docs for the
/// API table; per-item tables are indexed by `item.0`, per-(item, peer)
/// tables by `item.0 * n + peer` (item-major, so a full scan visits
/// pairs in lexicographic order and ties break toward the lower pair).
#[derive(Clone, Debug, PartialEq)]
pub struct Planner {
    id: NodeId,
    n: usize,
    policy: Placement,
    /// Catalog size: the demand tables' row count.
    items: usize,
    /// This site's own per-item demand EWMA, fed by local transaction
    /// demands and timeout deficits.
    own_demand: Vec<f64>,
    /// Per-(item, peer) solicited-demand EWMA, fed by incoming requests
    /// (the demand-driven rebalancer's targeting and sizing signal).
    peer_demand: Vec<f64>,
    /// The rebalancer's current top (item, peer) candidate and how many
    /// consecutive ticks it has stayed on top (the persistence gate).
    rebalance_candidate: Option<(ItemId, NodeId, u32)>,
}

impl Planner {
    /// A planner for site `id` of `n` over a catalog of `items` items,
    /// with nothing observed yet.
    pub fn new(id: NodeId, n: usize, policy: Placement, items: usize) -> Self {
        Planner {
            id,
            n,
            policy,
            items,
            own_demand: vec![0.0; items],
            peer_demand: vec![0.0; items * n],
            rebalance_candidate: None,
        }
    }

    /// Forget everything observed: the planner's entire memory describes
    /// a pre-crash world, so a crash replaces it with a fresh one.
    pub fn reset(&mut self) {
        *self = Planner::new(self.id, self.n, self.policy, self.items);
    }

    /// The rebalance wake interval: only the adaptive arm rebalances.
    pub fn rebalance_every(&self) -> Option<SimDuration> {
        self.policy
            .is_adaptive()
            .then_some(ADAPTIVE_REBALANCE_EVERY)
    }

    // ---- observations ------------------------------------------------------

    /// One observed local need for `item`.
    pub fn local_demand(&mut self, item: ItemId, qty: Qty) {
        if self.policy.is_adaptive() {
            ewma(&mut self.own_demand[item.0 as usize], qty as f64);
        }
    }

    /// `from` solicited `item`: for a refill, feed the per-peer estimator
    /// with the larger of the instant need and the requester's advertised
    /// figure.
    pub fn peer_request(&mut self, item: ItemId, from: NodeId, need: Qty, demand: Qty, read: bool) {
        if !read && self.policy.is_adaptive() {
            let e = &mut self.peer_demand[item.0 as usize * self.n + from];
            ewma(e, demand.max(need) as f64);
        }
    }

    // ---- decisions ---------------------------------------------------------

    /// The demand figure a solicitation advertises: the requester's own
    /// EWMA estimate, at least the instant need. Zero (inert) when the
    /// adaptive subsystem is off.
    pub fn advertised_demand(&self, item: ItemId, need: Qty) -> Qty {
        if !self.policy.is_adaptive() {
            return 0;
        }
        need.max(ceil_qty(self.own_demand[item.0 as usize]))
    }

    /// What a donor holding `have` grants a refill of `need` whose
    /// requester advertised an ongoing `demand`. `Static` grants nothing
    /// and the reactive arm follows its [`RefillPolicy`]. The adaptive
    /// arm grants the exact deficit plus a predictive top-up toward
    /// `demand`, capped by what the donor can spare beyond its own
    /// predicted needs — one Vm now instead of another solicitation
    /// round-trip soon. Never more than `have`: the top-up only fills
    /// the deficit up to `spare`, which `have` bounds.
    pub fn refill(&self, item: ItemId, need: Qty, demand: Qty, have: Qty) -> Qty {
        match self.policy {
            Placement::Static => 0,
            Placement::Reactive(refill) => refill.amount(need, have),
            Placement::Adaptive => {
                let base = RefillPolicy::DemandExact.amount(need, have);
                let spare = spare(have, self.own_demand[item.0 as usize]);
                base + demand.saturating_sub(need).min(spare.saturating_sub(base))
            }
        }
    }

    /// One rebalance tick, the demand-driven one: ship toward the peer
    /// whose solicited-demand estimate is highest, sized by that
    /// estimate — value migrates to where demand actually is instead of
    /// draining to whoever asked last — then decay the estimates. Beside
    /// the ship: how many demand rows the scan read slot by slot. Every
    /// estimate stays 0 outside the adaptive arm, so there a tick finds
    /// nothing.
    pub fn plan_rebalance(&mut self, view: &impl View) -> (Option<Ship>, u64) {
        // One ship per tick, for the (item, peer) pair with the strongest
        // demand signal. Rebalance Rds transfers are not free — each one
        // costs a force and a Vm round trip — so the rebalancer moves the
        // single most valuable block per cadence instead of dribbling on
        // every item at once (which was measured to *raise* frames/txn).
        let mut best: Option<(ItemId, NodeId, f64)> = None;
        // Item-major nested scan, so ties break toward the lower pair
        // (the winner is the first pair holding the largest qualifying
        // estimate). A slot can only win by clearing the noise floor,
        // this site's own headroom and the best estimate so far, so each
        // row is first screened whole by one branch-free pass (`&` and
        // `|`, not `&&` and `||`): under symmetric load the estimates
        // hover around the noise floor, and a per-slot filter chain then
        // mispredicts on nearly every slot of every tick (measured: 7 ms
        // of an 85 ms full-scale banking run).
        let n = self.n;
        let mut rows_scanned = 0;
        for item_idx in 0..self.items {
            let base = item_idx * n;
            let own = HEADROOM * self.own_demand[item_idx];
            let row = &self.peer_demand[base..base + n];
            let bar = best.map_or(own, |(_, _, b)| if b > own { b } else { own });
            if !row
                .iter()
                .fold(false, |live, &e| live | ((e >= 1.0) & (e > bar)))
            {
                continue;
            }
            rows_scanned += 1;
            for (peer, &e) in row.iter().enumerate() {
                // Noise floor 1.0: a peer must have asked recently and
                // repeatedly before unsolicited value flows its way. And
                // demand *contrast*: the peer must want the item materially
                // more than (a) this site expects to use it itself and
                // (b) the average of the other peers — both with the donor-
                // headroom margin. A spontaneous ship only pays for its
                // force and Vm round trip when demand has genuinely
                // concentrated somewhere; under a symmetric workload every
                // site sees comparable solicited demand for every item,
                // transient EWMA gaps pass any single-estimate test, and
                // an ungated rebalancer ships value in circles.
                if e >= 1.0
                    && peer != self.id
                    && e > own
                    && best.is_none_or(|(_, _, b)| e > b)
                    && !view.locked(ItemId(item_idx as u32))
                {
                    let others: f64 = (0..n)
                        .filter(|&q| q != self.id && q != peer)
                        .map(|q| self.peer_demand[base + q])
                        .sum();
                    let avg_other = others / (n.saturating_sub(2).max(1)) as f64;
                    if e > HEADROOM * avg_other {
                        best = Some((ItemId(item_idx as u32), peer, e));
                    }
                }
            }
        }
        let streak = match (best, self.rebalance_candidate) {
            (Some((item, to, _)), Some((pi, pp, s))) if item == pi && to == pp => s + 1,
            (Some(_), _) => 1,
            (None, _) => 0,
        };
        self.rebalance_candidate = best.map(|(item, to, _)| (item, to, streak));
        let mut ship = None;
        if let Some((item, to, est)) = best.filter(|_| streak >= SHIP_PERSISTENCE) {
            // Ship toward the peer's estimated demand (with the same
            // headroom a donor keeps for itself), never more than spare.
            let own = self.own_demand[item.0 as usize];
            let amount = spare(view.have(item), own).min(ceil_qty(HEADROOM * est));
            if amount > 0 {
                ship = Some((item, to, amount));
                // The shipped block covers the demand we knew about;
                // zeroing the estimate keeps the next tick from shipping
                // again before fresh solicitations justify it.
                self.peer_demand[item.0 as usize * n + to] = 0.0;
            }
        }
        // Demand estimates fade unless refreshed: without decay, a
        // once-hot site would keep attracting value forever after the
        // hotspot drifts elsewhere.
        for e in self.own_demand.iter_mut() {
            *e *= 1.0 - DEMAND_GAIN;
        }
        for e in self.peer_demand.iter_mut() {
            *e *= 1.0 - DEMAND_GAIN;
        }
        (ship, rows_scanned)
    }
}

#[cfg(test)]
mod tests;
