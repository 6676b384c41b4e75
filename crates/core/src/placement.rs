//! Value placement as a pure policy: observations in, decisions out.
//!
//! Every redistribution of value preserves Π (Section 4.1) and
//! serializability holds "subject to redistribution" (Section 6), so
//! *where* value goes — the "best distribution of data values" Section 9
//! leaves open — cannot affect safety. This module makes that cut in
//! the code: the [`Planner`] owns everything a site remembers about
//! placement and every placement constant, and sees the site only
//! through the two per-item facts of a caller-supplied [`View`]. It
//! holds no fragment, no log, no lock table and no kernel handle, so
//! "hints are safety-inert" holds by construction (a guard test below
//! keeps those names out of this file). All of its state is volatile:
//! [`Planner::reset`] is what a crash does to it. DESIGN.md §4h has the
//! API table.

use crate::dense::SVec;
use crate::item::ItemId;
use crate::policy::{Fanout, HintChaos, Placement};
use crate::Qty;
use dvp_simnet::time::{SimDuration, SimTime};
use dvp_simnet::NodeId;
use dvp_vmsg::{HINT_RESEND_AFTER_US, HINT_WINDOW_BUDGET};

/// How often the demand-driven rebalancer wakes. Each tick costs an
/// O(items · peers) demand scan plus a Vm flush on every site, so the
/// cadence is sized for drift detection (hotspot epochs are seconds),
/// not per-transaction reaction — solicitation handles that.
const ADAPTIVE_REBALANCE_EVERY: SimDuration = SimDuration::millis(100);
/// How often the reactive arm's fixed-threshold rebalancer wakes.
const REACTIVE_REBALANCE_EVERY: SimDuration = SimDuration::millis(25);
/// The reactive rebalancer keeps this multiple of a site's initial
/// quota and ships any excess beyond it.
const REACTIVE_SURPLUS_FACTOR: f64 = 2.0;
/// EWMA gain of the demand and hint-trust estimators (higher tracks
/// shifts faster but is noisier).
const DEMAND_GAIN: f64 = 0.25;
/// Advertised-surplus hints older than this are ignored by
/// [`Fanout::Hinted`] targeting (volatile gossip must expire). Twice the
/// endpoint's resend window, so every advertised (item, peer) pair is
/// re-gossiped at least twice inside it.
const HINT_TTL: SimDuration = SimDuration::micros(2 * HINT_RESEND_AFTER_US);
/// A donor keeps `HEADROOM ×` its own predicted demand before counting
/// value as spareable surplus (for advertisement, predictive refill and
/// the rebalancer alike).
const HEADROOM: f64 = 1.5;
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
/// per donation and per advertised item, so the call showed up in its
/// profile.
fn ceil_qty(x: f64) -> Qty {
    let t = x as Qty;
    t.saturating_add(Qty::from((t as f64) < x))
}

/// Fragment value beyond the headroom a site keeps for its own predicted
/// demand `own` — what it can advertise, predictively donate, or
/// proactively rebalance away.
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

/// Whom a deficit solicits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Target {
    /// Exactly one peer. `hinted` carries the advertised surplus that
    /// selected it (`None` = the round-robin pick); the caller remembers
    /// the target so the outcome can be reported back.
    One {
        /// The peer to ask.
        peer: NodeId,
        /// The hint that chose it, if one did.
        hinted: Option<Qty>,
    },
    /// Every other site.
    All,
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
    /// Initial per-item quota (the reactive rebalancer's target level).
    quotas: Vec<Qty>,
    /// Last site to solicit each item — where demand lives (the
    /// reactive rebalancer's targeting signal).
    demand_hint: Vec<Option<NodeId>>,
    /// This site's own per-item demand EWMA, fed by local transaction
    /// demands and timeout deficits.
    own_demand: Vec<f64>,
    /// Per-(item, peer) solicited-demand EWMA, fed by incoming requests
    /// (the demand-driven rebalancer's targeting and sizing signal).
    peer_demand: Vec<f64>,
    /// Advertised-surplus hints received from peers, with their arrival
    /// instant. Indexed like `peer_demand`.
    hint_table: Vec<Option<(Qty, SimTime)>>,
    /// This site's trust in hint gossip, an EWMA in `[0, 1]` fed by
    /// hinted-solicitation outcomes (a hit raises it, a timeout on a
    /// hinted target lowers it). It scales the effective hint TTL — when
    /// hints keep lying (fast demand drift), borderline-stale entries
    /// expire sooner and solicitation falls back to broadcast instead of
    /// burning timeouts on dead ends.
    hint_confidence: f64,
    /// Sim-instant (µs) of the last gossip recompute, `None` before the
    /// first. Recomputing the per-peer lists costs an O(items · peers)
    /// sweep, so it runs at most once per `HINT_TTL` instead of on every
    /// flush — the endpoint's gate decides what actually goes on the
    /// wire, so recomputing any faster changes no bytes (verified
    /// identical wire/hint counts at quarter-TTL cadence).
    last_hint_refresh: Option<u64>,
    /// The rebalancer's current top (item, peer) candidate and how many
    /// consecutive ticks it has stayed on top (the persistence gate).
    rebalance_candidate: Option<(ItemId, NodeId, u32)>,
    /// Peers suspected unresponsive after an unanswered single-target
    /// solicitation, until the stored instant.
    suspect_until: Vec<Option<SimTime>>,
    /// Round-robin pointer for [`Fanout::One`].
    rr: usize,
    /// Gossip recompute buffers, retained so the hinted fast path
    /// allocates nothing per dispatch.
    hint_refresh_scratch: Vec<(u32, Qty)>,
    peer_hint_scratch: Vec<(u32, Qty)>,
    hint_fanout_scratch: Vec<[NodeId; HINT_FANOUT]>,
}

impl Planner {
    /// A planner for site `id` of `n`, with nothing observed yet.
    /// `quotas[i]` is the site's initial fragment of item `i`.
    pub fn new(id: NodeId, n: usize, policy: Placement, quotas: Vec<Qty>) -> Self {
        let k = quotas.len();
        Planner {
            id,
            n,
            policy,
            quotas,
            demand_hint: vec![None; k],
            own_demand: vec![0.0; k],
            peer_demand: vec![0.0; k * n],
            hint_table: vec![None; k * n],
            hint_confidence: 1.0,
            last_hint_refresh: None,
            rebalance_candidate: None,
            suspect_until: vec![None; n],
            rr: (id + 1) % n.max(1),
            hint_refresh_scratch: Vec::new(),
            peer_hint_scratch: Vec::new(),
            hint_fanout_scratch: Vec::new(),
        }
    }

    /// Forget everything observed: the planner's entire memory describes
    /// a pre-crash world, so a crash replaces it with a fresh one.
    pub fn reset(&mut self) {
        let quotas = std::mem::take(&mut self.quotas);
        *self = Planner::new(self.id, self.n, self.policy, quotas);
    }

    /// The rebalance wake interval, if any arm of the policy rebalances.
    pub fn rebalance_every(&self) -> Option<SimDuration> {
        match self.policy {
            Placement::Static => None,
            Placement::Reactive(r) => r.rebalance.then_some(REACTIVE_REBALANCE_EVERY),
            Placement::Adaptive(_) => Some(ADAPTIVE_REBALANCE_EVERY),
        }
    }

    // ---- observations ------------------------------------------------------

    /// One observed local need for `item`.
    pub fn local_demand(&mut self, item: ItemId, qty: Qty) {
        if self.policy.is_adaptive() {
            ewma(&mut self.own_demand[item.0 as usize], qty as f64);
        }
    }

    /// `from` solicited `item`: remember where demand lives, and (for a
    /// refill) feed the per-peer estimator with the larger of the
    /// instant need and the requester's advertised figure.
    pub fn peer_request(&mut self, item: ItemId, from: NodeId, need: Qty, demand: Qty, read: bool) {
        self.demand_hint[item.0 as usize] = Some(from);
        if !read && self.policy.is_adaptive() {
            let e = &mut self.peer_demand[item.0 as usize * self.n + from];
            ewma(e, demand.max(need) as f64);
        }
    }

    /// Record availability hints that arrived from `from` (through the
    /// chaos knob, for the safety-inertness tests).
    pub fn hints_from(
        &mut self,
        from: NodeId,
        hints: impl IntoIterator<Item = (u32, Qty)>,
        now: SimTime,
    ) {
        match self.policy.adaptive_params().map(|a| a.chaos) {
            None | Some(HintChaos::Drop) => return, // subsystem off, or chaos
            // `Duplicate` needs no second pass: a slot holds the last
            // write, so applying a hint twice is applying it once.
            Some(HintChaos::None | HintChaos::Duplicate | HintChaos::Stale) => {}
        }
        for (item, surplus) in hints {
            // Hints arrive off the wire: an id outside the catalog has no
            // table slot (and could never match a solicitation), so it is
            // dropped rather than trusted.
            if (item as usize) < self.quotas.len() {
                self.hint_table[item as usize * self.n + from] = Some((surplus, now));
            }
        }
    }

    /// Any message from a suspected peer proves it alive again.
    pub fn peer_alive(&mut self, from: NodeId) {
        self.suspect_until[from] = None;
    }

    /// A single-target solicitation for `item` aimed at `peer` went
    /// unanswered: the peer is suspect until `until`, so the next
    /// round-robin or hinted pick skips it. If a hint chose the peer,
    /// the hint lied — the advertised surplus was gone by the time the
    /// request landed. Drop the entry so the retry (and every other
    /// transaction) stops re-targeting the same dead end, and lower the
    /// site's trust in gossip so borderline-stale hints expire sooner.
    pub fn solicit_timed_out(&mut self, item: ItemId, peer: NodeId, hinted: bool, until: SimTime) {
        self.suspect_until[peer] = Some(until);
        if hinted {
            self.hint_table[item.0 as usize * self.n + peer] = None;
            ewma(&mut self.hint_confidence, 0.0);
        }
    }

    /// The hint-selected donor answered: the hint paid off.
    pub fn hint_paid_off(&mut self) {
        ewma(&mut self.hint_confidence, 1.0);
    }

    // ---- decisions ---------------------------------------------------------

    /// Whom to solicit `need` of `item` from. A hint that is used is
    /// debited on the spot: soliciting consumes the advertised surplus,
    /// so back-to-back deficits don't all pile onto the same (now
    /// drained) donor before its next gossip refresh.
    pub fn target(&mut self, item: ItemId, need: Qty, now: SimTime) -> Target {
        match self.policy.fanout() {
            Fanout::All => Target::All,
            Fanout::One => Target::One {
                peer: self.next_rr(now),
                hinted: None,
            },
            // No usable hint (cold start, everything stale or suspect):
            // broadcast. Losing every hint costs messages, never liveness.
            Fanout::Hinted => match self.hinted_target(item, need, now) {
                Some((peer, surplus)) => {
                    if let Some(h) = self.hint_table[item.0 as usize * self.n + peer].as_mut() {
                        h.0 = h.0.saturating_sub(need);
                    }
                    Target::One {
                        peer,
                        hinted: Some(surplus),
                    }
                }
                None => Target::All,
            },
        }
    }

    /// The demand figure a solicitation advertises: the requester's own
    /// EWMA estimate, at least the instant need. Zero (inert) when the
    /// adaptive subsystem is off.
    pub fn advertised_demand(&self, item: ItemId, need: Qty) -> Qty {
        if !self.policy.is_adaptive() {
            return 0;
        }
        need.max(ceil_qty(self.own_demand[item.0 as usize]))
    }

    /// Predictive refill: what a donor holding `have` adds to its `base`
    /// refill to top the requester up toward its advertised ongoing
    /// `demand`, capped by what the donor can spare beyond its own
    /// predicted needs — one Vm now instead of another solicitation
    /// round-trip soon. Zero when the adaptive subsystem is off.
    pub fn refill_extra(&self, item: ItemId, need: Qty, demand: Qty, base: Qty, have: Qty) -> Qty {
        if !self.policy.is_adaptive() {
            return 0;
        }
        let spare = spare(have, self.own_demand[item.0 as usize]);
        demand.saturating_sub(need).min(spare.saturating_sub(base))
    }

    /// Recompute the availability hints offered to outgoing datagrams —
    /// at most once per `HINT_TTL`, and only under the adaptive policy —
    /// handing `offer` one list per peer: the top few items by spareable
    /// surplus, targeted per peer by observed demand. A peer only
    /// receives the hints for items it has recently solicited, because a
    /// surplus figure for an item a peer never asks about is gossip it
    /// can never act on. Advisory — a peer believing a stale figure only
    /// wastes a solicitation.
    pub fn gossip(
        &mut self,
        now: SimTime,
        view: &impl View,
        mut offer: impl FnMut(NodeId, &[(u32, Qty)]),
    ) {
        if !self.policy.is_adaptive() {
            return;
        }
        let now_us = now.micros();
        if self
            .last_hint_refresh
            .is_some_and(|t| now_us.saturating_sub(t) < HINT_TTL.as_micros())
        {
            return;
        }
        self.last_hint_refresh = Some(now_us);
        let hints = &mut self.hint_refresh_scratch;
        hints.clear();
        for (idx, &own) in self.own_demand.iter().enumerate() {
            let s = spare(view.have(ItemId(idx as u32)), own);
            if s > 0 {
                hints.push((idx as u32, s));
            }
        }
        hints.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
        // Scope-to-budget matching: the endpoint's gate admits only
        // `HINT_WINDOW_BUDGET` entries per resend window, so gossiping a
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
        let fanout = &mut self.hint_fanout_scratch;
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
        let filtered = &mut self.peer_hint_scratch;
        for peer in (0..self.n).filter(|&p| p != self.id) {
            filtered.clear();
            filtered.extend(
                hints
                    .iter()
                    .zip(fanout.iter())
                    .filter(|(_, top)| top.contains(&peer))
                    .map(|(&h, _)| h),
            );
            offer(peer, filtered);
        }
    }

    /// One rebalance tick: the spontaneous Rds transfers to make now,
    /// shipping surplus value toward observed demand. The reactive arm
    /// ships every unlocked item's excess over the fixed
    /// `REACTIVE_SURPLUS_FACTOR ×` quota threshold to the item's *last*
    /// solicitor; the adaptive arm sizes and targets by the demand EWMAs,
    /// at most one ship a tick, and decays the estimates.
    pub fn plan_rebalance(&mut self, now: SimTime, view: &impl View) -> SVec<Ship, 1> {
        let mut ships = SVec::new();
        match self.policy {
            Placement::Reactive(r) if r.rebalance => {
                for (idx, &quota) in self.quotas.iter().enumerate() {
                    let item = ItemId(idx as u32);
                    if quota == 0 || view.locked(item) {
                        continue;
                    }
                    let have = view.have(item);
                    let threshold = ceil_qty(REACTIVE_SURPLUS_FACTOR * quota as f64);
                    if have <= threshold {
                        continue;
                    }
                    match self.demand_hint[idx] {
                        // Ship the excess above the threshold (keep `threshold`).
                        Some(to) if to != self.id => ships.push((item, to, have - threshold)),
                        _ => {} // no demand signal: leave the value be
                    }
                }
            }
            Placement::Adaptive(_) => {
                if let Some(ship) = self.plan_adaptive(now, view) {
                    ships.push(ship);
                }
            }
            Placement::Static | Placement::Reactive(_) => {}
        }
        ships
    }

    // ---- internals ---------------------------------------------------------

    /// The demand-driven tick: ship toward the peer whose
    /// solicited-demand estimate is highest, sized by that estimate —
    /// value migrates to where demand actually is instead of draining to
    /// whoever asked last.
    fn plan_adaptive(&mut self, now: SimTime, view: &impl View) -> Option<Ship> {
        // One ship per tick, for the (item, peer) pair with the strongest
        // demand signal. Rebalance Rds transfers are not free — each one
        // costs a force and a Vm round trip — so the rebalancer moves the
        // single most valuable block per cadence instead of dribbling on
        // every item at once (which was measured to *raise* frames/txn
        // past what hint-directed solicitation saves).
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
        for item_idx in 0..self.quotas.len() {
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
                    && !self.is_suspect(peer, now)
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
        ship
    }

    /// The hint TTL scaled by observed hint trust: full `HINT_TTL` while
    /// hints keep paying off, down to a quarter of it when they keep
    /// lying (fast drift makes old gossip worthless sooner).
    fn effective_hint_ttl_us(&self) -> u64 {
        let scale = self.hint_confidence.clamp(0.25, 1.0);
        (HINT_TTL.as_micros() as f64 * scale) as u64
    }

    /// The peer with the highest fresh advertised surplus for `item`
    /// (suspects and expired hints excluded).
    fn hinted_target(&self, item: ItemId, need: Qty, now: SimTime) -> Option<(NodeId, Qty)> {
        if self.policy.adaptive_params()?.chaos == HintChaos::Stale {
            return None; // chaos: every hint is treated as expired
        }
        let ttl_us = self.effective_hint_ttl_us();
        let mut best: Option<(NodeId, Qty)> = None;
        let base = item.0 as usize * self.n;
        for peer in 0..self.n {
            let (surplus, at) = match self.hint_table[base + peer] {
                Some(h) => h,
                None => continue,
            };
            // A hint below the need would aim the whole solicitation at a
            // donor that cannot cover it — under Conc1's silent declines
            // that burns the full timeout, so such hints don't qualify.
            if peer == self.id || surplus < need.max(1) {
                continue;
            }
            if now.since(at).as_micros() > ttl_us || self.is_suspect(peer, now) {
                continue;
            }
            if best.is_none_or(|(_, s)| surplus > s) {
                best = Some((peer, surplus));
            }
        }
        best
    }

    /// Whether `peer` is currently suspected unresponsive.
    fn is_suspect(&self, peer: NodeId, now: SimTime) -> bool {
        self.suspect_until[peer].is_some_and(|until| now < until)
    }

    fn next_rr(&mut self, now: SimTime) -> NodeId {
        let mut cand = self.rr % self.n;
        if cand == self.id {
            cand = (cand + 1) % self.n;
        }
        // Skip peers recently seen unresponsive to a single-target
        // solicitation — asking a known-dead peer burns the whole
        // timeout for nothing. If every peer is suspect, keep the
        // original candidate: asking is still no worse than aborting.
        let mut probe = cand;
        for _ in 0..self.n {
            if probe != self.id && !self.is_suspect(probe, now) {
                cand = probe;
                break;
            }
            probe = (probe + 1) % self.n;
        }
        self.rr = (cand + 1) % self.n;
        cand
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{AdaptivePlacement, ReactivePlacement};

    /// A site as the planner sees it: `have[i]` / `locked[i]` of item `i`.
    struct Site(Vec<Qty>, Vec<bool>);

    impl View for Site {
        fn have(&self, item: ItemId) -> Qty {
            self.0[item.0 as usize]
        }
        fn locked(&self, item: ItemId) -> bool {
            self.1[item.0 as usize]
        }
    }

    const A: ItemId = ItemId(0);
    const B: ItemId = ItemId(1);

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::millis(ms)
    }

    /// Site 0 of 4 with 100 of each of two items, under `policy`.
    fn planner(policy: Placement) -> (Planner, Site) {
        let site = Site(vec![100, 100], vec![false, false]);
        (Planner::new(0, 4, policy, site.0.clone()), site)
    }

    fn adaptive(fanout: Fanout, chaos: HintChaos) -> Placement {
        Placement::Adaptive(AdaptivePlacement { fanout, chaos })
    }

    fn rebalancing() -> Placement {
        Placement::Reactive(ReactivePlacement {
            rebalance: true,
            ..Default::default()
        })
    }

    fn round_robin() -> Placement {
        Placement::Reactive(ReactivePlacement {
            fanout: Fanout::One,
            ..Default::default()
        })
    }

    fn one(peer: NodeId, hinted: Option<Qty>) -> Target {
        Target::One { peer, hinted }
    }

    #[test]
    fn ceil_qty_is_ceil_then_cast_for_every_kind_of_input() {
        // 2^53 (every f64 from there up is whole) and 2^64 included.
        let mut cases = vec![
            0.0,
            -0.0,
            -3.5,
            0.25,
            1.0,
            1.0 + f64::EPSILON,
            2.5,
            1e15 + 0.5,
            9_007_199_254_740_992.0,
            1.8446744073709552e19,
            1e300,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        // The shapes the call sites produce: HEADROOM x a decaying EWMA.
        let mut e = 97.0f64;
        for _ in 0..200 {
            cases.push(HEADROOM * e);
            e *= 1.0 - DEMAND_GAIN;
        }
        for x in cases {
            assert_eq!(ceil_qty(x), x.ceil() as Qty, "x = {x:e}");
        }
    }

    #[test]
    fn rebalance_cadence_follows_the_policy() {
        let every = |p| planner(p).0.rebalance_every();
        assert_eq!(every(Placement::Static), None);
        assert_eq!(every(Placement::reactive()), None);
        assert_eq!(every(rebalancing()), Some(REACTIVE_REBALANCE_EVERY));
        assert_eq!(every(Placement::adaptive()), Some(ADAPTIVE_REBALANCE_EVERY));
    }

    #[test]
    fn reactive_arm_ships_every_excess_over_twice_quota_to_the_last_solicitor() {
        let (mut p, mut site) = planner(rebalancing());
        site.0 = vec![250, 230];
        assert!(p.plan_rebalance(at(0), &site).is_empty(), "no signal");
        p.peer_request(A, 2, 10, 0, false);
        p.peer_request(B, 3, 0, 0, true);
        let plan = p.plan_rebalance(at(25), &site);
        assert_eq!(plan.as_slice(), &[(A, 2, 50), (B, 3, 30)]);
        site.1[0] = true; // a locked item stays put
        assert_eq!(p.plan_rebalance(at(50), &site).as_slice(), &[(B, 3, 30)]);
    }

    #[test]
    fn adaptive_arm_ships_on_the_third_tick_the_same_pair_stays_on_top() {
        let (mut p, site) = planner(Placement::adaptive());
        let tick = |p: &mut Planner, hot: NodeId, k: u64| {
            p.peer_request(B, hot, 40, 40, false);
            p.plan_rebalance(at(100 * k), &site)
        };
        assert!(tick(&mut p, 2, 1).is_empty());
        assert!(tick(&mut p, 2, 2).is_empty());
        let third = tick(&mut p, 2, 3);
        let &[(item, to, amount)] = third.as_slice() else {
            panic!("third tick must ship once: {third:?}");
        };
        assert_eq!((item, to), (B, 2));
        assert!((1..=100).contains(&amount));

        // A different peer taking over the top restarts the streak.
        let (mut p, _) = planner(Placement::adaptive());
        assert!(tick(&mut p, 2, 1).is_empty());
        assert!(tick(&mut p, 2, 2).is_empty());
        p.peer_request(B, 3, 400, 400, false);
        assert!(tick(&mut p, 3, 3).is_empty());
    }

    #[test]
    fn adaptive_arm_never_ships_under_symmetric_demand() {
        let (mut p, site) = planner(Placement::adaptive());
        for k in 0..20 {
            for peer in 1..4 {
                p.peer_request(A, peer, 30, 30, false);
            }
            assert!(
                p.plan_rebalance(at(100 * k), &site).is_empty(),
                "no peer stands out: the contrast gate must hold at tick {k}"
            );
        }
    }

    #[test]
    fn target_skips_unusable_hints_and_debits_the_one_it_uses() {
        let (mut p, _) = planner(Placement::adaptive());
        p.hints_from(1, [(0, 5)], at(0)); // below the need
        p.hints_from(2, [(0, 50)], at(0));
        p.hints_from(3, [(0, 80), (7, 9)], at(0)); // item 7: not in the catalog
        assert_eq!(p.target(B, 40, at(1)), Target::All, "no hint for B");
        assert_eq!(p.target(A, 40, at(1)), one(3, Some(80)));
        assert_eq!(p.target(A, 40, at(1)), one(2, Some(50)), "3 is down to 40");
        assert_eq!(p.target(A, 40, at(1)), one(3, Some(40)));
        assert_eq!(p.target(A, 40, at(1)), Target::All, "every hint is spent");

        // A suspect's hint is skipped until the peer is heard from again.
        let (mut p, _) = planner(Placement::adaptive());
        p.hints_from(2, [(0, 50)], at(0));
        p.hints_from(3, [(0, 80)], at(0));
        p.solicit_timed_out(B, 3, false, at(100));
        assert_eq!(p.target(A, 1, at(1)), one(2, Some(50)));
        p.peer_alive(3);
        assert_eq!(p.target(A, 1, at(1)), one(3, Some(80)));

        // Hints expire at the TTL, and sooner once a hinted target timed out.
        let ttl = HINT_TTL.as_micros() / 1_000;
        let (mut p, _) = planner(Placement::adaptive());
        p.hints_from(2, [(0, 50)], at(0));
        let mut wary = p.clone();
        wary.solicit_timed_out(B, 3, true, at(0));
        assert_eq!(p.clone().target(A, 1, at(ttl)), one(2, Some(50)));
        assert_eq!(p.target(A, 1, at(ttl + 1)), Target::All);
        assert_eq!(wary.target(A, 1, at(ttl * 4 / 5)), Target::All);
    }

    #[test]
    fn round_robin_skips_suspects_and_falls_back_when_all_are_suspect() {
        let (mut p, _) = planner(round_robin());
        let next = |p: &mut Planner, ms| match p.target(A, 1, at(ms)) {
            Target::One { peer, hinted: None } => peer,
            other => panic!("round-robin must pick one peer: {other:?}"),
        };
        let first: Vec<_> = (0..3).map(|_| next(&mut p, 0)).collect();
        assert_eq!(first, [1, 2, 3]);
        assert_eq!(next(&mut p, 0), 1, "wraps past itself");
        p.solicit_timed_out(A, 2, false, at(100));
        assert_eq!(next(&mut p, 1), 3, "2 is suspect");
        assert_eq!(next(&mut p, 100), 1);
        assert_eq!(next(&mut p, 100), 2, "suspicion lapsed at its deadline");
        for peer in 1..4 {
            p.solicit_timed_out(A, peer, false, at(500));
        }
        assert_eq!(next(&mut p, 200), 3, "all suspect: keep the rotation");
        assert_eq!(next(&mut p, 200), 1);
    }

    #[test]
    fn hint_chaos_at_the_ingest_and_target_boundary() {
        let run = |chaos| {
            let (mut p, _) = planner(adaptive(Fanout::Hinted, chaos));
            p.hints_from(2, [(0, 50), (1, 20)], at(0));
            p.hints_from(3, [(0, 80)], at(0));
            let picks = [
                p.target(A, 40, at(1)),
                p.target(A, 40, at(1)),
                p.target(B, 5, at(1)),
            ];
            (p, picks)
        };
        let (_, plain) = run(HintChaos::None);
        assert_eq!(
            plain,
            [one(3, Some(80)), one(2, Some(50)), one(2, Some(20))]
        );
        assert_eq!(run(HintChaos::Duplicate).1, plain, "twice is idempotent");
        let (stale, picks) = run(HintChaos::Stale);
        assert_eq!(picks, [Target::All; 3], "recorded, but treated as expired");
        assert!(stale.hint_table.iter().any(Option::is_some));
        let (dropped, picks) = run(HintChaos::Drop);
        assert_eq!(picks, [Target::All; 3]);
        let untouched = planner(adaptive(Fanout::Hinted, HintChaos::Drop)).0;
        assert_eq!(dropped, untouched);
        // With the subsystem off, arriving hints are ignored outright.
        let (mut off, _) = planner(Placement::reactive());
        off.hints_from(2, [(0, 50)], at(0));
        assert_eq!(off, planner(Placement::reactive()).0);
    }

    #[test]
    fn reset_leaves_a_freshly_built_planner_after_any_observation_sequence() {
        for policy in [Placement::adaptive(), round_robin(), Placement::Static] {
            let (mut p, site) = planner(policy);
            let fresh = p.clone();
            let mut x = 0x9E37_79B9_7F4A_7C15u64; // xorshift: any sequence will do
            for step in 0..400 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let (item, peer) = (ItemId((x >> 8) as u32 % 2), 1 + (x >> 16) as usize % 3);
                let (qty, now) = ((x >> 24) % 90, at(step * 20));
                match x % 10 {
                    0 => p.local_demand(item, qty),
                    1 => p.peer_request(item, peer, qty, qty + 5, x & 256 != 0),
                    2 => p.hints_from(peer, [(item.0, qty)], now),
                    3 => p.peer_alive(peer),
                    4 => p.solicit_timed_out(item, peer, x & 256 != 0, at(step * 20 + 100)),
                    5 => p.hint_paid_off(),
                    6 => drop(p.target(item, qty, now)),
                    7 => drop(p.refill_extra(item, qty, qty + 9, qty.min(50), 50)),
                    8 => p.gossip(now, &site, |_, _| {}),
                    _ => drop(p.plan_rebalance(now, &site)),
                }
            }
            assert_ne!(p, fresh, "the sequence must have left a mark");
            p.reset();
            assert_eq!(p, fresh);
        }
    }

    /// The module is pure by construction only while it cannot *name*
    /// anything safety-bearing.
    #[test]
    fn placement_names_nothing_safety_bearing() {
        let source = include_str!("placement.rs");
        let code = source.split("#[cfg(test)]").next().unwrap();
        for line in code.lines().filter(|l| !l.trim_start().starts_with("//")) {
            for banned in "FragmentStore StableLog SiteRecord VmEndpoint Context".split(' ') {
                assert!(!line.contains(banned), "`{banned}` named in: {line}");
            }
        }
    }
}
