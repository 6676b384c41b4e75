//! Site configuration: the knobs, and nothing that acts on them.
//!
//! These knobs are the paper's acknowledged open space ("performance
//! studies to find the best ways to distribute the data, to design the
//! transactions and to reduce the message traffic are needed", Section 9)
//! — each is swept by an experiment or an ablation bench.
//!
//! Value-placement policy is folded into a single [`Placement`] type:
//! [`Placement::Static`] never moves value, [`Placement::Reactive`] is
//! the paper's baseline (value moves only on demand-triggered refills),
//! and [`Placement::Adaptive`] layers the demand-adaptive subsystem on
//! top (per-item demand EWMAs, predictive refill, and the one
//! rebalancer, a demand-driven one). The mechanism and its constants
//! live in [`crate::placement`], the only reader of the policy.
//! Configurations are assembled with [`SiteConfig::builder`].

use crate::Qty;
use dvp_simnet::time::SimDuration;
use dvp_storage::CHECKPOINT_EVERY;

/// How much value a donor ships when honouring a refill request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefillPolicy {
    /// Exactly the deficit (capped by what the donor has). Minimal value
    /// movement; the requester may need to ask again soon.
    DemandExact,
    /// The deficit plus half the donor's surplus beyond it. Fewer future
    /// requests at the cost of more value drift.
    DemandHalf,
}

impl RefillPolicy {
    /// Amount to donate given the requested `need` and local `have`.
    pub fn amount(&self, need: Qty, have: Qty) -> Qty {
        match self {
            RefillPolicy::DemandExact => need.min(have),
            RefillPolicy::DemandHalf => {
                if have <= need {
                    have
                } else {
                    need + (have - need) / 2
                }
            }
        }
    }
}

/// Which concurrency-control scheme the sites run (paper Section 6).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConcMode {
    /// Conc1: conservative timestamping — a lock (local or solicited) is
    /// granted only if `TS(t) > TS(d)`; conflicts and stale timestamps
    /// abort/ignore immediately. Works on any network.
    Conc1,
    /// Conc2: strict two-phase locking with FIFO lock queues. Section 6.2
    /// assumes message-order synchronicity and ordered broadcast for it; the
    /// engine does not rely on them, and T5's `conc2` row checks it on the
    /// lossy, duplicating campaign network.
    Conc2,
}

/// Where value sits and how it moves: the unified placement policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Placement {
    /// Value never moves: every refill solicitation is declined, so a
    /// transaction exceeding its local fragment aborts at its timeout.
    /// Full-value *reads* still work (the Section 5 read protocol ships
    /// fragments under leases — that is reading, not re-placement).
    /// The ablation floor: what partitioning costs with no redistribution
    /// at all.
    Static,
    /// The paper's baseline: value moves only when demanded, and a donor
    /// sizes each refill by the [`RefillPolicy`] — never spontaneously
    /// (the one rebalancer is [`Placement::Adaptive`]'s). The default,
    /// with demand-exact refills.
    Reactive(RefillPolicy),
    /// The demand-adaptive subsystem: demand EWMAs, predictive refill and
    /// demand-driven rebalancing, the only rebalancer (mechanism,
    /// constants and the volatility / safety-inertness argument:
    /// [`crate::placement`]).
    Adaptive,
}

impl Default for Placement {
    fn default() -> Self {
        Placement::Reactive(RefillPolicy::DemandExact)
    }
}

impl Placement {
    /// The default reactive policy (demand-exact refills) — today's and
    /// the paper's baseline.
    pub fn reactive() -> Self {
        Placement::default()
    }

    /// The adaptive policy.
    pub fn adaptive() -> Self {
        Placement::Adaptive
    }

    /// Whether the demand-adaptive subsystem is on.
    pub fn is_adaptive(&self) -> bool {
        matches!(self, Placement::Adaptive)
    }
}

/// Per-site protocol configuration. Assemble with [`SiteConfig::builder`].
#[derive(Clone, Copy, Debug)]
pub struct SiteConfig {
    /// Transaction timeout: solicited value must arrive within this span
    /// or the transaction aborts (the paper's pessimistic Step 3).
    pub txn_timeout: SimDuration,
    /// Value-placement policy (refill, rebalancing, adaptivity).
    pub placement: Placement,
    /// Concurrency-control scheme.
    pub conc: ConcMode,
    /// Take a checkpoint (snapshot + log truncation) once the stable log's
    /// un-checkpointed suffix reaches this many records — §7's "the number
    /// of redo actions required can be reduced in the usual manner".
    /// Default `Some(CHECKPOINT_EVERY)` (256, the interval the 2PC
    /// baseline checkpoints at too), which bounds the log and the redo a
    /// crash costs; `None` = never, for runs that need the whole history.
    pub checkpoint_every: Option<usize>,
}

impl Default for SiteConfig {
    fn default() -> Self {
        SiteConfig {
            txn_timeout: SimDuration::millis(50),
            placement: Placement::default(),
            conc: ConcMode::Conc1,
            checkpoint_every: Some(CHECKPOINT_EVERY),
        }
    }
}

impl SiteConfig {
    /// Start a builder from the default configuration.
    pub fn builder() -> SiteConfigBuilder {
        SiteConfigBuilder {
            cfg: SiteConfig::default(),
        }
    }

    /// How long a donor's read lease pins the drained item: twice the
    /// transaction timeout, so the lease outlives the requester's
    /// decision bound (plus delays) and committed reads stay exact.
    /// Derived, not configured — a lease shorter than the timeout would
    /// silently break read exactness.
    pub fn read_lease(&self) -> SimDuration {
        self.txn_timeout.saturating_mul(2)
    }
}

/// Typed builder for [`SiteConfig`] — the one front door for assembling
/// configurations (field-poking is reserved for the engine internals).
///
/// ```
/// # use dvp_core::{SiteConfig, Placement, ConcMode};
/// let cfg = SiteConfig::builder()
///     .placement(Placement::adaptive())
///     .checkpoint_every(24)
///     .build();
/// assert!(cfg.placement.is_adaptive());
/// ```
#[derive(Clone, Debug)]
pub struct SiteConfigBuilder {
    cfg: SiteConfig,
}

impl SiteConfigBuilder {
    /// Transaction timeout (the read lease follows at 2×, see
    /// [`SiteConfig::read_lease`]).
    pub fn timeout(mut self, t: SimDuration) -> Self {
        self.cfg.txn_timeout = t;
        self
    }

    /// Value-placement policy.
    pub fn placement(mut self, p: Placement) -> Self {
        self.cfg.placement = p;
        self
    }

    /// Concurrency-control scheme.
    pub fn conc(mut self, c: ConcMode) -> Self {
        self.cfg.conc = c;
        self
    }

    /// Checkpoint once the un-checkpointed stable suffix reaches `n`
    /// records (default 256).
    pub fn checkpoint_every(mut self, n: usize) -> Self {
        self.cfg.checkpoint_every = Some(n);
        self
    }

    /// Finish: the assembled configuration.
    pub fn build(self) -> SiteConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demand_exact_caps_at_have() {
        let p = RefillPolicy::DemandExact;
        assert_eq!(p.amount(5, 10), 5);
        assert_eq!(p.amount(5, 3), 3);
        assert_eq!(p.amount(0, 10), 0);
    }

    #[test]
    fn demand_half_ships_surplus() {
        let p = RefillPolicy::DemandHalf;
        assert_eq!(p.amount(5, 3), 3, "short: everything");
        assert_eq!(p.amount(5, 5), 5);
        assert_eq!(p.amount(5, 11), 8, "5 + (11-5)/2");
    }

    #[test]
    fn read_lease_follows_a_struct_literal_timeout() {
        let c = SiteConfig {
            txn_timeout: SimDuration::millis(150),
            ..SiteConfig::default()
        };
        assert_eq!(c.read_lease(), SimDuration::millis(300));
    }

    #[test]
    fn default_placement_is_the_paper_baseline() {
        let p = Placement::default();
        assert_eq!(p, Placement::reactive());
        assert!(!p.is_adaptive());
    }

    #[test]
    fn builder_assembles_and_scales_lease() {
        let cfg = SiteConfig::builder()
            .timeout(SimDuration::millis(20))
            .placement(Placement::adaptive())
            .conc(ConcMode::Conc2)
            .checkpoint_every(24)
            .build();
        assert_eq!(cfg.txn_timeout, SimDuration::millis(20));
        assert_eq!(cfg.read_lease(), SimDuration::millis(40));
        assert_eq!(cfg.conc, ConcMode::Conc2);
        assert_eq!(cfg.checkpoint_every, Some(24));
        assert!(cfg.placement.is_adaptive());
    }
}
