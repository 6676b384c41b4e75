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
use dvp_storage::{TornWrite, CHECKPOINT_EVERY};
use dvp_vmsg::VmConfig;

/// How much value a donor ships when honouring a refill request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefillPolicy {
    /// Exactly the deficit (capped by what the donor has). Minimal value
    /// movement; the requester may need to ask again soon.
    DemandExact,
    /// The deficit plus half the donor's surplus beyond it. Fewer future
    /// requests at the cost of more value drift.
    DemandHalf,
    /// Everything the donor has. Concentrates value at busy sites.
    All,
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
            RefillPolicy::All => have,
        }
    }
}

/// Whom a soliciting transaction asks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fanout {
    /// One site, chosen round-robin. Minimal traffic, fragile under
    /// failures (no retry — a lost request means a timeout abort).
    /// Peers recently seen unresponsive to a single-target solicitation
    /// are skipped while their suspicion lasts.
    One,
    /// Every other site (the deficit is requested from each; donors cap
    /// by policy). Robust, chattier.
    All,
}

/// Which concurrency-control scheme the sites run (paper Section 6).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConcMode {
    /// Conc1: conservative timestamping — a lock (local or solicited) is
    /// granted only if `TS(t) > TS(d)`; conflicts and stale timestamps
    /// abort/ignore immediately. Works on any network.
    Conc1,
    /// Conc2: strict two-phase locking with FIFO lock queues. Sound under
    /// the Section 6.2 network assumptions (message-order synchronicity +
    /// ordered broadcast) — pair it with
    /// `NetworkConfig::synchronous_ordered`.
    Conc2,
}

/// The paper-baseline placement policy: value moves only when demanded
/// (refill solicitations), never spontaneously — the one rebalancer is
/// [`Placement::Adaptive`]'s.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReactivePlacement {
    /// Refill donation policy.
    pub refill: RefillPolicy,
    /// Solicitation fan-out.
    pub fanout: Fanout,
}

impl Default for ReactivePlacement {
    fn default() -> Self {
        ReactivePlacement {
            refill: RefillPolicy::DemandExact,
            fanout: Fanout::All,
        }
    }
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
    /// The paper's baseline: demand-triggered refills and nothing else.
    /// The default.
    Reactive(ReactivePlacement),
    /// The demand-adaptive subsystem: demand EWMAs, predictive refill and
    /// demand-driven rebalancing (the only rebalancer), soliciting with
    /// full fan-out (mechanism, constants and the volatility /
    /// safety-inertness argument: [`crate::placement`]).
    Adaptive,
}

impl Default for Placement {
    fn default() -> Self {
        Placement::Reactive(ReactivePlacement::default())
    }
}

impl Placement {
    /// The default reactive policy (demand-exact refills, full fan-out)
    /// — today's and the paper's baseline.
    pub fn reactive() -> Self {
        Placement::default()
    }

    /// The adaptive policy.
    pub fn adaptive() -> Self {
        Placement::Adaptive
    }

    /// Solicitation fan-out under this policy. `Static` and `Adaptive`
    /// solicit with full fan-out (under `Static` requests are part of the
    /// protocol; donors decline).
    pub fn fanout(&self) -> Fanout {
        match self {
            Placement::Reactive(r) => r.fanout,
            Placement::Static | Placement::Adaptive => Fanout::All,
        }
    }

    /// Whether the demand-adaptive subsystem is on.
    pub fn is_adaptive(&self) -> bool {
        matches!(self, Placement::Adaptive)
    }
}

/// A named crash site inside the protocol (nemesis crashpoint).
///
/// Each names the instant *between* two steps whose atomicity the paper
/// never assumes — exactly where a real crash is most interesting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Crashpoint {
    /// In `commit_txn`, after the Commit record is appended but before it
    /// is forced: the transaction must *not* survive recovery.
    AfterAppendBeforeForce,
    /// In `try_donate`, after the Rds record is forced but before the Vm
    /// frame is transmitted: the Vm exists durably and must reach its
    /// destination via post-recovery retransmission.
    AfterForceBeforeSend,
    /// In `maybe_checkpoint`, after the checkpoint slot is installed but
    /// before the log is truncated: recovery must not double-apply the
    /// records both snapshotted and still in the log.
    MidCheckpoint,
}

/// Fault-injection knobs carried on [`SiteConfig`] (all off by default —
/// the disabled path costs one branch on an always-false flag).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InjectConfig {
    /// Crash the victim site at this named crashpoint (one-shot: the
    /// trigger disarms after firing so recovery cannot crash-loop).
    pub crashpoint: Option<Crashpoint>,
    /// Which hit of the crashpoint fires it (1 = the first).
    pub crash_on_hit: u32,
    /// The site the crashpoint (and torn-write mode) applies to.
    pub victim: usize,
    /// Tear the in-flight log write on the victim's crashes.
    pub torn: TornWrite,
    /// Flip one byte in the victim's *stable* (forced) log region on its
    /// next crash — media decay, not a torn tail. One-shot: disarms once
    /// a byte has actually been flipped.
    pub bit_rot: bool,
    /// Corrupt this checkpoint slot (0 or 1) on the victim's next crash.
    /// One-shot like `bit_rot`.
    pub corrupt_ckpt: Option<u8>,
}

impl InjectConfig {
    /// Arm a crashpoint at `victim`, firing on the first hit.
    pub fn crashpoint_at(victim: usize, point: Crashpoint) -> Self {
        InjectConfig {
            crashpoint: Some(point),
            crash_on_hit: 1,
            victim,
            ..Default::default()
        }
    }

    /// Tear the victim's log writes on every crash.
    pub fn torn_at(victim: usize, mode: TornWrite) -> Self {
        InjectConfig {
            victim,
            torn: mode,
            ..Default::default()
        }
    }
}

/// Per-site protocol configuration. Assemble with [`SiteConfig::builder`].
#[derive(Clone, Copy, Debug)]
pub struct SiteConfig {
    /// Transaction timeout: solicited value must arrive within this span
    /// or the transaction aborts (the paper's pessimistic Step 3).
    pub txn_timeout: SimDuration,
    /// Value-placement policy (refill, fan-out, rebalancing, adaptivity).
    pub placement: Placement,
    /// Concurrency-control scheme.
    pub conc: ConcMode,
    /// Vm-layer knobs (window, eager acks).
    pub vm: VmConfig,
    /// Extra solicitation rounds before the timeout aborts (the paper's
    /// "the requests could be re-tried a few more times" variation, §5).
    /// `0` = the paper's baseline pessimism. Retries are spaced evenly
    /// inside the timeout window, so the decision bound is unchanged.
    pub solicit_retries: u32,
    /// Take a checkpoint (snapshot + log truncation) once the stable log's
    /// un-checkpointed suffix reaches this many records — §7's "the number
    /// of redo actions required can be reduced in the usual manner".
    /// Default `Some(CHECKPOINT_EVERY)` (256, the interval the 2PC
    /// baseline checkpoints at too), which bounds the log and the redo a
    /// crash costs; `None` = never, for runs that need the whole history.
    pub checkpoint_every: Option<usize>,
    /// **Ablation-only.** Disable the donor-side rule that a site with
    /// outstanding Vms for an item must refuse read solicitations
    /// (Section 5: "the fact that no outstanding Vm is there assures that
    /// the complete Π⁻¹(d) is procured"). With the gate off, committed
    /// reads can silently miss in-flight value — the test suite proves
    /// exactly that, which is why the rule exists.
    pub unsafe_skip_read_drain_gate: bool,
    /// **Ablation-only.** Restore the checkpoint image on recovery but
    /// skip the log-redo phase — the classic "forgot the REDO pass" bug.
    /// Any crash then reverts the site to its last checkpoint (or its
    /// empty initial image), destroying committed value. The nemesis
    /// shrinker demo uses this to show a fault campaign minimizing to a
    /// single crash event.
    pub unsafe_skip_recovery_redo: bool,
    /// Nemesis fault injection (crashpoints, torn log writes). Defaults to
    /// fully disabled.
    pub inject: InjectConfig,
}

impl Default for SiteConfig {
    fn default() -> Self {
        SiteConfig {
            txn_timeout: SimDuration::millis(50),
            placement: Placement::default(),
            conc: ConcMode::Conc1,
            vm: VmConfig::default(),
            solicit_retries: 0,
            checkpoint_every: Some(CHECKPOINT_EVERY),
            unsafe_skip_read_drain_gate: false,
            unsafe_skip_recovery_redo: false,
            inject: InjectConfig::default(),
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

    /// Vm-layer knobs (window, eager acks).
    pub fn vm(mut self, vm: VmConfig) -> Self {
        self.cfg.vm = vm;
        self
    }

    /// Extra solicitation rounds inside the timeout window.
    pub fn solicit_retries(mut self, n: u32) -> Self {
        self.cfg.solicit_retries = n;
        self
    }

    /// Checkpoint once the un-checkpointed stable suffix reaches `n`
    /// records (default 256).
    pub fn checkpoint_every(mut self, n: usize) -> Self {
        self.cfg.checkpoint_every = Some(n);
        self
    }

    /// Nemesis fault injection.
    pub fn inject(mut self, inject: InjectConfig) -> Self {
        self.cfg.inject = inject;
        self
    }

    /// **Ablation-only**: disable the read-drain gate.
    pub fn unsafe_skip_read_drain_gate(mut self, on: bool) -> Self {
        self.cfg.unsafe_skip_read_drain_gate = on;
        self
    }

    /// **Ablation-only**: skip the recovery redo pass.
    pub fn unsafe_skip_recovery_redo(mut self, on: bool) -> Self {
        self.cfg.unsafe_skip_recovery_redo = on;
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
    fn all_ships_everything() {
        assert_eq!(RefillPolicy::All.amount(1, 100), 100);
        assert_eq!(RefillPolicy::All.amount(0, 0), 0);
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
        assert_eq!(p.fanout(), Fanout::All);
        assert!(!p.is_adaptive());
    }

    #[test]
    fn adaptive_placement_solicits_everyone() {
        let p = Placement::adaptive();
        assert!(p.is_adaptive());
        assert_eq!(p.fanout(), Fanout::All);
    }

    #[test]
    fn builder_assembles_and_scales_lease() {
        let cfg = SiteConfig::builder()
            .timeout(SimDuration::millis(20))
            .placement(Placement::adaptive())
            .conc(ConcMode::Conc2)
            .solicit_retries(2)
            .checkpoint_every(24)
            .build();
        assert_eq!(cfg.txn_timeout, SimDuration::millis(20));
        assert_eq!(cfg.read_lease(), SimDuration::millis(40));
        assert_eq!(cfg.conc, ConcMode::Conc2);
        assert_eq!(cfg.solicit_retries, 2);
        assert_eq!(cfg.checkpoint_every, Some(24));
        assert_eq!(cfg.placement.fanout(), Fanout::All);
    }
}
