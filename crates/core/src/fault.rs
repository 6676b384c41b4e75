//! The faults a run suffers: site crashes and recoveries, plus the faults
//! injected at single sites (protocol crashpoints, torn log writes and
//! media decay of stable storage). Every fault names the site it hits.
//! Beside them sits the one bug a run may plant on purpose, a [`Mutant`]:
//! like an injected fault it is an input of the run, not configuration.

use dvp_simnet::time::SimTime;
use dvp_simnet::NodeId;
use dvp_storage::TornWrite;

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

/// The faults injected at one site (all off by default — the disabled
/// path costs one branch on an always-false flag).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Injection {
    /// Crash the site at this named crashpoint (one-shot: the trigger
    /// disarms after firing so recovery cannot crash-loop).
    pub crashpoint: Option<Crashpoint>,
    /// Which hit of the crashpoint fires it (1 = the first).
    pub crash_on_hit: u32,
    /// Tear the in-flight log write on the site's crashes.
    pub torn: TornWrite,
    /// Flip one byte in the site's *stable* (forced) log region on its
    /// next crash — media decay, not a torn tail. One-shot: disarms once
    /// a byte has actually been flipped.
    pub bit_rot: bool,
    /// Corrupt this checkpoint slot (0 or 1) on the site's next crash.
    /// One-shot like `bit_rot`.
    pub corrupt_ckpt: Option<u8>,
}

/// A bug planted on purpose at every site of a run, so that a test can
/// show the check it breaks still catches it: a run input beside the
/// fault plan ([`ClusterConfig::mutant`](crate::ClusterConfig::mutant)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutant {
    /// A donor with outstanding Vms for an item still grants read
    /// solicitations for it (Section 5's read-drain rule is gone), so a
    /// committed read can miss in-flight value.
    SkipReadDrainGate,
    /// Recovery restores the checkpoint image but skips the log redo, so
    /// any crash destroys committed value.
    SkipRecoveryRedo,
}

/// Scheduled site failures, and the faults injected at each site.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// `(when, site)` crash events.
    pub crashes: Vec<(SimTime, NodeId)>,
    /// `(when, site)` recovery events.
    pub recoveries: Vec<(SimTime, NodeId)>,
    /// `injections[s]` is what is injected at site `s`; a site past the
    /// end has nothing injected.
    pub injections: Vec<Injection>,
}

impl FaultPlan {
    /// No faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Crash `site` at `at`.
    pub fn crash(mut self, at: SimTime, site: NodeId) -> Self {
        self.crashes.push((at, site));
        self
    }

    /// Recover `site` at `at`.
    pub fn recover(mut self, at: SimTime, site: NodeId) -> Self {
        self.recoveries.push((at, site));
        self
    }

    /// Crash `site` the `on_hit`-th time (1 = the first) its protocol
    /// reaches `point`.
    pub fn crashpoint(mut self, site: NodeId, point: Crashpoint, on_hit: u32) -> Self {
        let at = self.at(site);
        at.crashpoint = Some(point);
        at.crash_on_hit = on_hit;
        self
    }

    /// Tear the in-flight log write on every crash of `site`.
    pub fn torn(mut self, site: NodeId, mode: TornWrite) -> Self {
        self.at(site).torn = mode;
        self
    }

    /// Flip one byte of `site`'s stable log on its next crash.
    pub fn bit_rot(mut self, site: NodeId) -> Self {
        self.at(site).bit_rot = true;
        self
    }

    /// Corrupt `site`'s checkpoint slot `slot` (0 or 1) on its next crash.
    pub fn corrupt_checkpoint(mut self, site: NodeId, slot: u8) -> Self {
        self.at(site).corrupt_ckpt = Some(slot);
        self
    }

    /// The faults injected at `site`.
    pub fn injection(&self, site: NodeId) -> Injection {
        self.injections.get(site).copied().unwrap_or_default()
    }

    fn at(&mut self, site: NodeId) -> &mut Injection {
        if self.injections.len() <= site {
            self.injections.resize(site + 1, Injection::default());
        }
        &mut self.injections[site]
    }
}
