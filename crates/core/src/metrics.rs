//! Measurement: per-site and cluster-wide metrics.
//!
//! Every experiment in `EXPERIMENTS.md` reduces to these counters and
//! distributions: commit/abort counts (by reason), decision latencies
//! (bounded for DvP — the non-blocking claim), message/donation counts,
//! and the read check's O(items) [`History`]. Nothing here grows with the
//! number of commits.

use crate::audit::History;
use crate::item::ItemId;
use dvp_obs::{Hist, PhaseHists};
use std::collections::BTreeMap;

/// Why a transaction aborted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AbortReason {
    /// Solicited value / read grants did not arrive in time (Section 5,
    /// Step 3 — the pessimistic timeout).
    Timeout,
    /// A required local data value was already locked (Conc1 fail-fast).
    LockConflict,
    /// The Conc1 timestamp check `TS(t) > TS(d)` failed.
    TsConflict,
    /// The home site crashed while the transaction was in flight.
    Crashed,
}

impl AbortReason {
    /// All reasons, for tabulation.
    pub const ALL: [AbortReason; 4] = [
        AbortReason::Timeout,
        AbortReason::LockConflict,
        AbortReason::TsConflict,
        AbortReason::Crashed,
    ];

    /// Static tag for trace events.
    pub fn tag(self) -> &'static str {
        match self {
            AbortReason::Timeout => "timeout",
            AbortReason::LockConflict => "lock_conflict",
            AbortReason::TsConflict => "ts_conflict",
            AbortReason::Crashed => "crashed",
        }
    }
}

/// Counters for one site.
#[derive(Clone, Debug, Default)]
pub struct SiteMetrics {
    /// Transactions committed at this site.
    pub committed: u64,
    /// Aborts by reason.
    pub aborted: BTreeMap<AbortReason, u64>,
    /// Latency histogram (µs) of committed transactions (start → commit).
    pub commit_latency: Hist,
    /// Latency histogram (µs) of aborted transactions (start → abort
    /// decision). Boundedness of `max` here is the non-blocking property.
    pub abort_latency: Hist,
    /// Per-phase latency breakdown: `fast_path` (no solicitation),
    /// `solicit` (start → first credit), `gather` (first credit →
    /// commit), `abort` (start → abort decision).
    pub phases: PhaseHists,
    /// Requests sent to remote sites.
    pub requests_sent: u64,
    /// Requests honoured as donor.
    pub donations: u64,
    /// Requests ignored as donor (locked / stale timestamp / outstanding
    /// Vm on a read).
    pub requests_ignored: u64,
    /// Value transfers absorbed (Vm acceptances).
    pub absorbed: u64,
    /// Spontaneous rebalance shipments performed.
    pub rebalances: u64,
    /// Rebalance timer firings this site handled. This and the next
    /// count the placement planner's work; they live here, not in the
    /// planner, so a crash's `Planner::reset` leaves them standing.
    pub rebalance_ticks: u64,
    /// Demand rows the adaptive rebalance tick read slot by slot (the
    /// rows its branch-free screen let through).
    pub rows_scanned: u64,
    /// Checkpoints taken (snapshot + log truncation).
    pub checkpoints: u64,
    /// Transactions that committed on the write-only fast path (no
    /// solicitation round).
    pub fast_path_commits: u64,
    /// Running net committed delta per item, indexed by `item.0`: the
    /// fold of every commit's deltas, kept in step by
    /// [`record_commit`](Self::record_commit), so a conservation check
    /// costs one entry per item.
    net_deltas: Vec<i64>,
    /// Number of recoveries this site performed.
    pub recoveries: u64,
    /// Log records redone by this site's recovery scans: the redo work a
    /// checkpoint bounds.
    pub records_replayed: u64,
    /// Remote messages this site had to wait for before finishing
    /// recovery (always 0 for DvP — the independence claim; the 2PC
    /// baseline reports nonzero).
    pub recovery_remote_messages: u64,
    /// Crashpoint triggers fired at this site (nemesis injection).
    pub crashpoint_trips: u64,
    /// Crashes that tore the in-flight log write (nemesis injection).
    pub torn_crashes: u64,
    /// Recoveries that fell back to an older checkpoint generation
    /// because the newest slot failed its checksum.
    pub checkpoint_fallbacks: u64,
    /// Stable-region salvages: recoveries that truncated the durable log
    /// at a corrupt record (not a benign tail tear).
    pub salvages: u64,
    /// Times this site entered media-failure quarantine (0 or 1 — the
    /// flag is sticky; a quarantined site never rejoins).
    pub media_failures: u64,
    /// Upper bound on the value a salvage displaced, per item: the sum of
    /// every dropped record's absolute fragment deltas and Vm transfer
    /// amounts (records already covered by the surviving checkpoint are
    /// excluded). The media-aware conservation oracle checks that any
    /// cluster-wide discrepancy stays within these declared bounds.
    pub salvage_damage: BTreeMap<ItemId, u64>,
    /// The loss is unquantifiable: every checkpoint generation failed
    /// verification *and* the log's genesis prefix was already truncated,
    /// so the snapshot's effects cannot be reconstructed or bounded.
    pub salvage_unbounded: bool,
}

impl SiteMetrics {
    /// Record an abort.
    pub fn record_abort(&mut self, reason: AbortReason, latency_us: u64) {
        *self.aborted.entry(reason).or_insert(0) += 1;
        self.abort_latency.record(latency_us);
        self.phases.record("abort", latency_us);
    }

    /// Record a commit.
    pub fn record_commit(&mut self, deltas: &[(ItemId, i64)], latency_us: u64, fast_path: bool) {
        self.committed += 1;
        self.commit_latency.record(latency_us);
        if fast_path {
            self.fast_path_commits += 1;
            self.phases.record("fast_path", latency_us);
        }
        for &(item, d) in deltas {
            let i = item.0 as usize;
            if i >= self.net_deltas.len() {
                self.net_deltas.resize(i + 1, 0);
            }
            self.net_deltas[i] += d;
        }
    }

    /// Net committed delta per item so far (items never committed at
    /// this site may be absent).
    pub fn net_deltas(&self) -> impl Iterator<Item = (ItemId, i64)> + '_ {
        (0u32..).map(ItemId).zip(self.net_deltas.iter().copied())
    }

    /// Total aborts.
    pub fn total_aborted(&self) -> u64 {
        self.aborted.values().sum()
    }
}

/// Aggregated metrics across a cluster.
#[derive(Clone, Debug, Default)]
pub struct ClusterMetrics {
    /// Per-site metrics, indexed by site id.
    pub sites: Vec<SiteMetrics>,
    /// The committed history as the cluster's read check folded it.
    pub history: History,
}

impl ClusterMetrics {
    /// One per-site counter summed over every site, e.g.
    /// `m.sum(|s| s.rebalance_ticks)`.
    pub fn sum(&self, field: impl Fn(&SiteMetrics) -> u64) -> u64 {
        self.sites.iter().map(field).sum()
    }

    /// Sum of commits.
    pub fn committed(&self) -> u64 {
        self.sum(|s| s.committed)
    }

    /// Sum of aborts (all reasons).
    pub fn aborted(&self) -> u64 {
        self.sum(SiteMetrics::total_aborted)
    }

    /// Aborts of one reason.
    pub fn aborted_for(&self, reason: AbortReason) -> u64 {
        self.sum(|s| s.aborted.get(&reason).copied().unwrap_or(0))
    }

    /// Commit ratio over all attempts that reached a decision.
    pub fn commit_ratio(&self) -> f64 {
        let c = self.committed();
        let total = c + self.aborted();
        if total == 0 {
            0.0
        } else {
            c as f64 / total as f64
        }
    }

    /// Merged commit-latency histogram across sites.
    pub fn commit_latency(&self) -> Hist {
        let mut h = Hist::new();
        for s in &self.sites {
            h.merge(&s.commit_latency);
        }
        h
    }

    /// Merged decision-latency histogram (commits and aborts) — the
    /// bounded-decision metric of experiment T2.
    pub fn decision_latency(&self) -> Hist {
        let mut h = Hist::new();
        for s in &self.sites {
            h.merge(&s.commit_latency);
            h.merge(&s.abort_latency);
        }
        h
    }

    /// Merged per-phase latency breakdown across sites.
    pub fn phases(&self) -> PhaseHists {
        let mut p = PhaseHists::new();
        for s in &self.sites {
            p.merge(&s.phases);
        }
        p
    }

    /// Percentile (0..=100) of committed-transaction latency in µs.
    pub fn commit_latency_percentile(&self, p: f64) -> u64 {
        self.commit_latency().percentile(p)
    }

    /// Percentile of decision latency over *all* decisions (commit or
    /// abort). p0/p100 are exact; interior percentiles are quantised to
    /// their histogram bucket.
    pub fn decision_latency_percentile(&self, p: f64) -> u64 {
        self.decision_latency().percentile(p)
    }

    /// Sum of requests sent.
    pub fn requests_sent(&self) -> u64 {
        self.sum(|s| s.requests_sent)
    }

    /// Sum of donations made.
    pub fn donations(&self) -> u64 {
        self.sum(|s| s.donations)
    }

    /// Sum of spontaneous rebalance shipments.
    pub fn rebalances(&self) -> u64 {
        self.sum(|s| s.rebalances)
    }

    /// Always 0: availability hints were removed. Kept only because
    /// `benchmark/` still reads it.
    pub fn hinted_solicits(&self) -> u64 {
        0
    }

    /// Always 0: availability hints were removed. Kept only because
    /// `benchmark/` still reads it.
    pub fn hint_hits(&self) -> u64 {
        0
    }

    /// Sum of write-only fast-path commits (no solicitation round).
    pub fn fast_path_commits(&self) -> u64 {
        self.sum(|s| s.fast_path_commits)
    }

    /// Merged per-item salvage damage bounds across sites.
    pub fn salvage_damage(&self) -> BTreeMap<ItemId, u64> {
        let mut out = BTreeMap::new();
        for s in &self.sites {
            for (&item, &bound) in &s.salvage_damage {
                *out.entry(item).or_insert(0) += bound;
            }
        }
        out
    }

    /// Whether any site's salvage loss was unquantifiable.
    pub fn salvage_unbounded(&self) -> bool {
        self.sites.iter().any(|s| s.salvage_unbounded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_metrics_counts() {
        let mut m = SiteMetrics::default();
        m.record_abort(AbortReason::Timeout, 100);
        m.record_abort(AbortReason::Timeout, 120);
        m.record_abort(AbortReason::LockConflict, 5);
        m.record_commit(&[(ItemId(0), -2)], 77, true);
        assert_eq!(m.total_aborted(), 3);
        assert_eq!(m.committed, 1);
        assert_eq!(m.fast_path_commits, 1);
        assert_eq!(m.aborted[&AbortReason::Timeout], 2);
    }

    #[test]
    fn cluster_aggregation_and_ratio() {
        let mut a = SiteMetrics::default();
        a.record_commit(&[], 10, false);
        let mut b = SiteMetrics::default();
        b.record_abort(AbortReason::Timeout, 500);
        let c = ClusterMetrics {
            sites: vec![a, b],
            ..Default::default()
        };
        assert_eq!(c.committed(), 1);
        assert_eq!(c.aborted(), 1);
        assert_eq!(c.aborted_for(AbortReason::Timeout), 1);
        assert!((c.commit_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(c.decision_latency_percentile(100.0), 500);
    }

    #[test]
    fn empty_cluster_ratio_is_zero() {
        assert_eq!(ClusterMetrics::default().commit_ratio(), 0.0);
    }
}
