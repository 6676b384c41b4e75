//! Measurement: per-site and cluster-wide metrics.
//!
//! Every experiment in `EXPERIMENTS.md` reduces to these counters and
//! distributions: commit/abort counts (by reason), decision latencies
//! (bounded for DvP — the non-blocking claim) and message/donation
//! counts. A fact an obs event records is counted by folding that event
//! ([`SiteMetrics`]'s [`Fold`] impl, fed by `Obs::record`), so the
//! counters and a trace cannot disagree. A decision is recorded once,
//! in its named histograms: commit counts are their sample counts, and
//! the per-phase view is built from them. Nothing here grows with the
//! number of commits.

use crate::item::ItemId;
pub use dvp_obs::AbortReason;
use dvp_obs::{AbortCause, EventKind, Fold, Hist, PhaseHists};
use std::collections::BTreeMap;

/// Counters for one site.
#[derive(Clone, Debug, Default)]
pub struct SiteMetrics {
    /// Aborts by reason, indexed by `reason as usize`.
    pub aborted: [u64; AbortReason::ALL.len()],
    /// Latency histogram (µs) of committed transactions (start → commit);
    /// its count is the site's commits.
    pub commit_latency: Hist,
    /// Latency histogram (µs) of aborted transactions (start → abort
    /// decision). Boundedness of `max` here is the non-blocking property.
    pub abort_latency: Hist,
    /// Latency (µs) of the commits on the write-only fast path (no
    /// solicitation round); its count is the site's fast-path commits.
    pub fast_path: Hist,
    /// For the commits that solicited: start → first credit (µs).
    pub solicit: Hist,
    /// For the commits that solicited: first credit → commit (µs).
    pub gather: Hist,
    /// Requests sent to remote sites.
    pub requests_sent: u64,
    /// Requests honoured as donor.
    pub donations: u64,
    /// Requests ignored as donor (locked / stale timestamp / outstanding
    /// Vm on a read).
    pub requests_ignored: u64,
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
    /// Number of recoveries this site performed.
    pub recoveries: u64,
    /// Log records redone by this site's recovery scans: the redo work a
    /// checkpoint bounds.
    pub records_replayed: u64,
    /// Crashpoint triggers fired at this site (nemesis injection).
    pub crashpoint_trips: u64,
    /// Crashes that tore the in-flight log write (nemesis injection).
    pub torn_crashes: u64,
    /// Recoveries that fell back to an older checkpoint generation
    /// because the newest slot failed its checksum.
    pub checkpoint_fallbacks: u64,
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

impl Fold for SiteMetrics {
    #[inline]
    fn fold(&mut self, kind: &EventKind) {
        match *kind {
            EventKind::TxnSolicit { .. } => self.requests_sent += 1,
            EventKind::TxnDonate { .. } => self.donations += 1,
            EventKind::TxnDecline { .. } => self.requests_ignored += 1,
            EventKind::PlacementShip { .. } => self.rebalances += 1,
            EventKind::Checkpoint { .. } => self.checkpoints += 1,
            EventKind::CheckpointFallback { .. } => self.checkpoint_fallbacks += 1,
            EventKind::MediaFailure { .. } => self.media_failures += 1,
            EventKind::RecoveryBegin => self.recoveries += 1,
            EventKind::TxnCommit {
                latency_us,
                fast_path,
                ..
            } => {
                self.commit_latency.record(latency_us);
                if fast_path {
                    self.fast_path.record(latency_us);
                }
            }
            EventKind::TxnAbort {
                reason: AbortCause::Dvp(reason),
                latency_us,
                ..
            } => {
                self.aborted[reason as usize] += 1;
                self.abort_latency.record(latency_us);
            }
            _ => {}
        }
    }
}

impl SiteMetrics {
    /// Transactions committed at this site.
    pub fn committed(&self) -> u64 {
        self.commit_latency.count()
    }

    /// Total aborts.
    pub fn total_aborted(&self) -> u64 {
        self.aborted.iter().sum()
    }
}

/// Aggregated metrics across a cluster.
#[derive(Clone, Debug, Default)]
pub struct ClusterMetrics {
    /// Per-site metrics, indexed by site id.
    pub sites: Vec<SiteMetrics>,
}

impl ClusterMetrics {
    /// One per-site counter summed over every site, e.g.
    /// `m.sum(|s| s.rebalance_ticks)`.
    pub fn sum(&self, field: impl Fn(&SiteMetrics) -> u64) -> u64 {
        self.sites.iter().map(field).sum()
    }

    /// One per-site histogram merged over every site.
    fn merged(&self, hist: impl Fn(&SiteMetrics) -> &Hist) -> Hist {
        let mut h = Hist::new();
        for s in &self.sites {
            h.merge(hist(s));
        }
        h
    }

    /// Sum of commits.
    pub fn committed(&self) -> u64 {
        self.sum(SiteMetrics::committed)
    }

    /// Sum of aborts (all reasons).
    pub fn aborted(&self) -> u64 {
        self.sum(SiteMetrics::total_aborted)
    }

    /// Aborts of one reason.
    pub fn aborted_for(&self, reason: AbortReason) -> u64 {
        self.sum(|s| s.aborted[reason as usize])
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
        self.merged(|s| &s.commit_latency)
    }

    /// Merged decision-latency histogram (commits and aborts) — the
    /// bounded-decision metric of experiment T2.
    pub fn decision_latency(&self) -> Hist {
        let mut h = self.commit_latency();
        h.merge(&self.merged(|s| &s.abort_latency));
        h
    }

    /// The per-phase latency view, merged across sites: `fast_path`,
    /// `abort`, `solicit` and `gather`, in that order, each phase with
    /// samples.
    pub fn phases(&self) -> PhaseHists {
        [
            ("fast_path", self.merged(|s| &s.fast_path)),
            ("abort", self.merged(|s| &s.abort_latency)),
            ("solicit", self.merged(|s| &s.solicit)),
            ("gather", self.merged(|s| &s.gather)),
        ]
        .into_iter()
        .collect()
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
        self.sum(|s| s.fast_path.count())
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

    /// A commit as the site records it: the event, then the phase split
    /// of one that solicited.
    fn commit(m: &mut SiteMetrics, latency_us: u64, phases: Option<(u64, u64)>) {
        m.fold(&EventKind::TxnCommit {
            txn: 0,
            latency_us,
            fast_path: phases.is_none(),
        });
        if let Some((solicit, gather)) = phases {
            m.solicit.record(solicit);
            m.gather.record(gather);
        }
    }

    fn abort(m: &mut SiteMetrics, reason: AbortReason, latency_us: u64) {
        m.fold(&EventKind::TxnAbort {
            txn: 0,
            reason: reason.into(),
            latency_us,
        });
    }

    #[test]
    fn site_metrics_counts() {
        let mut m = SiteMetrics::default();
        abort(&mut m, AbortReason::Timeout, 100);
        abort(&mut m, AbortReason::Timeout, 120);
        abort(&mut m, AbortReason::LockConflict, 5);
        commit(&mut m, 77, None);
        assert_eq!(m.total_aborted(), 3);
        assert_eq!(m.committed(), 1);
        assert_eq!(m.fast_path.count(), 1);
        assert_eq!(m.aborted, [2, 1, 0, 0]);
    }

    /// The phase view holds exactly the samples of the named histograms,
    /// in T1's order, leaving out a phase no site recorded.
    #[test]
    fn the_phase_view_is_the_named_histograms() {
        let mut a = SiteMetrics::default();
        abort(&mut a, AbortReason::Timeout, 500);
        commit(&mut a, 40, Some((30, 10)));
        let mut b = SiteMetrics::default();
        commit(&mut b, 7, None);
        commit(&mut b, 90, Some((60, 30)));
        let c = ClusterMetrics { sites: vec![a, b] };
        let view: Vec<_> = c.phases().iter().map(|(n, h)| (n, h.clone())).collect();
        assert_eq!(
            view,
            vec![
                ("fast_path", c.merged(|s| &s.fast_path)),
                ("abort", c.merged(|s| &s.abort_latency)),
                ("solicit", c.merged(|s| &s.solicit)),
                ("gather", c.merged(|s| &s.gather)),
            ]
        );
        let (solicit, gather) = (c.merged(|s| &s.solicit), c.merged(|s| &s.gather));
        assert_eq!((solicit.count(), solicit.sum()), (2, 90));
        assert_eq!((gather.count(), gather.sum()), (2, 40));
        assert_eq!((c.committed(), c.fast_path_commits()), (3, 1));

        let mut quiet = SiteMetrics::default();
        commit(&mut quiet, 5, None);
        let c = ClusterMetrics { sites: vec![quiet] };
        let names: Vec<_> = c.phases().iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["fast_path"]);
    }

    #[test]
    fn cluster_aggregation_and_ratio() {
        let mut a = SiteMetrics::default();
        commit(&mut a, 10, Some((4, 6)));
        let mut b = SiteMetrics::default();
        abort(&mut b, AbortReason::Timeout, 500);
        let c = ClusterMetrics { sites: vec![a, b] };
        assert_eq!(c.committed(), 1);
        assert_eq!(c.aborted(), 1);
        assert_eq!(c.aborted_for(AbortReason::Timeout), 1);
        assert!((c.commit_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(c.decision_latency().max(), 500);
    }

    #[test]
    fn empty_cluster_ratio_is_zero() {
        assert_eq!(ClusterMetrics::default().commit_ratio(), 0.0);
    }
}
