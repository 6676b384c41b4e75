//! Baseline metrics: everything DvP's metrics track, plus *blocking*.
//!
//! The quantity DvP cannot exhibit and 2PC can: a participant that voted
//! YES and lost its coordinator holds locks for an **unbounded** time.
//! [`TradMetrics`] measures those windows directly. As in DvP, a fact
//! an obs event records is counted by folding that event.

use crate::twopc::TradKind;
pub use dvp_obs::TradAbort;
use dvp_obs::{AbortCause, EventKind, Fold, Hist, PhaseHists};
use dvp_simnet::time::SimTime;

/// One message kind's traffic out of one site.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KindTraffic {
    /// Messages the site handed to itself in-site, with no wire hop.
    pub in_site: u64,
    /// Messages put on the wire, alone or inside a batch (for
    /// [`TradKind::Batch`], the batches). A lock request or grant a site
    /// sends itself is among them: it crosses the wire.
    pub transmitted: u64,
    /// Bytes those messages declared to the kernel: a lone message's
    /// whole length, a batch member's tag and fields, a batch's stamp,
    /// tag and count. Summed over kinds, the site's wire bytes.
    pub wire_bytes: u64,
}

impl KindTraffic {
    /// Every message of the kind, in-site or on the wire.
    pub fn logical(&self) -> u64 {
        self.in_site + self.transmitted
    }

    fn merge(&mut self, o: &KindTraffic) {
        self.in_site += o.in_site;
        self.transmitted += o.transmitted;
        self.wire_bytes += o.wire_bytes;
    }
}

/// Counters for one traditional site. A decision is recorded once, in
/// its histogram: commits are `commit_latency`'s count.
#[derive(Clone, Debug, Default)]
pub struct TradMetrics {
    /// Coordinator-side aborts by reason, indexed by `reason as usize`.
    pub aborted: [u64; TradAbort::ALL.len()],
    /// Commit-latency histogram (µs) of the transactions this site
    /// coordinated to commit.
    pub commit_latency: Hist,
    /// Abort-decision latency histogram (µs).
    pub abort_latency: Hist,
    /// Messages by kind, indexed by `kind as usize` ([`TradKind::ALL`]).
    pub traffic: [KindTraffic; TradKind::ALL.len()],
    /// Completed in-doubt windows, in µs (lock-hold time while blocked).
    pub in_doubt: Hist,
    /// In-doubt windows still open (blocked at harvest time): start
    /// instants, so the harness can compute open-ended hold times.
    pub in_doubt_open_since: Vec<SimTime>,
    /// Remote messages needed to finish recovery (decision queries) —
    /// the dependent-recovery cost DvP avoids.
    pub recovery_remote_messages: u64,
    /// Recoveries performed.
    pub recoveries: u64,
    /// Checkpoints taken (snapshot + log truncation).
    pub checkpoints: u64,
}

impl Fold for TradMetrics {
    #[inline]
    fn fold(&mut self, kind: &EventKind) {
        match *kind {
            EventKind::TxnCommit { latency_us, .. } => self.commit_latency.record(latency_us),
            EventKind::TxnAbort {
                reason: AbortCause::Trad(reason),
                latency_us,
                ..
            } => {
                self.aborted[reason as usize] += 1;
                self.abort_latency.record(latency_us);
            }
            EventKind::Checkpoint { .. } => self.checkpoints += 1,
            EventKind::RecoveryBegin => self.recoveries += 1,
            _ => {}
        }
    }
}

impl TradMetrics {
    /// Transactions committed with this site as coordinator.
    pub fn committed(&self) -> u64 {
        self.commit_latency.count()
    }

    /// Total aborts.
    pub fn total_aborted(&self) -> u64 {
        self.aborted.iter().sum()
    }

    /// Logical messages this site put on the wire (locks, votes,
    /// decisions, queries; batched or not): what left the site, plus
    /// the lock requests and grants it sent itself. What it handled
    /// in-site is not among them.
    pub fn messages_sent(&self) -> u64 {
        let batch = self.traffic[TradKind::Batch as usize].transmitted;
        self.traffic.iter().map(|t| t.transmitted).sum::<u64>() - batch
    }
}

/// Aggregation over a traditional cluster.
#[derive(Clone, Debug, Default)]
pub struct TradClusterMetrics {
    /// Per-site metrics.
    pub sites: Vec<TradMetrics>,
}

impl TradClusterMetrics {
    /// One per-site histogram merged over every site.
    fn merged(&self, hist: impl Fn(&TradMetrics) -> &Hist) -> Hist {
        let mut h = Hist::new();
        for s in &self.sites {
            h.merge(hist(s));
        }
        h
    }

    /// Total commits.
    pub fn committed(&self) -> u64 {
        self.sites.iter().map(TradMetrics::committed).sum()
    }

    /// Total aborts.
    pub fn aborted(&self) -> u64 {
        self.sites.iter().map(|s| s.total_aborted()).sum()
    }

    /// Commit ratio over decided transactions.
    pub fn commit_ratio(&self) -> f64 {
        let c = self.committed();
        let t = c + self.aborted();
        if t == 0 {
            0.0
        } else {
            c as f64 / t as f64
        }
    }

    /// Transactions still blocked in-doubt at harvest.
    pub fn still_blocked(&self) -> usize {
        self.sites.iter().map(|s| s.in_doubt_open_since.len()).sum()
    }

    /// Merged decision-latency histogram (commits and aborts). Only
    /// *decided* transactions contribute — open in-doubt windows are
    /// reported separately via [`Self::still_blocked`] and
    /// [`Self::max_blocking_us`].
    pub fn decision_latency(&self) -> Hist {
        let mut h = self.merged(|s| &s.commit_latency);
        h.merge(&self.merged(|s| &s.abort_latency));
        h
    }

    /// The per-phase latency view, merged across sites: `decide` (commit
    /// decision), `abort` and `in_doubt` (completed blocking windows), in
    /// that order, each phase with samples.
    pub fn phases(&self) -> PhaseHists {
        [
            ("decide", self.merged(|s| &s.commit_latency)),
            ("abort", self.merged(|s| &s.abort_latency)),
            ("in_doubt", self.merged(|s| &s.in_doubt)),
        ]
        .into_iter()
        .collect()
    }

    /// Longest completed in-doubt window (µs); 0 if none.
    pub fn max_in_doubt_us(&self) -> u64 {
        self.merged(|s| &s.in_doubt).max()
    }

    /// Longest in-doubt window including still-open ones, measured
    /// against `now`.
    pub fn max_blocking_us(&self, now: SimTime) -> u64 {
        let open = self
            .sites
            .iter()
            .flat_map(|s| s.in_doubt_open_since.iter())
            .map(|&t0| now.since(t0).as_micros())
            .max()
            .unwrap_or(0);
        open.max(self.max_in_doubt_us())
    }

    /// Total engine messages put on the wire.
    pub fn messages_sent(&self) -> u64 {
        self.sites.iter().map(TradMetrics::messages_sent).sum()
    }

    /// Traffic by kind, summed over sites, indexed by `kind as usize`.
    pub fn traffic(&self) -> [KindTraffic; TradKind::ALL.len()] {
        let mut total = [KindTraffic::default(); TradKind::ALL.len()];
        for s in &self.sites {
            for (t, o) in total.iter_mut().zip(&s.traffic) {
                t.merge(o);
            }
        }
        total
    }

    /// Total remote messages spent on recovery.
    pub fn recovery_remote_messages(&self) -> u64 {
        self.sites.iter().map(|s| s.recovery_remote_messages).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abort(m: &mut TradMetrics, reason: TradAbort, latency_us: u64) {
        m.fold(&EventKind::TxnAbort {
            txn: 0,
            reason: reason.into(),
            latency_us,
        });
    }

    #[test]
    fn abort_accounting() {
        let mut m = TradMetrics::default();
        abort(&mut m, TradAbort::Timeout, 10);
        abort(&mut m, TradAbort::Timeout, 12);
        abort(&mut m, TradAbort::VoteNo, 5);
        assert_eq!(m.total_aborted(), 3);
        assert_eq!(m.aborted, [2, 0, 1, 0]);
    }

    #[test]
    fn blocking_includes_open_windows() {
        let mut a = TradMetrics::default();
        a.in_doubt.record(500);
        let mut b = TradMetrics::default();
        b.in_doubt_open_since.push(SimTime(1_000));
        let c = TradClusterMetrics { sites: vec![a, b] };
        assert_eq!(c.still_blocked(), 1);
        assert_eq!(c.max_in_doubt_us(), 500);
        assert_eq!(c.max_blocking_us(SimTime(10_000)), 9_000);
    }

    /// The phase view holds exactly the samples of the named histograms,
    /// in the 2PC order, leaving out a phase no site recorded.
    #[test]
    fn the_phase_view_is_the_named_histograms() {
        let mut a = TradMetrics::default();
        a.commit_latency.record(40);
        abort(&mut a, TradAbort::VoteNo, 9);
        let mut b = TradMetrics::default();
        b.commit_latency.record(70);
        b.in_doubt.record(300);
        let c = TradClusterMetrics { sites: vec![a, b] };
        let view: Vec<_> = c.phases().iter().map(|(n, h)| (n, h.clone())).collect();
        assert_eq!(
            view,
            vec![
                ("decide", c.merged(|s| &s.commit_latency)),
                ("abort", c.merged(|s| &s.abort_latency)),
                ("in_doubt", c.merged(|s| &s.in_doubt)),
            ]
        );
        assert_eq!(c.phases().get("decide").unwrap().sum(), 110);
        assert_eq!((c.committed(), c.aborted()), (2, 1));

        let c = TradClusterMetrics {
            sites: vec![c.sites[0].clone()],
        };
        let names: Vec<_> = c.phases().iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["decide", "abort"]);
    }

    #[test]
    fn empty_cluster_ratio_zero() {
        assert_eq!(TradClusterMetrics::default().commit_ratio(), 0.0);
    }
}
