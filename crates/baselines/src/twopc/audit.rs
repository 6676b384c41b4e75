//! The cluster's outcome audit: the decision-consistency check, folded
//! as outcomes arrive, and the committed deltas the value check reads.
//!
//! One handle is shared by a cluster and all its sites, the way
//! `dvp_core::audit::HistorySink` is. It holds a transaction only while
//! some site can still resolve it: from the coordinator's `Prepare` until
//! the coordinator is done with it *and* no writer holds it prepared.
//! Past that point no site acts on it again — a writer that resolved a
//! commit refuses a stale `Prepare` for it (its replica already holds the
//! versions), and a presumed-abort coordinator answers abort — so the
//! first outcome it resolved with is all the check needs, and retiring it
//! loses nothing. Besides the live entries it keeps one net delta per
//! item: nothing grows with the run.

use dvp_core::clock::Ts;
use dvp_core::ItemId;
use dvp_simnet::NodeId;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// A transaction some site can still resolve.
#[derive(Debug, Default)]
struct Live {
    /// Its coordinator may still announce or answer for it.
    coordinating: bool,
    /// Writers holding it prepared.
    in_doubt: u32,
    /// The first outcome a writer resolved it with, and where.
    first: Option<(bool, NodeId)>,
}

#[derive(Debug, Default)]
struct AuditState {
    live: BTreeMap<Ts, Live>,
    /// The first resolution that disagreed with an earlier one.
    divergence: Option<String>,
    /// Net committed delta per item, indexed by `item.0` (grown on use).
    deltas: Vec<i64>,
}

impl AuditState {
    /// Retire `txn` once nobody can resolve it any more.
    fn settle(&mut self, txn: Ts) {
        if self
            .live
            .get(&txn)
            .is_some_and(|e| !e.coordinating && e.in_doubt == 0)
        {
            self.live.remove(&txn);
        }
    }
}

/// The 2PC/3PC outcome audit. Sites report the protocol's steps as they
/// take them; [`divergence`](Self::divergence) is the verdict so far.
#[derive(Clone, Debug, Default)]
pub struct OutcomeAudit(Rc<RefCell<AuditState>>);

impl OutcomeAudit {
    /// The coordinator sent `txn`'s `Prepare`: it can now be resolved.
    pub fn open(&self, txn: Ts) {
        let live = Live {
            coordinating: true,
            ..Live::default()
        };
        self.0.borrow_mut().live.insert(txn, live);
    }

    /// One more writer holds `txn` prepared (it voted YES). A `Prepare`
    /// that reaches a writer after the coordinator gave up on `txn` opens
    /// it again, already abandoned by its coordinator.
    pub fn prepared(&self, txn: Ts) {
        self.0.borrow_mut().live.entry(txn).or_default().in_doubt += 1;
    }

    /// A writer that held `txn` prepared resolved it at `site`.
    pub fn resolved(&self, txn: Ts, site: NodeId, commit: bool) {
        let mut s = self.0.borrow_mut();
        let Some(e) = s.live.get_mut(&txn) else {
            debug_assert!(false, "{txn:?} resolved while nobody held it prepared");
            return;
        };
        e.in_doubt = e.in_doubt.saturating_sub(1);
        let first = *e.first.get_or_insert((commit, site));
        if first.0 != commit && s.divergence.is_none() {
            let (prev, prev_site) = first;
            s.divergence = Some(format!(
                "txn {txn:?} diverged: site {prev_site} resolved {prev}, \
                 site {site} resolved {commit}"
            ));
        }
        s.settle(txn);
    }

    /// `txn`'s coordinator is done with it: it aborted, every writer
    /// acked the commit, or it crashed.
    pub fn coordinator_done(&self, txn: Ts) {
        let mut s = self.0.borrow_mut();
        if let Some(e) = s.live.get_mut(&txn) {
            e.coordinating = false;
            s.settle(txn);
        }
    }

    /// A coordinator decided commit for a transaction moving these
    /// per-item amounts.
    pub fn committed(&self, deltas: impl IntoIterator<Item = (ItemId, i64)>) {
        let mut s = self.0.borrow_mut();
        for (item, delta) in deltas {
            let k = item.0 as usize;
            if s.deltas.len() <= k {
                s.deltas.resize(k + 1, 0);
            }
            s.deltas[k] += delta;
        }
    }

    /// Did every site resolve every transaction the same way? The first
    /// resolution that disagreed with an earlier one, if any.
    pub fn divergence(&self) -> Result<(), String> {
        match &self.0.borrow().divergence {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// The net amount decided commits moved on `item`.
    pub fn committed_delta(&self, item: ItemId) -> i64 {
        let s = self.0.borrow();
        s.deltas.get(item.0 as usize).copied().unwrap_or(0)
    }

    /// Transactions some site can still resolve (memory audit).
    pub fn live(&self) -> usize {
        self.0.borrow().live.len()
    }
}
