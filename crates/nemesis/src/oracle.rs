//! Invariant oracles: what must hold at every pause point of a campaign.
//!
//! Four families, each rooted in a paper claim:
//!
//! * **Conservation** (§3): `N = ΣNᵢ + N_M` — delegated to
//!   `dvp_core::audit::Auditor`.
//! * **Vm channel sanity** (§4.2): per directed channel, value is never
//!   lost or duplicated — the receiver's accept cursor never runs ahead of
//!   what the sender created, the sender never believes an ack the
//!   receiver did not issue, and the sender's outstanding window is
//!   exactly `(acked, created]`.
//! * **Read exactness / serializability subject to redistribution**
//!   (§5/§6): every committed full-value read equals the serial running
//!   total — delegated to `Auditor::check_reads`, which reports the
//!   verdict the cluster reached as each read committed — and that serial
//!   history is feasible: in commit order no item's running total ever
//!   drops below zero ([`check_feasibility`]).
//! * **Rebuild equivalence** (§7): a site reconstructed *purely* from its
//!   checkpoint slots and stable log matches the live site — recovery is a
//!   pure function of stable storage. Volatile lag is tolerated only in
//!   the directions unforced records allow (lazy ack notes).
//! * **Liveness** (§6, post-settle only): after the last fault heals and
//!   the bounded settle window drains, no live, non-quarantined site may
//!   still hold an undecided transaction — the protocols are non-blocking.
//!
//! Media faults bend, but do not break, the first two: conservation runs
//! in a **bounded** mode where each item may deviate by at most the
//! salvage-declared damage (and is skipped entirely when a site's loss is
//! unbounded), and Vm channel checks skip channels with a quarantined
//! endpoint.

use dvp_core::audit::History;
use dvp_core::item::Catalog;
use dvp_core::metrics::ClusterMetrics;
use dvp_core::Cluster;
use std::fmt;

/// An oracle violation (the campaign's failure verdict).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Which oracle tripped.
    pub oracle: &'static str,
    /// Human-readable detail.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.oracle, self.detail)
    }
}

fn violation(oracle: &'static str, detail: String) -> Violation {
    Violation { oracle, detail }
}

/// Per-channel Vm no-loss/no-duplication checks over every directed pair.
///
/// Channels touching a **quarantined** site are skipped: salvage may
/// legitimately have regressed that endpoint's cursors (the loss is
/// declared and bounded by the conservation oracle instead), and the
/// site will never drive the channel again.
pub fn check_vm_channels(cl: &Cluster) -> Result<(), Violation> {
    let sites = cl.sim.nodes();
    for sender in sites {
        let s = sender.id();
        for (r, receiver) in sites.iter().enumerate() {
            if r == s || sender.media_failed() || receiver.media_failed() {
                continue;
            }
            let created = sender.vm_endpoint().last_created(r);
            let acked = sender.vm_endpoint().acked_out(r);
            let accepted = receiver.vm_endpoint().ack_for(s);
            if accepted > created {
                return Err(violation(
                    "vm-channel",
                    format!(
                        "{s}->{r}: receiver accepted seq {accepted} but sender only created {created} (duplicated/invented value)"
                    ),
                ));
            }
            if acked > accepted {
                return Err(violation(
                    "vm-channel",
                    format!(
                        "{s}->{r}: sender believes acks through {acked} but receiver only accepted {accepted} (lost value)"
                    ),
                ));
            }
            let mut outstanding = 0usize;
            for (seq, _) in sender.vm_endpoint().outgoing_toward(r) {
                if seq <= acked || seq > created {
                    return Err(violation(
                        "vm-channel",
                        format!(
                            "{s}->{r}: outstanding seq {seq} outside the window ({acked}, {created}]"
                        ),
                    ));
                }
                outstanding += 1;
            }
            let expect = (created - acked) as usize;
            if outstanding != expect {
                return Err(violation(
                    "vm-channel",
                    format!(
                        "{s}->{r}: {outstanding} outstanding Vms but the window ({acked}, {created}] holds {expect}"
                    ),
                ));
            }
        }
    }
    Ok(())
}

/// Rebuild equivalence: each site reconstructed from stable storage alone
/// must match the live site, up to the lag unforced records permit.
pub fn check_rebuild(cl: &Cluster) -> Result<(), Violation> {
    for site in cl.sim.nodes() {
        let id = site.id();
        let (frags, vm) = site.rebuilt_durable_state();
        // Fragment values: every mutation's record is forced no later than
        // the flush boundary of the dispatch that applied it (inline
        // per-record forces, or one group-commit force before any frame
        // leaves), and audits only run between dispatches — so live and
        // rebuilt values must agree exactly. (Timestamps are excluded:
        // `bump_ts` at lock time is deliberately unlogged.)
        for item in 0..site.fragments().len() {
            let item = dvp_core::ItemId(item as u32);
            let live = site.fragments().get(item);
            let rebuilt = frags.get(item);
            if live != rebuilt {
                return Err(violation(
                    "rebuild",
                    format!("site {id}, {item:?}: live value {live} != rebuilt {rebuilt}"),
                ));
            }
        }
        // Vm channels: creations and acceptances are forced at the instant
        // they happen, so cursors must match exactly. Ack observations are
        // noted lazily (unforced), so the rebuilt view may lag behind:
        // rebuilt acked ≤ live acked, rebuilt outstanding ⊇ live
        // outstanding.
        let mut peers = site.vm_endpoint().peers();
        for p in vm.peers() {
            if !peers.contains(&p) {
                peers.push(p);
            }
        }
        for peer in peers {
            let (lc_live, lc_re) = (site.vm_endpoint().last_created(peer), vm.last_created(peer));
            if lc_live != lc_re {
                return Err(violation(
                    "rebuild",
                    format!("site {id}->({peer}): live last_created {lc_live} != rebuilt {lc_re}"),
                ));
            }
            let (acc_live, acc_re) = (site.vm_endpoint().ack_for(peer), vm.ack_for(peer));
            if acc_live != acc_re {
                return Err(violation(
                    "rebuild",
                    format!("site {id}<-({peer}): live accepted {acc_live} != rebuilt {acc_re}"),
                ));
            }
            let (ack_live, ack_re) = (site.vm_endpoint().acked_out(peer), vm.acked_out(peer));
            if ack_re > ack_live {
                return Err(violation(
                    "rebuild",
                    format!("site {id}->({peer}): rebuilt acked {ack_re} ahead of live {ack_live}"),
                ));
            }
            let live_out: Vec<u64> = site
                .vm_endpoint()
                .outgoing_toward(peer)
                .map(|(s, _)| s)
                .collect();
            let re_out: Vec<u64> = vm.outgoing_toward(peer).map(|(s, _)| s).collect();
            for s in &live_out {
                if !re_out.contains(s) {
                    return Err(violation(
                        "rebuild",
                        format!(
                            "site {id}->({peer}): live outstanding seq {s} missing from rebuilt state"
                        ),
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Feasibility: folded in global commit order, no item's running total
/// ever dropped below zero, so the serial schedule the commits stand for
/// never overdraws an item (§6: serializability subject to redistribution
/// presumes a feasible serial order).
pub fn check_feasibility(catalog: &Catalog, history: &History) -> Result<(), Violation> {
    for def in catalog.items() {
        let low = history.low_water(def.id);
        if low < 0 {
            return Err(violation(
                "feasibility",
                format!("{:?} overdrawn to {low} in commit order", def.id),
            ));
        }
    }
    Ok(())
}

/// Post-settle liveness: once the last fault has healed and the settle
/// window has drained, every live, non-quarantined site must have
/// decided (committed or aborted) each transaction it ever started —
/// the paper's non-blocking claim (§6) as an executable oracle.
pub fn check_liveness(cl: &Cluster) -> Result<(), Violation> {
    for site in cl.sim.nodes() {
        let id = site.id();
        if cl.sim.is_crashed(id) || site.media_failed() {
            continue; // down or quarantined: owes no decisions
        }
        let undecided = site.active_txns();
        if undecided != 0 {
            return Err(violation(
                "liveness",
                format!("site {id}: {undecided} transaction(s) still undecided after settle"),
            ));
        }
    }
    Ok(())
}

/// Run the full oracle suite. `metrics` should be freshly harvested from
/// `cl` (it carries the read-exactness verdict the cluster's history sink
/// reached as reads committed, and the declared salvage damage that bounds
/// conservation).
pub fn check_all(cl: &Cluster, metrics: &ClusterMetrics) -> Result<(), Violation> {
    if metrics.salvage_unbounded() {
        // Some site lost every checkpoint generation *and* its genesis
        // log prefix: there is no bound on what vanished, so conservation
        // is unverifiable this run. Every other oracle still applies.
    } else {
        cl.auditor()
            .check_conservation_bounded(&metrics.salvage_damage())
            .map_err(|e| violation("conservation", e.to_string()))?;
    }
    check_vm_channels(cl)?;
    cl.auditor()
        .check_reads(metrics)
        .map_err(|e| violation("read-exactness", e.to_string()))?;
    check_feasibility(&cl.catalog, &metrics.history)?;
    check_rebuild(cl)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvp_core::item::{Catalog, Split};
    use dvp_core::{ClusterConfig, TxnSpec};
    use dvp_simnet::time::{SimDuration, SimTime};

    fn ms(n: u64) -> SimTime {
        SimTime::ZERO + SimDuration::millis(n)
    }

    #[test]
    fn healthy_cluster_passes_every_oracle() {
        let mut catalog = Catalog::new();
        let flight = catalog.add("A", 100, Split::Even);
        let cfg = ClusterConfig::new(4, catalog)
            .at(0, ms(1), TxnSpec::reserve(flight, 40))
            .at(1, ms(40), TxnSpec::read(flight));
        let mut cl = dvp_core::Cluster::build(cfg);
        for t in [5u64, 20, 60, 200] {
            cl.run_until(ms(t));
            let m = cl.stats().txn;
            check_all(&cl, &m).unwrap();
        }
        cl.run_to_quiescence();
        let m = cl.stats().txn;
        check_all(&cl, &m).unwrap();
        assert!(m.committed() >= 1);
    }

    /// A committed history that overdraws an item fails the feasibility
    /// check, and one that only comes close passes it.
    #[test]
    fn an_overdrawn_history_is_infeasible() {
        let mut catalog = Catalog::new();
        let flight = catalog.add("A", 100, Split::Even);
        let sink = dvp_core::audit::HistorySink::new(&catalog);
        let ts = dvp_core::Ts;
        sink.commit(ms(1), ts(1), &[(flight, -100)], &[]);
        check_feasibility(&catalog, &sink.history()).unwrap();
        sink.commit(ms(2), ts(2), &[(flight, -30)], &[]);
        sink.commit(ms(3), ts(3), &[(flight, 50)], &[]);
        let v = check_feasibility(&catalog, &sink.history()).unwrap_err();
        assert_eq!(v.oracle, "feasibility");
        assert!(v.detail.contains("overdrawn to -30"), "{v}");
    }

    #[test]
    fn violation_displays_its_oracle() {
        let v = violation("vm-channel", "boom".into());
        assert!(v.to_string().contains("vm-channel"));
        assert!(v.to_string().contains("boom"));
    }
}
