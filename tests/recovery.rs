//! Recovery integration tests (paper Section 7): independence, redo
//! correctness, and the all-sites-down extreme. Scenarios are described
//! with the [`Scenario`] builder and built white-box (`build_dvp`) where
//! a test must inspect fragments or replay the stable log by hand.

use dvp::prelude::*;

fn ms(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::millis(n)
}

fn seats(total: u64) -> (Catalog, ItemId) {
    let mut c = Catalog::new();
    let id = c.add("flight", total, Split::Even);
    (c, id)
}

#[test]
fn recovered_site_equals_its_log() {
    // Drive donations into site 2, crash it, recover it; its fragment
    // must equal what a fresh replay of its stable log computes.
    let (catalog, flight) = seats(100);
    let mut cl = Scenario::dvp_sites(4, catalog)
        .at(2, ms(1), TxnSpec::reserve(flight, 40)) // solicits into site 2
        .at(2, ms(100), TxnSpec::release(flight, 7))
        .faults(FaultPlan::none().crash(ms(150), 2).recover(ms(200), 2))
        .build_dvp();
    cl.run_to_quiescence();

    let node = cl.sim.node(2);
    let live = node.fragments().get(flight);
    // Independent replay of the durable records.
    let mut replayed: i64 = 0;
    for (_, rec) in node.log().clone().recover_entries().unwrap() {
        match rec {
            dvp::core::record::SiteRecord::Init { qty, .. } => replayed += qty as i64,
            dvp::core::record::SiteRecord::Rds { actions, .. }
            | dvp::core::record::SiteRecord::Commit { actions, .. } => {
                for (_, d) in actions {
                    replayed += d;
                }
            }
        }
    }
    assert_eq!(live as i64, replayed, "volatile state must equal the log");
    cl.auditor().check_conservation().unwrap();
}

#[test]
fn all_sites_crash_then_one_recovers_and_works() {
    // The paper's extreme: "even if all sites fail and subsequently one
    // site recovers ... it can begin doing some useful work".
    let (catalog, flight) = seats(100);
    let mut faults = FaultPlan::none();
    for s in 0..4 {
        faults = faults.crash(ms(100), s);
    }
    faults = faults.recover(ms(400), 1);
    let mut cl = Scenario::dvp_sites(4, catalog)
        .at(0, ms(1), TxnSpec::reserve(flight, 5))
        // After its lone recovery, site 1 sells from its local quota.
        .at(1, ms(500), TxnSpec::reserve(flight, 10))
        .faults(faults)
        .build_dvp();
    cl.run_to_quiescence();

    let m = cl.stats().txn;
    // Site 1's post-recovery reservation committed even though every
    // other site is still down.
    assert_eq!(m.sites[1].committed(), 1);
    assert_eq!(cl.sim.node(1).fragments().get(flight), 15);
}

#[test]
fn vm_in_flight_across_receiver_crash_is_not_lost_or_doubled() {
    // Site 0 donates to site 3; site 3 crashes in the delivery window;
    // retransmission after recovery must deliver exactly once.
    let (catalog, flight) = seats(100);
    // Pin the hop delay so the schedule is airtight: solicitations land at
    // ms 4, donation Vms are in flight ms 4..7 — the ms-5 crash provably
    // catches them mid-air, and the reservation cannot have committed yet
    // (commit needs the donations back at site 3, earliest ms 7).
    let net = NetworkConfig {
        default_link: LinkConfig::reliable_fixed(SimDuration::millis(3)),
        ..NetworkConfig::reliable()
    };
    let mut cl = Scenario::dvp_sites(4, catalog)
        // Site 3 needs 40 (quota 25): donation Vms target site 3.
        .at(3, ms(1), TxnSpec::reserve(flight, 40))
        .net(net)
        // The reservation itself aborts with its site, but the *value* must
        // survive: senders retransmit until the recovered site accepts.
        .faults(FaultPlan::none().crash(ms(5), 3).recover(ms(60), 3))
        .build_dvp();
    cl.run_to_quiescence();
    cl.auditor().check_conservation().unwrap();
    let total: u64 = (0..4).map(|s| cl.sim.node(s).fragments().get(flight)).sum();
    // Nothing committed ⇒ the full 100 seats still exist somewhere.
    assert_eq!(total, 100);
}

/// Long-lived sender state across a checkpoint and a crash: a Vm toward
/// a partitioned peer outlives the log record that created it. The
/// sender checkpoints after every record, so once it has committed two
/// more transactions the `Created` record is truncated away and the Vm
/// lives only in the checkpoint image. The sender then crashes and
/// recovers while the partition holds: it must still list the Vm as
/// outstanding, and after the heal the Vm is delivered exactly once.
#[test]
fn vm_outstanding_toward_a_partitioned_peer_survives_checkpoint_and_crash() {
    use dvp::core::record::SiteRecord;
    use dvp::core::transfer::Transfer;
    use dvp::vmsg::VmLogOp;

    let (catalog, flight) = seats(100);
    // Two sites hold 50 each. Fixed 3 ms hops: site 0's solicitation
    // reaches site 1 at ms 4, and the donation Vm would land at ms 7,
    // after site 0 is cut off at ms 5.
    let net = NetworkConfig {
        default_link: LinkConfig::reliable_fixed(SimDuration::millis(3)),
        ..NetworkConfig::reliable()
    }
    .with_partitions(
        PartitionSchedule::fully_connected(2)
            .isolate_at(ms(5), &[0])
            .heal_at(ms(400)),
    );
    let mut cl = Scenario::dvp_sites(2, catalog)
        // Site 0 needs 60 (quota 50): site 1 donates 10.
        .at(0, ms(1), TxnSpec::reserve(flight, 60))
        // Two local commits at the donor move its checkpoints past the
        // record that created the Vm.
        .at(1, ms(20), TxnSpec::reserve(flight, 1))
        .at(1, ms(30), TxnSpec::reserve(flight, 1))
        .site(SiteConfig::builder().checkpoint_every(1).build())
        .net(net)
        .faults(FaultPlan::none().crash(ms(100), 1).recover(ms(150), 1))
        .build_dvp();

    cl.run_until(ms(300));
    let sender = cl.sim.node(1);
    assert_eq!(sender.metrics().recoveries, 1);
    assert!(sender.metrics().checkpoints >= 3, "{:?}", sender.metrics());
    let created_in_log = sender
        .log()
        .clone()
        .recover_entries()
        .unwrap()
        .iter()
        .filter(|(_, r)| {
            matches!(
                r,
                SiteRecord::Rds {
                    vm_op: VmLogOp::Created { .. },
                    ..
                }
            )
        })
        .count();
    assert_eq!(
        created_in_log, 0,
        "a checkpoint truncated the Created record"
    );
    let outstanding: Vec<Transfer> = sender
        .vm_endpoint()
        .outgoing_toward(0)
        .map(|(_, payload)| Transfer::from_bytes(&payload).unwrap())
        .collect();
    assert_eq!(
        outstanding.len(),
        1,
        "the recovered sender still owes the Vm"
    );
    assert_eq!((outstanding[0].item, outstanding[0].amount), (flight, 10));
    cl.auditor().check_conservation().unwrap();

    cl.run_to_quiescence();
    let (receiver, sender) = (cl.sim.node(0), cl.sim.node(1));
    assert!(!sender.vm_endpoint().has_outstanding());
    assert_eq!(receiver.vm_endpoint().ack_for(1), 1);
    assert_eq!(receiver.vm_endpoint().stats().accepted, 1, "delivered once");
    // Site 0's reservation timed out; the 10 seats still moved to it.
    assert_eq!(receiver.fragments().get(flight), 60);
    assert_eq!(sender.fragments().get(flight), 38);
    cl.auditor().check_conservation().unwrap();
}
