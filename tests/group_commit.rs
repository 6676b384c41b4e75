//! Group-commit regression tests: every record a dispatch appends is
//! hardened by one force at the flush boundary. The counters below were
//! captured on the tree that still carried per-record forcing beside
//! this path (where the two were asserted to agree on every protocol
//! counter), so they pin both the force count and the protocol outcome
//! of the one surviving path — and that the same scenario and seed
//! reproduce them run over run.

use dvp::prelude::*;
use dvp::workloads::BankingWorkload;

/// The standard banking workload at its default shape (200 txns).
fn run(seed: u64) -> RunReport {
    Scenario::dvp(&BankingWorkload::default().generate(seed))
        .name("gc/banking")
        .seed(seed)
        .run()
}

#[test]
fn forces_per_txn_on_standard_banking_are_pinned() {
    // (seed, forces, committed, aborted, messages, donations). Seed 1:
    // 386 forces over 200 decided = 1.930 forces/txn — under two per
    // transaction although a solicited commit appends four records.
    // Seeds 1 and 7 each see one Vm overtaken on the wire; the receiver
    // holds it until its predecessor lands, so nothing is resent.
    for (seed, forces, committed, aborted, messages, donations) in [
        (1u64, 386, 181, 19, 525, 131),
        (7, 367, 180, 20, 490, 121),
        (42, 290, 171, 29, 310, 74),
    ] {
        let r = run(seed);
        assert_eq!(r.log.forces, forces, "seed {seed}: forces");
        assert_eq!(r.committed, committed, "seed {seed}: committed");
        assert_eq!(r.aborted, aborted, "seed {seed}: aborted");
        assert_eq!(r.net.sent, messages, "seed {seed}: messages");
        assert_eq!(r.txn.donations(), donations, "seed {seed}: donations");
    }
}

#[test]
fn group_commit_counters_are_stable_across_reruns() {
    for seed in [1u64, 7, 42] {
        let a = run(seed);
        let b = run(seed);
        assert_eq!(a.log.forces, b.log.forces, "seed {seed}: forces drifted");
        assert_eq!(a.committed, b.committed, "seed {seed}");
        assert_eq!(a.aborted, b.aborted, "seed {seed}");
        assert_eq!(a.net.sent, b.net.sent, "seed {seed}");
    }
}
