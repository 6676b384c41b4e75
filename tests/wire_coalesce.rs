//! Wire-coalescing regression tests: at each flush boundary every Vm
//! frame bound for one peer leaves as a single datagram. The counters
//! below were captured on the tree that still carried the per-frame
//! wire beside this path (where the two were asserted to agree on
//! commits, aborts, donations and requests), so they pin both the wire
//! volume and the protocol outcome of the one surviving path — and that
//! the same scenario and seed reproduce them run over run.
//!
//! The network is fixed-delay and reliable: such links consume no
//! per-send RNG draws, so the pinned outcomes depend on the protocol
//! alone, not on how many transmissions drew a delay before them.

use dvp::prelude::*;
use dvp::workloads::BankingWorkload;

/// The standard banking workload over a reliable network with a fixed
/// 2 ms delay on every link (no RNG).
fn run(seed: u64) -> RunReport {
    Scenario::dvp(&BankingWorkload::default().generate(seed))
        .name("wire/banking")
        .net(NetworkConfig {
            default_link: LinkConfig::reliable_fixed(SimDuration::millis(2)),
            ..NetworkConfig::reliable()
        })
        .seed(seed)
        .run()
}

#[test]
fn datagrams_and_protocol_outcomes_on_standard_banking_are_pinned() {
    // (seed, datagrams, frames, committed, aborted, donations, requests)
    for (seed, datagrams, frames, committed, aborted, donations, requests) in [
        (1u64, 264, 528, 185, 15, 132, 195),
        (7, 256, 517, 183, 17, 128, 192),
        (42, 160, 331, 176, 24, 80, 126),
    ] {
        let r = run(seed);
        assert_eq!(r.datagrams, datagrams, "seed {seed}: datagrams");
        assert_eq!(r.net.frames_sent, frames, "seed {seed}: frames");
        assert_eq!(r.committed, committed, "seed {seed}: committed");
        assert_eq!(r.aborted, aborted, "seed {seed}: aborted");
        assert_eq!(r.txn.donations(), donations, "seed {seed}: donations");
        assert_eq!(r.txn.requests_sent(), requests, "seed {seed}: requests");
        // Vm traffic is a strict part of the wire: requests and lease
        // releases are frames of their own, never datagrams.
        assert!(
            0 < r.datagrams && r.datagrams < r.net.frames_sent,
            "seed {seed}"
        );
    }
}

#[test]
fn coalescing_counters_are_stable_across_reruns() {
    for seed in [1u64, 7, 42] {
        let a = run(seed);
        let b = run(seed);
        assert_eq!(a.datagrams, b.datagrams, "seed {seed}: datagrams drifted");
        assert_eq!(
            a.net.wire_bytes, b.net.wire_bytes,
            "seed {seed}: bytes drifted"
        );
        assert_eq!(a.net.sent, b.net.sent, "seed {seed}");
        assert_eq!(a.committed, b.committed, "seed {seed}");
        assert_eq!(a.aborted, b.aborted, "seed {seed}");
    }
}
