//! Pinned regression scenarios: bugs the property tests once caught, kept
//! as deterministic tests so they can never come back.

use dvp::core::audit::AuditError;
use dvp::prelude::*;
use dvp::workloads::InventoryWorkload;

/// **Stale lease-timer release.**
///
/// Found by `tests/serializability.rs` (proptest seed
/// `17429861443655363711`): a donor's read-lease expiry timer was not
/// cancelled when the lease was released early by the reader's
/// `ReleaseLease` message. When a *second* read later leased the same
/// item at the same donor, the stale timer from the first lease fired and
/// released the second lease. A local restock then slipped in mid-read on
/// the fast path, and the committed read missed its value (returned 976,
/// truth 1026).
///
/// The fix tracks the live lease timer per item and ignores firings whose
/// `TimerId` does not match.
#[test]
fn stale_lease_timer_cannot_release_a_newer_lease() {
    let seed = 17429861443655363711u64;
    let w = InventoryWorkload {
        txns: 50,
        ..Default::default()
    }
    .generate(seed);
    let mut cfg = w.cluster();
    cfg.seed = seed;
    cfg.site.conc = ConcMode::Conc2;
    cfg.net = NetworkConfig::synchronous_ordered(SimDuration::millis(2));
    let mut cl = Cluster::build(cfg);
    cl.run_until(SimTime::ZERO + SimDuration::secs(120));
    cl.auditor().check_conservation().unwrap();
    let m = cl.stats().txn;
    cl.auditor()
        .check_reads(&m)
        .expect("every committed read must be exact");
}

/// **The read-drain gate is load-bearing.**
///
/// Section 5 requires a donor with outstanding Vms for an item to refuse
/// read solicitations ("the fact that no outstanding Vm is there assures
/// that the complete Π⁻¹(d) is procured"). This test shows the rule is
/// not mere caution: with the gate ablated away, a committed read
/// silently misses the value riding a slow in-flight Vm.
///
/// Scenario (3 sites, item split 34/33/33, link 2→1 delayed 300ms):
///  t=1ms   site 1 reserves 50 — deficit 17 — solicits site 2 (fanout 1);
///          site 2 ships a 17-unit Vm onto the slow link and now has an
///          outstanding Vm for the item;
///  t=51ms  site 1's reservation times out and aborts (Vm still in air);
///  t=60ms  site 0 runs a full-value read.
/// With the gate: site 2 refuses, the read aborts — no wrong answer.
/// Without: site 2 donates its remaining 16, the read commits 34+33+16=83
/// while the truth is 100 (17 still in flight toward site 1).
#[test]
fn ablating_the_read_drain_gate_breaks_read_exactness() {
    fn ms(n: u64) -> SimTime {
        SimTime::ZERO + SimDuration::millis(n)
    }
    let run = |skip_gate: bool| {
        let mut catalog = Catalog::new();
        let item = catalog.add("pool", 100, Split::Even); // 34/33/33
        let mut cfg = ClusterConfig::new(3, catalog);
        cfg.site.placement = Placement::Reactive(ReactivePlacement {
            fanout: Fanout::One,
            ..Default::default()
        });
        cfg.site.unsafe_skip_read_drain_gate = skip_gate;
        // The 2→1 data path crawls; everything else is normal, so the
        // Vm's acks and retransmissions do not resolve it quickly.
        cfg.net = NetworkConfig::reliable().with_link(
            2,
            1,
            LinkConfig {
                delay_min: SimDuration::millis(300),
                delay_max: SimDuration::millis(300),
                loss: 0.0,
                duplicate: 0.0,
            },
        );
        let cfg = cfg
            .at(1, ms(1), TxnSpec::reserve(item, 50))
            .at(0, ms(60), TxnSpec::read(item));
        let mut cl = Cluster::build(cfg);
        cl.run_until(ms(5_000));
        cl.auditor().check_conservation().unwrap();
        let m = cl.stats().txn;
        (m.clone(), cl.auditor().check_reads(&m).is_ok())
    };

    // With the gate (the paper's rule): the read cannot certify
    // quiescence and aborts; whatever committed is exact.
    let (m_safe, reads_ok) = run(false);
    assert!(reads_ok, "with the gate every committed read is exact");
    assert_eq!(
        m_safe.history.reads_checked(),
        0,
        "the read must abort while value is in flight"
    );

    // Without the gate: the read commits a wrong total.
    let (m_unsafe, _) = run(true);
    assert_eq!(m_unsafe.history.reads_checked(), 1);
    match m_unsafe.history.verdict() {
        Err(AuditError::WrongRead { got, expected, .. }) => assert_eq!(
            (got, expected),
            (83, 100),
            "the gateless read misses in-flight value"
        ),
        other => panic!("check_reads must flag the miss — the §5 rule is load-bearing: {other:?}"),
    }
}

/// **`Fanout::One` must not round-robin into a known-dead donor.**
///
/// Pre-fix, the single-target rotation blindly included every peer, so a
/// site soliciting near a crashed donor burned a full transaction
/// timeout each time the pointer came back around — under Conc1's
/// silent declines there is no nack to learn from, only the timeout.
/// The fix marks the target of an unanswered single-target solicitation
/// *suspect* for two timeout spans and skips suspects in the
/// round-robin pick (any message from the peer clears the suspicion).
///
/// Pinned sequence (3 sites, 1000 units each, site 2 crashed, fanout
/// one, rotation visits 1, 2, 1, 2, ...):
///   t1 drains site 0 and solicits site 1   → commit;
///   t2 rotates to dead site 2              → timeout abort, 2 suspect;
///   t3 rotates back to site 1              → commit;
///   t4 would rotate to site 2 again — the suspicion redirects it to
///      site 1 → commit. (Pre-fix: a second timeout abort.)
#[test]
fn fanout_one_skips_a_suspect_donor_while_the_suspicion_is_fresh() {
    fn ms(n: u64) -> SimTime {
        SimTime::ZERO + SimDuration::millis(n)
    }
    let mut catalog = Catalog::new();
    let item = catalog.add("pool", 3_000, Split::Even); // 1000 per site
    let mut cfg = ClusterConfig::new(3, catalog);
    cfg.site.placement = Placement::Reactive(ReactivePlacement {
        fanout: Fanout::One,
        refill: RefillPolicy::DemandExact,
    });
    cfg.faults = FaultPlan::none().crash(ms(0), 2);
    let cfg = cfg
        .at(0, ms(1), TxnSpec::reserve(item, 1_050)) // solicits site 1
        .at(0, ms(70), TxnSpec::reserve(item, 100)) // solicits dead site 2
        .at(0, ms(140), TxnSpec::reserve(item, 100)) // rotates to site 1
        .at(0, ms(180), TxnSpec::reserve(item, 100)); // 2 again — must skip
    let mut cl = Cluster::build(cfg);
    cl.run_to_quiescence();
    cl.auditor().check_conservation().unwrap();
    let m = cl.stats().txn;
    assert_eq!(
        m.aborted_for(AbortReason::Timeout),
        1,
        "only the first probe of the dead donor may time out"
    );
    assert_eq!(m.committed(), 3, "t1, t3 and t4 all commit");
    assert_eq!(
        m.sites[2].donations, 0,
        "the crashed site never donates anything"
    );
}

/// **The read lease must follow the timeout, however the config is built.**
///
/// `read_lease` used to be a stored field defaulting to 100 ms, kept at
/// 2× the timeout only by the builder. A struct-literal config with
/// `txn_timeout: 150 ms` therefore kept the 100 ms lease: a donor's
/// lease lapsed while the reader was still inside its decision window,
/// a local update slipped in behind it, and the read committed a stale
/// total. The lease is now derived from the timeout.
///
/// Scenario (3 sites, item split 34/33/33, link 2→0 delayed 120 ms):
///  t=1ms    site 0 starts a full-value read; site 1 donates at once and
///           leases the item, site 2's grant crawls over the slow link;
///  t=110ms  site 1 runs a local +10 — past a 100 ms lease, inside a
///           300 ms one;
///  t≈123ms  the last grant lands and the read commits 100.
/// With the short lease the +10 committed first and the truth was 110.
#[test]
fn struct_literal_timeout_keeps_the_read_lease_ahead_of_the_reader() {
    fn ms(n: u64) -> SimTime {
        SimTime::ZERO + SimDuration::millis(n)
    }
    let mut catalog = Catalog::new();
    let item = catalog.add("pool", 100, Split::Even); // 34/33/33
    let mut cfg = ClusterConfig::new(3, catalog);
    cfg.site = SiteConfig {
        txn_timeout: SimDuration::millis(150),
        ..SiteConfig::default()
    };
    assert_eq!(cfg.site.read_lease(), SimDuration::millis(300));
    cfg.net = NetworkConfig::reliable().with_link(
        2,
        0,
        LinkConfig {
            delay_min: SimDuration::millis(120),
            delay_max: SimDuration::millis(120),
            loss: 0.0,
            duplicate: 0.0,
        },
    );
    let cfg = cfg
        .at(0, ms(1), TxnSpec::read(item))
        .at(1, ms(110), TxnSpec::release(item, 10));
    let mut cl = Cluster::build(cfg);
    cl.run_until(ms(5_000));
    cl.auditor().check_conservation().unwrap();
    let m = cl.stats().txn;
    assert_eq!(m.history.reads_checked(), 1);
    assert_eq!(
        m.history.last_read(),
        Some((item, 100)),
        "the read commits the full value"
    );
    cl.auditor()
        .check_reads(&m)
        .expect("the lease outlives the reader, so the read is exact");
}

/// **Decoders sized allocations from untrusted counts.**
///
/// Every count below sits in a frame whose CRC *verifies* — the checksum
/// guards against rot, not against a writer that lies. `SiteSnapshot`
/// fed its `u32` item / channel / outgoing counts straight into
/// `Vec::with_capacity` (2³² items asks for 32 GB from a 12-byte frame
/// and aborts the process); `SiteRecord::Rds` and `TradRecord::Prepared`
/// capped theirs at 2²⁰, which still reserved tens of MB from a 25-byte
/// frame before the first element failed to read.
///
/// The fix bounds each count by the bytes left to decode it from
/// (`RecordReader::count`), so the refusal is `Invalid` — on the old
/// tree these read `Truncated`, after the allocation.
#[test]
fn crc_valid_frames_with_absurd_counts_are_refused_before_allocating() {
    use bytes::Bytes;
    use dvp::baselines::record::TradRecord;
    use dvp::core::record::SiteRecord;
    use dvp::core::site::SiteSnapshot;
    use dvp::storage::codec::{crc32, decode_frame};
    use dvp::storage::{DecodeError, Record};

    /// `len | crc | payload`, checksum correct.
    fn framed(payload: &[u8]) -> Bytes {
        let mut raw = (payload.len() as u32).to_be_bytes().to_vec();
        raw.extend_from_slice(&crc32(payload).to_be_bytes());
        raw.extend_from_slice(payload);
        Bytes::from(raw)
    }
    fn refused<R: Record>(what: &str, payload: &[u8]) {
        match decode_frame::<R>(&mut framed(payload)) {
            Err(DecodeError::Invalid(_)) => {}
            other => panic!("{what}: expected Invalid before any allocation, got {other:?}"),
        }
    }
    let be32 = |n: u32| n.to_be_bytes();
    let be64 = |n: u64| n.to_be_bytes();

    // Checkpoint snapshots: items, then channels, then a channel's outgoing.
    refused::<SiteSnapshot>("snapshot items", &be32(u32::MAX));
    refused::<SiteSnapshot>("snapshot channels", &[be32(0), be32(u32::MAX)].concat());
    let one_channel = [
        &be32(0)[..],
        &be32(1)[..],
        &[0u8; 32][..], // peer + three cursors
        &be32(u32::MAX)[..],
    ]
    .concat();
    refused::<SiteSnapshot>("snapshot outgoing", &one_channel);

    // Log records: tag, txn, then the counted lists. 2²⁰ passed the old cap.
    let rds_ops = [&[1u8][..], &be64(7)[..], &be32(0)[..], &be32(1 << 20)[..]].concat();
    assert_eq!(rds_ops.len() + 8, 25, "the 25-byte frame of the report");
    refused::<SiteRecord>("Rds vm ops", &rds_ops);
    let rds_actions = [&[1u8][..], &be64(7)[..], &be32(1 << 20)[..]].concat();
    refused::<SiteRecord>("Rds actions", &rds_actions);
    let commit_actions = [&[2u8][..], &be64(7)[..], &be32(u32::MAX)[..]].concat();
    refused::<SiteRecord>("Commit actions", &commit_actions);
    let prepared = [&[1u8][..], &be64(7)[..], &be64(0)[..], &be32(1 << 20)[..]].concat();
    refused::<TradRecord>("Prepared writes", &prepared);

    // An honest count still decodes.
    let honest = [
        &[2u8][..],
        &be64(7)[..],
        &be32(1)[..],
        &be32(3)[..],
        &be64(5)[..],
    ]
    .concat();
    assert!(decode_frame::<SiteRecord>(&mut framed(&honest)).is_ok());
}
