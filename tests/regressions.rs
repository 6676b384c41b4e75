//! Pinned regression scenarios: bugs the property tests once caught, kept
//! as deterministic tests so they can never come back.

use dvp::core::audit::AuditError;
use dvp::core::Mutant;
use dvp::prelude::*;
use dvp::workloads::arrivals::Arrivals;
use dvp::workloads::{AirlineWorkload, InventoryWorkload};

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
    cfg.net = NetworkConfig::fixed_delay(SimDuration::millis(2));
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
/// Scenario (3 sites, item split 0/50/50, link 2→1 delayed 300ms):
///  t=1ms   site 1 reserves 67 — deficit 17 — and solicits both peers;
///          site 0 has nothing to give, site 2 ships a 17-unit Vm onto
///          the slow link and now has an outstanding Vm for the item;
///  t=51ms  site 1's reservation times out and aborts (Vm still in air);
///  t=60ms  site 0 runs a full-value read.
/// With the gate: site 2 refuses, the read aborts — no wrong answer.
/// Without: site 2 donates its remaining 33, the read commits 0+50+33=83
/// while the truth is 100 (17 still in flight toward site 1).
#[test]
fn ablating_the_read_drain_gate_breaks_read_exactness() {
    let run = |skip_gate: bool| {
        let mut cl = read_drain_scenario(skip_gate);
        cl.run_until(ms(5_000));
        cl.auditor().check_conservation().unwrap();
        let m = cl.stats().txn;
        (cl.history(), cl.auditor().check_reads(&m).is_ok())
    };

    // With the gate (the paper's rule): the read cannot certify
    // quiescence and aborts; whatever committed is exact.
    let (safe, reads_ok) = run(false);
    assert!(reads_ok, "with the gate every committed read is exact");
    assert_eq!(
        safe.reads_checked(),
        0,
        "the read must abort while value is in flight"
    );

    // Without the gate: the read commits a wrong total.
    let (unsafe_run, _) = run(true);
    assert_eq!(unsafe_run.reads_checked(), 1);
    match unsafe_run.verdict() {
        Err(AuditError::WrongRead { got, expected, .. }) => assert_eq!(
            (got, expected),
            (83, 100),
            "the gateless read misses in-flight value"
        ),
        other => panic!("check_reads must flag the miss — the §5 rule is load-bearing: {other:?}"),
    }
}

/// **`check_reads` judges the history as it stands, not the stats it is
/// handed.** The auditor holds the cluster's history sink; stats taken
/// before the gateless read of
/// [`ablating_the_read_drain_gate_breaks_read_exactness`] committed
/// carry no read, yet the verdict must name the wrong one.
#[test]
fn check_reads_on_stale_stats_still_sees_a_later_wrong_read() {
    let mut cl = read_drain_scenario(true);
    cl.run_until(ms(50));
    let stale = cl.stats().txn;
    assert_eq!(cl.history().reads_checked(), 0, "the read is at 60 ms");
    cl.run_until(ms(5_000));
    assert!(matches!(
        cl.auditor().check_reads(&stale),
        Err(AuditError::WrongRead {
            got: 83,
            expected: 100,
            ..
        })
    ));
}

fn ms(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::millis(n)
}

/// The scenario of [`ablating_the_read_drain_gate_breaks_read_exactness`],
/// built and not yet run: a reservation's Vm crawls 2→1 while site 0
/// reads the item at 60 ms, with the read-drain gate or without it.
fn read_drain_scenario(skip_gate: bool) -> Cluster {
    let mut catalog = Catalog::new();
    let item = catalog.add("pool", 100, Split::Explicit(vec![0, 50, 50]));
    let mut cfg = ClusterConfig::new(3, catalog);
    cfg.mutant = skip_gate.then_some(Mutant::SkipReadDrainGate);
    // The 2→1 data path crawls; everything else is normal, so the Vm's
    // acks and retransmissions do not resolve it quickly.
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
        .at(1, ms(1), TxnSpec::reserve(item, 67))
        .at(0, ms(60), TxnSpec::read(item));
    Cluster::build(cfg)
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
    assert_eq!(cl.history().reads_checked(), 1);
    assert_eq!(
        cl.history().last_read(),
        Some((item, 100)),
        "the read commits the full value"
    );
    cl.auditor()
        .check_reads(&m)
        .expect("the lease outlives the reader, so the read is exact");
}

/// **A Conc2 commit is recorded before its lock release wakes a waiter.**
///
/// Found by sampling T5-style configurations: seed 16462, T5's airline
/// generator, Conc2, static placement, a 200 ms timeout, 1–8 ms links
/// with no loss and no duplication, and no faults at all. At 38.485 ms a
/// read of item 2 at site 0 committed; step 7 of its commit released its
/// lock and woke an older queued transaction, which committed a −4 in
/// the same callback. The commit path recorded the read only after that
/// nested commit, and the history sink folded each instant in txn-id
/// order, so the read (499, the truth in lock order) was checked after
/// the −4 and reported as wrong against 495. The commit is now recorded
/// before step 7, and the sink folds commits in the order they are
/// recorded.
#[test]
fn a_conc2_read_is_checked_in_lock_handover_order() {
    let seed = 16462;
    let w = AirlineWorkload {
        n_sites: 6,
        flights: 3,
        seats_per_flight: 500,
        txns: 60,
        mix: (0.6, 0.2, 0.15, 0.05),
        arrivals: Arrivals::Poisson {
            mean_gap: SimDuration::millis(2),
        },
        ..Default::default()
    }
    .generate(seed);
    let mut cfg = w.cluster();
    cfg.seed = seed;
    cfg.site = SiteConfig {
        conc: ConcMode::Conc2,
        placement: Placement::Static,
        txn_timeout: SimDuration::millis(200),
        ..SiteConfig::default()
    };
    cfg.net = NetworkConfig {
        default_link: LinkConfig {
            delay_min: SimDuration::millis(1),
            delay_max: SimDuration::millis(8),
            loss: 0.0,
            duplicate: 0.0,
        },
        ..NetworkConfig::default()
    };
    let mut cl = Cluster::build(cfg);
    cl.run_until(SimTime::ZERO + SimDuration::millis(3_400));
    cl.auditor().check_conservation().unwrap();
    let m = cl.stats().txn;
    assert!(
        cl.history().reads_checked() > 0,
        "the scenario commits reads"
    );
    cl.auditor()
        .check_reads(&m)
        .expect("every committed read is exact in lock handover order");
}

/// `len | crc | payload`, checksum correct: a frame only a lying writer
/// (or a mutation test) would produce, which the CRC cannot refuse.
fn framed(payload: &[u8]) -> Vec<u8> {
    let mut raw = (payload.len() as u32).to_be_bytes().to_vec();
    raw.extend_from_slice(&dvp::storage::codec::crc32(payload).to_be_bytes());
    raw.extend_from_slice(payload);
    raw
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
    use dvp::baselines::record::TradRecord;
    use dvp::core::record::SiteRecord;
    use dvp::core::site::SiteSnapshot;
    use dvp::storage::codec::decode_frame;
    use dvp::storage::{DecodeError, Record};

    fn refused<R: Record>(what: &str, payload: &[u8]) {
        match decode_frame::<R>(&mut &framed(payload)[..]) {
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
    assert!(decode_frame::<SiteRecord>(&mut &framed(&honest)[..]).is_ok());
}

/// **The record decoders are total.** Every bounds check in
/// `RecordReader` guards a read from a borrowed slice, so a missed one
/// panics instead of returning `Truncated`. Random payloads framed with a
/// correct CRC, and every truncation and a random byte flip of a valid
/// encoding (as stored, and re-framed with a correct CRC so the flip
/// reaches the record decoder), go through `decode_frame` for each
/// record type the engines log or checkpoint, and `Transfer::from_bytes`.
/// Each call returns `Ok` or `Err`; an `Ok` re-encodes to no more bytes
/// than its input, so the byte strings it holds total no more than the
/// input's length.
mod decoders_are_total {
    use super::framed;
    use bytes::Bytes;
    use dvp::baselines::record::TradRecord;
    use dvp::core::record::SiteRecord;
    use dvp::core::site::SiteSnapshot;
    use dvp::core::transfer::Transfer;
    use dvp::core::{ItemId, SVec, Ts};
    use dvp::storage::codec::{decode_frame, encode_frame};
    use dvp::storage::{Record, RecordWriter};
    use dvp::vmsg::VmLogOp;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn total_as<R: Record>(input: &[u8]) -> Result<(), TestCaseError> {
        if let Ok(rec) = decode_frame::<R>(&mut &input[..]) {
            let mut again = Vec::new();
            encode_frame(&rec, &mut again);
            prop_assert!(
                again.len() <= input.len(),
                "{rec:?} re-encodes to {} bytes from {}",
                again.len(),
                input.len()
            );
        }
        Ok(())
    }

    /// Whether a frame decodes as its own record type.
    type DecodesAs = fn(&[u8]) -> bool;

    fn decodes<R: Record>(frame: &[u8]) -> bool {
        decode_frame::<R>(&mut &frame[..]).is_ok()
    }

    fn total(input: &[u8]) -> Result<(), TestCaseError> {
        total_as::<SiteRecord>(input)?;
        total_as::<SiteSnapshot>(input)?;
        total_as::<TradRecord>(input)?;
        total_as::<VmLogOp>(input)?;
        let _ = Transfer::from_bytes(input);
        Ok(())
    }

    fn payload(fill: impl FnOnce(&mut RecordWriter<'_>)) -> Vec<u8> {
        let mut payload = Vec::new();
        fill(&mut RecordWriter::wrap(&mut payload));
        payload
    }

    /// One valid payload of each type, built from `n` and `blob` (both
    /// byte-string carriers, a counted list of each kind, an Rds record
    /// with each kind of Vm op it carries, a snapshot with a channel and
    /// an outgoing Vm), and the check that its own type decodes it.
    fn valid_payloads(n: u64, blob: &[u8]) -> [(Vec<u8>, DecodesAs); 5] {
        let created = VmLogOp::Created {
            to: 2,
            seq: n,
            payload: Bytes::copy_from_slice(blob),
        };
        let rds = |vm_op| SiteRecord::Rds {
            txn: Ts(n),
            actions: SVec::from_slice(&[(ItemId(1), -(n as i64)), (ItemId(4), 3)]),
            vm_op,
        };
        let (rds_created, rds_accepted) = (
            rds(created.clone()),
            rds(VmLogOp::Accepted { from: 1, seq: n }),
        );
        let prepared = TradRecord::Prepared {
            txn: Ts(n),
            coordinator: 3,
            writes: vec![(ItemId(0), n, 7), (ItemId(2), 5, 8)].into(),
        };
        // A `SiteSnapshot` (its fields are private): one item, then one
        // channel's four cursors and its one outgoing Vm.
        let snapshot = payload(|w| {
            w.u32(1);
            w.u64(n);
            w.u64(n + 1);
            w.u32(1);
            for cursor in [2, n, n, 0] {
                w.u64(cursor);
            }
            w.u32(1);
            w.u64(n);
            w.bytes(blob);
        });
        [
            (payload(|w| created.encode(w)), decodes::<VmLogOp>),
            (payload(|w| rds_created.encode(w)), decodes::<SiteRecord>),
            (payload(|w| rds_accepted.encode(w)), decodes::<SiteRecord>),
            (payload(|w| prepared.encode(w)), decodes::<TradRecord>),
            (snapshot, decodes::<SiteSnapshot>),
        ]
    }

    proptest! {
        #[test]
        fn record_decoders_never_panic_or_over_allocate(
            payload in vec(any::<u8>(), 0..257),
            n in any::<u64>(),
            blob in vec(any::<u8>(), 0..48),
            at in any::<usize>(),
            mask in 1u8..255,
        ) {
            total(&framed(&payload))?;
            total(&payload)?;
            for (valid, decodes_as_its_type) in valid_payloads(n, &blob) {
                let frame = framed(&valid);
                prop_assert!(decodes_as_its_type(&frame), "a valid encoding must decode: {valid:?}");
                total(&frame)?;
                for cut in 0..frame.len() {
                    total(&frame[..cut])?;
                }
                for cut in 0..valid.len() {
                    total(&framed(&valid[..cut]))?;
                }
                let (mut flipped, mut reframed) = (frame.clone(), valid.clone());
                flipped[at % frame.len()] ^= mask;
                total(&flipped)?;
                reframed[at % valid.len()] ^= mask;
                total(&framed(&reframed))?;
            }
        }
    }
}
