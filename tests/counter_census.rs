//! Census of the layer counters: every field of `SiteMetrics`,
//! `TradMetrics`, `VmStats` and `LogStats`, destructured exhaustively (no
//! `..`), so a new counter cannot compile until it is listed here with
//! the obs event it folds — `Obs::record` folds and emits in one call —
//! or with the reason no event records the same fact (DESIGN.md §4d,
//! "Metrics").
//!
//! The census test holds each claim to the `Fold` impls: a folded field
//! moves when its event is folded, and no listed event moves a plain one.
//! The trace-fold tests hold it to real runs: folding each site's events
//! of a traced run into fresh structs reproduces every folded field of
//! the live counters exactly.

use dvp::baselines::metrics::TradAbort;
use dvp::baselines::{TradCluster, TradConfig, TradMetrics};
use dvp::bench::exp_t5_conservation::{configs, HORIZON_MS};
use dvp::core::{AbortReason, Cluster, Placement, SiteConfig, SiteMetrics};
use dvp::obs::{Event, EventKind, Fold};
use dvp::prelude::{FaultPlan, SimDuration, SimTime};
use dvp::storage::LogStats;
use dvp::vmsg::VmStats;
use dvp::workloads::{BankingWorkload, Workload};
use std::collections::BTreeSet;
use std::fmt::Debug;

/// Where a counter's value comes from.
enum Source {
    /// The fold of this event kind (a sample of it).
    Folds(EventKind),
    /// A plain counter: no event records the same fact, for this reason.
    Plain(&'static str),
}
use Source::{Folds, Plain};

/// One census line: a field, its source, and its value rendered, so that
/// counters, arrays and histograms compare alike.
struct Entry {
    name: &'static str,
    source: Source,
    value: String,
}

fn entry(name: &'static str, source: Source, value: impl Debug) -> Entry {
    Entry {
        name,
        source,
        value: format!("{value:?}"),
    }
}

fn abort() -> EventKind {
    EventKind::TxnAbort {
        txn: 1,
        reason: "timeout",
        latency_us: 5,
    }
}

fn commit(fast_path: bool) -> EventKind {
    EventKind::TxnCommit {
        txn: 1,
        latency_us: 7,
        fast_path,
    }
}

const NO_SPLIT: &str = "no event carries a commit's first-credit instant";
const HINTS: &str = "always 0: hints were removed; benchmark/ still reads it";
const SALVAGE: &str = "the log counts where it cuts; the host emits `Salvage` after recovery, \
     in order with `CheckpointFallback`, and the rebuild oracle salvages a clone silently";

fn site_census(m: &SiteMetrics) -> Vec<Entry> {
    let SiteMetrics {
        aborted,
        commit_latency,
        abort_latency,
        fast_path,
        solicit,
        gather,
        requests_sent,
        donations,
        requests_ignored,
        rebalances,
        rebalance_ticks,
        rows_scanned,
        checkpoints,
        recoveries,
        records_replayed,
        crashpoint_trips,
        torn_crashes,
        checkpoint_fallbacks,
        media_failures,
        salvage_damage,
        salvage_unbounded,
    } = m;
    let (decided, crashed) = aborted.split_at(AbortReason::Crashed as usize);
    let solicit_sample = EventKind::TxnSolicit {
        txn: 1,
        item: 0,
        to: 1,
        qty: 1,
    };
    let donate_sample = EventKind::TxnDonate {
        txn: 1,
        item: 0,
        to: 1,
        qty: 1,
    };
    vec![
        entry("SiteMetrics::aborted[..Crashed]", Folds(abort()), decided),
        entry(
            "SiteMetrics::aborted[Crashed]",
            Plain("a crash drops its in-flight transactions with no `TxnAbort`"),
            crashed,
        ),
        entry(
            "SiteMetrics::commit_latency",
            Folds(commit(false)),
            commit_latency,
        ),
        entry("SiteMetrics::abort_latency", Folds(abort()), abort_latency),
        entry("SiteMetrics::fast_path", Folds(commit(true)), fast_path),
        entry("SiteMetrics::solicit", Plain(NO_SPLIT), solicit),
        entry("SiteMetrics::gather", Plain(NO_SPLIT), gather),
        entry(
            "SiteMetrics::requests_sent",
            Folds(solicit_sample),
            requests_sent,
        ),
        entry("SiteMetrics::donations", Folds(donate_sample), donations),
        entry(
            "SiteMetrics::requests_ignored",
            Folds(EventKind::TxnDecline { txn: 1, item: 0 }),
            requests_ignored,
        ),
        entry(
            "SiteMetrics::rebalances",
            Folds(EventKind::PlacementShip {
                item: 0,
                to: 1,
                qty: 1,
            }),
            rebalances,
        ),
        entry(
            "SiteMetrics::rebalance_ticks",
            Plain("a rebalance tick emits nothing, shipping or not"),
            rebalance_ticks,
        ),
        entry(
            "SiteMetrics::rows_scanned",
            Plain("planner work inside a tick; no event"),
            rows_scanned,
        ),
        entry(
            "SiteMetrics::checkpoints",
            Folds(EventKind::Checkpoint { redo_from: 1 }),
            checkpoints,
        ),
        entry(
            "SiteMetrics::recoveries",
            Folds(EventKind::RecoveryBegin),
            recoveries,
        ),
        entry(
            "SiteMetrics::records_replayed",
            Plain(
                "counted at the crash-time rebuild; `RecoveryEnd.replayed` is emitted at \
                 restart, and a quarantined site never restarts",
            ),
            records_replayed,
        ),
        entry(
            "SiteMetrics::crashpoint_trips",
            Plain("the kernel's `Crash` does not say which crashpoint tripped"),
            crashpoint_trips,
        ),
        entry(
            "SiteMetrics::torn_crashes",
            Plain("no event reports a torn tail"),
            torn_crashes,
        ),
        entry(
            "SiteMetrics::checkpoint_fallbacks",
            Folds(EventKind::CheckpointFallback {
                bad_generation: 2,
                used_generation: 1,
            }),
            checkpoint_fallbacks,
        ),
        entry(
            "SiteMetrics::media_failures",
            Folds(EventKind::MediaFailure { records_lost: 1 }),
            media_failures,
        ),
        entry(
            "SiteMetrics::salvage_damage",
            Plain("bounds summed from the dropped records, which `Salvage` does not carry"),
            salvage_damage,
        ),
        entry(
            "SiteMetrics::salvage_unbounded",
            Plain("a flag set with no event of its own"),
            salvage_unbounded,
        ),
    ]
}

fn trad_census(m: &TradMetrics) -> Vec<Entry> {
    let TradMetrics {
        aborted,
        commit_latency,
        abort_latency,
        messages_sent,
        in_doubt,
        in_doubt_open_since,
        recovery_remote_messages,
        recoveries,
        checkpoints,
    } = m;
    let (decided, crashed) = aborted.split_at(TradAbort::Crashed as usize);
    vec![
        entry("TradMetrics::aborted[..Crashed]", Folds(abort()), decided),
        entry(
            "TradMetrics::aborted[Crashed]",
            Plain("a coordinator crash loses its undecided transactions with no `TxnAbort`"),
            crashed,
        ),
        entry(
            "TradMetrics::commit_latency",
            Folds(commit(false)),
            commit_latency,
        ),
        entry("TradMetrics::abort_latency", Folds(abort()), abort_latency),
        entry(
            "TradMetrics::messages_sent",
            Plain("no event per engine message"),
            messages_sent,
        ),
        entry(
            "TradMetrics::in_doubt",
            Plain("no event opens or closes an in-doubt window"),
            in_doubt,
        ),
        entry(
            "TradMetrics::in_doubt_open_since",
            Plain("the windows open at harvest, not a count"),
            in_doubt_open_since,
        ),
        entry(
            "TradMetrics::recovery_remote_messages",
            Plain("`RecoveryEnd.remote_msgs` reports this running total, not one query"),
            recovery_remote_messages,
        ),
        entry(
            "TradMetrics::recoveries",
            Folds(EventKind::RecoveryBegin),
            recoveries,
        ),
        entry(
            "TradMetrics::checkpoints",
            Folds(EventKind::Checkpoint { redo_from: 1 }),
            checkpoints,
        ),
    ]
}

fn vm_census(s: &VmStats) -> Vec<Entry> {
    let VmStats {
        created,
        accepted,
        completed,
        data_frames_sent,
        retransmissions,
        ack_frames_sent,
        duplicates_discarded,
        out_of_order_held,
        idle_channels_skipped,
        datagrams_sent,
        bytes_sent,
        bytes_acked_piggyback,
        hints_sent,
        hint_bytes_sent,
    } = *s;
    let send = |retransmit| EventKind::VmSend {
        to: 1,
        vseq: 1,
        retransmit,
        datagram: 0,
    };
    let accept = |receipt| EventKind::VmAccept {
        from: 1,
        vseq: 1,
        receipt,
        datagram: 0,
    };
    vec![
        entry(
            "VmStats::created",
            Plain("no event marks a Vm's creation; its first send may wait for the window"),
            created,
        ),
        entry(
            "VmStats::accepted",
            Plain(
                "one per `commit_accept`: the endpoint's half of the host's `TxnAbsorb`, \
                 whose transfer the endpoint never decodes",
            ),
            accepted,
        ),
        entry(
            "VmStats::completed",
            Plain("Vms an ack released; no event per released Vm"),
            completed,
        ),
        entry(
            "VmStats::data_frames_sent",
            Folds(send(false)),
            data_frames_sent,
        ),
        entry(
            "VmStats::retransmissions",
            Folds(send(true)),
            retransmissions,
        ),
        entry(
            "VmStats::ack_frames_sent",
            Plain("`VmAck` does not say whether an ack went standalone or piggybacked"),
            ack_frames_sent,
        ),
        entry(
            "VmStats::duplicates_discarded",
            Folds(accept("duplicate")),
            duplicates_discarded,
        ),
        entry(
            "VmStats::out_of_order_held",
            Folds(accept("out_of_order")),
            out_of_order_held,
        ),
        entry(
            "VmStats::idle_channels_skipped",
            Plain("retransmit-tick bookkeeping; no event"),
            idle_channels_skipped,
        ),
        entry(
            "VmStats::datagrams_sent",
            Plain("no event per datagram"),
            datagrams_sent,
        ),
        entry(
            "VmStats::bytes_sent",
            Plain("no event carries a frame's encoded size"),
            bytes_sent,
        ),
        entry(
            "VmStats::bytes_acked_piggyback",
            Plain("a second ack merged into an owed one saves a frame with no `VmAck`"),
            bytes_acked_piggyback,
        ),
        entry("VmStats::hints_sent", Plain(HINTS), hints_sent),
        entry("VmStats::hint_bytes_sent", Plain(HINTS), hint_bytes_sent),
    ]
}

fn log_census(s: &LogStats) -> Vec<Entry> {
    let LogStats {
        appends,
        forces,
        records_forced,
        stable_bytes,
        lost_in_crash,
        torn_writes,
        max_force_batch,
        media_salvages,
        salvaged_records,
        salvaged_bytes,
    } = *s;
    vec![
        entry("LogStats::appends", Plain("no event per append"), appends),
        entry(
            "LogStats::forces",
            Folds(EventKind::LogForce { stable_len: 1 }),
            forces,
        ),
        entry(
            "LogStats::records_forced",
            Plain("`LogForce` carries the stable length, which truncation resets, not the batch"),
            records_forced,
        ),
        entry(
            "LogStats::stable_bytes",
            Plain("the image's length, read when asked"),
            stable_bytes,
        ),
        entry(
            "LogStats::lost_in_crash",
            Plain("the kernel's `Crash` does not count the lost tail"),
            lost_in_crash,
        ),
        entry(
            "LogStats::torn_writes",
            Plain("no event reports a tear"),
            torn_writes,
        ),
        entry(
            "LogStats::max_force_batch",
            Plain("a high-water mark of batches no event carries"),
            max_force_batch,
        ),
        entry("LogStats::media_salvages", Plain(SALVAGE), media_salvages),
        entry(
            "LogStats::salvaged_records",
            Plain(SALVAGE),
            salvaged_records,
        ),
        entry("LogStats::salvaged_bytes", Plain(SALVAGE), salvaged_bytes),
    ]
}

/// Each census line checked against the `Fold` impls: a folded field
/// moves when its sample event is folded into a fresh struct, and no
/// sample of any census moves a plain field. (An entry left out of a
/// census leaves its binding unused, which the lint job denies.)
#[test]
fn every_counter_is_a_fold_or_says_why_not() {
    fn samples<T: Default>(census: fn(&T) -> Vec<Entry>) -> Vec<EventKind> {
        census(&T::default())
            .into_iter()
            .filter_map(|e| match e.source {
                Folds(kind) => Some(kind),
                Plain(_) => None,
            })
            .collect()
    }
    fn check<T: Default + Fold>(census: fn(&T) -> Vec<Entry>, all: &[EventKind]) {
        let fresh = census(&T::default());
        let after = |kind: &EventKind| {
            let mut t = T::default();
            t.fold(kind);
            census(&t)
        };
        for (i, e) in fresh.iter().enumerate() {
            match &e.source {
                Folds(kind) => assert_ne!(
                    after(kind)[i].value,
                    e.value,
                    "{}: folding {kind:?} must move it",
                    e.name
                ),
                Plain(reason) => {
                    assert!(!reason.is_empty(), "{}: say why it is plain", e.name);
                    for kind in all {
                        assert_eq!(
                            after(kind)[i].value,
                            e.value,
                            "{} is listed as plain, yet folding {kind:?} moves it",
                            e.name
                        );
                    }
                }
            }
        }
    }
    let all: Vec<EventKind> = [
        samples(site_census),
        samples(trad_census),
        samples(vm_census),
        samples(log_census),
    ]
    .concat();
    check(site_census, &all);
    check(trad_census, &all);
    check(vm_census, &all);
    check(log_census, &all);
}

/// Fold `site`'s events onto `fresh` and hold every folded field equal to
/// `live`'s; returns the folded fields that moved, so a caller can check
/// the run exercised them.
fn assert_folds<T: Fold>(
    census: fn(&T) -> Vec<Entry>,
    mut fresh: T,
    live: &T,
    site: usize,
    events: &[Event],
) -> BTreeSet<&'static str> {
    let before = census(&fresh);
    for e in events.iter().filter(|e| e.site as usize == site) {
        fresh.fold(&e.kind);
    }
    let mut moved = BTreeSet::new();
    for ((l, f), b) in census(live).iter().zip(census(&fresh)).zip(before) {
        if let Folds(_) = l.source {
            assert_eq!(l.value, f.value, "site {site}: {}", l.name);
            if f.value != b.value {
                moved.insert(l.name);
            }
        }
    }
    moved
}

/// Every folded counter of a traced DvP cluster, site by site. The log
/// folds from its stats as built: the genesis force comes before any
/// handle is attached.
fn dvp_folds(cl: &Cluster, built: &[LogStats]) -> BTreeSet<&'static str> {
    let events = cl.obs().events();
    let mut moved = BTreeSet::new();
    for (i, site) in cl.sim.nodes().iter().enumerate() {
        moved.extend(assert_folds(
            site_census,
            SiteMetrics::default(),
            site.metrics(),
            i,
            &events,
        ));
        moved.extend(assert_folds(
            vm_census,
            VmStats::default(),
            site.vm_endpoint().stats(),
            i,
            &events,
        ));
        moved.extend(assert_folds(
            log_census,
            built[i],
            &site.log().stats(),
            i,
            &events,
        ));
    }
    moved
}

fn banking() -> Workload {
    BankingWorkload {
        n_sites: 8,
        accounts: 16,
        txns: 1_500,
        ..Default::default()
    }
    .generate(42)
}

/// Banking under the reactive and the adaptive placement.
#[test]
fn dvp_banking_counters_are_the_fold_of_its_trace() {
    let mut moved = BTreeSet::new();
    for placement in [Placement::default(), Placement::adaptive()] {
        let mut cfg = banking().cluster();
        cfg.site = SiteConfig::builder().placement(placement).build();
        cfg.trace = true;
        let mut cl = Cluster::build(cfg);
        let built: Vec<LogStats> = cl.sim.nodes().iter().map(|s| s.log().stats()).collect();
        cl.run_to_quiescence();
        moved.extend(dvp_folds(&cl, &built));
    }
    for name in [
        "SiteMetrics::commit_latency",
        "SiteMetrics::fast_path",
        "SiteMetrics::aborted[..Crashed]",
        "SiteMetrics::requests_sent",
        "SiteMetrics::donations",
        "SiteMetrics::requests_ignored",
        "SiteMetrics::rebalances",
        "VmStats::data_frames_sent",
        "LogStats::forces",
    ] {
        assert!(moved.contains(name), "banking never moved {name}");
    }
}

/// T5's `media-tight-ckpt` campaigns, traced: crashes, crashpoints,
/// recoveries, checkpoints, bit rot and quarantine on a lossy,
/// duplicating net, run to the campaign's settle instant.
#[test]
fn faulted_dvp_counters_are_the_fold_of_their_traces() {
    let settle = SimTime::ZERO + SimDuration::millis(HORIZON_MS * 2 + 1_000);
    let pc = configs()
        .into_iter()
        .find(|pc| pc.name == "media-tight-ckpt")
        .unwrap();
    let mut moved = BTreeSet::new();
    for seed in 0..12 {
        let mut cfg = pc.campaign_config(seed, true).cluster;
        pc.schedule(seed).apply(&mut cfg);
        let mut cl = Cluster::build(cfg);
        let built: Vec<LogStats> = cl.sim.nodes().iter().map(|s| s.log().stats()).collect();
        cl.run_until(settle);
        moved.extend(dvp_folds(&cl, &built));
    }
    for name in [
        "SiteMetrics::checkpoints",
        "SiteMetrics::recoveries",
        "SiteMetrics::checkpoint_fallbacks",
        "SiteMetrics::media_failures",
        "VmStats::retransmissions",
        "VmStats::duplicates_discarded",
        "VmStats::out_of_order_held",
    ] {
        assert!(moved.contains(name), "the campaigns never moved {name}");
    }
}

/// 2PC banking with a site crashed and recovered mid-run.
#[test]
fn trad_banking_counters_are_the_fold_of_its_trace() {
    let ms = |n| SimTime::ZERO + SimDuration::millis(n);
    let mut cfg = banking().cluster().with_site(TradConfig::default());
    cfg.trace = true;
    cfg.faults = FaultPlan::none().crash(ms(200), 2).recover(ms(600), 2);
    let mut cl = TradCluster::build(cfg);
    let built: Vec<LogStats> = cl.sim.nodes().iter().map(|s| s.log().stats()).collect();
    cl.sim.run_to_quiescence();
    let events = cl.sim.obs().events();
    let mut moved = BTreeSet::new();
    for (i, site) in cl.sim.nodes().iter().enumerate() {
        let live = site.metrics();
        moved.extend(assert_folds(
            trad_census,
            TradMetrics::default(),
            &live,
            i,
            &events,
        ));
        moved.extend(assert_folds(
            log_census,
            built[i],
            &site.log().stats(),
            i,
            &events,
        ));
    }
    for name in [
        "TradMetrics::commit_latency",
        "TradMetrics::aborted[..Crashed]",
        "TradMetrics::recoveries",
        "TradMetrics::checkpoints",
        "LogStats::forces",
    ] {
        assert!(moved.contains(name), "2PC banking never moved {name}");
    }
}
