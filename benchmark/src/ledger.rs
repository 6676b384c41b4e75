//! The layer ledger: per-layer metrics assembled from outside the
//! program — public counters of an untraced rep, the obs event stream
//! of the traced rep, and layer drivers replaying the measured op mix.

use crate::drivers::{self, LogMix, Timing, VmMix};
use crate::metrics::{per_layer, ratio, Values};
use crate::rep::Rep;
use crate::stats::percentile_nearest_rank;
use crate::workload::{Engine, Spec, N_SITES};
use dvp_core::AbortReason;
use dvp_obs::{Event, EventKind};
use dvp_vmsg::codec::{ACK_FRAME_LEN, DATAGRAM_HEADER_LEN, DATA_FRAME_META_LEN};
use std::collections::HashMap;
use std::time::Duration;

/// What the traced rep's event stream says, reduced to numbers.
#[derive(Clone, Debug, Default)]
pub struct TraceFacts {
    /// Commit latencies (`TxnCommit.latency_us`), ascending.
    pub commit_latencies: Vec<u64>,
    /// Their sum.
    pub commit_latency_sum: u64,
    /// Vms delivered: a `VmSend` matched by a fresh `VmAccept`.
    pub vm_delivered: u64,
    /// Sum over them of first send → the acceptance, virtual µs.
    pub vm_delivery_sum_us: u64,
    /// Log records replayed by recoveries (`RecoveryEnd.replayed`).
    pub records_replayed: u64,
    /// Events in the stream.
    pub events: u64,
}

impl TraceFacts {
    /// Reduce an event stream.
    pub fn of(events: &[Event]) -> TraceFacts {
        let mut f = TraceFacts {
            events: events.len() as u64,
            ..Default::default()
        };
        // (from, to, vseq) → (first send, latest fresh arrival). A fresh
        // arrival the host ignores (item locked) or loses in a crash
        // arrives fresh again later; the last one is the acceptance.
        let mut vms: HashMap<(u32, u32, u64), (u64, Option<u64>)> = HashMap::new();
        for e in events {
            match e.kind {
                EventKind::TxnCommit { latency_us, .. } => {
                    f.commit_latencies.push(latency_us);
                    f.commit_latency_sum += latency_us;
                }
                EventKind::VmSend { to, vseq, .. } => {
                    vms.entry((e.site, to, vseq)).or_insert((e.at_us, None));
                }
                EventKind::VmAccept {
                    from,
                    vseq,
                    receipt: "fresh",
                    ..
                } => {
                    if let Some(vm) = vms.get_mut(&(from, e.site, vseq)) {
                        vm.1 = Some(e.at_us);
                    }
                }
                EventKind::RecoveryEnd { replayed, .. } => f.records_replayed += replayed,
                _ => {}
            }
        }
        for (sent, accepted) in vms.into_values() {
            if let Some(accepted) = accepted {
                f.vm_delivered += 1;
                f.vm_delivery_sum_us += accepted - sent;
            }
        }
        f.commit_latencies.sort_unstable();
        f
    }

    /// Exact nearest-rank percentile of commit latency, virtual µs.
    pub fn commit_percentile_us(&self, p: f64) -> u64 {
        percentile_nearest_rank(&self.commit_latencies, p)
    }

    /// Exact mean commit latency, virtual µs.
    pub fn commit_mean_us(&self) -> f64 {
        ratio(
            self.commit_latency_sum as f64,
            self.commit_latencies.len() as f64,
        )
    }
}

/// One driver's line in the printed ledger.
pub struct DriverLine {
    /// Driver name (the metric it feeds).
    pub name: &'static str,
    /// Its timing; `None` when the layer carried no load in the rep and
    /// the driver was skipped.
    pub timing: Option<Timing>,
}

/// The per-layer values plus the driver lines behind them.
pub struct Ledger {
    /// Every per-layer metric.
    pub values: Values,
    /// Every driver, run or skipped.
    pub drivers: Vec<DriverLine>,
    /// The measured Vm mix the vmsg drivers replayed.
    pub vm_mix: Option<VmMix>,
    /// The measured log mix the storage drivers replayed.
    pub log_mix: LogMix,
}

fn vm_mix(rep: &Rep) -> Option<VmMix> {
    let vm = &rep.vm;
    if vm.data_frames_sent == 0 {
        return None;
    }
    let framing = DATAGRAM_HEADER_LEN as u64 * vm.datagrams_sent
        + vm.hint_bytes_sent
        + ACK_FRAME_LEN as u64 * vm.ack_frames_sent
        + DATA_FRAME_META_LEN as u64 * vm.data_frames_sent;
    let payload = vm.bytes_sent.saturating_sub(framing) as f64 / vm.data_frames_sent as f64;
    let frames = ratio(
        (vm.data_frames_sent + vm.ack_frames_sent) as f64,
        vm.datagrams_sent as f64,
    );
    Some(VmMix {
        payload_len: payload.round() as usize,
        frames_per_datagram: (frames.round() as usize).max(1),
    })
}

fn log_mix(rep: &Rep) -> LogMix {
    let (records, bytes) = rep.log_retained;
    LogMix {
        record_bytes: ratio(bytes as f64, records as f64).round() as usize,
        records_per_force: (ratio(rep.log.records_forced as f64, rep.log.forces as f64).round()
            as usize)
            .max(1),
    }
}

/// Assemble the ledger for one workload.
///
/// `rep` is an untraced rep (its counters equal every other rep's),
/// `wall_s` the median untraced wall and `generate_s` the median script
/// generation time of the timed reps, `traced_wall_s` the traced rep's
/// wall and `facts` its reduced event stream; each driver runs for about
/// `slice`.
pub fn assemble(
    spec: &Spec,
    rep: &Rep,
    wall_s: f64,
    generate_s: f64,
    traced_wall_s: f64,
    facts: &TraceFacts,
    slice: Duration,
) -> Ledger {
    let mut v = Values::new(per_layer());
    let mut lines = Vec::new();
    let txns = rep.timed.scripted as f64;
    let per_txn = |n: u64| n as f64 / txns;
    let mut run = |name: &'static str, timing: Option<Timing>| -> f64 {
        lines.push(DriverLine { name, timing });
        timing.map_or(0.0, |t| t.ns_per_op)
    };

    v.set("commit_p50_us", facts.commit_percentile_us(50.0) as f64);

    // ---- simnet: the kernel dispatches every event of every workload.
    let net = &rep.net;
    let pingpong = run(
        "simnet.pingpong_ns_per_event",
        Some(drivers::simnet_pingpong(slice)),
    );
    let lossy_retx = run(
        "simnet.lossy_retx_ns_per_event",
        Some(drivers::simnet_lossy_retx(slice)),
    );
    // The kernel's unit cost depends on whether links misbehave and
    // timers churn; which driver prices the rep is read off its counters.
    let faulty_links = net.lost + net.duplicated > 0;
    let event_ns = if faulty_links { lossy_retx } else { pingpong };
    let simnet_busy = net.events_processed as f64 * event_ns / 1e9 / wall_s;
    v.set("simnet.events_per_txn", per_txn(net.events_processed));
    v.set("simnet.sent_per_txn", per_txn(net.sent));
    v.set(
        "simnet.undelivered_share",
        ratio(net.total_undelivered() as f64, net.sent as f64),
    );
    v.set("simnet.timers_fired_per_txn", per_txn(net.timers_fired));
    v.set("simnet.peak_queue_depth", net.peak_queue_depth as f64);
    v.set("simnet.pingpong_ns_per_event", pingpong);
    v.set("simnet.lossy_retx_ns_per_event", lossy_retx);
    v.set("simnet.busy_share_est", simnet_busy);

    // ---- vmsg: driven only when the rep created Vms.
    let vm = &rep.vm;
    let mix = vm_mix(rep);
    let roundtrip = run(
        "vmsg.roundtrip_ns",
        mix.map(|m| drivers::vmsg_roundtrip(slice, m)),
    );
    let encode = run(
        "vmsg.encode_ns_per_frame",
        mix.map(|m| drivers::vmsg_encode(slice, m)),
    );
    let decode = run(
        "vmsg.decode_ns_per_frame",
        mix.map(|m| drivers::vmsg_decode(slice, m)),
    );
    let tick = run(
        "vmsg.tick_ns_32_outstanding",
        mix.map(|m| drivers::vmsg_tick(slice, m)),
    );
    // A Vm's first life costs one round trip; each retransmitted frame is
    // encoded and decoded once more.
    let vmsg_busy = (vm.created as f64 * roundtrip + vm.retransmissions as f64 * (encode + decode))
        / 1e9
        / wall_s;
    v.set(
        "vmsg.frames_per_txn",
        per_txn(vm.data_frames_sent + vm.ack_frames_sent),
    );
    v.set("vmsg.datagrams_per_txn", per_txn(vm.datagrams_sent));
    v.set(
        "vmsg.retransmit_share",
        ratio(vm.retransmissions as f64, vm.data_frames_sent as f64),
    );
    v.set(
        "vmsg.duplicate_share",
        ratio(vm.duplicates_discarded as f64, vm.data_frames_sent as f64),
    );
    v.set(
        "vmsg.ack_frames_per_vm",
        ratio(vm.ack_frames_sent as f64, vm.created as f64),
    );
    v.set(
        "vmsg.hint_bytes_share",
        ratio(vm.hint_bytes_sent as f64, vm.bytes_sent as f64),
    );
    v.set(
        "vmsg.delivery_us_mean",
        ratio(facts.vm_delivery_sum_us as f64, facts.vm_delivered as f64),
    );
    v.set("vmsg.roundtrip_ns", roundtrip);
    v.set("vmsg.encode_ns_per_frame", encode);
    v.set("vmsg.decode_ns_per_frame", decode);
    v.set("vmsg.tick_ns_32_outstanding", tick);
    v.set("vmsg.busy_share_est", vmsg_busy);

    // ---- storage: every workload appends and forces; recovery and
    // checkpoint drivers run only where the rep recovered or checkpointed.
    let log = &rep.log;
    let lmix = log_mix(rep);
    let append = run(
        "storage.append_ns",
        Some(drivers::storage_append(slice, lmix)),
    );
    let cycle = run(
        "storage.force_ns (appends + force, one cycle)",
        Some(drivers::storage_force_cycle(slice, lmix)),
    );
    let force = (cycle - lmix.records_per_force as f64 * append).max(0.0);
    let recover = run(
        "storage.recover_ns_per_record",
        (facts.records_replayed > 0).then(|| drivers::storage_recover(slice, lmix)),
    );
    // A snapshot holds a value and a timestamp per item plus one channel
    // record per peer (the encoding `SiteSnapshot` uses).
    let snapshot_bytes = 8 + 16 * rep.items as usize + 36 * (N_SITES - 1);
    let install = run(
        "storage.checkpoint_install_ns",
        (rep.core.checkpoints > 0)
            .then(|| drivers::storage_checkpoint_install(slice, snapshot_bytes)),
    );
    let storage_busy = (log.appends as f64 * append
        + log.forces as f64 * force
        + facts.records_replayed as f64 * recover
        + rep.core.checkpoints as f64 * install)
        / 1e9
        / wall_s;
    v.set(
        "storage.records_per_force",
        ratio(log.records_forced as f64, log.forces as f64),
    );
    v.set("storage.stable_bytes_per_txn", per_txn(log.stable_bytes));
    v.set("storage.lost_in_crash_records", log.lost_in_crash as f64);
    v.set("storage.append_ns", append);
    v.set("storage.force_ns", force);
    v.set("storage.recover_ns_per_record", recover);
    v.set("storage.checkpoint_install_ns", install);
    v.set("storage.busy_share_est", storage_busy);

    // ---- core
    let c = &rep.core;
    let committed = rep.timed.fingerprint.committed as f64;
    v.set("core.fast_path_share", ratio(c.fast_path as f64, committed));
    v.set("core.solicits_per_txn", per_txn(c.solicits));
    v.set(
        "core.decline_share",
        ratio(c.declines as f64, c.solicits as f64),
    );
    v.set("core.donations_per_txn", per_txn(c.donations));
    for (reason, &n) in AbortReason::ALL.iter().zip(&c.aborted_for) {
        v.set(&format!("core.abort_share.{}", reason.tag()), per_txn(n));
    }
    v.set("core.solicit_us_mean", c.solicit.mean());
    v.set("core.gather_us_mean", c.gather.mean());
    v.set(
        "core.hint_hit_share",
        ratio(c.hint_hits as f64, c.hinted_solicits as f64),
    );
    v.set("core.hints_per_txn", per_txn(vm.hints_sent));
    v.set("core.rebalances_per_txn", per_txn(c.rebalances));
    v.set("core.allocs_per_txn", per_txn(rep.allocs));
    v.set(
        "core.recovery_records_replayed",
        facts.records_replayed as f64,
    );
    v.set("core.checkpoints", c.checkpoints as f64);
    let lock_cycle = run(
        "core.lock_cycle_ns",
        (spec.engine == Engine::Dvp).then(|| drivers::core_lock_cycle(slice)),
    );
    v.set("core.lock_cycle_ns", lock_cycle);
    let coverage = simnet_busy + vmsg_busy + storage_busy;
    v.set("core.residual_share_est", 1.0 - coverage);

    // ---- baselines, workloads, obs, ledger
    let aborted_2pc = match spec.engine {
        Engine::Trad2pc => rep.timed.fingerprint.aborted,
        Engine::Dvp => 0,
    };
    v.set("baselines.msgs_per_txn", per_txn(rep.trad.msgs));
    v.set("baselines.abort_share", per_txn(aborted_2pc));
    v.set("baselines.in_doubt_us_max", rep.trad.in_doubt_us_max as f64);
    v.set("workloads.generate_ns_per_txn", generate_s * 1e9 / txns);
    v.set("obs.events_per_txn", per_txn(facts.events));
    v.set(
        "obs.trace_overhead_share",
        (traced_wall_s - wall_s) / wall_s,
    );
    v.set("ledger.coverage", coverage);

    Ledger {
        values: v,
        drivers: lines,
        vm_mix: mix,
        log_mix: lmix,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_us: u64, site: u32, kind: EventKind) -> Event {
        Event { at_us, site, kind }
    }

    #[test]
    fn trace_facts_pair_sends_with_the_last_fresh_arrival() {
        let send = |retransmit| EventKind::VmSend {
            to: 1,
            vseq: 7,
            retransmit,
            datagram: 0,
        };
        let accept = |receipt| EventKind::VmAccept {
            from: 0,
            vseq: 7,
            receipt,
            datagram: 0,
        };
        let commit = |latency_us| EventKind::TxnCommit {
            txn: 1,
            latency_us,
            fast_path: false,
        };
        let f = TraceFacts::of(&[
            ev(100, 0, send(false)),
            ev(150, 1, accept("fresh")), // ignored by the host
            ev(300, 0, send(true)),
            ev(340, 1, accept("fresh")), // accepted
            ev(400, 1, accept("duplicate")),
            ev(500, 0, commit(30)),
            ev(600, 0, commit(10)),
            ev(
                700,
                2,
                EventKind::RecoveryEnd {
                    replayed: 12,
                    remote_msgs: 0,
                },
            ),
        ]);
        assert_eq!((f.vm_delivered, f.vm_delivery_sum_us), (1, 240));
        assert_eq!(f.commit_latencies, vec![10, 30]);
        assert_eq!(f.commit_mean_us(), 20.0);
        assert_eq!(f.commit_percentile_us(99.0), 30);
        assert_eq!((f.records_replayed, f.events), (12, 8));
    }
}
