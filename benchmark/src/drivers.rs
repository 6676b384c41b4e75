//! Layer drivers: time calls into one layer's public functions in
//! isolation, replaying the op mix the traced rep measured (payload
//! size, frames per datagram, records per force, record size). Their
//! unit costs times the rep's op counts give the `busy_share_est`
//! figures — an outside-in estimate, since no span is recorded inside
//! the program yet.

use bytes::Bytes;
use dvp_core::item::ItemId;
use dvp_core::locks::{Holder, LockTable};
use dvp_core::Ts;
use dvp_simnet::network::{LinkConfig, NetworkConfig};
use dvp_simnet::node::{Context, Node, TimerId};
use dvp_simnet::sim::Simulation;
use dvp_simnet::time::SimDuration;
use dvp_simnet::NodeId;
use dvp_storage::{
    CheckpointSlot, DecodeError, Lsn, Record, RecordReader, RecordWriter, StableLog,
};
use dvp_vmsg::{Frame, Receipt, VmConfig, VmEndpoint, WireDatagram};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Samples per driver; the reported unit cost is their median.
const SAMPLES: usize = 5;

/// One driver's result.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    /// Median over the samples of time per operation, in ns.
    pub ns_per_op: f64,
    /// Operations timed, all samples together.
    pub ops: u64,
    /// Time spent inside the timed sections, all samples together.
    pub total_s: f64,
}

/// Time `batch` for about `slice` in total: [`SAMPLES`] samples, each
/// repeating the batch until its share of the slice is used. A batch
/// returns how many operations it performed and how long they took, so
/// it can keep its own set-up out of the timing.
fn measure(slice: Duration, mut batch: impl FnMut() -> (u64, Duration)) -> Timing {
    let per_sample = slice / SAMPLES as u32;
    let mut unit_costs = Vec::with_capacity(SAMPLES);
    let (mut ops, mut total) = (0u64, Duration::ZERO);
    for _ in 0..SAMPLES {
        let (mut sample_ops, mut sample_time) = (0u64, Duration::ZERO);
        while sample_time < per_sample || sample_ops == 0 {
            let (n, t) = batch();
            sample_ops += n;
            sample_time += t;
        }
        unit_costs.push(sample_time.as_nanos() as f64 / sample_ops as f64);
        ops += sample_ops;
        total += sample_time;
    }
    Timing {
        ns_per_op: crate::stats::median(&unit_costs),
        ops,
        total_s: total.as_secs_f64(),
    }
}

// ---- simnet ---------------------------------------------------------------

/// Windowed ping-pong: node 0 keeps `window` pings in flight and refills
/// on every pong. Pure message path: enqueue, dequeue, dispatch, transmit.
#[derive(Default)]
struct Bouncer {
    remaining: u64,
    window: u32,
}

#[derive(Clone, Debug)]
enum Bounce {
    Ping,
    Pong,
}

impl Node for Bouncer {
    type Msg = Bounce;

    fn on_start(&mut self, ctx: &mut Context<'_, Bounce>) {
        for _ in 0..self.window.min(self.remaining as u32) {
            self.remaining -= 1;
            ctx.send(1, Bounce::Ping);
        }
    }

    fn on_message(&mut self, from: NodeId, msg: Bounce, ctx: &mut Context<'_, Bounce>) {
        match msg {
            Bounce::Ping => ctx.send(from, Bounce::Pong),
            Bounce::Pong => {
                if self.remaining > 0 {
                    self.remaining -= 1;
                    ctx.send(1, Bounce::Ping);
                }
            }
        }
    }
}

/// Kernel cost per event on the reliable message path (2 nodes, window
/// 32). Also the cross-machine calibration figure.
pub fn simnet_pingpong(slice: Duration) -> Timing {
    measure(slice, || {
        let nodes = vec![
            Bouncer {
                remaining: 50_000,
                window: 32,
            },
            Bouncer::default(),
        ];
        let mut sim = Simulation::new(nodes, NetworkConfig::reliable(), 1);
        let t = Instant::now();
        let events = sim.run_to_quiescence();
        (events, t.elapsed())
    })
}

/// Retransmit-until-acked over a lossy, duplicating link: every unacked
/// ping holds a timer, so loss exercises timer fire and clean delivery
/// exercises timer cancel.
#[derive(Default)]
struct Retx {
    to_deliver: u64,
    next: u64,
    inflight: HashMap<u64, TimerId>,
    window: u32,
}

#[derive(Clone, Debug)]
enum RetxMsg {
    Ping(u64),
    Ack(u64),
}

impl Retx {
    fn pump(&mut self, ctx: &mut Context<'_, RetxMsg>) {
        while (self.inflight.len() as u32) < self.window && self.next < self.to_deliver {
            let i = self.next;
            self.next += 1;
            self.post(i, ctx);
        }
    }

    fn post(&mut self, i: u64, ctx: &mut Context<'_, RetxMsg>) {
        ctx.send(1, RetxMsg::Ping(i));
        let t = ctx.set_timer(SimDuration::millis(20), i);
        self.inflight.insert(i, t);
    }
}

impl Node for Retx {
    type Msg = RetxMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, RetxMsg>) {
        self.pump(ctx);
    }

    fn on_message(&mut self, _from: NodeId, msg: RetxMsg, ctx: &mut Context<'_, RetxMsg>) {
        match msg {
            RetxMsg::Ping(i) => ctx.send(0, RetxMsg::Ack(i)),
            RetxMsg::Ack(i) => {
                if let Some(t) = self.inflight.remove(&i) {
                    ctx.cancel_timer(t);
                }
                self.pump(ctx);
            }
        }
    }

    fn on_timer(&mut self, _id: TimerId, tag: u64, ctx: &mut Context<'_, RetxMsg>) {
        if self.inflight.remove(&tag).is_some() {
            self.post(tag, ctx);
        }
    }
}

/// Kernel cost per event with loss 0.2 / duplication 0.1 and set, cancel
/// and fire timers all hot.
pub fn simnet_lossy_retx(slice: Duration) -> Timing {
    measure(slice, || {
        let nodes = vec![
            Retx {
                to_deliver: 10_000,
                window: 64,
                ..Default::default()
            },
            Retx::default(),
        ];
        let net = NetworkConfig {
            default_link: LinkConfig {
                loss: 0.2,
                duplicate: 0.1,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut sim = Simulation::new(nodes, net, 2);
        let t = Instant::now();
        let events = sim.run_to_quiescence();
        (events, t.elapsed())
    })
}

// ---- vmsg -----------------------------------------------------------------

/// The Vm mix the traced rep measured.
#[derive(Clone, Copy, Debug)]
pub struct VmMix {
    /// Mean data-frame payload, bytes.
    pub payload_len: usize,
    /// Mean frames per wire datagram, rounded, at least 1.
    pub frames_per_datagram: usize,
}

fn payload(len: usize) -> Bytes {
    Bytes::from(vec![0xA5u8; len])
}

fn coalescing_endpoint(site: usize) -> VmEndpoint {
    VmEndpoint::new(
        site,
        VmConfig {
            coalesce: true,
            ..VmConfig::default()
        },
    )
}

/// Carry every datagram `from` has queued over to `to`, as a site does:
/// decode, then `on_frame` each frame and `commit_accept` the fresh ones.
fn deliver(from: &mut VmEndpoint, to: &mut VmEndpoint, wire: &mut Vec<(usize, WireDatagram)>) {
    from.drain_datagrams_into(0, wire);
    let sender = from.site();
    for (_, w) in wire.drain(..) {
        let d = w.decode();
        to.begin_datagram(d.id);
        for f in d.frames {
            if let Receipt::Fresh { seq, .. } = to.on_frame(sender, f) {
                black_box(to.commit_accept(sender, seq));
            }
        }
    }
}

/// One Vm's whole life through two endpoints configured like a site's:
/// `create` → `drain_datagrams_into` → decode → `on_frame` →
/// `commit_accept` → ack datagram back → `drain_completed`. One
/// operation is one Vm; a batch sends `frames_per_datagram` at a time.
pub fn vmsg_roundtrip(slice: Duration, mix: VmMix) -> Timing {
    let (mut s, mut r) = (coalescing_endpoint(0), coalescing_endpoint(1));
    let body = payload(mix.payload_len);
    let mut wire = Vec::new();
    let mut done = Vec::new();
    measure(slice, || {
        let rounds = 256;
        let t = Instant::now();
        for _ in 0..rounds {
            for _ in 0..mix.frames_per_datagram {
                black_box(s.create(1, body.clone()));
            }
            deliver(&mut s, &mut r, &mut wire);
            r.flush_owed_ack(0);
            deliver(&mut r, &mut s, &mut wire);
            s.drain_completed_into(&mut done);
            done.clear();
        }
        let elapsed = t.elapsed();
        assert!(!s.has_outstanding(), "every Vm was acknowledged");
        ((rounds * mix.frames_per_datagram) as u64, elapsed)
    })
}

/// Frames per datagram in the codec drivers (named in the metric).
const CODEC_FRAMES: usize = 8;

fn codec_frames(payload_len: usize) -> Vec<Frame> {
    (0..CODEC_FRAMES as u64)
        .map(|i| Frame::Data {
            seq: i + 1,
            ack: i,
            payload: payload(payload_len),
        })
        .collect()
}

/// `WireDatagram::encode` of an 8-frame datagram, per frame.
pub fn vmsg_encode(slice: Duration, mix: VmMix) -> Timing {
    let frames = codec_frames(mix.payload_len);
    measure(slice, || {
        let rounds = 1024;
        let t = Instant::now();
        for id in 0..rounds {
            black_box(WireDatagram::encode(id, black_box(&frames)));
        }
        (rounds * CODEC_FRAMES as u64, t.elapsed())
    })
}

/// `WireDatagram::decode` of an 8-frame datagram, per frame.
pub fn vmsg_decode(slice: Duration, mix: VmMix) -> Timing {
    let wire = WireDatagram::encode(1, &codec_frames(mix.payload_len));
    measure(slice, || {
        let rounds = 1024;
        let t = Instant::now();
        for _ in 0..rounds {
            black_box(black_box(&wire).decode());
        }
        (rounds * CODEC_FRAMES as u64, t.elapsed())
    })
}

/// One retransmit `tick` with 32 unacknowledged Vms toward one peer.
pub fn vmsg_tick(slice: Duration, mix: VmMix) -> Timing {
    let mut s = VmEndpoint::new(
        0,
        VmConfig {
            window: 64,
            ..VmConfig::default()
        },
    );
    for _ in 0..32 {
        black_box(s.create(1, payload(mix.payload_len)));
    }
    let mut out = Vec::new();
    s.drain_outbox_into(&mut out);
    measure(slice, || {
        let rounds = 256;
        let t = Instant::now();
        for _ in 0..rounds {
            out.clear();
            s.tick();
            s.drain_outbox_into(&mut out);
        }
        (rounds, t.elapsed())
    })
}

// ---- storage --------------------------------------------------------------

/// A log record of a chosen encoded size: stands in for the engines'
/// records at the mean size the rep's logs actually hold.
#[derive(Clone, Debug)]
struct Blob(Bytes);

impl Record for Blob {
    fn encode(&self, w: &mut RecordWriter<'_>) {
        w.bytes(&self.0);
    }

    fn decode(r: &mut RecordReader<'_>) -> Result<Self, DecodeError> {
        Ok(Blob(r.bytes()?))
    }
}

/// The log mix the traced rep measured.
#[derive(Clone, Copy, Debug)]
pub struct LogMix {
    /// Mean bytes one record occupies in the stable image.
    pub record_bytes: usize,
    /// Mean records hardened per force, rounded, at least 1.
    pub records_per_force: usize,
}

impl LogMix {
    /// A blob whose log entry occupies `record_bytes` in the image (or as
    /// close as the framing allows).
    fn record(&self) -> Blob {
        let mut probe = StableLog::<Blob>::new();
        probe.append_force(Blob(Bytes::new()));
        let framing = probe.stable_image_len();
        Blob(payload(self.record_bytes.saturating_sub(framing)))
    }
}

/// `StableLog::append` alone (records pile up in the volatile tail).
pub fn storage_append(slice: Duration, mix: LogMix) -> Timing {
    let rec = mix.record();
    measure(slice, || {
        let mut log = StableLog::<Blob>::new();
        let n = 4096;
        let t = Instant::now();
        for _ in 0..n {
            black_box(log.append(rec.clone()));
        }
        (n, t.elapsed())
    })
}

/// The group-commit cycle: `records_per_force` appends, then
/// `force_if_dirty`. One operation is one cycle.
pub fn storage_force_cycle(slice: Duration, mix: LogMix) -> Timing {
    let rec = mix.record();
    measure(slice, || {
        let mut log = StableLog::<Blob>::new();
        let cycles = 2048;
        let t = Instant::now();
        for _ in 0..cycles {
            for _ in 0..mix.records_per_force {
                black_box(log.append(rec.clone()));
            }
            black_box(log.force_if_dirty());
        }
        (cycles, t.elapsed())
    })
}

/// `recover_entries` over a 100k-record stable image, per record.
pub fn storage_recover(slice: Duration, mix: LogMix) -> Timing {
    let rec = mix.record();
    let mut log = StableLog::<Blob>::new();
    let n = 100_000;
    for _ in 0..n {
        log.append(rec.clone());
    }
    log.force();
    measure(slice, || {
        let t = Instant::now();
        let entries = log.recover_entries().expect("a clean image decodes");
        let elapsed = t.elapsed();
        assert_eq!(entries.len(), n);
        (n as u64, elapsed)
    })
}

/// `CheckpointSlot::install` of a snapshot of `snapshot_bytes`.
pub fn storage_checkpoint_install(slice: Duration, snapshot_bytes: usize) -> Timing {
    let snapshot = Blob(payload(snapshot_bytes));
    let mut slot = CheckpointSlot::<Blob>::new();
    measure(slice, || {
        let rounds = 1024;
        let t = Instant::now();
        for i in 0..rounds {
            slot.install(Lsn(i), snapshot.clone());
        }
        (rounds, t.elapsed())
    })
}

// ---- core -----------------------------------------------------------------

/// `LockTable::try_lock` + `unlock` of one item.
pub fn core_lock_cycle(slice: Duration) -> Timing {
    let mut locks = LockTable::new();
    measure(slice, || {
        let rounds = 65_536;
        let t = Instant::now();
        for i in 0..rounds {
            let txn = Ts(i + 1);
            black_box(locks.try_lock(ItemId(0), Holder::Txn(txn))).expect("the item is free");
            black_box(locks.unlock(ItemId(0), txn));
        }
        (rounds, t.elapsed())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blob_records_hit_the_requested_image_size() {
        let mix = LogMix {
            record_bytes: 57,
            records_per_force: 3,
        };
        let mut log = StableLog::<Blob>::new();
        log.append_force(mix.record());
        assert_eq!(log.stable_image_len(), 57);
        assert_eq!(log.recover_entries().unwrap().len(), 1);
    }

    #[test]
    fn every_driver_reports_work() {
        let slice = Duration::from_millis(5);
        let vm = VmMix {
            payload_len: 30,
            frames_per_datagram: 2,
        };
        let log = LogMix {
            record_bytes: 40,
            records_per_force: 2,
        };
        for t in [
            simnet_pingpong(slice),
            simnet_lossy_retx(slice),
            vmsg_roundtrip(slice, vm),
            vmsg_encode(slice, vm),
            vmsg_decode(slice, vm),
            vmsg_tick(slice, vm),
            storage_append(slice, log),
            storage_force_cycle(slice, log),
            storage_recover(slice, log),
            storage_checkpoint_install(slice, 512),
            core_lock_cycle(slice),
        ] {
            assert!(t.ns_per_op > 0.0 && t.ops > 0 && t.total_s > 0.0, "{t:?}");
        }
    }
}
