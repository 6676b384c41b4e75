//! What survives a crash: the stable log, the checkpoint slot, and the
//! bookkeeping that ties them together — append, the one force a flush
//! boundary owes, checkpoint install and truncation, the Section 7
//! recovery scan, and the media-failure quarantine.

use crate::clock::Ts;
use crate::fragment::FragmentStore;
use crate::item::ItemId;
use crate::metrics::SiteMetrics;
use crate::record::{DbActions, SiteRecord};
use crate::transfer::Transfer;
use crate::Qty;
use dvp_obs::{EventKind, Obs};
use dvp_simnet::NodeId;
use dvp_storage::{
    CheckpointSlot, CheckpointedLog, DecodeError, Lsn, Record, RecordReader, RecordWriter,
    Recovery, StableLog, TornWrite,
};
use dvp_vmsg::{ChannelSnapshot, VmEndpoint, VmLogOp};
use std::collections::BTreeMap;

/// A checkpoint image of a site's durable state: fragment values and
/// timestamps plus the Vm channel state. Together with the log suffix
/// after `redo_from`, it reconstructs the site exactly.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SiteSnapshot {
    frag_vals: Vec<Qty>,
    frag_ts: Vec<Ts>,
    vm: Vec<ChannelSnapshot>,
}

impl SiteSnapshot {
    /// Overwrite with the live state of `frags` and `vm`, reusing every
    /// buffer this snapshot already holds.
    fn refill(&mut self, frags: &FragmentStore, vm: &VmEndpoint) {
        frags.snapshot_into(&mut self.frag_vals, &mut self.frag_ts);
        vm.snapshot_into(&mut self.vm);
    }
}

// The checkpoint store keeps slots as checksummed byte images, so the
// snapshot must round-trip through bytes like any log record.
impl Record for SiteSnapshot {
    fn encode(&self, w: &mut RecordWriter<'_>) {
        w.u32(self.frag_vals.len() as u32);
        for &v in &self.frag_vals {
            w.u64(v);
        }
        for &t in &self.frag_ts {
            w.u64(t.0);
        }
        w.u32(self.vm.len() as u32);
        for ch in &self.vm {
            w.u64(ch.peer as u64);
            w.u64(ch.last_created);
            w.u64(ch.acked_out);
            w.u64(ch.accepted_in);
            w.u32(ch.outgoing.len() as u32);
            for (seq, payload) in &ch.outgoing {
                w.u64(*seq);
                w.bytes(payload);
            }
        }
    }

    fn decode(r: &mut RecordReader<'_>) -> Result<Self, DecodeError> {
        // Counts come off the disk: each is bounded by the bytes left
        // before it sizes an allocation.
        let items = r.count(8 + 8)?; // value, timestamp
        let mut frag_vals = Vec::with_capacity(items);
        for _ in 0..items {
            frag_vals.push(r.u64()?);
        }
        let mut frag_ts = Vec::with_capacity(items);
        for _ in 0..items {
            frag_ts.push(Ts(r.u64()?));
        }
        let channels = r.count(4 * 8 + 4)?; // four cursors, outgoing count
        let mut vm = Vec::with_capacity(channels);
        for _ in 0..channels {
            let peer = r.u64()? as NodeId;
            let last_created = r.u64()?;
            let acked_out = r.u64()?;
            let accepted_in = r.u64()?;
            let n_out = r.count(8 + 4)?; // seq, payload length
            let mut outgoing = Vec::with_capacity(n_out);
            for _ in 0..n_out {
                let seq = r.u64()?;
                outgoing.push((seq, r.bytes()?));
            }
            vm.push(ChannelSnapshot {
                peer,
                last_created,
                acked_out,
                accepted_in,
                outgoing,
            });
        }
        Ok(SiteSnapshot {
            frag_vals,
            frag_ts,
            vm,
        })
    }
}

pub(super) type SiteLog = StableLog<SiteRecord>;

/// The durable component of a site.
pub(super) struct Durable {
    site: NodeId,
    /// The log and its checkpoint slot (stable storage both), with the
    /// count that says when the next checkpoint is due.
    stable: CheckpointedLog<SiteRecord, SiteSnapshot>,
    /// Group commit: a record that must be durable before this dispatch's
    /// frames leave was appended, so the flush boundary owes one force.
    /// Stays `false` across ack-only dispatches — lazy `AckObserved`
    /// notes ride along with the next real force.
    needs_flush: bool,
    /// Snapshot refilled in place and lent to each checkpoint install.
    snapshot_scratch: SiteSnapshot,
    /// Records redone by the last recovery scan (trace reporting).
    last_replayed: u64,
    /// Sticky media-failure quarantine: salvage dropped committed effects
    /// that no checkpoint generation covers, so this site's durable state
    /// is wrong by an unknown-but-declared amount. It stays inert forever
    /// — rejoining would reuse Vm sequence numbers and resurrect value
    /// its peers already absorbed.
    media_failed: bool,
    obs: Obs,
}

impl Durable {
    /// A fresh site's stable storage: the genesis records of its quota
    /// split (`quotas[i]` of item `i`), forced.
    pub(super) fn genesis(site: NodeId, quotas: &[Qty]) -> Self {
        let init = quotas.iter().enumerate().map(|(i, &qty)| SiteRecord::Init {
            item: ItemId(i as u32),
            qty,
        });
        Durable {
            site,
            stable: CheckpointedLog::genesis(init),
            needs_flush: false,
            snapshot_scratch: SiteSnapshot::default(),
            last_replayed: 0,
            media_failed: false,
            obs: Obs::disabled(),
        }
    }

    pub(super) fn set_obs(&mut self, obs: Obs) {
        self.stable.log.set_obs(obs.clone(), self.site as u32);
        self.obs = obs;
    }

    pub(super) fn log(&self) -> &SiteLog {
        &self.stable.log
    }

    pub(super) fn media_failed(&self) -> bool {
        self.media_failed
    }

    pub(super) fn last_replayed(&self) -> u64 {
        self.last_replayed
    }

    /// Append the `[database-actions, message-sequence]` record of a
    /// redistribution step and the Vm op it justifies.
    pub(super) fn append_rds(&mut self, txn: Ts, actions: DbActions, vm_op: VmLogOp) {
        self.stable.log.append(SiteRecord::Rds {
            txn,
            actions,
            vm_op,
        });
    }

    /// Append the `Commit` record of `txn`, lending it `actions` for the
    /// call: the list is handed back for the install, the counters and
    /// the history sink, so a commit builds it once.
    pub(super) fn append_commit(&mut self, txn: Ts, actions: DbActions) -> DbActions {
        let rec = SiteRecord::Commit { txn, actions };
        self.stable.log.append(&rec);
        match rec {
            SiteRecord::Commit { actions, .. } => actions,
            _ => unreachable!("built as a Commit above"),
        }
    }

    /// A record that must be durable before any frame of this dispatch
    /// leaves was just appended: the flush boundary owes one force.
    pub(super) fn owe_force(&mut self) {
        self.needs_flush = true;
    }

    /// Force the unforced tail now, ahead of the flush boundary (the
    /// armed-crashpoint paths). Forcing early is always safe — only
    /// *missing* forces endanger durability.
    pub(super) fn force_now(&mut self) {
        self.stable.log.force_if_dirty();
    }

    /// Group commit: a single force at the flush boundary hardens every
    /// record appended while handling the current event — *before* any
    /// frame leaves the site, so the paper's force-before-send
    /// discipline holds per datagram. It runs only when the dispatch
    /// appended a record that needs it; ack-only dispatches stay lazy.
    pub(super) fn force_at_flush(&mut self) {
        if self.needs_flush {
            self.stable.log.force_if_dirty();
            self.needs_flush = false;
        }
    }

    /// The crash: the flush debt dies with the unforced tail it tracked.
    /// Hands back the raw stable media, for the fault injector to decay.
    pub(super) fn crash(
        &mut self,
        torn: TornWrite,
    ) -> (&mut SiteLog, &mut CheckpointSlot<SiteSnapshot>) {
        self.needs_flush = false;
        self.stable.log.crash_torn(torn);
        (&mut self.stable.log, &mut self.stable.slot)
    }

    /// Once the un-checkpointed stable suffix has reached `limit`
    /// records, force, install a checkpoint of `frags` and `vm` and
    /// return its redo point (see [`CheckpointedLog::checkpoint_if_due`]).
    /// The snapshot is a retained scratch refilled in place, so a
    /// checkpoint allocates nothing.
    pub(super) fn checkpoint_if_due(
        &mut self,
        limit: usize,
        frags: &FragmentStore,
        vm: &VmEndpoint,
    ) -> Option<Lsn> {
        let snap = &mut self.snapshot_scratch;
        let redo_from = self.stable.checkpoint_if_due(limit, move || {
            snap.refill(frags, vm);
            snap
        })?;
        // Keep the lists' capacity, not the payload handles.
        for ch in &mut self.snapshot_scratch.vm {
            ch.outgoing.clear();
        }
        Some(redo_from)
    }

    /// Drop the log prefix the installed checkpoints cover, keeping the
    /// older generation's redo window.
    pub(super) fn truncate_checkpointed(&mut self) {
        self.stable.truncate_checkpointed();
    }

    /// The Section 7 recovery scan: reconstruct fragments, timestamps,
    /// and Vm state purely from the local stable storage, then account
    /// for what storage lost — counters, events and quarantine, in the
    /// order recovery met them.
    pub(super) fn rebuild(
        &mut self,
        skip_redo: bool,
        frags: &mut FragmentStore,
        vm: &mut VmEndpoint,
        metrics: &mut SiteMetrics,
    ) {
        let site = self.site as u32;
        let rec = self.stable.recover();
        restore(frags, vm, &rec);
        if let Some(fb) = rec.fallback {
            // The newest slot rotted: the redo is longer, and the log
            // retains back to the older generation's redo point for it.
            let fallback = EventKind::CheckpointFallback {
                bad_generation: fb.bad_generation,
                used_generation: fb.used_generation.unwrap_or(0),
            };
            self.obs.record(site, fallback, metrics);
        }
        if rec.torn_bytes > 0 {
            // WAL-style: the torn tail frame never committed.
            metrics.torn_crashes += 1;
        }
        if let Some(report) = &rec.salvage {
            // A *durable* record rotted: declare an upper bound on the
            // value each lost record could have displaced; a loss no
            // checkpoint covers quarantines the site.
            self.obs.emit_with(site, || EventKind::Salvage {
                first_bad_lsn: report.first_bad_lsn.0,
                records_lost: report.records_lost,
                bytes_lost: report.bytes_lost,
            });
            for (_, lost) in &report.dropped {
                declare_damage(&mut metrics.salvage_damage, lost);
            }
            if !report.dropped.is_empty() {
                self.quarantine(report.dropped.len() as u64, metrics);
            }
        }
        if rec.unbounded {
            // Every checkpoint generation failed and a checkpoint had
            // already truncated the genesis records: the snapshot's
            // effects are unreconstructible, and unboundable.
            metrics.salvage_unbounded = true;
            self.quarantine(0, metrics);
        }
        if !skip_redo {
            self.last_replayed = rec.redo.len() as u64;
            metrics.records_replayed += self.last_replayed;
            redo_entries(frags, vm, &rec.redo);
        }
    }

    /// Enter media-failure quarantine (once): committed effects were
    /// destroyed beyond what any checkpoint generation covers. The site
    /// stays up in the simulator but refuses every event from now on
    /// (see the guards in the `Node` impl) — serving its salvaged state
    /// could double-pay or lose value, and its peers' timeouts already
    /// handle an unresponsive site safely.
    fn quarantine(&mut self, records_lost: u64, metrics: &mut SiteMetrics) {
        if self.media_failed {
            return;
        }
        self.media_failed = true;
        let failure = EventKind::MediaFailure { records_lost };
        self.obs.record(self.site as u32, failure, metrics);
    }

    /// Reconstruct the site's durable state — fragments over `items`
    /// items and Vm channels — from stable storage alone, touching nothing
    /// live: the recovery runs on a clone of the log and slots, so the
    /// live log stays as unsealed as it was.
    pub(super) fn rebuilt_state(&self, items: usize) -> (FragmentStore, VmEndpoint) {
        let mut frags = FragmentStore::new(items);
        let mut vm = super::vm_endpoint(self.site);
        let rec = self.stable.clone().recover();
        restore(&mut frags, &mut vm, &rec);
        redo_entries(&mut frags, &mut vm, &rec.redo);
        (frags, vm)
    }
}

/// Accumulate the per-item damage *upper bound* a salvage-dropped record
/// represents: the magnitude of every fragment delta it applied plus the
/// amount of every Vm payload it created. This is deliberately a bound,
/// not an exact loss — a dropped `Created` whose frame is still sitting
/// in a live sender's retransmit queue costs nothing, and a dropped
/// `Commit` *resurrects* value (negative discrepancy). The media-aware
/// conservation oracle checks |discrepancy| against the declared total.
fn declare_damage(damage: &mut BTreeMap<ItemId, u64>, rec: &SiteRecord) {
    match rec {
        SiteRecord::Init { item, qty } => *damage.entry(*item).or_insert(0) += qty,
        SiteRecord::Rds { actions, .. } | SiteRecord::Commit { actions, .. } => {
            for &(item, delta) in actions {
                *damage.entry(item).or_insert(0) += delta.unsigned_abs();
            }
        }
    }
    if let SiteRecord::Rds {
        vm_op: VmLogOp::Created { payload, .. },
        ..
    } = rec
    {
        if let Ok(t) = Transfer::from_bytes(payload) {
            *damage.entry(t.item).or_insert(0) += t.amount;
        }
    }
}

/// Start `frags`/`vm` from the recovered snapshot, or from empty
/// fragments when none verifies (the genesis records rebuild them).
fn restore(
    frags: &mut FragmentStore,
    vm: &mut VmEndpoint,
    rec: &Recovery<SiteRecord, SiteSnapshot>,
) {
    match &rec.snapshot {
        Some(snap) => {
            frags.restore(&snap.frag_vals, &snap.frag_ts);
            vm.restore(&snap.vm);
        }
        None => frags.reset(),
    }
}

/// Redo a log suffix the checkpoint does not cover onto `frags`/`vm`
/// (the shared core of live recovery and the pure rebuild oracle).
fn redo_entries(frags: &mut FragmentStore, vm: &mut VmEndpoint, suffix: &[(Lsn, SiteRecord)]) {
    for (_, rec) in suffix {
        match rec {
            SiteRecord::Init { item, qty } => frags.credit(*item, *qty),
            SiteRecord::Rds { txn, actions, .. } | SiteRecord::Commit { txn, actions } => {
                for &(item, delta) in actions {
                    frags.apply_delta(item, delta);
                    frags.bump_ts(item, *txn);
                }
            }
        }
        if let SiteRecord::Rds { vm_op, .. } = rec {
            vm.replay(vm_op);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    /// A snapshot built the way checkpoints built one before the scratch:
    /// every buffer new.
    fn fresh(frags: &FragmentStore, vm: &VmEndpoint) -> SiteSnapshot {
        let mut channels = Vec::new();
        vm.snapshot_into(&mut channels);
        SiteSnapshot {
            frag_vals: frags.snapshot(),
            frag_ts: (0..frags.len() as u32)
                .map(|i| frags.ts(ItemId(i)))
                .collect(),
            vm: channels,
        }
    }

    /// The scratch outlives channels: a crash drops them all, and later
    /// rounds open fewer, none, then more than before. Each refill must
    /// equal a fresh snapshot, whether or not the checkpoint's
    /// post-install clear of the payload handles ran in between.
    #[test]
    fn a_refilled_snapshot_equals_a_fresh_one_as_channels_come_and_go() {
        let rounds: [&[(NodeId, u64)]; 5] = [
            &[(1, 2), (2, 1), (3, 3)],
            &[(2, 4)],
            &[],
            &[(0, 1), (1, 5), (2, 1), (3, 2)],
            &[(3, 1)],
        ];
        let mut frags = FragmentStore::new(3);
        let mut vm = crate::site::vm_endpoint(4);
        let mut scratch = SiteSnapshot::default();
        for (round, peers) in rounds.iter().enumerate() {
            vm.crash_reset();
            let item = ItemId(round as u32 % 3);
            frags.credit(item, 10 + round as u64);
            frags.bump_ts(item, Ts(100 + round as u64));
            for &(peer, vms) in peers.iter() {
                for k in 0..vms {
                    let _ = vm.create(peer, Bytes::from(vec![round as u8; k as usize + 1]));
                }
            }
            scratch.refill(&frags, &vm);
            assert_eq!(scratch, fresh(&frags, &vm), "round {round}");
            if round % 2 == 1 {
                for ch in &mut scratch.vm {
                    ch.outgoing.clear();
                }
            }
        }
    }
}
