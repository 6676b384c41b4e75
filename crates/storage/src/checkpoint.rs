//! Checkpointing.
//!
//! A checkpoint records "all updates up to LSN x are reflected in the
//! database image saved alongside". Recovery then redoes only records at
//! or after the checkpoint LSN, bounding the scan (paper Section 7).
//!
//! The store is the real two-slot scheme: two generation-numbered slots,
//! each holding a checksummed byte image of the snapshot. [`install`]
//! always overwrites the *older* slot, so the previous generation survives
//! every checkpoint verbatim; [`load`] picks the newest slot whose
//! checksum verifies, so a crash mid-install or a corrupted slot degrades
//! to the previous generation (with a longer redo) instead of undefined
//! behavior. The price of that fallback is paid by the log: the host must
//! retain records from [`redo_floor`] — the *older* retained generation's
//! redo point — not just the newest one's.
//!
//! The *database image* is whatever the site wants to snapshot (`S`, any
//! [`Record`]), stored as a framed byte image next to the log. `dvp-core`
//! snapshots its fragment store plus Vm channel state; the 2PC baseline
//! its replicas, prepared transactions and owed decisions. As with the
//! log, the image is the only copy: a slot keeps no decoded snapshot
//! beside its bytes, and [`load`] decodes one when recovery asks.
//!
//! [`CheckpointedLog`] is the engine-neutral bookkeeping both engines
//! share: when a checkpoint is due, force-then-install, truncation to the
//! floor, and the recovery recount. What goes into a snapshot and how a
//! redo record is applied stay with each engine.
//!
//! [`install`]: CheckpointSlot::install
//! [`load`]: CheckpointSlot::load
//! [`redo_floor`]: CheckpointSlot::redo_floor

use crate::codec::{decode_exact, frame_in_place, take_frame, DecodeError, Record};
use crate::log::StableLog;
use crate::lsn::Lsn;
use std::borrow::Borrow;
use std::marker::PhantomData;

/// The default checkpoint interval of both engines: a site checkpoints
/// once this many stable records have built up past its last checkpoint.
/// It bounds the retained log to about two such windows and the redo a
/// crash costs to about one.
pub const CHECKPOINT_EVERY: usize = 256;

/// A durable checkpoint: a snapshot `S` plus the LSN from which redo must
/// resume, stamped with its generation number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointMeta<S> {
    /// Monotone install counter (1 = the first checkpoint ever taken).
    pub generation: u64,
    /// Redo must start at this LSN (records before it are reflected in
    /// `snapshot`).
    pub redo_from: Lsn,
    /// The state image taken at checkpoint time.
    pub snapshot: S,
}

/// Recovery chose an older generation because the newest slot's checksum
/// failed (reported by [`CheckpointSlot::refresh`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotFallback {
    /// The generation whose slot failed verification.
    pub bad_generation: u64,
    /// The generation recovery will use instead (`None` = no slot
    /// verifies; recovery replays the whole retained log from scratch).
    pub used_generation: Option<u64>,
}

/// The two fields of a verified slot the store reads outside recovery.
#[derive(Clone, Copy, Debug)]
struct SlotHeader {
    generation: u64,
    redo_from: Lsn,
}

/// One physical slot: a framed byte image (`len | crc | payload`, payload
/// = `generation ++ redo_from ++ snapshot`) and the header of that image
/// (`None` = empty or failed verification). The snapshot itself lives
/// only in the bytes: it is decoded when recovery asks for it.
#[derive(Clone, Debug, Default)]
struct SlotState {
    image: Vec<u8>,
    header: Option<SlotHeader>,
}

impl SlotState {
    /// Re-derive the header from the bytes alone: a slot counts only if
    /// its whole image decodes.
    fn verify<S: Record>(&mut self) {
        self.header = if self.image.is_empty() {
            None
        } else {
            decode_slot::<S>(&self.image).ok().map(|m| SlotHeader {
                generation: m.generation,
                redo_from: m.redo_from,
            })
        };
    }

    fn generation(&self) -> u64 {
        self.header.map_or(0, |h| h.generation)
    }
}

/// A crash-surviving two-slot checkpoint store.
///
/// Writing a checkpoint never touches the newest surviving generation:
/// [`install`](Self::install) encodes the snapshot into the *older* slot.
/// Recovery ([`load`](Self::load) / [`refresh`](Self::refresh)) picks the
/// newest slot whose CRC verifies and falls back one generation — or to
/// nothing — when it doesn't.
#[derive(Clone, Debug)]
pub struct CheckpointSlot<S> {
    slots: [SlotState; 2],
    /// Generation of the most recent install (0 = none yet) — the
    /// reference point for detecting that recovery had to fall back.
    last_installed: u64,
    /// Checkpoints taken (for tests/benchmarks).
    pub taken: u64,
    _snapshot: PhantomData<fn() -> S>,
}

impl<S: Record> Default for CheckpointSlot<S> {
    fn default() -> Self {
        Self::new()
    }
}

/// Decode a slot image, which verifies only if it is exactly one frame
/// whose checksum matches and whose payload decodes with nothing left.
fn decode_slot<S: Record>(mut image: &[u8]) -> Result<CheckpointMeta<S>, DecodeError> {
    let payload = take_frame(&mut image)?;
    if !image.is_empty() {
        return Err(DecodeError::Invalid("trailing bytes after the slot frame"));
    }
    decode_exact(payload, |r| {
        Ok(CheckpointMeta {
            generation: r.u64()?,
            redo_from: Lsn(r.u64()?),
            snapshot: S::decode(r)?,
        })
    })
}

impl<S: Record> CheckpointSlot<S> {
    /// An empty store.
    pub fn new() -> Self {
        CheckpointSlot {
            slots: Default::default(),
            last_installed: 0,
            taken: 0,
            _snapshot: PhantomData,
        }
    }

    /// Index of the slot holding the newest verified generation, if any.
    fn newest_valid(&self) -> Option<usize> {
        let (g0, g1) = (self.slots[0].generation(), self.slots[1].generation());
        if g0 == 0 && g1 == 0 {
            None
        } else if g0 >= g1 {
            Some(0)
        } else {
            Some(1)
        }
    }

    /// Install a new checkpoint into the *older* slot, leaving the
    /// previous generation untouched. The snapshot (owned or borrowed) is
    /// encoded straight into that slot's retained buffer, so once the
    /// buffer has grown to a snapshot's size an install allocates nothing.
    pub fn install(&mut self, redo_from: Lsn, snapshot: impl Borrow<S>) {
        let target = usize::from(self.slots[0].generation() > self.slots[1].generation());
        self.last_installed += 1;
        let generation = self.last_installed;
        let slot = &mut self.slots[target];
        slot.image.clear();
        frame_in_place(&mut slot.image, |w| {
            w.u64(generation);
            w.u64(redo_from.0);
            snapshot.borrow().encode(w);
        });
        slot.header = Some(SlotHeader {
            generation,
            redo_from,
        });
        self.taken += 1;
    }

    /// The newest checkpoint whose checksum verifies, if any, decoded
    /// from its slot's bytes (the recovery path; nothing else reads a
    /// snapshot back).
    pub fn load(&self) -> Option<CheckpointMeta<S>> {
        self.newest_valid()
            .map(|i| decode_slot(&self.slots[i].image).expect("a verified slot image decodes"))
    }

    /// The LSN redo should start from: the chosen checkpoint's
    /// `redo_from`, or [`Lsn::FIRST`] when no slot verifies.
    pub fn redo_from(&self) -> Lsn {
        self.newest_valid()
            .and_then(|i| self.slots[i].header)
            .map_or(Lsn::FIRST, |h| h.redo_from)
    }

    /// The oldest LSN the log must retain so that recovery can fall back
    /// one generation: the *older* verified slot's `redo_from`, or
    /// [`Lsn::FIRST`] while fewer than two generations exist (falling back
    /// from a lone checkpoint means replaying the whole log).
    pub fn redo_floor(&self) -> Lsn {
        match (self.slots[0].header, self.slots[1].header) {
            (Some(a), Some(b)) => a.redo_from.min(b.redo_from),
            _ => Lsn::FIRST,
        }
    }

    /// Re-verify both slot images against their checksums (the recovery
    /// entry point — each header is re-derived from durable bytes, so a
    /// corrupted slot surfaces here instead of being masked by what the
    /// last install wrote). Returns the fallback report if the most
    /// recently installed generation no longer verifies.
    pub fn refresh(&mut self) -> Option<SlotFallback> {
        for slot in &mut self.slots {
            slot.verify::<S>();
        }
        let newest = self.slots[0].generation().max(self.slots[1].generation());
        if self.last_installed > 0 && newest < self.last_installed {
            Some(SlotFallback {
                bad_generation: self.last_installed,
                used_generation: (newest > 0).then_some(newest),
            })
        } else {
            None
        }
    }

    /// Fault injection: flip one byte of slot `slot`'s image at `offset`.
    /// Returns whether a byte was actually flipped (`false` for an empty
    /// slot or out-of-range offset). The slot's header is re-derived from
    /// the damaged bytes, so [`load`](Self::load) immediately reflects the
    /// corruption.
    pub fn corrupt_slot(&mut self, slot: usize, offset: usize) -> bool {
        let s = &mut self.slots[slot % 2];
        if offset >= s.image.len() {
            return false;
        }
        s.image[offset] ^= 0xA5;
        s.verify::<S>();
        true
    }

    /// Slot `slot`'s durable bytes (empty = never written). For fault
    /// injectors choosing an offset and tests pinning the format.
    pub fn slot_image(&self, slot: usize) -> &[u8] {
        &self.slots[slot % 2].image
    }
}

/// A stable log of `R` records and its checkpoint store of `S`
/// snapshots, with the count that says when the next checkpoint is due.
///
/// Both media are public: the host appends, forces and scans the log and
/// injects faults into either. It truncates only through
/// [`truncate_checkpointed`](Self::truncate_checkpointed) and positions a
/// recovery scan with [`recount`](Self::recount), which keep the trigger's
/// count right.
#[derive(Clone, Debug)]
pub struct CheckpointedLog<R, S> {
    /// The stable log.
    pub log: StableLog<R>,
    /// The two-slot checkpoint store.
    pub slot: CheckpointSlot<S>,
    /// Durable records the log still retains *below* the checkpoint's
    /// redo point (two-generation retention keeps the previous window).
    /// `log.stable_len() - redo_covered` is the un-checkpointed suffix the
    /// trigger reads; set when a checkpoint truncates and recounted by
    /// every recovery scan.
    redo_covered: usize,
}

impl<R: Record, S: Record> CheckpointedLog<R, S> {
    /// `log` with no checkpoint taken yet.
    pub fn new(log: StableLog<R>) -> Self {
        CheckpointedLog {
            log,
            slot: CheckpointSlot::new(),
            redo_covered: 0,
        }
    }

    /// Once the *un-checkpointed* stable suffix has reached `limit`
    /// records, install the snapshot `take` produces and return its redo
    /// point. (Not total log length: two-generation retention keeps the
    /// whole previous window in the log — see
    /// [`truncate_checkpointed`](Self::truncate_checkpointed) — so a
    /// total-length trigger would fire on every call once the first
    /// window filled.) Only *forced* state may enter the snapshot, so an
    /// unforced tail is forced first and the snapshot and the redo point
    /// agree; a clean log costs no force. `take` runs only when a
    /// checkpoint is due, so a host can refill a retained scratch there
    /// and checkpoint without allocating.
    pub fn checkpoint_if_due<'s>(
        &mut self,
        limit: usize,
        take: impl FnOnce() -> &'s S,
    ) -> Option<Lsn>
    where
        S: 's,
    {
        if self.log.stable_len() - self.redo_covered < limit {
            return None;
        }
        self.log.force_if_dirty();
        let redo_from = self.log.next_lsn();
        self.slot.install(redo_from, take());
        Some(redo_from)
    }

    /// Drop the log prefix the installed checkpoints cover. Retain back
    /// to the *older* generation's redo point, not the new one's: if the
    /// slot just written rots, recovery falls back a generation and must
    /// still find that generation's redo suffix in the log.
    pub fn truncate_checkpointed(&mut self) {
        self.log.truncate_before(self.slot.redo_floor());
        self.redo_covered = self.log.stable_len();
    }

    /// The records of a recovery scan (`entries`, oldest first) that redo
    /// must apply on top of the newest verifying checkpoint: those at or
    /// past its `redo_from`. The ones below are already in its snapshot —
    /// two-generation retention, or a crash between install and
    /// truncation, leaves them in the log — and must be skipped.
    pub fn redo_suffix<'e>(&self, entries: &'e [(Lsn, R)]) -> &'e [(Lsn, R)] {
        let redo_from = self.slot.redo_from();
        &entries[entries.partition_point(|(lsn, _)| *lsn < redo_from)..]
    }

    /// [`redo_suffix`](Self::redo_suffix) for the scan recovery runs on:
    /// the prefix it skips becomes the count the trigger subtracts.
    pub fn recount<'e>(&mut self, entries: &'e [(Lsn, R)]) -> &'e [(Lsn, R)] {
        let suffix = self.redo_suffix(entries);
        self.redo_covered = entries.len() - suffix.len();
        suffix
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{RecordReader, RecordWriter};

    #[derive(Clone, Debug, PartialEq, Eq)]
    struct Snap(u64);
    impl Record for Snap {
        fn encode(&self, w: &mut RecordWriter<'_>) {
            w.u64(self.0);
        }
        fn decode(r: &mut RecordReader<'_>) -> Result<Self, DecodeError> {
            Ok(Snap(r.u64()?))
        }
    }

    #[test]
    fn empty_slot_redoes_from_first() {
        let slot: CheckpointSlot<Snap> = CheckpointSlot::new();
        assert_eq!(slot.redo_from(), Lsn::FIRST);
        assert_eq!(slot.redo_floor(), Lsn::FIRST);
        assert!(slot.load().is_none());
    }

    #[test]
    fn install_replaces_previous() {
        let mut slot = CheckpointSlot::new();
        slot.install(Lsn(10), Snap(1));
        slot.install(Lsn(20), Snap(2));
        let cp = slot.load().unwrap();
        assert_eq!(cp.redo_from, Lsn(20));
        assert_eq!(cp.snapshot, Snap(2));
        assert_eq!(cp.generation, 2);
        assert_eq!(slot.taken, 2);
    }

    #[test]
    fn redo_from_reflects_checkpoint() {
        let mut slot = CheckpointSlot::new();
        slot.install(Lsn(7), Snap(3));
        assert_eq!(slot.redo_from(), Lsn(7));
    }

    #[test]
    fn install_preserves_the_previous_generation() {
        let mut slot = CheckpointSlot::new();
        slot.install(Lsn(10), Snap(1));
        // A lone generation's fallback is "no checkpoint": keep everything.
        assert_eq!(slot.redo_floor(), Lsn::FIRST);
        slot.install(Lsn(20), Snap(2));
        assert_eq!(slot.redo_floor(), Lsn(10));
        slot.install(Lsn(30), Snap(3));
        // Slots now hold generations 2 and 3; generation 1 was overwritten.
        assert_eq!(slot.redo_floor(), Lsn(20));
        assert_eq!(slot.redo_from(), Lsn(30));
    }

    #[test]
    fn corrupt_newest_falls_back_one_generation() {
        let mut slot = CheckpointSlot::new();
        slot.install(Lsn(10), Snap(1));
        slot.install(Lsn(20), Snap(2));
        // Find which physical slot holds generation 2 and damage it.
        let newest = slot.newest_valid().unwrap();
        assert!(slot.corrupt_slot(newest, slot.slot_image(newest).len() / 2));
        let cp = slot.load().expect("older generation must survive");
        assert_eq!(cp.generation, 1);
        assert_eq!(cp.redo_from, Lsn(10));
        let fb = slot.refresh().expect("fallback must be reported");
        assert_eq!(fb.bad_generation, 2);
        assert_eq!(fb.used_generation, Some(1));
    }

    #[test]
    fn corrupt_both_slots_falls_back_to_nothing() {
        let mut slot = CheckpointSlot::new();
        slot.install(Lsn(10), Snap(1));
        slot.install(Lsn(20), Snap(2));
        assert!(slot.corrupt_slot(0, 3));
        assert!(slot.corrupt_slot(1, 3));
        assert!(slot.load().is_none());
        assert_eq!(slot.redo_from(), Lsn::FIRST);
        let fb = slot.refresh().unwrap();
        assert_eq!(fb.bad_generation, 2);
        assert_eq!(fb.used_generation, None);
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        // CRC-32 catches any single-byte error, so no flip offset can
        // yield a silently wrong checkpoint: the slot either verifies to
        // the true generation or fails and falls back.
        let mut reference = CheckpointSlot::new();
        reference.install(Lsn(5), Snap(0xDEAD_BEEF));
        reference.install(Lsn(9), Snap(0xFEED_FACE));
        let newest = reference.newest_valid().unwrap();
        for offset in 0..reference.slot_image(newest).len() {
            let mut slot = reference.clone();
            assert!(slot.corrupt_slot(newest, offset));
            if let Some(cp) = slot.load() {
                assert_eq!(cp.generation, 1, "flip at {offset} must not verify");
            }
        }
    }

    #[test]
    fn refresh_reverifies_the_durable_bytes() {
        let mut slot = CheckpointSlot::new();
        slot.install(Lsn(4), Snap(44));
        assert!(slot.refresh().is_none(), "clean slots report no fallback");
        let cp = slot.load().unwrap();
        assert_eq!(cp.snapshot, Snap(44));
        assert_eq!(cp.redo_from, Lsn(4));
    }

    /// Append and force `n` records.
    fn grow(cl: &mut CheckpointedLog<Snap, Snap>, n: u64) {
        for i in 0..n {
            cl.log.append(Snap(i));
        }
        cl.log.force();
    }

    #[test]
    fn the_trigger_counts_only_the_un_checkpointed_suffix() {
        let mut cl = CheckpointedLog::new(StableLog::new());
        let snap = Snap(7);
        grow(&mut cl, 3);
        let not_taken = || -> &Snap { unreachable!("no checkpoint is due") };
        assert_eq!(cl.checkpoint_if_due(4, not_taken), None);
        grow(&mut cl, 1);
        // An unforced tail is forced before the install, so the redo
        // point lies past it.
        cl.log.append(Snap(9));
        assert_eq!(cl.checkpoint_if_due(4, || &snap), Some(Lsn(5)));
        assert_eq!(cl.log.tail_len(), 0);
        cl.truncate_checkpointed();
        // A lone generation falls back to a full replay: nothing goes.
        assert_eq!(cl.log.stable_len(), 5);
        // Five records sit in the log, but none is un-checkpointed.
        grow(&mut cl, 3);
        assert_eq!(cl.checkpoint_if_due(4, not_taken), None);
        grow(&mut cl, 1);
        assert_eq!(cl.checkpoint_if_due(4, || &snap), Some(Lsn(9)));
    }

    #[test]
    fn truncation_keeps_the_older_generations_redo_window() {
        let mut cl = CheckpointedLog::new(StableLog::new());
        let snap = Snap(7);
        for redo_from in [Lsn(4), Lsn(8)] {
            grow(&mut cl, 4);
            assert_eq!(cl.checkpoint_if_due(4, || &snap), Some(redo_from));
            cl.truncate_checkpointed();
        }
        // Generation 2 redoes from 8, but the log keeps generation 1's
        // window from 4.
        let entries = cl.log.recover_entries().unwrap();
        let lsns: Vec<Lsn> = entries.iter().map(|(lsn, _)| *lsn).collect();
        assert_eq!(lsns, [Lsn(4), Lsn(5), Lsn(6), Lsn(7)]);
        assert!(
            cl.recount(&entries).is_empty(),
            "generation 2 redoes nothing"
        );
        assert_eq!(cl.checkpoint_if_due(4, || &snap), None);
        // The newest slot rots: recovery falls back to generation 1 and
        // finds its whole redo window, which the trigger then counts.
        let newest = cl.slot.newest_valid().unwrap();
        assert!(cl.slot.corrupt_slot(newest, 3));
        assert_eq!(cl.recount(&entries), &entries[..]);
        assert_eq!(cl.checkpoint_if_due(4, || &snap), Some(Lsn(8)));
    }

    #[test]
    fn corrupt_out_of_range_or_empty_is_a_noop() {
        let mut slot: CheckpointSlot<Snap> = CheckpointSlot::new();
        assert!(!slot.corrupt_slot(0, 0), "empty slot has no bytes");
        slot.install(Lsn(1), Snap(1));
        let len = slot.slot_image(0).len().max(slot.slot_image(1).len());
        assert!(!slot.corrupt_slot(0, len + 100) || !slot.corrupt_slot(1, len + 100));
    }
}
