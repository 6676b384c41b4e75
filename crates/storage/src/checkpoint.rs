//! Checkpointing.
//!
//! A checkpoint records "all updates up to LSN x are reflected in the
//! database image saved alongside". Recovery then redoes only records at
//! or after the checkpoint LSN, bounding the scan (paper Section 7).
//!
//! The store is the real two-slot scheme: two generation-numbered slots,
//! each holding a checksummed byte image of the snapshot. [`install`]
//! always overwrites the *older* slot, so the previous generation survives
//! every checkpoint verbatim; [`load`] re-verifies both slots and picks
//! the newest whose checksum verifies, so a crash mid-install or a
//! corrupted slot degrades to the previous generation (with a longer
//! redo) instead of undefined behavior. The price of that fallback is
//! paid by the log: the host must retain records from [`redo_floor`] —
//! the *older* retained generation's redo point — not just the newest
//! one's.
//!
//! The *database image* is whatever the site wants to snapshot (`S`, any
//! [`Record`]), stored as a framed byte image next to the log. `dvp-core`
//! snapshots its fragment store plus Vm channel state; the 2PC baseline
//! its replicas, prepared transactions and owed decisions. As with the
//! log, the image is the only copy: a slot keeps no decoded snapshot
//! beside its bytes, and [`load`] decodes each slot once when recovery
//! asks.
//!
//! [`CheckpointedLog`] is the engine-neutral bookkeeping both engines
//! share: the genesis, when a checkpoint is due, force-then-install,
//! truncation to the floor, and the one recovery path,
//! [`CheckpointedLog::recover`], which reads both media back and says
//! what they lost. What goes into a snapshot and how a redo record is
//! applied stay with each engine.
//!
//! [`install`]: CheckpointSlot::install
//! [`load`]: CheckpointSlot::load
//! [`redo_floor`]: CheckpointSlot::redo_floor

use crate::codec::{decode_exact, frame_in_place, take_frame, DecodeError, Record};
use crate::log::{SalvageReport, Salvaged, StableLog};
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
/// failed (reported by [`CheckpointSlot::load`]).
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
    /// its whole image decodes. Returns what it decoded.
    fn verify<S: Record>(&mut self) -> Option<CheckpointMeta<S>> {
        let meta = decode_slot::<S>(&self.image).ok();
        self.header = meta.as_ref().map(|m| SlotHeader {
            generation: m.generation,
            redo_from: m.redo_from,
        });
        meta
    }

    fn generation(&self) -> u64 {
        self.header.map_or(0, |h| h.generation)
    }
}

/// A crash-surviving two-slot checkpoint store.
///
/// Writing a checkpoint never touches the newest surviving generation:
/// [`install`](Self::install) encodes the snapshot into the *older* slot.
/// Recovery ([`load`](Self::load)) picks the newest slot whose CRC
/// verifies and falls back one generation — or to nothing — when it
/// doesn't.
#[derive(Clone, Debug)]
pub struct CheckpointSlot<S> {
    slots: [SlotState; 2],
    /// Generation of the most recent install (0 = none yet) — the
    /// reference point for detecting that recovery had to fall back.
    last_installed: u64,
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
            _snapshot: PhantomData,
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
    }

    /// The recovery read, and the only one of a snapshot: re-verify both
    /// slot images against their checksums, decoding each once (each
    /// header is re-derived from durable bytes, so a corrupted slot
    /// surfaces here instead of being masked by what the last install
    /// wrote). Returns the newest checkpoint that verifies, and the
    /// fallback report if the most recently installed generation no
    /// longer does.
    pub fn load(&mut self) -> (Option<CheckpointMeta<S>>, Option<SlotFallback>) {
        let [a, b] = &mut self.slots;
        let newest = match (a.verify::<S>(), b.verify::<S>()) {
            (Some(a), Some(b)) => Some(if a.generation >= b.generation { a } else { b }),
            (a, b) => a.or(b),
        };
        let used = newest.as_ref().map_or(0, |m| m.generation);
        let fallback = (used < self.last_installed).then_some(SlotFallback {
            bad_generation: self.last_installed,
            used_generation: (used > 0).then_some(used),
        });
        (newest, fallback)
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

    /// Fault injection: flip one byte of slot `slot`'s image at `offset`.
    /// Returns whether a byte was actually flipped (`false` for an empty
    /// slot or out-of-range offset). The slot's header is re-derived from
    /// the damaged bytes, so the retention floor
    /// ([`redo_floor`](Self::redo_floor)) immediately reflects the
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

/// What [`CheckpointedLog::recover`] read back from stable storage, and
/// what storage lost.
#[derive(Clone, Debug, PartialEq)]
pub struct Recovery<R, S> {
    /// The newest checkpoint snapshot that verifies; `None` means start
    /// from empty state, which the genesis records rebuild.
    pub snapshot: Option<S>,
    /// The records redo applies on top of `snapshot`, oldest first: those
    /// at or past its redo point.
    pub redo: Vec<(Lsn, R)>,
    /// The newest checkpoint generation failed verification, so recovery
    /// fell back a generation, or to none.
    pub fallback: Option<SlotFallback>,
    /// Bytes of a benign tail tear cut from the log (see
    /// [`Salvaged::torn_bytes`]).
    pub torn_bytes: u64,
    /// Durable log records that failed verification. Its `dropped` lists
    /// only the lost records no checkpoint covers: those at or past the
    /// redo point.
    pub salvage: Option<SalvageReport<R>>,
    /// Every checkpoint slot failed and a checkpoint had already
    /// truncated the genesis records, so nothing bounds what was lost.
    pub unbounded: bool,
}

/// A stable log of `R` records and its checkpoint store of `S`
/// snapshots, with the count that says when the next checkpoint is due.
///
/// Both media are public: the host appends and forces the log and
/// injects faults into either. It truncates only through
/// [`truncate_checkpointed`](Self::truncate_checkpointed) and reads
/// storage back only through [`recover`](Self::recover), which keep the
/// trigger's count right.
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
    /// every recovery.
    redo_covered: usize,
}

impl<R: Record, S: Record> CheckpointedLog<R, S> {
    /// A fresh site's stable storage: the `genesis` records, forced, and
    /// no checkpoint taken yet.
    pub fn genesis(genesis: impl IntoIterator<Item = R>) -> Self {
        let mut log = StableLog::new();
        for rec in genesis {
            log.append(rec);
        }
        log.force();
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

    /// The recovery scan (paper Section 7), the one place stable storage
    /// is read back: re-verify both slots and load the newest snapshot
    /// that verifies ([`CheckpointSlot::load`]), so a rotten newest slot
    /// surfaces as a [`SlotFallback`]; repair the log
    /// ([`StableLog::recover_salvage`]); skip the records below the
    /// snapshot's redo point, which it holds already (their count is what
    /// the trigger subtracts); and report what storage lost.
    pub fn recover(&mut self) -> Recovery<R, S> {
        let (checkpoint, fallback) = self.slot.load();
        let redo_from = checkpoint.as_ref().map_or(Lsn::FIRST, |cp| cp.redo_from);
        let Salvaged {
            mut entries,
            torn_bytes,
            damage,
        } = self.log.recover_salvage();
        let salvage = damage.map(|mut report| {
            report.dropped.retain(|(lsn, _)| *lsn >= redo_from);
            report
        });
        let genesis_lost = entries.first().map(|(lsn, _)| *lsn) != Some(Lsn::FIRST);
        let unbounded = checkpoint.is_none() && fallback.is_some() && genesis_lost;
        self.redo_covered = entries.partition_point(|(lsn, _)| *lsn < redo_from);
        entries.drain(..self.redo_covered);
        Recovery {
            snapshot: checkpoint.map(|cp| cp.snapshot),
            redo: entries,
            fallback,
            torn_bytes,
            salvage,
            unbounded,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{RecordReader, RecordWriter};
    use crate::log::TornWrite;

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
        let mut slot: CheckpointSlot<Snap> = CheckpointSlot::new();
        assert_eq!(slot.redo_floor(), Lsn::FIRST);
        assert_eq!(slot.load(), (None, None));
    }

    #[test]
    fn install_replaces_previous() {
        let mut slot = CheckpointSlot::new();
        slot.install(Lsn(10), Snap(1));
        slot.install(Lsn(20), Snap(2));
        let cp = slot.load().0.unwrap();
        assert_eq!(cp.redo_from, Lsn(20));
        assert_eq!(cp.snapshot, Snap(2));
        assert_eq!(cp.generation, 2);
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
        assert_eq!(slot.load().0.map(|cp| cp.redo_from), Some(Lsn(30)));
    }

    #[test]
    fn corrupt_newest_falls_back_one_generation() {
        let mut slot = CheckpointSlot::new();
        slot.install(Lsn(10), Snap(1));
        slot.install(Lsn(20), Snap(2));
        // Generation 2 went into slot 1, the older one; damage it.
        assert!(slot.corrupt_slot(1, slot.slot_image(1).len() / 2));
        let (cp, fb) = slot.load();
        let cp = cp.expect("older generation must survive");
        assert_eq!(cp.generation, 1);
        assert_eq!(cp.redo_from, Lsn(10));
        let fb = fb.expect("fallback must be reported");
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
        let (cp, fb) = slot.load();
        assert!(cp.is_none());
        let fb = fb.unwrap();
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
        let newest = 1;
        for offset in 0..reference.slot_image(newest).len() {
            let mut slot = reference.clone();
            assert!(slot.corrupt_slot(newest, offset));
            if let Some(cp) = slot.load().0 {
                assert_eq!(cp.generation, 1, "flip at {offset} must not verify");
            }
        }
    }

    #[test]
    fn load_reverifies_the_durable_bytes() {
        let mut slot = CheckpointSlot::new();
        slot.install(Lsn(4), Snap(44));
        let (cp, fb) = slot.load();
        assert!(fb.is_none(), "clean slots report no fallback");
        let cp = cp.unwrap();
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
        let mut cl = CheckpointedLog::genesis([]);
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
        let mut cl = CheckpointedLog::genesis([]);
        for (snap, redo_from) in [(Snap(1), Lsn(4)), (Snap(2), Lsn(8))] {
            grow(&mut cl, 4);
            assert_eq!(cl.checkpoint_if_due(4, || &snap), Some(redo_from));
            cl.truncate_checkpointed();
        }
        // Generation 2 redoes from 8, but the log keeps generation 1's
        // window from 4.
        let mut copy = cl.clone();
        let lsns: Vec<Lsn> = copy
            .log
            .recover_entries()
            .unwrap()
            .iter()
            .map(|e| e.0)
            .collect();
        assert_eq!(lsns, [Lsn(4), Lsn(5), Lsn(6), Lsn(7)]);
        let clean = cl.recover();
        assert_eq!((clean.snapshot, clean.fallback), (Some(Snap(2)), None));
        assert!(clean.redo.is_empty(), "generation 2 redoes nothing");
        assert_eq!(cl.checkpoint_if_due(4, || &Snap(3)), None);
        // The newest slot rots: recovery falls back to generation 1 and
        // finds its whole redo window, which the trigger then counts.
        // (Generation 2 went into slot 1.)
        assert!(cl.slot.corrupt_slot(1, 3));
        let fallen = cl.recover();
        let fallback = SlotFallback {
            bad_generation: 2,
            used_generation: Some(1),
        };
        assert_eq!(fallen.fallback, Some(fallback));
        assert_eq!(fallen.snapshot, Some(Snap(1)));
        assert_eq!(redo_lsns(&fallen.redo), [4, 5, 6, 7]);
        assert_eq!(
            (fallen.torn_bytes, &fallen.salvage, fallen.unbounded),
            (0, &None, false)
        );
        assert_eq!(cl.checkpoint_if_due(4, || &Snap(3)), Some(Lsn(8)));
    }

    /// The LSNs a recovery redoes.
    fn redo_lsns(redo: &[(Lsn, Snap)]) -> Vec<u64> {
        redo.iter().map(|(lsn, _)| lsn.0).collect()
    }

    /// Genesis records 0–3, a checkpoint `Snap(1)` redoing from 4, then
    /// `more` records: a lone generation, so truncation keeps them all.
    fn one_checkpoint(more: u64) -> CheckpointedLog<Snap, Snap> {
        let mut cl = CheckpointedLog::genesis((0..4).map(Snap));
        assert_eq!(cl.checkpoint_if_due(4, || &Snap(1)), Some(Lsn(4)));
        cl.truncate_checkpointed();
        grow(&mut cl, more);
        cl
    }

    /// Rot one byte inside the payload of record `lsn` (24-byte frames,
    /// nothing truncated yet).
    fn rot_record(cl: &mut CheckpointedLog<Snap, Snap>, lsn: usize) {
        let at = lsn * 24 + 20;
        assert_eq!(cl.log.corrupt_stable(at..at + 1), 1);
    }

    #[test]
    fn a_rot_below_the_redo_point_is_covered_by_the_checkpoint() {
        let mut cl = one_checkpoint(0);
        rot_record(&mut cl, 2);
        let rec = cl.recover();
        assert_eq!(rec.snapshot, Some(Snap(1)));
        assert!(rec.redo.is_empty());
        let report = rec.salvage.expect("the rot is reported");
        assert_eq!((report.first_bad_lsn, report.records_lost), (Lsn(2), 2));
        assert!(
            report.dropped.is_empty(),
            "records 2 and 3 are in the snapshot"
        );
        assert!(!rec.unbounded);
    }

    #[test]
    fn a_rot_past_the_redo_point_loses_exactly_the_records_after_it() {
        let mut cl = one_checkpoint(3);
        rot_record(&mut cl, 5);
        let rec = cl.recover();
        assert_eq!(rec.snapshot, Some(Snap(1)));
        assert_eq!(redo_lsns(&rec.redo), [4]);
        let report = rec.salvage.expect("the rot is reported");
        assert_eq!((report.first_bad_lsn, report.records_lost), (Lsn(5), 2));
        assert_eq!(report.bytes_lost, 2 * 24);
        assert_eq!(report.dropped, [(Lsn(5), Snap(1)), (Lsn(6), Snap(2))]);
        assert_eq!(rec.torn_bytes, 0);
        // The cut stays cut: the next recovery reads clean.
        assert_eq!(cl.recover().salvage, None);
    }

    #[test]
    fn a_torn_tail_is_cut_and_reported_as_lossless() {
        let mut cl = CheckpointedLog::<Snap, Snap>::genesis((0..2).map(Snap));
        cl.log.append(Snap(2));
        assert!(cl.log.crash_torn(TornWrite::Truncated));
        let rec = cl.recover();
        assert_eq!(rec.torn_bytes, 12, "half of the 24-byte frame landed");
        assert_eq!(
            (rec.fallback, &rec.salvage, rec.unbounded),
            (None, &None, false)
        );
        assert_eq!((rec.snapshot, redo_lsns(&rec.redo)), (None, vec![0, 1]));
        assert_eq!(cl.recover().torn_bytes, 0, "the tear was cut");
    }

    #[test]
    fn both_slots_rotten_with_the_genesis_intact_replay_everything() {
        let mut cl = one_checkpoint(2);
        // The lone generation sits in slot 0.
        assert!(cl.slot.corrupt_slot(0, 3));
        let rec = cl.recover();
        let fallback = SlotFallback {
            bad_generation: 1,
            used_generation: None,
        };
        assert_eq!((rec.fallback, rec.snapshot), (Some(fallback), None));
        assert_eq!(redo_lsns(&rec.redo), [0, 1, 2, 3, 4, 5]);
        assert!(!rec.unbounded, "the genesis records rebuild everything");
    }

    #[test]
    fn both_slots_rotten_with_the_genesis_truncated_is_unbounded() {
        let mut cl = one_checkpoint(4);
        assert_eq!(cl.checkpoint_if_due(4, || &Snap(2)), Some(Lsn(8)));
        cl.truncate_checkpointed();
        assert!(cl.slot.corrupt_slot(0, 3));
        assert!(cl.slot.corrupt_slot(1, 3));
        let rec = cl.recover();
        assert_eq!(rec.fallback.map(|fb| fb.used_generation), Some(None));
        assert_eq!(
            (rec.snapshot, redo_lsns(&rec.redo)),
            (None, vec![4, 5, 6, 7])
        );
        assert!(rec.unbounded, "generation 1 truncated the genesis records");
        assert_eq!(rec.salvage, None);
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
