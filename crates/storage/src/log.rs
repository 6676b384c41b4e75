//! The stable log.
//!
//! [`StableLog`] is the crash-surviving append-only log every DvP site
//! owns: one byte buffer of frames and a **durable-length watermark**.
//! The image is the log — no decoded copy of a record is kept.
//!
//! * [`append`](StableLog::append) encodes a frame onto the end of the
//!   buffer, past the watermark: written, not yet durable;
//! * [`force`](StableLog::force) advances the watermark over it — the
//!   paper's "recorded on stable storage" is `append` + `force`;
//! * [`crash`](StableLog::crash) truncates back to the watermark;
//!   [`crash_torn`](StableLog::crash_torn) also leaves the *torn write*
//!   a power failure mid-`force` would;
//! * [`recover`](StableLog::recover) decodes the durable bytes, verifying
//!   every frame; [`recover_lenient`](StableLog::recover_lenient) is the
//!   WAL-style variant that stops at the first bad frame and reports it.
//!
//! Each frame's payload carries the record's LSN ahead of the record
//! bytes, so a recovery scan can position every record against a
//! checkpoint's `redo_from` without trusting volatile state.

use crate::codec::{
    frame_in_place, frame_len, take_frame, DecodeError, Record, RecordReader, FRAME_HEADER,
};
use crate::lsn::Lsn;
use bytes::{Buf, Bytes, BytesMut};
use dvp_obs::{EventKind, Obs};
use std::borrow::Borrow;
use std::cell::RefCell;
use std::ops::Range;

/// Counters describing log activity (used by the mechanism benchmarks and
/// by experiments that report "log forces per transaction").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LogStats {
    /// Records appended (durable or not).
    pub appends: u64,
    /// Force operations performed.
    pub forces: u64,
    /// Records made durable.
    pub records_forced: u64,
    /// Bytes in the stable image.
    pub stable_bytes: u64,
    /// Records discarded by crashes.
    pub lost_in_crash: u64,
    /// Torn writes injected by [`StableLog::crash_torn`].
    pub torn_writes: u64,
    /// Largest number of records hardened by a single force — the
    /// group-commit batch high-water mark.
    pub max_force_batch: u64,
    /// Stable-region salvages by [`StableLog::recover_salvage`] (mid-log
    /// corruption, not a benign tail tear).
    pub media_salvages: u64,
    /// Durable records dropped by salvage truncation.
    pub salvaged_records: u64,
    /// Image bytes dropped by salvage truncation.
    pub salvaged_bytes: u64,
}

impl LogStats {
    /// Accumulate another log's counters (cluster-wide aggregation for
    /// "forces per transaction"-style reporting).
    pub fn merge(&mut self, o: &LogStats) {
        self.appends += o.appends;
        self.forces += o.forces;
        self.records_forced += o.records_forced;
        self.stable_bytes += o.stable_bytes;
        self.lost_in_crash += o.lost_in_crash;
        self.torn_writes += o.torn_writes;
        self.max_force_batch = self.max_force_batch.max(o.max_force_batch);
        self.media_salvages += o.media_salvages;
        self.salvaged_records += o.salvaged_records;
        self.salvaged_bytes += o.salvaged_bytes;
    }
}

/// How a crash tears the in-progress write (fault injection).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TornWrite {
    /// Clean crash: the unforced tail simply vanishes.
    #[default]
    None,
    /// The first unforced record's frame is half-written: the image ends
    /// with a truncated frame (recovery sees `DecodeError::Truncated`).
    Truncated,
    /// The first unforced record's frame is fully present but a payload
    /// byte is mangled (recovery sees `DecodeError::Corrupt`).
    Garbage,
}

/// What a lenient recovery scan dropped from the end of the image.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TornTail {
    /// Bytes discarded (from the first bad frame to the end of the image).
    pub bytes_dropped: u64,
    /// The decode failure that ended the scan.
    pub error: DecodeError,
}

/// Result of a lenient recovery scan.
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveredLog<R> {
    /// Well-formed entries, oldest first.
    pub entries: Vec<(Lsn, R)>,
    /// Length of the clean image prefix (everything past it is torn).
    pub clean_bytes: usize,
    /// The torn tail, if the scan hit a bad frame.
    pub torn: Option<TornTail>,
}

/// Stable-region corruption found and repaired by
/// [`StableLog::recover_salvage`]: a *durable* record failed
/// verification, so the log was truncated at the first bad record and
/// everything after it — valid frames included — was dropped (frame
/// boundaries past a corrupt region cannot be trusted).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SalvageReport {
    /// LSN of the first durable record whose frame failed verification.
    pub first_bad_lsn: Lsn,
    /// Durable records dropped (the bad one and everything after it).
    pub records_lost: u64,
    /// Image bytes dropped, including any torn tail beyond the durable
    /// region.
    pub bytes_lost: u64,
    /// The decode failure that ended the scan.
    pub error: DecodeError,
}

/// Outcome of [`StableLog::recover_salvage`] — a recovery scan that
/// classifies image damage and repairs the image in place.
#[derive(Clone, Debug, PartialEq)]
pub enum SalvageOutcome<R> {
    /// Every frame verified; nothing was dropped.
    Clean {
        /// The durable entries, oldest first.
        entries: Vec<(Lsn, R)>,
    },
    /// Benign tail tear: every *durable* record verified and only the
    /// partially-written frame a crash mid-`force` leaves behind was
    /// dropped — exactly what a clean crash would have lost anyway.
    TailTear {
        /// The durable entries, oldest first.
        entries: Vec<(Lsn, R)>,
        /// Bytes of torn frame discarded from the image.
        bytes_dropped: u64,
        /// The decode failure the tear produced.
        error: DecodeError,
    },
    /// Stable-region corruption: a record that *was* durably forced no
    /// longer verifies. The image was truncated at the first bad record;
    /// `dropped` lists the records lost (for exact loss accounting by the
    /// host) and `report` names the damage.
    MediaDamage {
        /// The surviving entries, oldest first.
        entries: Vec<(Lsn, R)>,
        /// The durable records the truncation dropped, oldest first.
        dropped: Vec<(Lsn, R)>,
        /// What was lost and why.
        report: SalvageReport,
    },
}

/// The bit-rot model: XOR with `0xA5`. An involution, so whoever knows
/// which bytes were flipped can restore them by flipping again.
fn flip(bytes: &mut [u8]) {
    for b in bytes {
        *b ^= 0xA5;
    }
}

/// What a garbage tear XORs into a torn frame's last byte. It is not
/// [`flip`]'s pattern, and `0x5A ^ 0xA5 = 0xFF`, so a rot that later
/// lands on the same byte leaves it wrong instead of healing the tear
/// into a record that was never durable.
const TORN_GARBAGE: u8 = 0x5A;

/// Decode one `(lsn, rec)` frame from the front of `buf`.
fn decode_entry<R: Record>(buf: &mut Bytes) -> Result<(Lsn, R), DecodeError> {
    let mut payload = take_frame(buf)?;
    let mut r = RecordReader::wrap(&mut payload);
    let lsn = Lsn(r.u64()?);
    let rec = R::decode(&mut r)?;
    if r.remaining() != 0 {
        return Err(DecodeError::Invalid("trailing bytes in payload"));
    }
    Ok((lsn, rec))
}

/// An append-only, force-on-demand, crash-surviving log of `R` records.
///
/// ```
/// use dvp_storage::{Record, RecordReader, RecordWriter, StableLog, DecodeError};
///
/// #[derive(Clone, Debug, PartialEq)]
/// struct Note(u64);
/// impl Record for Note {
///     fn encode(&self, w: &mut RecordWriter<'_>) { w.u64(self.0) }
///     fn decode(r: &mut RecordReader<'_>) -> Result<Self, DecodeError> {
///         Ok(Note(r.u64()?))
///     }
/// }
///
/// let mut log = StableLog::new();
/// log.append_force(Note(1));   // durable
/// log.append(Note(2));         // only buffered...
/// log.crash();                 // ...and lost in the crash
/// assert_eq!(log.recover().unwrap(), vec![Note(1)]);
/// ```
#[derive(Clone, Debug)]
pub struct StableLog<R> {
    /// Every retained frame (`len | crc | lsn ++ payload`), oldest first.
    /// `buf[..durable]` is what "the disk" holds; frames past the
    /// watermark are appended but unforced and die in a crash.
    buf: BytesMut,
    durable: usize,
    /// Frames below / past the watermark (torn remnants are not frames).
    stable_records: usize,
    tail_records: usize,
    /// The copy of the durable bytes a recovery scan decodes zero-copy
    /// slices of; dropped by the next append or change to those bytes,
    /// so outside recovery the image is held once.
    frozen: RefCell<Option<Bytes>>,
    /// The fault injectors' memory — ranges `corrupt_stable` flipped,
    /// remnants `crash_torn` left — from which salvage names the records
    /// it condemns. Empty in fault-free runs.
    flipped: Vec<Range<usize>>,
    torn: Vec<Range<usize>>,
    next: Lsn,
    stats: LogStats,
    /// Structured-observability handle plus the owning site's id
    /// (disabled/0 by default; see [`StableLog::set_obs`]).
    obs: Obs,
    obs_site: u32,
    _records: std::marker::PhantomData<fn() -> R>,
}

impl<R: Record> Default for StableLog<R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<R: Record> StableLog<R> {
    /// An empty log.
    pub fn new() -> Self {
        StableLog {
            buf: BytesMut::new(),
            durable: 0,
            stable_records: 0,
            tail_records: 0,
            frozen: RefCell::new(None),
            flipped: Vec::new(),
            torn: Vec::new(),
            next: Lsn::FIRST,
            stats: LogStats::default(),
            obs: Obs::disabled(),
            obs_site: 0,
            _records: std::marker::PhantomData,
        }
    }

    /// Attach a structured-observability handle; `site` labels the
    /// emitted events (a log has no identity of its own).
    pub fn set_obs(&mut self, obs: Obs, site: u32) {
        self.obs = obs;
        self.obs_site = site;
    }

    /// The durable bytes as zero-copy [`Bytes`] for a recovery scan.
    fn frozen_image(&self) -> Bytes {
        self.frozen
            .borrow_mut()
            .get_or_insert_with(|| Bytes::copy_from_slice(&self.buf[..self.durable]))
            .clone()
    }

    /// Drop the scan snapshot: the durable bytes are about to change.
    fn invalidate_frozen(&mut self) {
        *self.frozen.get_mut() = None;
    }

    /// Append `record` (owned or borrowed: it is encoded here, once, and
    /// not kept) past the watermark; returns its LSN. It is **not
    /// durable** until [`force`](Self::force).
    pub fn append(&mut self, record: impl Borrow<R>) -> Lsn {
        self.invalidate_frozen();
        let lsn = self.next;
        self.next = self.next.next();
        self.stats.appends += 1;
        self.tail_records += 1;
        frame_in_place(&mut self.buf, |w| {
            w.u64(lsn.0);
            record.borrow().encode(w);
        });
        lsn
    }

    /// Make every appended record durable. Idempotent.
    pub fn force(&mut self) {
        self.invalidate_frozen();
        self.stats.forces += 1;
        self.stats.max_force_batch = self.stats.max_force_batch.max(self.tail_records as u64);
        self.stats.records_forced += self.tail_records as u64;
        self.stable_records += self.tail_records;
        self.tail_records = 0;
        self.durable = self.buf.len();
        self.obs.emit_with(self.obs_site, || EventKind::LogForce {
            stable_len: self.stable_records as u64,
        });
    }

    /// Force only if unforced records exist — the group-commit flush
    /// primitive; otherwise the force (and its obs event) is elided.
    /// Returns whether a force actually happened.
    pub fn force_if_dirty(&mut self) -> bool {
        let dirty = self.tail_records > 0;
        if dirty {
            self.force();
        }
        dirty
    }

    /// `append` + `force` in one call — the common "write one record and
    /// force it" pattern of the Vm protocol.
    pub fn append_force(&mut self, record: impl Borrow<R>) -> Lsn {
        let lsn = self.append(record);
        self.force();
        lsn
    }

    /// Simulate a site crash: everything past the watermark is lost, the
    /// durable bytes are untouched. LSNs of lost records are *not* reused.
    pub fn crash(&mut self) {
        self.stats.lost_in_crash += self.tail_records as u64;
        self.tail_records = 0;
        self.buf.truncate(self.durable);
    }

    /// Crash while a `force` was in flight: the first unforced frame
    /// lands in the image partially, per `mode`, before the rest is
    /// dropped. Returns whether a tear was actually injected (a clean
    /// mode or nothing unforced tears nothing).
    ///
    /// Only the *unforced* write can tear — completed forces are durable
    /// by definition — so recovery state after repair always equals a
    /// clean crash's.
    pub fn crash_torn(&mut self, mode: TornWrite) -> bool {
        let torn = mode != TornWrite::None && self.tail_records > 0;
        if torn {
            self.invalidate_frozen();
            let frame = frame_len(&self.buf[self.durable..]);
            let landed = match mode {
                // The write stopped mid-frame: only a prefix landed.
                TornWrite::Truncated => (frame / 2).max(4),
                // The full frame landed but its last byte is wrong.
                _ => {
                    self.buf[self.durable + frame - 1] ^= TORN_GARBAGE;
                    frame
                }
            };
            self.torn.push(self.durable..self.durable + landed);
            self.durable += landed;
            self.stats.torn_writes += 1;
        }
        self.crash();
        torn
    }

    /// Recovery scan: decode the durable bytes from the start, verifying
    /// every frame, and return the records in append order.
    pub fn recover(&self) -> Result<Vec<R>, DecodeError> {
        self.recover_entries()
            .map(|es| es.into_iter().map(|(_, r)| r).collect())
    }

    /// Strict recovery scan that also yields each record's LSN (needed to
    /// position records against a checkpoint's `redo_from`).
    pub fn recover_entries(&self) -> Result<Vec<(Lsn, R)>, DecodeError> {
        let scan = self.recover_lenient();
        scan.torn.map_or(Ok(scan.entries), |torn| Err(torn.error))
    }

    /// WAL-style recovery scan: decode frames until the first bad one,
    /// treat everything from there to the end of the image as a torn tail,
    /// and report what was dropped instead of failing.
    pub fn recover_lenient(&self) -> RecoveredLog<R> {
        let mut bytes = self.frozen_image();
        let total = bytes.remaining();
        let mut scan = RecoveredLog {
            entries: Vec::with_capacity(self.stable_records),
            clean_bytes: 0,
            torn: None,
        };
        while bytes.remaining() > 0 {
            match decode_entry::<R>(&mut bytes) {
                Ok(e) => {
                    scan.clean_bytes = total - bytes.remaining();
                    scan.entries.push(e);
                }
                Err(error) => {
                    let bytes_dropped = (total - scan.clean_bytes) as u64;
                    scan.torn = Some(TornTail {
                        bytes_dropped,
                        error,
                    });
                    break;
                }
            }
        }
        scan
    }

    /// Remove `cut` from the durable bytes (unforced frames slide down
    /// with the rest); the injectors' memory follows the bytes.
    fn excise(&mut self, cut: Range<usize>) {
        if cut.is_empty() {
            return;
        }
        self.invalidate_frozen();
        self.buf.copy_within(cut.end.., cut.start);
        self.buf.truncate(self.buf.len() - cut.len());
        self.durable -= cut.len();
        let moved = |p: usize| p.min(cut.start) + p.saturating_sub(cut.end);
        for ranges in [&mut self.flipped, &mut self.torn] {
            ranges.retain_mut(|r| {
                *r = moved(r.start)..moved(r.end);
                r.start < r.end
            });
        }
    }

    /// Fault injection: flip the durable bytes in `region` (clamped to the
    /// image), modelling bit rot on the stable medium. Returns the number
    /// of bytes flipped.
    ///
    /// The log keeps no decoded copy of what the disk *should* hold; the
    /// injector remembers the range instead, so that
    /// [`recover_salvage`](Self::recover_salvage) can undo the flips on a
    /// scratch copy and name exactly the records the damage destroyed.
    pub fn corrupt_stable(&mut self, region: Range<usize>) -> u64 {
        self.invalidate_frozen();
        let end = region.end.min(self.durable);
        let start = region.start.min(end);
        flip(&mut self.buf[start..end]);
        if start < end {
            self.flipped.push(start..end);
        }
        (end - start) as u64
    }

    /// Length of the durable byte image: the bytes below the watermark,
    /// unforced frames excluded (for choosing
    /// [`corrupt_stable`](Self::corrupt_stable) offsets).
    pub fn stable_image_len(&self) -> usize {
        self.durable
    }

    /// Decode up to `want` records from the condemned `buf[from..durable]`
    /// as it was before the injectors touched it: a scratch copy with the
    /// remembered flips undone, torn remnants (never records) skipped.
    fn decode_condemned(&self, from: usize, want: usize) -> Vec<(Lsn, R)> {
        let mut scratch = self.buf[from..self.durable].to_vec();
        for r in &self.flipped {
            flip(&mut scratch[r.start.max(from) - from..r.end.max(from) - from]);
        }
        let mut bytes = Bytes::from(scratch);
        let mut out = Vec::with_capacity(want);
        while out.len() < want {
            let at = self.durable - bytes.remaining();
            if let Some(remnant) = self.torn.iter().find(|t| t.start == at) {
                bytes.advance(remnant.len());
            } else if let Ok(entry) = decode_entry::<R>(&mut bytes) {
                out.push(entry);
            } else {
                break;
            }
        }
        out
    }

    /// Recovery scan that classifies image damage and repairs in place.
    ///
    /// * every frame verifies → [`SalvageOutcome::Clean`];
    /// * the scan fails only *past* the last durable record → the benign
    ///   [`SalvageOutcome::TailTear`] a crash mid-`force` leaves, repaired
    ///   by cutting the tail so the next scan starts clean;
    /// * the scan fails *at* a durable record → stable-region corruption:
    ///   the image is truncated at the first bad record and
    ///   [`SalvageOutcome::MediaDamage`] reports exactly which records
    ///   were lost (see [`SalvageReport`]).
    pub fn recover_salvage(&mut self) -> SalvageOutcome<R> {
        let scan = self.recover_lenient();
        let Some(torn) = scan.torn else {
            return SalvageOutcome::Clean {
                entries: scan.entries,
            };
        };
        let lost = self.stable_records.saturating_sub(scan.entries.len());
        // Media damage alone consults the injectors' memory (pre-excise).
        let dropped = match lost {
            0 => Vec::new(),
            _ => self.decode_condemned(scan.clean_bytes, lost),
        };
        debug_assert_eq!(dropped.len(), lost, "unrecorded image damage");
        self.excise(scan.clean_bytes..self.durable);
        self.stable_records -= lost;
        if lost == 0 {
            return SalvageOutcome::TailTear {
                entries: scan.entries,
                bytes_dropped: torn.bytes_dropped,
                error: torn.error,
            };
        }
        let report = SalvageReport {
            first_bad_lsn: dropped.first().map_or(self.next, |(lsn, _)| *lsn),
            records_lost: lost as u64,
            bytes_lost: torn.bytes_dropped,
            error: torn.error,
        };
        self.stats.media_salvages += 1;
        self.stats.salvaged_records += report.records_lost;
        self.stats.salvaged_bytes += report.bytes_lost;
        SalvageOutcome::MediaDamage {
            entries: scan.entries,
            dropped,
            report,
        }
    }

    /// Number of durable records.
    pub fn stable_len(&self) -> usize {
        self.stable_records
    }

    /// Number of appended-but-unforced records.
    pub fn tail_len(&self) -> usize {
        self.tail_records
    }

    /// The LSN the next append will receive.
    pub fn next_lsn(&self) -> Lsn {
        self.next
    }

    /// Activity counters.
    pub fn stats(&self) -> LogStats {
        LogStats {
            stable_bytes: self.durable as u64,
            ..self.stats
        }
    }

    /// Truncate the durable prefix strictly before `upto` (checkpointing).
    ///
    /// Frames are self-delimiting, so this walks headers to the first
    /// frame at LSN >= `upto` and drops the byte prefix; nothing is decoded
    /// or re-checksummed. The walk trusts the headers: a site verifies the
    /// image (recovery salvages) before it ever checkpoints, and on a
    /// damaged one the walk stops at the first frame that does not fit.
    pub fn truncate_before(&mut self, upto: Lsn) {
        let (mut cut, mut dropped) = (0, 0);
        while let Some(head) = self.buf[..self.durable].get(cut..cut + FRAME_HEADER + 8) {
            let lsn = u64::from_be_bytes(head[FRAME_HEADER..].try_into().expect("eight bytes"));
            if lsn >= upto.0 || cut + frame_len(head) > self.durable {
                break;
            }
            cut += frame_len(head);
            dropped += 1;
        }
        self.excise(0..cut);
        self.stable_records = self.stable_records.saturating_sub(dropped);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{RecordReader, RecordWriter};

    #[derive(Clone, Debug, PartialEq, Eq)]
    struct R(u64);
    impl Record for R {
        fn encode(&self, w: &mut RecordWriter<'_>) {
            w.u64(self.0);
        }
        fn decode(r: &mut RecordReader<'_>) -> Result<Self, DecodeError> {
            Ok(R(r.u64()?))
        }
    }

    #[test]
    fn append_is_not_durable_until_force() {
        let mut log = StableLog::<R>::new();
        log.append(R(1));
        assert_eq!(log.stable_len(), 0);
        assert_eq!(log.tail_len(), 1);
        log.force();
        assert_eq!(log.stable_len(), 1);
        assert_eq!(log.tail_len(), 0);
    }

    #[test]
    fn crash_loses_exactly_the_tail() {
        let mut log = StableLog::<R>::new();
        log.append_force(R(1));
        log.append(R(2));
        log.append(R(3));
        log.crash();
        assert_eq!(log.recover().unwrap(), vec![R(1)]);
        assert_eq!(log.stats().lost_in_crash, 2);
    }

    #[test]
    fn lsns_are_dense_then_skip_after_crash() {
        let mut log = StableLog::<R>::new();
        assert_eq!(log.append(R(1)), Lsn(0));
        assert_eq!(log.append(R(2)), Lsn(1));
        log.force();
        log.append(R(3)); // lsn 2, lost below
        log.crash();
        // LSN 2 is never reused.
        assert_eq!(log.append(R(4)), Lsn(3));
    }

    #[test]
    fn recover_roundtrips_through_bytes() {
        let mut log = StableLog::<R>::new();
        for i in 0..100 {
            log.append(R(i));
        }
        log.force();
        assert_eq!(log.recover().unwrap(), (0..100).map(R).collect::<Vec<_>>());
        assert!(log.stats().stable_bytes > 0);
    }

    #[test]
    fn force_is_idempotent() {
        let mut log = StableLog::<R>::new();
        log.append(R(9));
        log.force();
        log.force();
        log.force();
        assert_eq!(log.stable_len(), 1);
        assert_eq!(log.stats().forces, 3);
        assert_eq!(log.stats().records_forced, 1);
    }

    #[test]
    fn force_if_dirty_elides_clean_forces_and_tracks_batches() {
        let mut log = StableLog::<R>::new();
        // Nothing buffered: the force is elided, not performed.
        assert!(!log.force_if_dirty());
        assert_eq!(log.stats().forces, 0);
        // Three appends coalesce into one force of batch size 3.
        log.append(R(1));
        log.append(R(2));
        log.append(R(3));
        assert!(log.force_if_dirty());
        assert_eq!(log.stable_len(), 3);
        assert_eq!(log.stats().forces, 1);
        assert_eq!(log.stats().records_forced, 3);
        assert_eq!(log.stats().max_force_batch, 3);
        // Immediately after, the tail is clean again.
        assert!(!log.force_if_dirty());
        assert_eq!(log.stats().forces, 1);
    }

    #[test]
    fn truncate_before_drops_old_records() {
        let mut log = StableLog::<R>::new();
        for i in 0..6 {
            log.append_force(R(i));
        }
        log.truncate_before(Lsn(4));
        assert_eq!(log.recover().unwrap(), vec![R(4), R(5)]);
        // New appends continue from the old LSN sequence.
        assert_eq!(log.append(R(99)), Lsn(6));
    }

    #[test]
    fn append_force_combines() {
        let mut log = StableLog::<R>::new();
        let lsn = log.append_force(R(5));
        assert_eq!(lsn, Lsn(0));
        assert_eq!(log.stable_len(), 1);
        assert_eq!(log.tail_len(), 0);
    }

    #[test]
    fn empty_log_recovers_empty() {
        let log = StableLog::<R>::new();
        assert!(log.recover().unwrap().is_empty());
    }

    #[test]
    fn recover_entries_carries_lsns_through_bytes() {
        let mut log = StableLog::<R>::new();
        log.append_force(R(10));
        log.append(R(11)); // lost below — lsn 1 skipped
        log.crash();
        log.append_force(R(12));
        let got = log.recover_entries().unwrap();
        assert_eq!(got, vec![(Lsn(0), R(10)), (Lsn(2), R(12))]);
    }

    #[test]
    fn truncate_preserves_lsns_in_image() {
        let mut log = StableLog::<R>::new();
        for i in 0..6 {
            log.append_force(R(i));
        }
        log.truncate_before(Lsn(4));
        let got = log.recover_entries().unwrap();
        assert_eq!(got, vec![(Lsn(4), R(4)), (Lsn(5), R(5))]);
    }

    #[test]
    fn torn_truncated_tail_is_detected_and_repaired() {
        let mut log = StableLog::<R>::new();
        log.append_force(R(1));
        log.append(R(2)); // the in-flight write that tears
        log.append(R(3));
        assert!(log.crash_torn(TornWrite::Truncated));
        // Strict recovery refuses the image...
        assert_eq!(log.recover().unwrap_err(), DecodeError::Truncated);
        // ...lenient recovery keeps the clean prefix and reports the tear.
        let scan = log.recover_lenient();
        assert_eq!(scan.entries, vec![(Lsn(0), R(1))]);
        let torn = scan.torn.expect("tear must be reported");
        assert!(torn.bytes_dropped > 0);
        assert_eq!(torn.error, DecodeError::Truncated);
        // Repair truncates the image; strict recovery works again.
        assert!(matches!(
            log.recover_salvage(),
            SalvageOutcome::TailTear { bytes_dropped, .. } if bytes_dropped == torn.bytes_dropped
        ));
        assert_eq!(log.recover().unwrap(), vec![R(1)]);
        assert_eq!(log.stats().torn_writes, 1);
        assert_eq!(log.stats().lost_in_crash, 2);
    }

    #[test]
    fn torn_garbage_tail_fails_crc_and_is_dropped() {
        let mut log = StableLog::<R>::new();
        log.append_force(R(7));
        log.append(R(8));
        assert!(log.crash_torn(TornWrite::Garbage));
        assert!(matches!(
            log.recover().unwrap_err(),
            DecodeError::Corrupt { .. }
        ));
        let scan = log.recover_lenient();
        assert_eq!(scan.entries, vec![(Lsn(0), R(7))]);
        assert!(matches!(
            scan.torn.unwrap().error,
            DecodeError::Corrupt { .. }
        ));
        log.recover_salvage();
        assert_eq!(log.recover().unwrap(), vec![R(7)]);
    }

    /// The two injectors cannot cancel: rot landing on a garbage tear's
    /// mangled byte leaves the frame bad, so the record that never
    /// became durable stays lost.
    #[test]
    fn rot_on_a_garbage_tear_cannot_heal_it() {
        let mut log = StableLog::<R>::new();
        log.append_force(R(7));
        log.append(R(8));
        assert!(log.crash_torn(TornWrite::Garbage));
        let end = log.stable_image_len();
        assert_eq!(log.corrupt_stable(end - 1..end), 1);
        assert!(matches!(
            log.recover_salvage(),
            SalvageOutcome::TailTear { .. }
        ));
        assert_eq!(log.recover().unwrap(), vec![R(7)]);
    }

    #[test]
    fn torn_crash_with_empty_tail_is_a_clean_crash() {
        let mut log = StableLog::<R>::new();
        log.append_force(R(1));
        assert!(!log.crash_torn(TornWrite::Truncated));
        assert_eq!(log.recover().unwrap(), vec![R(1)]);
        assert_eq!(log.stats().torn_writes, 0);
    }

    #[test]
    fn torn_none_mode_never_tears() {
        let mut log = StableLog::<R>::new();
        log.append(R(1));
        assert!(!log.crash_torn(TornWrite::None));
        assert!(log.recover().unwrap().is_empty());
    }

    #[test]
    fn lenient_scan_of_clean_log_reports_nothing() {
        let mut log = StableLog::<R>::new();
        log.append_force(R(1));
        log.append_force(R(2));
        let scan = log.recover_lenient();
        assert_eq!(scan.entries.len(), 2);
        assert!(scan.torn.is_none());
        assert_eq!(scan.clean_bytes as u64, log.stats().stable_bytes);
    }

    #[test]
    fn salvage_on_clean_log_is_clean() {
        let mut log = StableLog::<R>::new();
        log.append_force(R(1));
        log.append_force(R(2));
        match log.recover_salvage() {
            SalvageOutcome::Clean { entries } => assert_eq!(entries.len(), 2),
            other => panic!("expected Clean, got {other:?}"),
        }
        assert_eq!(log.stats().media_salvages, 0);
    }

    #[test]
    fn salvage_classifies_torn_tail_as_benign() {
        let mut log = StableLog::<R>::new();
        log.append_force(R(1));
        log.append(R(2));
        assert!(log.crash_torn(TornWrite::Garbage));
        match log.recover_salvage() {
            SalvageOutcome::TailTear {
                entries,
                bytes_dropped,
                ..
            } => {
                assert_eq!(entries, vec![(Lsn(0), R(1))]);
                assert!(bytes_dropped > 0);
            }
            other => panic!("expected TailTear, got {other:?}"),
        }
        // The repair leaves a strict-recoverable image.
        assert_eq!(log.recover().unwrap(), vec![R(1)]);
        assert_eq!(log.stats().media_salvages, 0, "tail tears are not salvages");
    }

    #[test]
    fn salvage_truncates_at_first_corrupt_durable_record() {
        let mut log = StableLog::<R>::new();
        for i in 0..5 {
            log.append_force(R(i));
        }
        // Rot a byte inside the second frame: frame 0 occupies the first
        // 24 bytes (8 header + 8 lsn + 8 payload), so offset 30 lands in
        // frame 1's payload.
        assert_eq!(log.corrupt_stable(30..31), 1);
        match log.recover_salvage() {
            SalvageOutcome::MediaDamage {
                entries,
                dropped,
                report,
            } => {
                // Only the record before the damage survives; the valid
                // frames after the corrupt one are dropped too.
                assert_eq!(entries, vec![(Lsn(0), R(0))]);
                assert_eq!(report.first_bad_lsn, Lsn(1));
                assert_eq!(report.records_lost, 4);
                assert_eq!(dropped.len(), 4);
                assert_eq!(dropped[0], (Lsn(1), R(1)));
                assert!(report.bytes_lost > 0);
            }
            other => panic!("expected MediaDamage, got {other:?}"),
        }
        // Repaired: the surviving prefix strict-recovers, cache agrees.
        assert_eq!(log.recover().unwrap(), vec![R(0)]);
        assert_eq!(log.stable_len(), 1);
        let s = log.stats();
        assert_eq!(s.media_salvages, 1);
        assert_eq!(s.salvaged_records, 4);
        // LSNs of salvaged records are never reused.
        assert_eq!(log.append(R(9)), Lsn(5));
    }

    #[test]
    fn salvage_with_corruption_and_torn_tail_reports_durable_loss() {
        let mut log = StableLog::<R>::new();
        for i in 0..3 {
            log.append_force(R(i));
        }
        log.append(R(3));
        // Corrupt a durable frame *and* tear the in-flight write.
        assert_eq!(log.corrupt_stable(50..51), 1);
        assert!(log.crash_torn(TornWrite::Truncated));
        match log.recover_salvage() {
            SalvageOutcome::MediaDamage { report, .. } => {
                assert_eq!(report.first_bad_lsn, Lsn(2));
                assert_eq!(report.records_lost, 1);
            }
            other => panic!("expected MediaDamage, got {other:?}"),
        }
        assert_eq!(log.recover().unwrap(), vec![R(0), R(1)]);
    }

    #[test]
    fn salvage_names_lost_records_after_a_checkpoint_shifted_the_damage() {
        let mut log = StableLog::<R>::new();
        for i in 0..6 {
            log.append_force(R(i));
        }
        // Rot frame 4 (24-byte frames), then drop the first two frames:
        // the injector's memory of the flip must move with the bytes.
        assert_eq!(log.corrupt_stable(4 * 24 + 20..4 * 24 + 21), 1);
        log.truncate_before(Lsn(2));
        assert_eq!(log.stable_len(), 4);
        match log.recover_salvage() {
            SalvageOutcome::MediaDamage {
                entries, dropped, ..
            } => {
                assert_eq!(entries, vec![(Lsn(2), R(2)), (Lsn(3), R(3))]);
                assert_eq!(dropped, vec![(Lsn(4), R(4)), (Lsn(5), R(5))]);
            }
            other => panic!("expected MediaDamage, got {other:?}"),
        }
    }

    #[test]
    fn truncate_before_on_a_damaged_image_stops_instead_of_panicking() {
        let mut log = StableLog::<R>::new();
        for i in 0..4 {
            log.append_force(R(i));
        }
        // Rot frame 1's length field: the header walk cannot pass it.
        assert_eq!(log.corrupt_stable(24..28), 4);
        log.truncate_before(Lsn(3));
        assert_eq!(
            log.stable_len(),
            3,
            "only frame 0 was provably below the cut"
        );
        assert!(log.recover().is_err());
    }

    #[test]
    fn salvage_keeps_unforced_frames_past_the_watermark() {
        let mut log = StableLog::<R>::new();
        log.append_force(R(1));
        log.append_force(R(2));
        log.append(R(3)); // unforced
        assert_eq!(log.corrupt_stable(30..31), 1);
        assert!(matches!(
            log.recover_salvage(),
            SalvageOutcome::MediaDamage { .. }
        ));
        assert_eq!((log.stable_len(), log.tail_len()), (1, 1));
        log.force();
        assert_eq!(log.recover().unwrap(), vec![R(1), R(3)]);
    }

    #[test]
    fn corrupt_stable_clamps_to_image() {
        let mut log = StableLog::<R>::new();
        log.append_force(R(1));
        let len = log.stable_image_len();
        assert_eq!(log.corrupt_stable(len..len + 10), 0);
        assert_eq!(log.corrupt_stable(len - 2..len + 10), 2);
        assert!(log.recover().is_err());
    }
}
