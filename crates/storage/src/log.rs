//! The stable log.
//!
//! [`StableLog`] is the crash-surviving append-only log every DvP site
//! owns: one byte buffer of frames and a **durable-length watermark**.
//! The image is the log — no decoded copy of a record is kept, and a
//! recovery scan reads the image where it lies.
//!
//! * [`append`](StableLog::append) encodes a frame onto the end of the
//!   buffer, past the watermark: written, not yet durable;
//! * [`force`](StableLog::force) advances the watermark over it — the
//!   paper's "recorded on stable storage" is `append` + `force`;
//! * [`crash`](StableLog::crash) truncates back to the watermark;
//!   [`crash_torn`](StableLog::crash_torn) also leaves the *torn write*
//!   a power failure mid-`force` would;
//! * two scans read the durable bytes back, verifying every frame:
//!   [`recover_entries`](StableLog::recover_entries) is strict and
//!   read-only, and fails at the first bad frame;
//!   [`recover_salvage`](StableLog::recover_salvage) cuts the image at
//!   that frame and reports what the cut lost. A site recovers through
//!   [`CheckpointedLog::recover`](crate::CheckpointedLog::recover), which
//!   runs the repairing scan against the checkpoint slots.
//!
//! A frame's CRC exists for the recovery scans alone, so `append` leaves
//! it zero and the log *seals* its frames — writes their CRCs, once —
//! just before the image is first read (either scan) or damaged
//! (`corrupt_stable`, `crash_torn`). Every frame that is read or damaged
//! carries the CRC an eager append would have written; a frame that a
//! checkpoint truncates unread is never checksummed.
//!
//! Each frame's payload carries the record's LSN ahead of the record
//! bytes, so a recovery scan can position every record against a
//! checkpoint's `redo_from` without trusting volatile state.

use crate::codec::{
    decode_exact, frame_len, frame_unsealed, seal_frame, take_frame, DecodeError, Record,
    FRAME_HEADER,
};
use crate::lsn::Lsn;
use dvp_obs::{EventKind, Obs};
use std::borrow::Borrow;
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

/// Durable records that failed verification, found and cut by
/// [`StableLog::recover_salvage`]: the log was truncated at the first bad
/// record, and everything after it — valid frames included — was dropped
/// (frame boundaries past a corrupt region cannot be trusted).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SalvageReport<R> {
    /// LSN of the first durable record whose frame failed verification.
    pub first_bad_lsn: Lsn,
    /// Durable records dropped (the bad one and everything after it).
    pub records_lost: u64,
    /// Image bytes dropped, including any torn tail beyond the durable
    /// region.
    pub bytes_lost: u64,
    /// The decode failure that ended the scan.
    pub error: DecodeError,
    /// The dropped records, oldest first, for exact loss accounting by
    /// the host. [`CheckpointedLog::recover`] keeps only those no
    /// checkpoint covers.
    ///
    /// [`CheckpointedLog::recover`]: crate::CheckpointedLog::recover
    pub dropped: Vec<(Lsn, R)>,
}

/// What [`StableLog::recover_salvage`] read back, and what it cut from
/// the image so that the next scan reads clean.
#[derive(Clone, Debug, PartialEq)]
pub struct Salvaged<R> {
    /// The entries that verified, oldest first: the whole log after the
    /// cut.
    pub entries: Vec<(Lsn, R)>,
    /// Bytes of a benign tail tear cut with every durable record intact
    /// (0 = none): the frame a crash mid-`force` left half-written, which
    /// was never durable. A tear behind `damage` counts in its
    /// `bytes_lost` instead.
    pub torn_bytes: u64,
    /// Stable-region corruption: a record that *was* durably forced no
    /// longer verifies.
    pub damage: Option<SalvageReport<R>>,
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
fn decode_entry<R: Record>(buf: &mut &[u8]) -> Result<(Lsn, R), DecodeError> {
    decode_exact(take_frame(buf)?, |r| Ok((Lsn(r.u64()?), R::decode(r)?)))
}

/// An append-only, force-on-demand, crash-surviving log of `R` records:
/// one `Vec<u8>` of frames, the watermark below which they are durable,
/// and the watermark below which they are sealed (carry their CRC). A
/// record is encoded once, at append, and never kept decoded; a recovery
/// scan seals what is unsealed, then decodes `buf[..durable]` in place,
/// so outside the entries it returns the image is the only copy. A scan
/// therefore takes `&mut self`; to scan without sealing, scan a clone.
///
/// ```
/// use dvp_storage::{DecodeError, Lsn, Record, RecordReader, RecordWriter, StableLog};
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
/// assert_eq!(log.recover_entries(), Ok(vec![(Lsn(0), Note(1))])); // seals, then reads
/// ```
#[derive(Clone, Debug)]
pub struct StableLog<R> {
    /// Every retained frame (`len | crc | lsn ++ payload`), oldest first.
    /// `buf[..durable]` is what "the disk" holds; frames past the
    /// watermark are appended but unforced and die in a crash.
    buf: Vec<u8>,
    durable: usize,
    /// `buf[..sealed]` carries its CRCs; past it lie whole frames appended
    /// since, their CRCs still zero. Always a frame boundary (or the end
    /// of a torn remnant) at or below `buf.len()`.
    sealed: usize,
    /// Frames below / past the watermark (torn remnants are not frames).
    stable_records: usize,
    tail_records: usize,
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
            buf: Vec::new(),
            durable: 0,
            sealed: 0,
            stable_records: 0,
            tail_records: 0,
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

    /// Append `record` (owned or borrowed: it is encoded here, once, and
    /// not kept) past the watermark; returns its LSN. It is **not
    /// durable** until [`force`](Self::force), and its CRC is written
    /// only when the image is first read or damaged.
    pub fn append(&mut self, record: impl Borrow<R>) -> Lsn {
        let lsn = self.next;
        self.next = self.next.next();
        self.stats.appends += 1;
        self.tail_records += 1;
        frame_unsealed(&mut self.buf, |w| {
            w.u64(lsn.0);
            record.borrow().encode(w);
        });
        lsn
    }

    /// Make every appended record durable. Idempotent.
    pub fn force(&mut self) {
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
        self.sealed = self.sealed.min(self.durable);
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
            // The remnant keeps the CRC its whole frame was sealed with.
            self.seal();
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

    /// Write the CRC of every frame past the `sealed` watermark, in place.
    /// Every path that reads or damages the image runs this first, so
    /// each frame is checksummed at most once and only if it is ever
    /// looked at.
    fn seal(&mut self) {
        debug_assert!(self.sealed <= self.buf.len(), "sealed past the image");
        while self.sealed < self.buf.len() {
            debug_assert!(
                frame_len(&self.buf[self.sealed..]) <= self.buf.len() - self.sealed,
                "sealed is not a frame boundary"
            );
            self.sealed += seal_frame(&mut self.buf[self.sealed..]);
        }
    }

    /// Strict recovery scan: seal, then decode the durable bytes from the
    /// start, verifying every frame, and return each record with its LSN
    /// in append order — or the first frame's decode failure. Read-only
    /// apart from the seal.
    pub fn recover_entries(&mut self) -> Result<Vec<(Lsn, R)>, DecodeError> {
        let (entries, _, failure) = self.scan();
        failure.map_or(Ok(entries), Err)
    }

    /// Seal, then decode frames until the first bad one: the entries, the
    /// length of the clean image prefix they fill, and the decode failure
    /// past it, if any.
    fn scan(&mut self) -> (Vec<(Lsn, R)>, usize, Option<DecodeError>) {
        self.seal();
        let image = &self.buf[..self.durable];
        let mut rest = image;
        let mut entries = Vec::with_capacity(self.stable_records);
        while !rest.is_empty() {
            let clean = image.len() - rest.len();
            match decode_entry::<R>(&mut rest) {
                Ok(e) => entries.push(e),
                Err(error) => return (entries, clean, Some(error)),
            }
        }
        (entries, image.len(), None)
    }

    /// Remove `cut` from the durable bytes (unforced frames slide down
    /// with the rest); the injectors' memory follows the bytes.
    fn excise(&mut self, cut: Range<usize>) {
        if cut.is_empty() {
            return;
        }
        self.buf.copy_within(cut.end.., cut.start);
        self.buf.truncate(self.buf.len() - cut.len());
        self.durable -= cut.len();
        let moved = |p: usize| p.min(cut.start) + p.saturating_sub(cut.end);
        self.sealed = moved(self.sealed);
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
    /// The image is sealed first, so the damaged frames keep the CRCs
    /// they were written with.
    pub fn corrupt_stable(&mut self, region: Range<usize>) -> u64 {
        self.seal();
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
        let mut rest = &scratch[..];
        let mut out = Vec::with_capacity(want);
        while out.len() < want {
            let at = self.durable - rest.len();
            if let Some(remnant) = self.torn.iter().find(|t| t.start == at) {
                rest = &rest[remnant.len()..];
            } else if let Ok(entry) = decode_entry::<R>(&mut rest) {
                out.push(entry);
            } else {
                break;
            }
        }
        out
    }

    /// The repairing recovery scan: seal, decode frames until the first
    /// bad one, and cut the image there, so the next scan reads clean.
    ///
    /// * every frame verifies → nothing is cut;
    /// * the scan fails only *past* the last durable record → the benign
    ///   tail tear a crash mid-`force` leaves ([`Salvaged::torn_bytes`]);
    /// * the scan fails *at* a durable record → stable-region corruption:
    ///   [`Salvaged::damage`] names exactly which records were lost.
    pub fn recover_salvage(&mut self) -> Salvaged<R> {
        let (entries, clean, failure) = self.scan();
        let bytes_cut = (self.durable - clean) as u64;
        let lost = self.stable_records.saturating_sub(entries.len());
        // Media damage alone consults the injectors' memory (pre-excise).
        let damage = failure.filter(|_| lost > 0).map(|error| {
            let dropped = self.decode_condemned(clean, lost);
            debug_assert_eq!(dropped.len(), lost, "unrecorded image damage");
            SalvageReport {
                first_bad_lsn: dropped.first().map_or(self.next, |(lsn, _)| *lsn),
                records_lost: lost as u64,
                bytes_lost: bytes_cut,
                error,
                dropped,
            }
        });
        self.excise(clean..self.durable);
        self.stable_records -= lost;
        if damage.is_some() {
            self.stats.media_salvages += 1;
            self.stats.salvaged_records += lost as u64;
            self.stats.salvaged_bytes += bytes_cut;
        }
        Salvaged {
            entries,
            torn_bytes: if damage.is_some() { 0 } else { bytes_cut },
            damage,
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
    /// or checksummed, so a frame dropped unread is never sealed. The walk
    /// trusts the headers: a site verifies the image (recovery salvages)
    /// before it ever checkpoints, and on a damaged one the walk stops at
    /// the first frame that does not fit.
    pub fn truncate_before(&mut self, upto: Lsn) {
        let image = &self.buf[..self.durable];
        let (mut cut, mut dropped) = (0, 0);
        while let Some(lsn) = image
            .get(cut + FRAME_HEADER..)
            .and_then(<[u8]>::first_chunk)
        {
            let len = frame_len(&image[cut..]);
            if u64::from_be_bytes(*lsn) >= upto.0 || cut + len > image.len() {
                break;
            }
            cut += len;
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

    /// The strict scan's records without their LSNs.
    fn recover(log: &mut StableLog<R>) -> Result<Vec<R>, DecodeError> {
        log.recover_entries()
            .map(|es| es.into_iter().map(|(_, r)| r).collect())
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
        assert_eq!(recover(&mut log).unwrap(), vec![R(1)]);
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
        assert_eq!(
            recover(&mut log).unwrap(),
            (0..100).map(R).collect::<Vec<_>>()
        );
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
        assert_eq!(recover(&mut log).unwrap(), vec![R(4), R(5)]);
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
        let mut log = StableLog::<R>::new();
        assert!(recover(&mut log).unwrap().is_empty());
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
        assert_eq!(recover(&mut log).unwrap_err(), DecodeError::Truncated);
        // ...salvage keeps the clean prefix, cuts the tear and reports it.
        let image = log.stable_image_len();
        let scan = log.recover_salvage();
        assert_eq!(scan.entries, vec![(Lsn(0), R(1))]);
        assert_eq!(scan.damage, None);
        assert!(scan.torn_bytes > 0);
        assert_eq!(
            log.stable_image_len() as u64,
            image as u64 - scan.torn_bytes
        );
        // Strict recovery works again.
        assert_eq!(recover(&mut log).unwrap(), vec![R(1)]);
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
            recover(&mut log).unwrap_err(),
            DecodeError::Corrupt { .. }
        ));
        let scan = log.recover_salvage();
        assert_eq!(scan.entries, vec![(Lsn(0), R(7))]);
        assert!(scan.torn_bytes > 0);
        assert_eq!(recover(&mut log).unwrap(), vec![R(7)]);
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
        let scan = log.recover_salvage();
        assert!(scan.torn_bytes > 0 && scan.damage.is_none());
        assert_eq!(recover(&mut log).unwrap(), vec![R(7)]);
    }

    #[test]
    fn torn_crash_with_empty_tail_is_a_clean_crash() {
        let mut log = StableLog::<R>::new();
        log.append_force(R(1));
        assert!(!log.crash_torn(TornWrite::Truncated));
        assert_eq!(recover(&mut log).unwrap(), vec![R(1)]);
        assert_eq!(log.stats().torn_writes, 0);
    }

    #[test]
    fn torn_none_mode_never_tears() {
        let mut log = StableLog::<R>::new();
        log.append(R(1));
        assert!(!log.crash_torn(TornWrite::None));
        assert!(recover(&mut log).unwrap().is_empty());
    }

    #[test]
    fn salvage_on_clean_log_is_clean() {
        let mut log = StableLog::<R>::new();
        log.append_force(R(1));
        log.append_force(R(2));
        let image = log.stats().stable_bytes;
        let scan = log.recover_salvage();
        assert_eq!(scan.entries.len(), 2);
        assert_eq!((scan.torn_bytes, scan.damage), (0, None));
        assert_eq!(log.stats().stable_bytes, image, "nothing cut");
        assert_eq!(log.stats().media_salvages, 0);
    }

    #[test]
    fn salvage_classifies_torn_tail_as_benign() {
        let mut log = StableLog::<R>::new();
        log.append_force(R(1));
        log.append(R(2));
        assert!(log.crash_torn(TornWrite::Garbage));
        let scan = log.recover_salvage();
        assert_eq!(scan.entries, vec![(Lsn(0), R(1))]);
        assert!(scan.torn_bytes > 0);
        assert_eq!(scan.damage, None);
        // The repair leaves a strict-recoverable image.
        assert_eq!(recover(&mut log).unwrap(), vec![R(1)]);
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
        let scan = log.recover_salvage();
        // Only the record before the damage survives; the valid frames
        // after the corrupt one are dropped too.
        assert_eq!(scan.entries, vec![(Lsn(0), R(0))]);
        assert_eq!(scan.torn_bytes, 0);
        let report = scan.damage.expect("durable damage is reported");
        assert_eq!(report.first_bad_lsn, Lsn(1));
        assert_eq!(report.records_lost, 4);
        assert_eq!(report.dropped.len(), 4);
        assert_eq!(report.dropped[0], (Lsn(1), R(1)));
        assert_eq!(report.bytes_lost, 4 * 24);
        // Repaired: the surviving prefix strict-recovers, cache agrees.
        assert_eq!(recover(&mut log).unwrap(), vec![R(0)]);
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
        let scan = log.recover_salvage();
        // The tear behind the damage counts in its bytes, not as a tear.
        assert_eq!(scan.torn_bytes, 0);
        let report = scan.damage.expect("durable damage is reported");
        assert_eq!(report.first_bad_lsn, Lsn(2));
        assert_eq!(report.records_lost, 1);
        assert!(report.bytes_lost > 24);
        assert_eq!(recover(&mut log).unwrap(), vec![R(0), R(1)]);
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
        let scan = log.recover_salvage();
        assert_eq!(scan.entries, vec![(Lsn(2), R(2)), (Lsn(3), R(3))]);
        let report = scan.damage.expect("durable damage is reported");
        assert_eq!(report.dropped, vec![(Lsn(4), R(4)), (Lsn(5), R(5))]);
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
        assert!(recover(&mut log).is_err());
    }

    #[test]
    fn salvage_keeps_unforced_frames_past_the_watermark() {
        let mut log = StableLog::<R>::new();
        log.append_force(R(1));
        log.append_force(R(2));
        log.append(R(3)); // unforced
        assert_eq!(log.corrupt_stable(30..31), 1);
        assert!(log.recover_salvage().damage.is_some());
        assert_eq!((log.stable_len(), log.tail_len()), (1, 1));
        log.force();
        assert_eq!(recover(&mut log).unwrap(), vec![R(1), R(3)]);
    }

    /// The CRC field of every frame in the image, oldest first.
    fn stored_crcs(log: &StableLog<R>) -> Vec<u32> {
        let mut out = Vec::new();
        let mut at = 0;
        while at < log.buf.len() {
            let header = &log.buf[at..at + FRAME_HEADER];
            out.push(u32::from_be_bytes(header[4..].try_into().unwrap()));
            at += frame_len(header);
        }
        out
    }

    /// Whether every frame carries the CRC of its payload.
    fn all_sealed(log: &StableLog<R>) -> bool {
        let mut rest = &log.buf[..];
        while !rest.is_empty() {
            if take_frame(&mut rest).is_err() {
                return false;
            }
        }
        true
    }

    #[test]
    fn appends_forces_and_truncation_seal_nothing() {
        let mut log = StableLog::<R>::new();
        for i in 0..6 {
            log.append(R(i));
            if i % 2 == 1 {
                log.force();
            }
        }
        log.append(R(6)); // unforced
        log.truncate_before(Lsn(3));
        assert_eq!(log.sealed, 0);
        assert_eq!(stored_crcs(&log), vec![0; 4]);
        // Once sealed, a truncation keeps the watermark on the same frame.
        log.seal();
        let sealed = log.sealed;
        log.truncate_before(Lsn(5));
        assert_eq!(log.sealed, sealed - 2 * 24);
        assert!(all_sealed(&log));
    }

    #[test]
    fn a_crash_then_salvage_seals_each_retained_frame_once() {
        let mut log = StableLog::<R>::new();
        for i in 0..4 {
            log.append_force(R(i));
        }
        log.append(R(4)); // dies in the crash
        log.crash();
        assert_eq!((log.sealed, stored_crcs(&log)), (0, vec![0; 4]));
        let scan = log.recover_salvage();
        assert_eq!((scan.entries.len(), scan.torn_bytes), (4, 0));
        assert_eq!(log.sealed, log.buf.len());
        assert!(all_sealed(&log));
        // A second scan finds nothing past the watermark to seal.
        let image = log.buf.clone();
        assert_eq!(recover(&mut log).unwrap().len(), 4);
        assert_eq!((log.sealed, &log.buf), (image.len(), &image));
        // New appends past a sealed prefix wait for the next scan.
        log.append_force(R(5));
        assert_eq!(stored_crcs(&log)[4], 0);
        assert_eq!(recover(&mut log).unwrap().len(), 5);
        assert!(all_sealed(&log));
    }

    #[test]
    fn a_scan_of_a_clone_leaves_the_original_unsealed() {
        let mut log = StableLog::<R>::new();
        for i in 0..3 {
            log.append_force(R(i));
        }
        let mut copy = log.clone();
        assert_eq!(recover(&mut copy).unwrap(), vec![R(0), R(1), R(2)]);
        assert!(all_sealed(&copy));
        assert_eq!(log.sealed, 0);
        assert_eq!(stored_crcs(&log), vec![0; 3]);
    }

    #[test]
    fn corrupt_stable_clamps_to_image() {
        let mut log = StableLog::<R>::new();
        log.append_force(R(1));
        let len = log.stable_image_len();
        assert_eq!(log.corrupt_stable(len..len + 10), 0);
        assert_eq!(log.corrupt_stable(len - 2..len + 10), 2);
        assert!(recover(&mut log).is_err());
    }
}
