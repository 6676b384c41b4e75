//! The stable log.
//!
//! [`StableLog`] is the crash-surviving append-only log every DvP site
//! owns. The contract:
//!
//! * [`append`](StableLog::append) buffers a record in the volatile tail;
//! * [`force`](StableLog::force) makes the tail durable (encoding it into
//!   the stable byte image) — the paper's "written into the log" /
//!   "recorded on stable storage" steps are `append` + `force`;
//! * [`crash`](StableLog::crash) discards the unforced tail, modelling a
//!   site failure; [`crash_torn`](StableLog::crash_torn) additionally
//!   leaves a *torn write* in the image — the partially-completed frame a
//!   power failure mid-`force` would leave behind;
//! * [`recover`](StableLog::recover) re-decodes the stable byte image,
//!   verifying every frame, and returns the durable records for redo;
//!   [`recover_lenient`](StableLog::recover_lenient) is the WAL-style
//!   variant that truncates at the first bad tail frame and reports it.
//!
//! Each frame's payload carries the record's LSN ahead of the record
//! bytes, so a recovery scan can position every record against a
//! checkpoint's `redo_from` without trusting volatile state.

use crate::codec::{crc32, with_payload_buf, DecodeError, Record, RecordReader, RecordWriter};
use crate::lsn::Lsn;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use dvp_obs::{EventKind, Obs};
use std::cell::RefCell;

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
    /// Stable-region salvages performed by
    /// [`StableLog::recover_salvage`] (mid-log corruption, not a benign
    /// tail tear).
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
#[derive(Clone, Debug)]
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
#[derive(Clone, Debug)]
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

/// Encode `(lsn, rec)` as one frame: `len | crc | lsn ++ record payload`.
fn encode_entry<R: Record>(lsn: Lsn, rec: &R, out: &mut BytesMut) {
    with_payload_buf(|payload| {
        {
            let mut w = RecordWriter::wrap(payload);
            w.u64(lsn.0);
            rec.encode(&mut w);
        }
        out.put_u32(payload.len() as u32);
        out.put_u32(crc32(payload));
        out.put_slice(payload);
    })
}

/// Decode one `(lsn, rec)` frame from the front of `buf`.
fn decode_entry<R: Record>(buf: &mut Bytes) -> Result<(Lsn, R), DecodeError> {
    if buf.remaining() < 8 {
        return Err(DecodeError::Truncated);
    }
    let len = buf.get_u32() as usize;
    let crc = buf.get_u32();
    if buf.remaining() < len {
        return Err(DecodeError::Truncated);
    }
    let mut payload = buf.split_to(len);
    let actual = crc32(&payload);
    if actual != crc {
        return Err(DecodeError::Corrupt {
            expected: crc,
            actual,
        });
    }
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
    /// Authoritative durable image (what "the disk" holds).
    stable_image: BytesMut,
    /// Lazily frozen copy of `stable_image`, shared by recovery scans:
    /// `Bytes::split_to` on an `Arc`-backed image is zero-copy, so a scan
    /// decodes frames as slicing views instead of materializing the whole
    /// image per call. Invalidated whenever `stable_image` changes.
    frozen: RefCell<Option<Bytes>>,
    /// Decoded cache of the durable records, kept in sync with the image.
    stable: Vec<(Lsn, R)>,
    /// Appended but not yet forced.
    tail: Vec<(Lsn, R)>,
    next: Lsn,
    stats: LogStats,
    /// Structured-observability handle plus the owning site's id
    /// (disabled/0 by default; see [`StableLog::set_obs`]).
    obs: Obs,
    obs_site: u32,
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
            stable_image: BytesMut::new(),
            frozen: RefCell::new(None),
            stable: Vec::new(),
            tail: Vec::new(),
            next: Lsn::FIRST,
            stats: LogStats::default(),
            obs: Obs::disabled(),
            obs_site: 0,
        }
    }

    /// Attach a structured-observability handle; `site` labels the
    /// emitted events (a log has no identity of its own).
    pub fn set_obs(&mut self, obs: Obs, site: u32) {
        self.obs = obs;
        self.obs_site = site;
    }

    /// The durable image as zero-copy [`Bytes`], frozen lazily and cached
    /// until the next image mutation. Recovery scans `split_to` slicing
    /// views of the shared buffer instead of copying the image per scan.
    fn frozen_image(&self) -> Bytes {
        self.frozen
            .borrow_mut()
            .get_or_insert_with(|| Bytes::copy_from_slice(&self.stable_image))
            .clone()
    }

    /// Drop the frozen cache after an image mutation.
    fn invalidate_frozen(&mut self) {
        *self.frozen.get_mut() = None;
    }

    /// Append `record` to the volatile tail; returns its LSN.
    ///
    /// The record is **not durable** until [`force`](Self::force).
    pub fn append(&mut self, record: R) -> Lsn {
        let lsn = self.next;
        self.next = self.next.next();
        self.stats.appends += 1;
        self.tail.push((lsn, record));
        lsn
    }

    /// Make every appended record durable. Idempotent.
    pub fn force(&mut self) {
        self.invalidate_frozen();
        self.stats.forces += 1;
        self.stats.max_force_batch = self.stats.max_force_batch.max(self.tail.len() as u64);
        for (lsn, rec) in self.tail.drain(..) {
            encode_entry(lsn, &rec, &mut self.stable_image);
            self.stable.push((lsn, rec));
            self.stats.records_forced += 1;
        }
        self.stats.stable_bytes = self.stable_image.len() as u64;
        self.obs.emit_with(self.obs_site, || EventKind::LogForce {
            stable_len: self.stable.len() as u64,
        });
    }

    /// Force only if the tail holds unforced records — the group-commit
    /// flush primitive. A clean tail means every record is already
    /// durable, so the force (and its obs event) is elided entirely.
    /// Returns whether a force actually happened.
    pub fn force_if_dirty(&mut self) -> bool {
        if self.tail.is_empty() {
            return false;
        }
        self.force();
        true
    }

    /// `append` + `force` in one call — the common "write one record and
    /// force it" pattern of the Vm protocol.
    pub fn append_force(&mut self, record: R) -> Lsn {
        let lsn = self.append(record);
        self.force();
        lsn
    }

    /// Simulate a site crash: the unforced tail is lost. The stable prefix
    /// is untouched. LSNs of lost records are *not* reused.
    pub fn crash(&mut self) {
        self.stats.lost_in_crash += self.tail.len() as u64;
        self.tail.clear();
    }

    /// Crash while a `force` was in flight: the first unforced record's
    /// frame is partially written into the image per `mode` before the
    /// tail is dropped. Returns whether a tear was actually injected (a
    /// clean mode or an empty tail tears nothing).
    ///
    /// Only the *unforced* write can tear — completed forces are durable
    /// by definition — so recovery state after repair always equals a
    /// clean crash's.
    pub fn crash_torn(&mut self, mode: TornWrite) -> bool {
        self.invalidate_frozen();
        let torn = match (mode, self.tail.first()) {
            (TornWrite::None, _) | (_, None) => false,
            (mode, Some((lsn, rec))) => {
                let mut frame = BytesMut::new();
                encode_entry(*lsn, rec, &mut frame);
                match mode {
                    TornWrite::Truncated => {
                        // The write stopped mid-frame: keep only a prefix
                        // (always ≥ the 8-byte header's worth, < full).
                        let cut = (frame.len() / 2).max(4);
                        self.stable_image.extend_from_slice(&frame[..cut]);
                    }
                    TornWrite::Garbage => {
                        // The full frame landed but a payload byte is wrong.
                        let mut raw = frame.to_vec();
                        let last = raw.len() - 1;
                        raw[last] ^= 0xA5;
                        self.stable_image.extend_from_slice(&raw);
                    }
                    TornWrite::None => unreachable!(),
                }
                self.stats.torn_writes += 1;
                true
            }
        };
        self.stats.stable_bytes = self.stable_image.len() as u64;
        self.crash();
        torn
    }

    /// Recovery scan: decode the durable byte image from the start,
    /// verifying every frame, and return the records in append order.
    ///
    /// This deliberately re-decodes rather than cloning the cache so the
    /// recovery path exercises the codec (a torn/corrupt image surfaces
    /// here).
    pub fn recover(&self) -> Result<Vec<R>, DecodeError> {
        Ok(self
            .recover_entries()?
            .into_iter()
            .map(|(_, r)| r)
            .collect())
    }

    /// Strict recovery scan that also yields each record's LSN (needed to
    /// position records against a checkpoint's `redo_from`).
    pub fn recover_entries(&self) -> Result<Vec<(Lsn, R)>, DecodeError> {
        let mut bytes = self.frozen_image();
        let mut out = Vec::with_capacity(self.stable.len());
        while !bytes.is_empty() {
            out.push(decode_entry::<R>(&mut bytes)?);
        }
        Ok(out)
    }

    /// WAL-style recovery scan: decode frames until the first bad one,
    /// treat everything from there to the end of the image as a torn tail,
    /// and report what was dropped instead of failing.
    ///
    /// In this simulation torn bytes only ever come from
    /// [`crash_torn`](Self::crash_torn) tearing the unforced write, so the
    /// dropped suffix is exactly what a clean crash would have lost anyway.
    pub fn recover_lenient(&self) -> RecoveredLog<R> {
        let mut bytes = self.frozen_image();
        let total = bytes.remaining();
        let mut entries = Vec::with_capacity(self.stable.len());
        let mut clean_bytes = 0usize;
        while bytes.remaining() > 0 {
            match decode_entry::<R>(&mut bytes) {
                Ok(e) => {
                    clean_bytes = total - bytes.remaining();
                    entries.push(e);
                }
                Err(error) => {
                    return RecoveredLog {
                        entries,
                        clean_bytes,
                        torn: Some(TornTail {
                            bytes_dropped: (total - clean_bytes) as u64,
                            error,
                        }),
                    };
                }
            }
        }
        RecoveredLog {
            entries,
            clean_bytes,
            torn: None,
        }
    }

    /// Discard a torn tail from the image (recovery's repair step, so the
    /// next scan starts clean). Returns the bytes dropped.
    pub fn repair_torn_tail(&mut self) -> u64 {
        let clean = self.recover_lenient().clean_bytes;
        let dropped = (self.stable_image.len() - clean) as u64;
        self.stable_image.truncate(clean);
        self.invalidate_frozen();
        self.stats.stable_bytes = self.stable_image.len() as u64;
        dropped
    }

    /// Fault injection: flip the image bytes in `region` (clamped to the
    /// image), modelling bit rot on the stable medium. Returns the number
    /// of bytes flipped.
    ///
    /// The decoded cache is deliberately left alone — it mirrors what the
    /// disk *should* hold, which is exactly what lets
    /// [`recover_salvage`](Self::recover_salvage) name the first corrupt
    /// record's LSN instead of guessing from damaged bytes.
    pub fn corrupt_stable(&mut self, region: std::ops::Range<usize>) -> u64 {
        self.invalidate_frozen();
        let end = region.end.min(self.stable_image.len());
        let start = region.start.min(end);
        for b in &mut self.stable_image[start..end] {
            *b ^= 0xA5;
        }
        (end - start) as u64
    }

    /// Length of the durable byte image (for choosing
    /// [`corrupt_stable`](Self::corrupt_stable) offsets).
    pub fn stable_image_len(&self) -> usize {
        self.stable_image.len()
    }

    /// Recovery scan that classifies image damage and repairs in place.
    ///
    /// * every frame verifies → [`SalvageOutcome::Clean`];
    /// * the scan fails only *past* the last durable record → the benign
    ///   [`SalvageOutcome::TailTear`] a crash mid-`force` leaves (repaired
    ///   exactly like [`repair_torn_tail`](Self::repair_torn_tail));
    /// * the scan fails *at* a durable record → stable-region corruption:
    ///   the image is truncated at the first bad record and
    ///   [`SalvageOutcome::MediaDamage`] reports exactly which records
    ///   were lost. Valid frames after the bad one are dropped too — a
    ///   frame boundary past a corrupt region cannot be trusted.
    pub fn recover_salvage(&mut self) -> SalvageOutcome<R> {
        let scan = self.recover_lenient();
        let Some(torn) = scan.torn else {
            return SalvageOutcome::Clean {
                entries: scan.entries,
            };
        };
        let kept = scan.entries.len();
        if kept >= self.stable.len() {
            // All durable records verified: the bad bytes are the torn
            // remnant of an unforced write, beyond everything durable.
            self.stable_image.truncate(scan.clean_bytes);
            self.invalidate_frozen();
            self.stats.stable_bytes = self.stable_image.len() as u64;
            return SalvageOutcome::TailTear {
                entries: scan.entries,
                bytes_dropped: torn.bytes_dropped,
                error: torn.error,
            };
        }
        let dropped: Vec<(Lsn, R)> = self.stable.split_off(kept);
        let report = SalvageReport {
            first_bad_lsn: dropped[0].0,
            records_lost: dropped.len() as u64,
            bytes_lost: torn.bytes_dropped,
            error: torn.error,
        };
        self.stable_image.truncate(scan.clean_bytes);
        self.invalidate_frozen();
        self.stats.stable_bytes = self.stable_image.len() as u64;
        self.stats.media_salvages += 1;
        self.stats.salvaged_records += report.records_lost;
        self.stats.salvaged_bytes += report.bytes_lost;
        SalvageOutcome::MediaDamage {
            entries: scan.entries,
            dropped,
            report,
        }
    }

    /// Durable records with their LSNs, oldest first (no decode; the cache).
    pub fn stable_records(&self) -> impl Iterator<Item = (Lsn, &R)> {
        self.stable.iter().map(|(l, r)| (*l, r))
    }

    /// Durable records at or after `from`, oldest first.
    pub fn stable_records_from(&self, from: Lsn) -> impl Iterator<Item = (Lsn, &R)> {
        self.stable
            .iter()
            .skip_while(move |(l, _)| *l < from)
            .map(|(l, r)| (*l, r))
    }

    /// Number of durable records.
    pub fn stable_len(&self) -> usize {
        self.stable.len()
    }

    /// Number of appended-but-unforced records.
    pub fn tail_len(&self) -> usize {
        self.tail.len()
    }

    /// The LSN the next append will receive.
    pub fn next_lsn(&self) -> Lsn {
        self.next
    }

    /// Activity counters.
    pub fn stats(&self) -> LogStats {
        let mut s = self.stats;
        s.stable_bytes = self.stable_image.len() as u64;
        s
    }

    /// Truncate the durable prefix strictly before `upto` (checkpointing).
    ///
    /// Records at LSN >= `upto` are kept. The byte image is rebuilt from
    /// the kept records.
    pub fn truncate_before(&mut self, upto: Lsn) {
        self.stable.retain(|(l, _)| *l >= upto);
        let mut img = BytesMut::new();
        for (l, r) in &self.stable {
            encode_entry(*l, r, &mut img);
        }
        self.stable_image = img;
        self.invalidate_frozen();
        self.stats.stable_bytes = self.stable_image.len() as u64;
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
    fn stable_records_from_skips_prefix() {
        let mut log = StableLog::<R>::new();
        for i in 0..5 {
            log.append_force(R(i));
        }
        let got: Vec<u64> = log.stable_records_from(Lsn(3)).map(|(_, r)| r.0).collect();
        assert_eq!(got, vec![3, 4]);
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
        assert_eq!(log.repair_torn_tail(), torn.bytes_dropped);
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
        log.repair_torn_tail();
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
        assert_eq!(log.repair_torn_tail(), 0, "repair on clean log is a no-op");
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
        // The repair leaves a strict-recoverable image, like repair_torn_tail.
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
    fn corrupt_stable_clamps_to_image() {
        let mut log = StableLog::<R>::new();
        log.append_force(R(1));
        let len = log.stable_image_len();
        assert_eq!(log.corrupt_stable(len..len + 10), 0);
        assert_eq!(log.corrupt_stable(len - 2..len + 10), 2);
        assert!(log.recover().is_err());
    }
}
