//! Model-based property test of [`StableLog`].
//!
//! `StableLog` is one byte buffer and a durable-length watermark; it keeps
//! no decoded record. The reference model here *is* the structure that
//! design deleted: a decoded mirror of the durable records
//! (`Vec<(Lsn, Rec)>`), a decoded unforced tail, and a separately encoded
//! image — with its own frame encoder and decoder, so nothing is checked
//! against itself. Random operation sequences, fault injection included,
//! are applied to both, and after every step every observable must agree:
//! both recovery scans — the strict one, and the repairing one's whole
//! result (the `dropped` records the log now has to reconstruct from the
//! fault injector's memory, where the model just reads its mirror) — the
//! counters and the lengths.
//!
//! The log writes a frame's CRC lazily, when its image is first read or
//! damaged, and a scan seals the log it runs on. So the per-step scans
//! run on a clone, strict first, then repairing: the log under test stays
//! unsealed until a step of its own (salvage, rot, a torn crash) seals
//! it, and damage meets unsealed frames. Two mutants of `log.rs` each fail this test at once: dropping
//! the `seal()` from `corrupt_stable` (rot lands on unsealed frames, so
//! the next seal walks a rotten length off the image, or checksums a
//! rotten payload as good) and dropping it from `crash_torn` (the torn
//! remnant stays unsealed, and the next seal walks its length past the
//! image). Observed on the log itself, the first scan would seal
//! everything and neither mutant would show.

use dvp_storage::codec::crc32;
use dvp_storage::{
    DecodeError, LogStats, Lsn, Record, RecordReader, RecordWriter, SalvageReport, Salvaged,
    StableLog, TornWrite,
};
use proptest::collection::vec;
use proptest::prelude::*;
use std::ops::Range;

/// A record of variable encoded size, so frames differ in length.
#[derive(Clone, Debug, PartialEq)]
struct Rec(u64, Vec<u8>);

impl Record for Rec {
    fn encode(&self, w: &mut RecordWriter<'_>) {
        w.u64(self.0);
        w.bytes(&self.1);
    }
    fn decode(r: &mut RecordReader<'_>) -> Result<Self, DecodeError> {
        Ok(Rec(r.u64()?, r.bytes()?.to_vec()))
    }
}

/// The reference encoder: `len | crc | lsn ++ payload`.
fn encode_entry(lsn: Lsn, rec: &Rec, out: &mut Vec<u8>) {
    let mut payload = Vec::new();
    let mut w = RecordWriter::wrap(&mut payload);
    w.u64(lsn.0);
    rec.encode(&mut w);
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(&crc32(&payload).to_be_bytes());
    out.extend_from_slice(&payload);
}

/// The reference decoder for the frame at `image[*at..]`; advances `at`
/// past it.
fn decode_entry(image: &[u8], at: &mut usize) -> Result<(Lsn, Rec), DecodeError> {
    let header = image.get(*at..*at + 8).ok_or(DecodeError::Truncated)?;
    let len = u32::from_be_bytes(header[..4].try_into().unwrap()) as usize;
    let expected = u32::from_be_bytes(header[4..].try_into().unwrap());
    let payload = image
        .get(*at + 8..*at + 8 + len)
        .ok_or(DecodeError::Truncated)?;
    *at += 8 + len;
    let actual = crc32(payload);
    if actual != expected {
        return Err(DecodeError::Corrupt { expected, actual });
    }
    let mut r = RecordReader::wrap(payload);
    let lsn = Lsn(r.u64()?);
    let rec = Rec::decode(&mut r)?;
    if r.remaining() != 0 {
        return Err(DecodeError::Invalid("trailing bytes in payload"));
    }
    Ok((lsn, rec))
}

/// The deleted design, kept as the oracle: the image, the decoded mirror
/// of what it should hold, and the decoded unforced tail.
#[derive(Clone, Default)]
struct Model {
    image: Vec<u8>,
    stable: Vec<(Lsn, Rec)>,
    tail: Vec<(Lsn, Rec)>,
    next: u64,
    stats: LogStats,
}

impl Model {
    fn append(&mut self, rec: Rec) -> Lsn {
        let lsn = Lsn(self.next);
        self.next += 1;
        self.stats.appends += 1;
        self.tail.push((lsn, rec));
        lsn
    }

    fn force(&mut self) {
        self.stats.forces += 1;
        self.stats.max_force_batch = self.stats.max_force_batch.max(self.tail.len() as u64);
        for (lsn, rec) in self.tail.drain(..) {
            encode_entry(lsn, &rec, &mut self.image);
            self.stable.push((lsn, rec));
            self.stats.records_forced += 1;
        }
    }

    fn force_if_dirty(&mut self) -> bool {
        let dirty = !self.tail.is_empty();
        if dirty {
            self.force();
        }
        dirty
    }

    fn crash(&mut self) {
        self.stats.lost_in_crash += self.tail.len() as u64;
        self.tail.clear();
    }

    fn crash_torn(&mut self, mode: TornWrite) -> bool {
        let torn = match (mode, self.tail.first()) {
            (TornWrite::None, _) | (_, None) => false,
            (mode, Some((lsn, rec))) => {
                let mut frame = Vec::new();
                encode_entry(*lsn, rec, &mut frame);
                if mode == TornWrite::Truncated {
                    frame.truncate((frame.len() / 2).max(4));
                } else {
                    *frame.last_mut().unwrap() ^= 0x5A;
                }
                self.image.extend_from_slice(&frame);
                self.stats.torn_writes += 1;
                true
            }
        };
        self.crash();
        torn
    }

    fn corrupt(&mut self, region: Range<usize>) -> u64 {
        let end = region.end.min(self.image.len());
        let start = region.start.min(end);
        for b in &mut self.image[start..end] {
            *b ^= 0xA5;
        }
        (end - start) as u64
    }

    /// Decode frames until the first bad one: the entries, the length of
    /// the clean prefix they fill, and the failure past it, if any.
    fn lenient(&self) -> (Vec<(Lsn, Rec)>, usize, Option<DecodeError>) {
        let mut at = 0;
        let mut entries = Vec::new();
        while at < self.image.len() {
            let clean = at;
            match decode_entry(&self.image, &mut at) {
                Ok(e) => entries.push(e),
                Err(error) => return (entries, clean, Some(error)),
            }
        }
        (entries, at, None)
    }

    fn recover_entries(&self) -> Result<Vec<(Lsn, Rec)>, DecodeError> {
        let (entries, _, failure) = self.lenient();
        failure.map_or(Ok(entries), Err)
    }

    fn recover_salvage(&mut self) -> Salvaged<Rec> {
        let (entries, clean, failure) = self.lenient();
        let Some(error) = failure else {
            return Salvaged {
                entries,
                torn_bytes: 0,
                damage: None,
            };
        };
        let bytes_cut = (self.image.len() - clean) as u64;
        self.image.truncate(clean);
        let kept = entries.len();
        if kept >= self.stable.len() {
            return Salvaged {
                entries,
                torn_bytes: bytes_cut,
                damage: None,
            };
        }
        // The whole point of the mirror: it names what the damage took.
        let dropped = self.stable.split_off(kept);
        let report = SalvageReport {
            first_bad_lsn: dropped[0].0,
            records_lost: dropped.len() as u64,
            bytes_lost: bytes_cut,
            error,
            dropped,
        };
        self.stats.media_salvages += 1;
        self.stats.salvaged_records += report.records_lost;
        self.stats.salvaged_bytes += report.bytes_lost;
        Salvaged {
            entries,
            torn_bytes: 0,
            damage: Some(report),
        }
    }

    /// The image the mirror says the disk *should* hold.
    fn pristine(&self) -> Vec<u8> {
        let mut img = Vec::new();
        for (lsn, rec) in &self.stable {
            encode_entry(*lsn, rec, &mut img);
        }
        img
    }

    fn truncate_before(&mut self, upto: Lsn) {
        self.stable.retain(|(l, _)| *l >= upto);
        self.image = self.pristine();
    }

    fn stats(&self) -> LogStats {
        LogStats {
            stable_bytes: self.image.len() as u64,
            ..self.stats
        }
    }
}

/// One generated step: an operation selector and two operands whose
/// meaning depends on it.
type Step = (u8, u64, usize);

fn record(a: u64, b: usize) -> Rec {
    Rec(a, vec![a as u8; b % 24])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn log_agrees_with_the_mirror_model_after_every_step(
        steps in vec((0u8..15, any::<u64>(), 0usize..48), 1..96),
    ) {
        let steps: Vec<Step> = steps;
        let mut log = StableLog::<Rec>::new();
        let mut model = Model::default();
        // The last range handed to `corrupt_stable`, so later steps can
        // hit it again exactly (which heals it) or overlapping.
        let mut last_rot = 0..0;

        for (i, &(op, a, b)) in steps.iter().enumerate() {
            match op {
                0..=3 => {
                    // By reference and owned: one `append` takes both.
                    let rec = record(a, b);
                    let lsn = if a % 2 == 0 { log.append(&rec) } else { log.append(rec.clone()) };
                    prop_assert_eq!(lsn, model.append(rec));
                }
                4 => {
                    log.force();
                    model.force();
                }
                5 => prop_assert_eq!(log.force_if_dirty(), model.force_if_dirty()),
                6 => {
                    let rec = record(a, b);
                    let lsn = log.append_force(&rec);
                    prop_assert_eq!(lsn, model.append(rec));
                    model.force();
                }
                7 => {
                    log.crash();
                    model.crash();
                }
                8 | 9 => {
                    let mode = [TornWrite::None, TornWrite::Truncated, TornWrite::Garbage][(a % 3) as usize];
                    prop_assert_eq!(log.crash_torn(mode), model.crash_torn(mode));
                }
                10 | 11 => {
                    // Anywhere in the image, sometimes hanging off its end.
                    let start = (a % (model.image.len() as u64 + 4)) as usize;
                    last_rot = start..start + b;
                    prop_assert_eq!(log.corrupt_stable(last_rot.clone()), model.corrupt(last_rot.clone()));
                }
                12 => {
                    // Again: the same range, or one overlapping it.
                    let shift = (a % 3) as usize * (b / 4);
                    let again = last_rot.start + shift..last_rot.end + shift;
                    prop_assert_eq!(log.corrupt_stable(again.clone()), model.corrupt(again));
                }
                13 => prop_assert_eq!(log.recover_salvage(), model.recover_salvage(), "step {i}"),
                _ => {
                    // Checkpoint truncation runs on a verified image only
                    // (the site salvages before it ever checkpoints); the
                    // mirror model would *heal* a damaged one by
                    // re-encoding, which a log of bytes cannot and must
                    // not do.
                    if model.image == model.pristine() {
                        let upto = Lsn(a % (model.next + 2));
                        log.truncate_before(upto);
                        model.truncate_before(upto);
                    }
                }
            }
            let (mut copy, mut mirror) = (log.clone(), model.clone());
            prop_assert_eq!(copy.recover_entries(), mirror.recover_entries(), "step {i} {steps:?}");
            prop_assert_eq!(copy.recover_salvage(), mirror.recover_salvage(), "step {i}");
            prop_assert_eq!(log.stable_len(), model.stable.len(), "step {i}");
            prop_assert_eq!(log.tail_len(), model.tail.len(), "step {i}");
            prop_assert_eq!(log.stable_image_len(), model.image.len(), "step {i}");
            prop_assert_eq!(log.next_lsn(), Lsn(model.next), "step {i}");
            prop_assert_eq!(log.stats(), model.stats(), "step {i}");
        }
        // Whatever is still unforced is the same on both sides too.
        log.force();
        model.force();
        prop_assert_eq!(log.recover_salvage(), model.recover_salvage());
    }
}
