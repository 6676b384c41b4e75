//! Model-based property test of [`CheckpointSlot`]: the slot format.
//!
//! A slot keeps its byte image and the generation and redo point read
//! from it; the snapshot exists only as bytes, encoded in place into the
//! target slot's retained buffer. The reference model here is the format
//! those bytes must keep — its own frame encoder and decoder, written
//! out below, so nothing is checked against itself — plus the two-slot
//! rules: install into the older verified slot, load the newest one that
//! verifies. Random sequences of installs (owned and borrowed, snapshots
//! of varying size, long enough to alternate slots many times) and byte
//! flips on either slot are applied to both, and after every step the
//! slot bytes, the retention floor, and the checkpoint and fallback
//! report a recovery read loads must agree.

use dvp_storage::codec::crc32;
use dvp_storage::{
    CheckpointMeta, CheckpointSlot, DecodeError, Lsn, Record, RecordReader, RecordWriter,
    SlotFallback,
};
use proptest::collection::vec;
use proptest::prelude::*;

/// A snapshot of variable encoded size, so a slot's buffer is rewritten
/// both longer and shorter than what it held.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Snap(u64, Vec<u8>);

impl Record for Snap {
    fn encode(&self, w: &mut RecordWriter<'_>) {
        w.u64(self.0);
        w.bytes(&self.1);
    }
    fn decode(r: &mut RecordReader<'_>) -> Result<Self, DecodeError> {
        Ok(Snap(r.u64()?, r.bytes()?.to_vec()))
    }
}

/// The slot format: `len | crc | generation ++ redo_from ++ snapshot`.
fn encode_slot(meta: &CheckpointMeta<Snap>) -> Vec<u8> {
    let mut payload = Vec::new();
    let mut w = RecordWriter::wrap(&mut payload);
    w.u64(meta.generation);
    w.u64(meta.redo_from.0);
    meta.snapshot.encode(&mut w);
    let mut frame = (payload.len() as u32).to_be_bytes().to_vec();
    frame.extend_from_slice(&crc32(&payload).to_be_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// The reference decoder: a slot verifies only if the whole image is one
/// frame whose checksum matches and whose payload decodes exactly.
fn decode_slot(image: &[u8]) -> Option<CheckpointMeta<Snap>> {
    let (header, payload) = image.split_at_checked(8)?;
    let len = u32::from_be_bytes(header[..4].try_into().unwrap()) as usize;
    let crc = u32::from_be_bytes(header[4..].try_into().unwrap());
    if payload.len() != len || crc32(payload) != crc {
        return None;
    }
    let mut r = RecordReader::wrap(payload);
    let meta = CheckpointMeta {
        generation: r.u64().ok()?,
        redo_from: Lsn(r.u64().ok()?),
        snapshot: Snap::decode(&mut r).ok()?,
    };
    (r.remaining() == 0).then_some(meta)
}

/// Two byte images and the install counter.
#[derive(Default)]
struct Model {
    images: [Vec<u8>; 2],
    last_installed: u64,
}

impl Model {
    fn verified(&self, i: usize) -> Option<CheckpointMeta<Snap>> {
        decode_slot(&self.images[i])
    }

    fn generation(&self, i: usize) -> u64 {
        self.verified(i).map_or(0, |m| m.generation)
    }

    fn install(&mut self, redo_from: Lsn, snapshot: Snap) {
        let target = usize::from(self.generation(0) > self.generation(1));
        self.last_installed += 1;
        self.images[target] = encode_slot(&CheckpointMeta {
            generation: self.last_installed,
            redo_from,
            snapshot,
        });
    }

    fn load(&self) -> Option<CheckpointMeta<Snap>> {
        let (a, b) = (self.verified(0), self.verified(1));
        match (a, b) {
            (Some(a), Some(b)) => Some(if a.generation >= b.generation { a } else { b }),
            (a, b) => a.or(b),
        }
    }

    fn redo_floor(&self) -> Lsn {
        match (self.verified(0), self.verified(1)) {
            (Some(a), Some(b)) => a.redo_from.min(b.redo_from),
            _ => Lsn::FIRST,
        }
    }

    fn fallback(&self) -> Option<SlotFallback> {
        let used = self.load().map(|m| m.generation);
        (self.last_installed > 0 && used.unwrap_or(0) < self.last_installed).then_some(
            SlotFallback {
                bad_generation: self.last_installed,
                used_generation: used,
            },
        )
    }

    fn corrupt(&mut self, slot: usize, offset: usize) -> bool {
        let image = &mut self.images[slot % 2];
        let hit = offset < image.len();
        if hit {
            image[offset] ^= 0xA5;
        }
        hit
    }
}

fn snapshot(a: u64, b: usize) -> Snap {
    Snap(a, vec![a as u8; b % 40])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn slots_keep_the_format_and_the_two_generation_rules(
        steps in vec((0u8..8, any::<u64>(), 0usize..64), 1..64),
    ) {
        let mut slot = CheckpointSlot::<Snap>::new();
        let mut model = Model::default();
        let mut next_lsn = 0u64;
        for (i, &(op, a, b)) in steps.iter().enumerate() {
            match op {
                0..=5 => {
                    // Redo points only move forward, as a host's do.
                    next_lsn += a % 300;
                    let snap = snapshot(a, b);
                    if a % 2 == 0 {
                        slot.install(Lsn(next_lsn), &snap);
                    } else {
                        slot.install(Lsn(next_lsn), snap.clone());
                    }
                    model.install(Lsn(next_lsn), snap);
                }
                _ => {
                    // Either slot, anywhere in its image or past its end.
                    let which = (a % 2) as usize;
                    let offset = b % (model.images[which].len() + 2);
                    prop_assert_eq!(slot.corrupt_slot(which, offset), model.corrupt(which, offset));
                }
            }
            for s in 0..2 {
                prop_assert_eq!(slot.slot_image(s), &model.images[s][..], "slot {s}, step {i}");
            }
            // The floor reads the headers install and rot left; the
            // recovery read that follows re-derives them from the bytes.
            prop_assert_eq!(slot.redo_floor(), model.redo_floor(), "step {i}");
            prop_assert_eq!(
                slot.load(),
                (model.load(), model.fallback()),
                "step {i} {steps:?}"
            );
        }
    }
}

/// The fallback the unit tests pin, with snapshots large enough to make
/// the in-place buffers grow and shrink: rot in the newest slot falls back
/// exactly one generation, rot in both falls back to nothing.
#[test]
fn rot_in_either_slot_falls_back_as_pinned() {
    for rotten in 0..2 {
        let mut slot = CheckpointSlot::<Snap>::new();
        for g in 1..=5u64 {
            slot.install(Lsn(10 * g), snapshot(g, 40 - 7 * g as usize));
        }
        // Generation 5 sits in slot 0 (1, 3, 5 alternate into it).
        let newest = 0;
        let older = 1 - newest;
        if rotten == newest {
            assert!(slot.corrupt_slot(newest, slot.slot_image(newest).len() / 2));
            let (cp, fb) = slot.load();
            let cp = cp.expect("the older generation must survive");
            assert_eq!((cp.generation, cp.redo_from), (4, Lsn(40)));
            assert_eq!(cp.snapshot, snapshot(4, 12));
            let fb = fb.expect("the fallback must be reported");
            assert_eq!((fb.bad_generation, fb.used_generation), (5, Some(4)));
        } else {
            assert!(slot.corrupt_slot(older, 3));
            let (cp, fb) = slot.load();
            assert_eq!(cp.map(|c| c.generation), Some(5));
            assert_eq!(fb, None, "the newest generation still verifies");
            // With one generation left the log must be kept whole.
            assert_eq!(slot.redo_floor(), Lsn::FIRST);
        }
        assert!(slot.corrupt_slot(rotten ^ 1, 3));
        let (cp, fb) = slot.load();
        assert!(cp.is_none());
        let fb = fb.unwrap();
        assert_eq!((fb.bad_generation, fb.used_generation), (5, None));
    }
}
