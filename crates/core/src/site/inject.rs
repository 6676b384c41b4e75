//! Nemesis fault injection at one site: named crashpoints inside the
//! protocol, torn log writes, and media decay of stable storage, plus the
//! bug a run may plant on purpose ([`Mutant`]). All of it is off unless
//! the run's fault plan arms it at this site (an [`Injection`]) or the
//! run names a mutant, and its memory survives crashes — it counts
//! protocol events, not boots.

use super::durable::Durable;
use crate::fault::{Crashpoint, Injection, Mutant};
use dvp_simnet::NodeId;
use dvp_storage::codec::crc32;

/// The fault injector of one site.
pub(super) struct FaultInjector {
    /// What is armed here.
    cfg: Injection,
    /// The bug the run plants, if any.
    mutant: Option<Mutant>,
    site: NodeId,
    /// Times the armed crashpoint has been reached (survives crashes so
    /// `crash_on_hit` counts protocol events, not boots).
    crashpoint_hits: u32,
    /// The armed crashpoint already fired (one-shot — recovery would
    /// otherwise re-enter the same code path and crash-loop forever).
    crashpoint_tripped: bool,
    /// A crashpoint fired in the current callback: the kernel will crash
    /// us when it returns, so no further durable effects may happen.
    crash_pending: bool,
    /// One-shot: the armed bit-rot injection already flipped a byte.
    bit_rot_done: bool,
    /// One-shot: the armed checkpoint-slot corruption already fired.
    ckpt_rot_done: bool,
}

impl FaultInjector {
    pub(super) fn new(site: NodeId, cfg: Injection, mutant: Option<Mutant>) -> Self {
        FaultInjector {
            cfg,
            mutant,
            site,
            crashpoint_hits: 0,
            crashpoint_tripped: false,
            crash_pending: false,
            bit_rot_done: false,
            ckpt_rot_done: false,
        }
    }

    /// Whether the run plants `bug`.
    pub(super) fn planted(&self, bug: Mutant) -> bool {
        self.mutant == Some(bug)
    }

    /// Whether `point` is armed at this site and has not fired yet — the
    /// paths that must force eagerly to honour a crashpoint's contract
    /// ask this before reaching it.
    pub(super) fn armed(&self, point: Crashpoint) -> bool {
        self.cfg.crashpoint == Some(point) && !self.crashpoint_tripped
    }

    /// The protocol reached `point`. Returns `true` when the crashpoint
    /// fires: the site must ask the kernel to crash it and skip the step
    /// that follows; `crash_pending` guards the durable operations that
    /// could otherwise run before the kernel applies the crash.
    pub(super) fn reached(&mut self, point: Crashpoint) -> bool {
        if !self.armed(point) {
            return false;
        }
        self.crashpoint_hits += 1;
        if self.crashpoint_hits < self.cfg.crash_on_hit.max(1) {
            return false;
        }
        self.crashpoint_tripped = true;
        self.crash_pending = true;
        true
    }

    /// A crashpoint fired in the current callback.
    pub(super) fn crash_pending(&self) -> bool {
        self.crash_pending
    }

    /// The crash itself: the unforced log tail dies — and may
    /// additionally tear (a half-written tail frame the recovery scan
    /// repairs) — and the site's stable storage may rot: one byte of
    /// the durable log region, or one checkpoint slot. Both decays are
    /// one-shot: they disarm once bytes actually flipped, so recovery
    /// cannot rot-loop.
    pub(super) fn on_crash(&mut self, durable: &mut Durable) {
        self.crash_pending = false;
        let (log, checkpoint) = durable.crash(self.cfg.torn);
        if self.cfg.bit_rot && !self.bit_rot_done {
            let len = log.stable_image_len();
            if len > 0 {
                // Deterministic offset: hash the site id and image
                // length so a replayed seed rots the same byte.
                let mut key = [0u8; 16];
                key[..8].copy_from_slice(&(self.site as u64).to_be_bytes());
                key[8..].copy_from_slice(&(len as u64).to_be_bytes());
                let offset = crc32(&key) as usize % len;
                if log.corrupt_stable(offset..offset + 1) > 0 {
                    self.bit_rot_done = true;
                }
            }
        }
        if let Some(slot) = self.cfg.corrupt_ckpt {
            if !self.ckpt_rot_done {
                let slot = slot as usize % 2;
                let len = checkpoint.slot_image(slot).len();
                if len > 0 && checkpoint.corrupt_slot(slot, len / 2) {
                    self.ckpt_rot_done = true;
                }
            }
        }
    }
}
