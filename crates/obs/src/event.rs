//! The typed event taxonomy and its deterministic JSONL encoding.
//!
//! Events are plain data keyed by simulated time: identical runs produce
//! identical event streams, so a trace can be diffed byte-for-byte
//! across refactors. Encoding is hand-rolled (fixed field order, no
//! maps, no floats) to keep that guarantee trivial.

use crate::reason::AbortCause;
use std::fmt::Write as _;

/// One observability event: where and when, plus what happened.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Simulated time in microseconds.
    pub at_us: u64,
    /// Site (node) id the event happened at.
    pub site: u32,
    /// What happened.
    pub kind: EventKind,
}

/// What happened. Spans are reconstructed from these: a transaction's
/// lifecycle is every event sharing its `txn` id across all sites, in
/// time order (solicit at home → donate at peers → absorb → commit).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    // --- transaction lifecycle ------------------------------------
    /// A transaction arrived and began executing at its home site.
    TxnStart {
        /// Transaction id (its timestamp).
        txn: u64,
        /// Number of operations in the spec.
        ops: u32,
    },
    /// The home site asked a peer for value (Section 5, Step 2).
    TxnSolicit {
        /// Transaction id.
        txn: u64,
        /// Item solicited.
        item: u32,
        /// Peer asked.
        to: u32,
        /// Amount still needed.
        qty: i64,
    },
    /// A donor honoured a request: an Rds transaction ran and a Vm left.
    TxnDonate {
        /// Requesting transaction id.
        txn: u64,
        /// Item donated.
        item: u32,
        /// Requester (Vm destination).
        to: u32,
        /// Amount shipped.
        qty: i64,
    },
    /// A donor declined (locked / stale timestamp / outstanding read).
    TxnDecline {
        /// Requesting transaction id.
        txn: u64,
        /// Item requested.
        item: u32,
    },
    /// The home site credited an arrived transfer to a waiting txn.
    TxnAbsorb {
        /// Transaction id credited.
        txn: u64,
        /// Item.
        item: u32,
        /// Donor site.
        from: u32,
        /// Amount absorbed.
        qty: i64,
    },
    /// Conc2: the transaction queued on a busy item instead of aborting.
    TxnQueued {
        /// Transaction id.
        txn: u64,
        /// Item whose FIFO queue it joined.
        item: u32,
    },
    /// The transaction committed (commit record forced).
    TxnCommit {
        /// Transaction id.
        txn: u64,
        /// start → commit, µs.
        latency_us: u64,
        /// True when no solicitation round was needed.
        fast_path: bool,
    },
    /// The transaction aborted.
    TxnAbort {
        /// Transaction id.
        txn: u64,
        /// Why, in the aborting engine's terms (encoded as its tag, e.g.
        /// "timeout", "lock_conflict").
        reason: AbortCause,
        /// start → abort decision, µs.
        latency_us: u64,
    },

    // --- adaptive placement ---------------------------------------
    /// The demand-driven rebalancer shipped surplus toward estimated
    /// demand (adaptive placement only).
    PlacementShip {
        /// Item shipped.
        item: u32,
        /// Destination peer.
        to: u32,
        /// Amount shipped.
        qty: u64,
    },

    // --- Virtual Message channel ----------------------------------
    /// A Vm frame left this site (first send or retransmission).
    VmSend {
        /// Destination site.
        to: u32,
        /// Per-channel virtual sequence number.
        vseq: u64,
        /// True for retransmissions.
        retransmit: bool,
        /// Wire datagram the frame rides in (per-(site, peer) sequence
        /// number; 0 when link-level coalescing is off — the field is
        /// then omitted from the JSONL encoding).
        datagram: u64,
    },
    /// A Vm frame arrived and was classified by the receive window.
    VmAccept {
        /// Source site.
        from: u32,
        /// Virtual sequence number.
        vseq: u64,
        /// Receipt class: a [`VmReceipt`](crate::VmReceipt)'s tag —
        /// "fresh", "duplicate" or "out_of_order". Emitted and folded
        /// through `VmReceipt`; the field stays a string because the repo
        /// benchmark matches it as one.
        receipt: &'static str,
        /// Wire datagram the frame arrived in (0 = non-coalesced frame;
        /// omitted from the JSONL encoding).
        datagram: u64,
    },
    /// A cumulative ack left this site.
    VmAck {
        /// Destination (original sender).
        to: u32,
        /// Everything ≤ this vseq is acknowledged.
        upto: u64,
        /// Wire datagram carrying the ack — the one it piggybacks on, or
        /// the ack-only datagram flushed by the delayed-ack timer (0 =
        /// non-coalesced standalone frame; omitted from the encoding).
        datagram: u64,
    },

    // --- storage / checkpoint -------------------------------------
    /// A log force (synchronous write barrier) completed.
    LogForce {
        /// Stable length after the force (records).
        stable_len: u64,
    },
    /// A checkpoint was taken: snapshot written, log truncated.
    Checkpoint {
        /// Redo lower bound recorded in the snapshot.
        redo_from: u64,
    },
    /// Recovery found the newest checkpoint slot corrupt and fell back
    /// to an older generation (or to log-only replay).
    CheckpointFallback {
        /// Generation number that failed its checksum.
        bad_generation: u64,
        /// Generation actually used (0 = none survived; recovery
        /// replayed the log from its genesis).
        used_generation: u64,
    },
    /// Recovery truncated the durable log at a corrupt record and
    /// salvaged the clean prefix.
    Salvage {
        /// LSN of the first unrecoverable record.
        first_bad_lsn: u64,
        /// Durable records dropped.
        records_lost: u64,
        /// Image bytes dropped.
        bytes_lost: u64,
    },
    /// Salvage dropped committed state the checkpoint did not cover:
    /// the site quarantined itself (media failure) instead of serving
    /// possibly-wrong values.
    MediaFailure {
        /// Durable records whose effects were lost.
        records_lost: u64,
    },

    // --- crash / recovery -----------------------------------------
    /// The site crashed (volatile state lost).
    Crash,
    /// Recovery began: the site is rebuilding from its local log.
    RecoveryBegin,
    /// Recovery finished.
    RecoveryEnd {
        /// Log records replayed.
        replayed: u64,
        /// Remote messages consulted (0 = independent recovery).
        remote_msgs: u64,
    },
}

impl EventKind {
    /// Static name tag, used as the `ev` field of the JSONL encoding.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::TxnStart { .. } => "txn_start",
            EventKind::TxnSolicit { .. } => "txn_solicit",
            EventKind::TxnDonate { .. } => "txn_donate",
            EventKind::TxnDecline { .. } => "txn_decline",
            EventKind::TxnAbsorb { .. } => "txn_absorb",
            EventKind::TxnQueued { .. } => "txn_queued",
            EventKind::TxnCommit { .. } => "txn_commit",
            EventKind::TxnAbort { .. } => "txn_abort",
            EventKind::PlacementShip { .. } => "placement_ship",
            EventKind::VmSend { .. } => "vm_send",
            EventKind::VmAccept { .. } => "vm_accept",
            EventKind::VmAck { .. } => "vm_ack",
            EventKind::LogForce { .. } => "log_force",
            EventKind::Checkpoint { .. } => "checkpoint",
            EventKind::CheckpointFallback { .. } => "checkpoint_fallback",
            EventKind::Salvage { .. } => "salvage",
            EventKind::MediaFailure { .. } => "media_failure",
            EventKind::Crash => "crash",
            EventKind::RecoveryBegin => "recovery_begin",
            EventKind::RecoveryEnd { .. } => "recovery_end",
        }
    }

    /// The transaction id this event belongs to, if any.
    pub fn txn(&self) -> Option<u64> {
        match self {
            EventKind::TxnStart { txn, .. }
            | EventKind::TxnSolicit { txn, .. }
            | EventKind::TxnDonate { txn, .. }
            | EventKind::TxnDecline { txn, .. }
            | EventKind::TxnAbsorb { txn, .. }
            | EventKind::TxnQueued { txn, .. }
            | EventKind::TxnCommit { txn, .. }
            | EventKind::TxnAbort { txn, .. } => Some(*txn),
            _ => None,
        }
    }
}

impl Event {
    /// Encode as one JSON line (no trailing newline). Field order is
    /// fixed: `t`, `site`, `ev`, then kind-specific fields.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        let _ = write!(
            s,
            "{{\"t\":{},\"site\":{},\"ev\":\"{}\"",
            self.at_us,
            self.site,
            self.kind.name()
        );
        match &self.kind {
            EventKind::TxnStart { txn, ops } => {
                let _ = write!(s, ",\"txn\":{txn},\"ops\":{ops}");
            }
            EventKind::TxnSolicit { txn, item, to, qty } => {
                let _ = write!(
                    s,
                    ",\"txn\":{txn},\"item\":{item},\"to\":{to},\"qty\":{qty}"
                );
            }
            EventKind::TxnDonate { txn, item, to, qty } => {
                let _ = write!(
                    s,
                    ",\"txn\":{txn},\"item\":{item},\"to\":{to},\"qty\":{qty}"
                );
            }
            EventKind::TxnDecline { txn, item } => {
                let _ = write!(s, ",\"txn\":{txn},\"item\":{item}");
            }
            EventKind::TxnAbsorb {
                txn,
                item,
                from,
                qty,
            } => {
                let _ = write!(
                    s,
                    ",\"txn\":{txn},\"item\":{item},\"from\":{from},\"qty\":{qty}"
                );
            }
            EventKind::TxnQueued { txn, item } => {
                let _ = write!(s, ",\"txn\":{txn},\"item\":{item}");
            }
            EventKind::TxnCommit {
                txn,
                latency_us,
                fast_path,
            } => {
                let _ = write!(
                    s,
                    ",\"txn\":{txn},\"latency_us\":{latency_us},\"fast_path\":{fast_path}"
                );
            }
            EventKind::TxnAbort {
                txn,
                reason,
                latency_us,
            } => {
                let _ = write!(
                    s,
                    ",\"txn\":{txn},\"reason\":\"{}\",\"latency_us\":{latency_us}",
                    reason.tag()
                );
            }
            EventKind::PlacementShip { item, to, qty } => {
                let _ = write!(s, ",\"item\":{item},\"to\":{to},\"qty\":{qty}");
            }
            EventKind::VmSend {
                to,
                vseq,
                retransmit,
                datagram,
            } => {
                let _ = write!(
                    s,
                    ",\"to\":{to},\"vseq\":{vseq},\"retransmit\":{retransmit}"
                );
                // Only coalesced traffic has a datagram id; omitting the
                // field otherwise keeps pre-coalescing traces bytewise.
                if *datagram != 0 {
                    let _ = write!(s, ",\"datagram\":{datagram}");
                }
            }
            EventKind::VmAccept {
                from,
                vseq,
                receipt,
                datagram,
            } => {
                let _ = write!(
                    s,
                    ",\"from\":{from},\"vseq\":{vseq},\"receipt\":\"{receipt}\""
                );
                if *datagram != 0 {
                    let _ = write!(s, ",\"datagram\":{datagram}");
                }
            }
            EventKind::VmAck { to, upto, datagram } => {
                let _ = write!(s, ",\"to\":{to},\"upto\":{upto}");
                if *datagram != 0 {
                    let _ = write!(s, ",\"datagram\":{datagram}");
                }
            }
            EventKind::LogForce { stable_len } => {
                let _ = write!(s, ",\"stable_len\":{stable_len}");
            }
            EventKind::Checkpoint { redo_from } => {
                let _ = write!(s, ",\"redo_from\":{redo_from}");
            }
            EventKind::CheckpointFallback {
                bad_generation,
                used_generation,
            } => {
                let _ = write!(
                    s,
                    ",\"bad_generation\":{bad_generation},\"used_generation\":{used_generation}"
                );
            }
            EventKind::Salvage {
                first_bad_lsn,
                records_lost,
                bytes_lost,
            } => {
                let _ = write!(
                    s,
                    ",\"first_bad_lsn\":{first_bad_lsn},\"records_lost\":{records_lost},\"bytes_lost\":{bytes_lost}"
                );
            }
            EventKind::MediaFailure { records_lost } => {
                let _ = write!(s, ",\"records_lost\":{records_lost}");
            }
            EventKind::Crash | EventKind::RecoveryBegin => {}
            EventKind::RecoveryEnd {
                replayed,
                remote_msgs,
            } => {
                let _ = write!(s, ",\"replayed\":{replayed},\"remote_msgs\":{remote_msgs}");
            }
        }
        s.push('}');
        s
    }
}

/// Encode a whole trace: a header line (trace format marker, seed,
/// scenario label) followed by one line per event. Deterministic: same
/// events ⇒ same bytes.
pub fn to_jsonl(scenario: &str, seed: u64, events: &[Event]) -> String {
    let mut out = String::with_capacity(64 + events.len() * 96);
    let _ = writeln!(
        out,
        "{{\"trace\":\"dvp-obs/v1\",\"scenario\":\"{}\",\"seed\":{},\"events\":{}}}",
        scenario,
        seed,
        events.len()
    );
    for e in events {
        out.push_str(&e.to_json());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoding_is_stable() {
        let e = Event {
            at_us: 1500,
            site: 3,
            kind: EventKind::TxnCommit {
                txn: 42,
                latency_us: 500,
                fast_path: false,
            },
        };
        assert_eq!(
            e.to_json(),
            "{\"t\":1500,\"site\":3,\"ev\":\"txn_commit\",\"txn\":42,\"latency_us\":500,\"fast_path\":false}"
        );
    }

    #[test]
    fn jsonl_has_header_and_one_line_per_event() {
        let events = vec![
            Event {
                at_us: 1,
                site: 0,
                kind: EventKind::TxnStart { txn: 7, ops: 1 },
            },
            Event {
                at_us: 9,
                site: 0,
                kind: EventKind::Crash,
            },
        ];
        let s = to_jsonl("unit", 5, &events);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"seed\":5"));
        assert!(lines[0].contains("\"events\":2"));
        assert!(lines[2].ends_with("\"ev\":\"crash\"}"));
    }

    #[test]
    fn datagram_field_is_omitted_when_zero() {
        let bare = Event {
            at_us: 10,
            site: 1,
            kind: EventKind::VmSend {
                to: 2,
                vseq: 5,
                retransmit: false,
                datagram: 0,
            },
        };
        assert_eq!(
            bare.to_json(),
            "{\"t\":10,\"site\":1,\"ev\":\"vm_send\",\"to\":2,\"vseq\":5,\"retransmit\":false}"
        );
        let coalesced = Event {
            at_us: 10,
            site: 1,
            kind: EventKind::VmAck {
                to: 2,
                upto: 5,
                datagram: 3,
            },
        };
        assert_eq!(
            coalesced.to_json(),
            "{\"t\":10,\"site\":1,\"ev\":\"vm_ack\",\"to\":2,\"upto\":5,\"datagram\":3}"
        );
    }

    #[test]
    fn media_event_encoding_is_stable() {
        let fb = Event {
            at_us: 7,
            site: 2,
            kind: EventKind::CheckpointFallback {
                bad_generation: 4,
                used_generation: 3,
            },
        };
        assert_eq!(
            fb.to_json(),
            "{\"t\":7,\"site\":2,\"ev\":\"checkpoint_fallback\",\"bad_generation\":4,\"used_generation\":3}"
        );
        let sv = Event {
            at_us: 8,
            site: 2,
            kind: EventKind::Salvage {
                first_bad_lsn: 12,
                records_lost: 3,
                bytes_lost: 96,
            },
        };
        assert_eq!(
            sv.to_json(),
            "{\"t\":8,\"site\":2,\"ev\":\"salvage\",\"first_bad_lsn\":12,\"records_lost\":3,\"bytes_lost\":96}"
        );
        let mf = Event {
            at_us: 9,
            site: 2,
            kind: EventKind::MediaFailure { records_lost: 3 },
        };
        assert_eq!(
            mf.to_json(),
            "{\"t\":9,\"site\":2,\"ev\":\"media_failure\",\"records_lost\":3}"
        );
    }

    #[test]
    fn txn_extraction() {
        assert_eq!(EventKind::TxnStart { txn: 3, ops: 1 }.txn(), Some(3));
        assert_eq!(EventKind::Crash.txn(), None);
    }
}
