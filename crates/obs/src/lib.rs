//! # dvp-obs — structured observability
//!
//! A zero-cost-when-disabled instrumentation substrate for the DvP
//! workspace:
//!
//! * a **typed event API** ([`Event`] / [`EventKind`]) covering the
//!   transaction lifecycle across sites (solicit → donate → absorb →
//!   commit/abort), the Virtual-Message channel, storage forces and
//!   checkpoints, and crash/recovery phases;
//! * **fixed-bucket histograms** ([`Hist`]) and a named per-phase view
//!   of them ([`PhaseHists`]) replacing ad-hoc `Vec<u64>` latency
//!   collection;
//! * **sinks**: an in-memory buffer for test assertions and a
//!   deterministic JSONL encoding ([`to_jsonl`]) keyed by sim-time and
//!   seed, so traces can be diffed byte-for-byte across runs.
//!
//! ## Zero cost when disabled
//!
//! The [`Obs`] handle is an `Option<Rc<…>>`. Disabled (the default)
//! it is `None`: every `emit` is one inlined branch on a register —
//! no allocation, no formatting, no clock reads. Event payloads are
//! built inside closures ([`Obs::emit_with`]) so argument construction
//! is skipped too. `tests/obs_disabled.rs` pins this: a disabled handle
//! never builds a payload, and a traced-off run buffers nothing.
//!
//! ## One record per fact
//!
//! An event that a layer also counts goes out through [`Obs::record`],
//! which folds it into that layer's stats struct (a [`Fold`]) and then
//! buffers it if tracing is on: the counter *is* the fold of the
//! stream, traced or not.
//!
//! ## Time
//!
//! Events are stamped with simulated time. The simulation kernel calls
//! [`Obs::set_now_us`] before dispatching each event, so layers with no
//! clock of their own (vmsg, storage) still stamp correctly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod hist;

pub use event::{to_jsonl, Event, EventKind};
pub use hist::{Hist, PhaseHists, BUCKETS};

use std::cell::{Cell, RefCell};
use std::rc::Rc;

#[derive(Debug, Default)]
struct Inner {
    now_us: Cell<u64>,
    events: RefCell<Vec<Event>>,
}

/// A stats struct whose counters are folds of the event stream: `fold`
/// adds one event's facts to them and ignores the kinds it does not
/// count. [`Obs::record`] is how such an event is emitted, so a counter
/// and the trace record each fact once and cannot disagree.
pub trait Fold {
    /// Add the facts `kind` records.
    fn fold(&mut self, kind: &EventKind);
}

/// A cheaply-cloneable observability handle. Disabled by default; all
/// clones of an enabled handle share one event buffer.
///
/// Not `Send` on purpose: a cluster (simulation + sites + handle) lives
/// on one thread; only harvested plain-data reports cross threads.
#[derive(Clone, Debug, Default)]
pub struct Obs(Option<Rc<Inner>>);

impl Obs {
    /// The disabled handle: every operation is a no-op behind one branch.
    pub fn disabled() -> Obs {
        Obs(None)
    }

    /// An enabled handle with a fresh shared event buffer.
    pub fn enabled() -> Obs {
        Obs(Some(Rc::default()))
    }

    /// Enabled or disabled, by flag.
    pub fn new(enabled: bool) -> Obs {
        if enabled {
            Obs::enabled()
        } else {
            Obs::disabled()
        }
    }

    /// Is this handle collecting?
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Advance the shared clock (µs of simulated time). Called by the
    /// simulation kernel before each dispatch.
    #[inline]
    pub fn set_now_us(&self, us: u64) {
        if let Some(i) = &self.0 {
            i.now_us.set(us);
        }
    }

    /// Current stamp (0 when disabled).
    pub fn now_us(&self) -> u64 {
        self.0.as_ref().map_or(0, |i| i.now_us.get())
    }

    /// Record an event at the current stamp. Prefer [`Obs::emit_with`]
    /// when building the payload costs anything.
    #[inline]
    pub fn emit(&self, site: u32, kind: EventKind) {
        if let Some(i) = &self.0 {
            i.events.borrow_mut().push(Event {
                at_us: i.now_us.get(),
                site,
                kind,
            });
        }
    }

    /// Fold `kind` into `stats`, then record it at the current stamp. The
    /// fold runs on a disabled handle too: the counters are the run's
    /// numbers, the buffer is only its trace.
    #[inline]
    pub fn record(&self, site: u32, kind: EventKind, stats: &mut impl Fold) {
        stats.fold(&kind);
        self.emit(site, kind);
    }

    /// Record an event, constructing the payload only when enabled.
    #[inline]
    pub fn emit_with(&self, site: u32, f: impl FnOnce() -> EventKind) {
        if let Some(i) = &self.0 {
            i.events.borrow_mut().push(Event {
                at_us: i.now_us.get(),
                site,
                kind: f(),
            });
        }
    }

    /// Snapshot the collected events (empty when disabled).
    pub fn events(&self) -> Vec<Event> {
        self.0
            .as_ref()
            .map_or_else(Vec::new, |i| i.events.borrow().clone())
    }

    /// Drain the collected events (empty when disabled).
    pub fn take(&self) -> Vec<Event> {
        self.0
            .as_ref()
            .map_or_else(Vec::new, |i| std::mem::take(&mut *i.events.borrow_mut()))
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.0.as_ref().map_or(0, |i| i.events.borrow().len())
    }

    /// True when no events are buffered (always true when disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Reconstruct one transaction's timeline: every event carrying `txn`,
/// in stream order (the stream is already time-ordered). This is the
/// span view — a cross-site solicit → donate → absorb → commit line.
pub fn txn_timeline(events: &[Event], txn: u64) -> Vec<&Event> {
    events
        .iter()
        .filter(|e| e.kind.txn() == Some(txn))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_collects_nothing() {
        let o = Obs::disabled();
        o.set_now_us(99);
        o.emit(0, EventKind::Crash);
        o.emit_with(1, || EventKind::TxnStart { txn: 1, ops: 1 });
        assert!(!o.is_enabled());
        assert!(o.is_empty());
        assert_eq!(o.now_us(), 0);
    }

    #[test]
    fn clones_share_one_buffer() {
        let o = Obs::enabled();
        let o2 = o.clone();
        o.set_now_us(10);
        o.emit(0, EventKind::TxnStart { txn: 5, ops: 2 });
        o2.set_now_us(20);
        o2.emit(
            1,
            EventKind::TxnCommit {
                txn: 5,
                latency_us: 10,
                fast_path: true,
            },
        );
        let evs = o.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].at_us, 10);
        assert_eq!(evs[1].at_us, 20);
        assert_eq!(evs[1].site, 1);
    }

    #[test]
    fn timeline_filters_by_txn() {
        let o = Obs::enabled();
        o.emit(0, EventKind::TxnStart { txn: 1, ops: 1 });
        o.emit(0, EventKind::Crash);
        o.emit(
            2,
            EventKind::TxnDonate {
                txn: 1,
                item: 0,
                to: 0,
                qty: 5,
            },
        );
        o.emit(0, EventKind::TxnStart { txn: 2, ops: 1 });
        let evs = o.events();
        let tl = txn_timeline(&evs, 1);
        assert_eq!(tl.len(), 2);
        assert_eq!(tl[0].kind.name(), "txn_start");
        assert_eq!(tl[1].kind.name(), "txn_donate");
    }

    #[test]
    fn record_folds_whether_or_not_it_buffers() {
        struct Crashes(u64);
        impl Fold for Crashes {
            fn fold(&mut self, kind: &EventKind) {
                self.0 += u64::from(*kind == EventKind::Crash);
            }
        }
        let (off, on) = (Obs::disabled(), Obs::enabled());
        let mut n = Crashes(0);
        off.record(0, EventKind::Crash, &mut n);
        on.record(0, EventKind::Crash, &mut n);
        on.record(0, EventKind::RecoveryBegin, &mut n);
        assert_eq!((n.0, off.len(), on.len()), (2, 0, 2));
    }

    #[test]
    fn take_drains() {
        let o = Obs::enabled();
        o.emit(0, EventKind::Crash);
        assert_eq!(o.take().len(), 1);
        assert!(o.is_empty());
    }
}
