//! The DvP site: one node of the distributed system.
//!
//! [`SiteNode`] implements the whole per-site protocol stack:
//!
//! * **Transaction processing** (Section 5): the 7-step general
//!   transaction, the write-only fast path, and implicit Rds transactions
//!   (donations and Vm acceptances);
//! * **Concurrency control** (Section 6): Conc1 (conservative
//!   timestamping, fail-fast) or Conc2 (strict 2PL with FIFO lock queues,
//!   for synchronous-ordered networks);
//! * **Recovery** (Section 7): on crash, volatile state is discarded and
//!   the unforced log tail lost; on restart the site rebuilds fragments,
//!   timestamps, and Vm state purely from its own stable log — no remote
//!   messages needed (independent recovery).
//!
//! ## Full-value reads and leases
//!
//! Section 5's read protocol requires every other site to ship its entire
//! fragment and to certify that it has no outstanding Vms for the item.
//! One subtlety the paper leaves implicit: a donor must keep the item
//! locked until the read decides, otherwise a Vm that was in flight at
//! donation time could land *behind* the donation and its value would
//! escape the read. We pin the donated item with a **read lease** lasting
//! `2 × txn_timeout` (> the requester's decision bound), restoring
//! exactness: a read that commits observed the true total. Reads that
//! cannot achieve quiescence time out and abort — dear reads are the price
//! the paper itself flags ("there is a high overhead in reading the entire
//! value", Section 8).

use crate::clock::{LamportClock, Ts};
use crate::dense::{DenseIdx, ItemInterner, SVec};
use crate::fragment::FragmentStore;
use crate::item::ItemId;
use crate::locks::{Holder, LockTable};
use crate::metrics::{AbortReason, CommitEntry, SiteMetrics};
use crate::policy::{
    ConcMode, Crashpoint, Fanout, HintChaos, Placement, SiteConfig, DEMAND_GAIN, HEADROOM, HINT_TTL,
};
use crate::record::{DbActions, SiteRecord};
use crate::transfer::{Transfer, TransferKind};
use crate::txn::TxnSpec;
use crate::Qty;
use dvp_obs::{EventKind, Obs};
use dvp_simnet::node::{Context, Node, TimerId};
use dvp_simnet::time::{SimDuration, SimTime};
use dvp_simnet::NodeId;
use dvp_storage::codec::crc32;
use dvp_storage::{
    CheckpointSlot, DecodeError, Lsn, Record, RecordReader, RecordWriter, SalvageOutcome,
    StableLog, TornWrite,
};
use dvp_vmsg::{
    ChannelSnapshot, Frame, Hints, Receipt, Seq, VmConfig, VmEndpoint, VmLogOp, WireDatagram,
    HINT_WINDOW_BUDGET,
};
use std::collections::{BTreeMap, VecDeque};

// Timer-tag kinds (top byte).
const TAG_KIND_SHIFT: u64 = 56;
const TAG_TIMEOUT: u64 = 1 << TAG_KIND_SHIFT;
const TAG_RETRANSMIT: u64 = 2 << TAG_KIND_SHIFT;
const TAG_LEASE: u64 = 3 << TAG_KIND_SHIFT;
const TAG_SOLICIT_RETRY: u64 = 4 << TAG_KIND_SHIFT;
const TAG_REBALANCE: u64 = 5 << TAG_KIND_SHIFT;
const TAG_PAYLOAD_MASK: u64 = (1 << TAG_KIND_SHIFT) - 1;

/// Demand floor for targeted hints: one recent solicitation (EWMA
/// contribution `gain * qty`) stays above it for roughly the hint TTL
/// under the per-tick decay, so exactly the peers that asked lately
/// keep receiving updates.
const HINT_DEMAND_FLOOR: f64 = 0.1;
/// Scope-to-budget fanout: each advertised item goes to at most this
/// many peers — the ones soliciting it hardest (ties to the lower peer
/// id). Under uniform access every peer clears the bare demand floor,
/// which would re-spread the per-window hint budget (n-1) ways.
const HINT_FANOUT: usize = 2;

/// `x.ceil() as Qty`, for every `x`, without the libm call `f64::ceil`
/// lowers to on baseline x86-64 (no `roundsd`): truncate, then add one
/// if that dropped a fraction. The adaptive arm rounds a demand figure
/// per donation and per advertised item, so the call showed up in its
/// profile.
fn ceil_qty(x: f64) -> Qty {
    let t = x as Qty;
    t.saturating_add(Qty::from((t as f64) < x))
}

/// Body of a protocol message.
#[derive(Clone, Debug)]
pub enum Body {
    /// A wire datagram: every Vm frame (value transfer or ack) bound for
    /// the receiver at one flush boundary, encoded as a single
    /// length-prefixed frame sequence. Loss, duplication, and
    /// reordering apply to the whole datagram — per-frame Vm semantics
    /// are unaffected because every frame is individually retransmitted
    /// until cumulatively acked.
    VmDatagram(WireDatagram),
    /// A solicitation: "send me value of `item`" (Section 3/5). Requests
    /// are plain messages — never retransmitted, no unique ids needed
    /// (Section 8's optimization note) — because their loss only costs a
    /// timeout abort, never safety.
    Request {
        /// The soliciting transaction (carries its Conc1 timestamp).
        txn: Ts,
        /// Item whose value is needed.
        item: ItemId,
        /// Amount needed (ignored for reads).
        need: Qty,
        /// The requester's *estimated* ongoing demand for the item
        /// (its own EWMA, rounded up). Donors under adaptive placement
        /// refill toward this instead of just the instant `need`;
        /// always 0 when the adaptive subsystem is off, making the
        /// field inert there.
        demand: Qty,
        /// Whether this is a full-value read solicitation.
        read: bool,
    },
    /// The read transaction `txn` has decided (committed or aborted):
    /// donors may drop their read lease on `item` now instead of waiting
    /// for the lease timer. Best-effort — if lost, the lease timer is the
    /// fallback, so safety never depends on this message.
    ReleaseLease {
        /// The read transaction.
        txn: Ts,
        /// The leased item.
        item: ItemId,
    },
}

/// A protocol message: a Lamport counter piggybacked on a body.
#[derive(Clone, Debug)]
pub struct ProtoMsg {
    /// Sender's Lamport counter at send time (Section 7's "bump-up").
    pub lamport: u64,
    /// Payload.
    pub body: Body,
}

impl ProtoMsg {
    /// Deterministic wire-size estimate: 8-byte lamport + 1-byte body tag
    /// header plus the body payload. Vm datagrams use their actual codec
    /// length; plain protocol bodies use fixed-width field
    /// sums. Declared on every send so kernel [`NetStats::wire_bytes`]
    /// compares engines at the same layer as the 2PC baseline.
    ///
    /// [`NetStats::wire_bytes`]: dvp_simnet::stats::NetStats::wire_bytes
    pub fn wire_len(&self) -> u64 {
        9 + self.body.wire_len()
    }
}

impl Body {
    fn wire_len(&self) -> u64 {
        match self {
            Body::VmDatagram(wire) => wire.wire_len() as u64,
            // txn:8 item:4 need:8 demand:8 read:1
            Body::Request { .. } => 8 + 4 + 8 + 8 + 1,
            // txn:8 item:4
            Body::ReleaseLease { .. } => 8 + 4,
        }
    }
}

/// A party waiting for a lock under Conc2.
#[derive(Clone, Debug)]
enum Waiter {
    /// A local transaction still acquiring its access set.
    LocalTxn(Ts),
    /// A remote solicitation to honour once the item frees up.
    Request {
        from: NodeId,
        txn: Ts,
        need: Qty,
        demand: Qty,
        read: bool,
    },
}

/// Volatile state of one in-flight local transaction.
#[derive(Clone, Debug)]
struct ActiveTxn {
    spec: TxnSpec,
    started: SimTime,
    timeout_timer: TimerId,
    /// Items still to lock (Conc2 queueing); empty ⇒ all locks held.
    pending_locks: Vec<ItemId>,
    /// Remaining deficit per solicited item, sorted by item.
    deficits: Vec<(ItemId, Qty)>,
    /// Per read item (sorted): donors not yet heard from.
    read_pending: Vec<(ItemId, Vec<NodeId>)>,
    /// Read items (sorted) waiting for our *own* outstanding Vms to clear.
    reads_blocked_on_self: Vec<ItemId>,
    /// When the first solicited credit arrived (phase breakdown).
    first_credit_at: Option<SimTime>,
    /// Whether this transaction ever solicited (false ⇒ fast path).
    solicited: bool,
    /// Remaining solicitation retries (see `SiteConfig::solicit_retries`).
    retries_left: u32,
    /// Per item (sorted): the single peer a `One`/`Hinted` solicitation
    /// targeted (`true` = hint-selected). Feeds hint-hit accounting and,
    /// on a timeout abort, peer suspicion.
    single_targets: Vec<(ItemId, NodeId, bool)>,
}

impl ActiveTxn {
    fn locks_held(&self) -> bool {
        self.pending_locks.is_empty()
    }

    fn ready(&self) -> bool {
        self.locks_held()
            && self.deficits.iter().all(|&(_, d)| d == 0)
            && self.read_pending.iter().all(|(_, s)| s.is_empty())
            && self.reads_blocked_on_self.is_empty()
    }

    fn new(spec: TxnSpec, started: SimTime, timeout_timer: TimerId) -> Self {
        ActiveTxn {
            spec,
            started,
            timeout_timer,
            pending_locks: Vec::new(),
            deficits: Vec::new(),
            read_pending: Vec::new(),
            reads_blocked_on_self: Vec::new(),
            first_credit_at: None,
            solicited: false,
            retries_left: 0,
            single_targets: Vec::new(),
        }
    }
}

/// A checkpoint image of a site's durable state: fragment values and
/// timestamps plus the Vm channel state. Together with the log suffix
/// after `redo_from`, it reconstructs the site exactly.
#[derive(Clone, Debug)]
pub struct SiteSnapshot {
    frag_vals: Vec<Qty>,
    frag_ts: Vec<Ts>,
    vm: Vec<ChannelSnapshot>,
}

// The checkpoint store keeps slots as checksummed byte images, so the
// snapshot must round-trip through bytes like any log record.
impl Record for SiteSnapshot {
    fn encode(&self, w: &mut RecordWriter<'_>) {
        w.u32(self.frag_vals.len() as u32);
        for &v in &self.frag_vals {
            w.u64(v);
        }
        for &t in &self.frag_ts {
            w.u64(t.0);
        }
        w.u32(self.vm.len() as u32);
        for ch in &self.vm {
            w.u64(ch.peer as u64);
            w.u64(ch.last_created);
            w.u64(ch.acked_out);
            w.u64(ch.accepted_in);
            w.u32(ch.outgoing.len() as u32);
            for (seq, payload) in &ch.outgoing {
                w.u64(*seq);
                w.bytes(payload);
            }
        }
    }

    fn decode(r: &mut RecordReader<'_>) -> Result<Self, DecodeError> {
        // Counts come off the disk: each is bounded by the bytes left
        // before it sizes an allocation.
        let items = r.count(8 + 8)?; // value, timestamp
        let mut frag_vals = Vec::with_capacity(items);
        for _ in 0..items {
            frag_vals.push(r.u64()?);
        }
        let mut frag_ts = Vec::with_capacity(items);
        for _ in 0..items {
            frag_ts.push(Ts(r.u64()?));
        }
        let channels = r.count(4 * 8 + 4)?; // four cursors, outgoing count
        let mut vm = Vec::with_capacity(channels);
        for _ in 0..channels {
            let peer = r.u64()? as NodeId;
            let last_created = r.u64()?;
            let acked_out = r.u64()?;
            let accepted_in = r.u64()?;
            let n_out = r.count(8 + 4)?; // seq, payload length
            let mut outgoing = Vec::with_capacity(n_out);
            for _ in 0..n_out {
                let seq = r.u64()?;
                outgoing.push((seq, r.bytes()?));
            }
            vm.push(ChannelSnapshot {
                peer,
                last_created,
                acked_out,
                accepted_in,
                outgoing,
            });
        }
        Ok(SiteSnapshot {
            frag_vals,
            frag_ts,
            vm,
        })
    }
}

/// One DvP site (a [`Node`] for `dvp-simnet`).
pub struct SiteNode {
    id: NodeId,
    n: usize,
    cfg: SiteConfig,
    clock: LamportClock,
    frags: FragmentStore,
    locks: LockTable,
    vm: VmEndpoint,
    log: StableLog<SiteRecord>,
    /// Crash-surviving checkpoint slot (stable storage, like the log).
    checkpoint: CheckpointSlot<SiteSnapshot>,
    script: Vec<TxnSpec>,
    /// Interner pinning the dense-index contract: every per-item table
    /// below is indexed by the item's sorted rank in the catalog, which
    /// (because `Catalog` assigns contiguous ids) is `item.0` itself —
    /// asserted once at construction. Iterating any table `0..len`
    /// visits items in ascending `ItemId` order, exactly the iteration
    /// order of the `BTreeMap`s these tables replaced.
    items: ItemInterner,
    /// In-flight local transactions, sorted by (monotonic) timestamp.
    /// Timestamps are issued in increasing order, so insertion is a
    /// push-at-end and the `Vec` iterates in the same order the old
    /// `BTreeMap` did.
    active: Vec<(Ts, ActiveTxn)>,
    /// Conc2 FIFO lock queues, per item.
    lock_queue: Vec<VecDeque<Waiter>>,
    /// Outgoing unacked Vms per item (read-donation gate).
    outstanding_out: Vec<u64>,
    /// Items with a non-zero `outstanding_out` slot.
    outstanding_items: usize,
    /// The live lease-expiry timer per item. A firing that does not match
    /// the stored id is stale (the lease it was armed for was released
    /// early and a newer lease may be in force) and must be ignored.
    lease_timers: Vec<Option<TimerId>>,
    /// Map from outgoing Vm `(peer, seq)` to the item it carries.
    vm_item: BTreeMap<(NodeId, Seq), ItemId>,
    /// Initial per-item quota (the rebalancer's target level).
    initial_quotas: Vec<Qty>,
    /// Last site to solicit each item — where demand lives (the
    /// reactive fixed-threshold rebalancer's targeting signal).
    demand_hint: Vec<Option<NodeId>>,
    /// Adaptive placement: this site's own per-item demand EWMA, fed by
    /// local transaction demands and timeout deficits. Volatile.
    own_demand: Vec<f64>,
    /// Adaptive placement: per-(item, peer) solicited-demand EWMA, fed
    /// by incoming requests (the demand-driven rebalancer's targeting
    /// and sizing signal). Volatile. Indexed `item.0 * n + peer`
    /// (item-major), so a full scan visits `(item, peer)` pairs in the
    /// lexicographic order the old `BTreeMap<(ItemId, NodeId), _>` used.
    peer_demand: Vec<f64>,
    /// Adaptive placement: advertised-surplus hints received from peers,
    /// with their arrival instant (expired by `hint_ttl`). Volatile
    /// gossip — never consulted by anything safety-bearing. Indexed
    /// `item.0 * n + peer` like `peer_demand`.
    hint_table: Vec<Option<(Qty, SimTime)>>,
    /// Adaptive placement: this site's trust in hint gossip, an EWMA in
    /// `[0, 1]` fed by hinted-solicitation outcomes (a hit raises it, a
    /// timeout on a hinted target lowers it). It scales the effective
    /// hint TTL — when hints keep lying (fast demand drift), borderline-
    /// stale entries expire sooner and solicitation falls back to
    /// broadcast instead of burning timeouts on dead ends. Volatile.
    hint_confidence: f64,
    /// Sim-instant (µs) of the last hint-table refresh, `None` before
    /// the first. Recomputing the per-peer gossip lists costs an
    /// O(items · peers) sweep, so it runs at most once per quarter hint
    /// TTL instead of on every flush — well inside the endpoint's
    /// dedupe window, so the wire never sees the difference. Volatile.
    last_hint_refresh: Option<u64>,
    /// The rebalancer's current top (item, peer) candidate and how many
    /// consecutive ticks it has stayed on top (the persistence gate).
    /// Volatile.
    rebalance_candidate: Option<(ItemId, NodeId, u32)>,
    /// Peers suspected unresponsive after an unanswered single-target
    /// solicitation, until the stored instant. Any message from the
    /// peer clears it. Volatile.
    suspect_until: Vec<Option<SimTime>>,
    /// Peers with a `Some` slot in `suspect_until` (fast emptiness test).
    suspect_count: usize,
    /// Round-robin pointer for `Fanout::One`.
    rr: usize,
    retransmit_armed: bool,
    /// A periodic rebalance timer is pending. The timer is idle-aware:
    /// ticks re-arm only while the site has local activity, and arrivals
    /// or messages re-arm it, so a drained cluster reaches quiescence.
    rebalance_armed: bool,
    /// Times the armed crashpoint has been reached (survives crashes so
    /// `crash_on_hit` counts protocol events, not boots).
    crashpoint_hits: u32,
    /// The armed crashpoint already fired (one-shot — recovery would
    /// otherwise re-enter the same code path and crash-loop forever).
    crashpoint_tripped: bool,
    /// A crashpoint fired in the current callback: the kernel will crash
    /// us when it returns, so no further durable effects may happen.
    crash_pending: bool,
    /// Sticky media-failure quarantine: salvage dropped committed effects
    /// that no checkpoint generation covers, so this site's durable state
    /// is wrong by an unknown-but-declared amount. It stays inert forever
    /// — rejoining would reuse Vm sequence numbers and resurrect value
    /// its peers already absorbed.
    media_failed: bool,
    /// One-shot: the armed bit-rot injection already flipped a byte.
    bit_rot_done: bool,
    /// One-shot: the armed checkpoint-slot corruption already fired.
    ckpt_rot_done: bool,
    /// Experiment instrumentation (omniscient: survives crashes).
    metrics: SiteMetrics,
    /// Structured trace handle (disabled by default; survives crashes).
    obs: Obs,
    /// Records redone by the last recovery scan (trace reporting).
    last_replayed: u64,
    /// Durable records the log still retains *below* the checkpoint's
    /// redo point (two-generation retention keeps the previous window).
    /// `stable_len() - redo_covered` is the un-checkpointed suffix the
    /// checkpoint trigger reads on every flush; set when a checkpoint
    /// truncates and recounted by every recovery scan.
    redo_covered: usize,
    /// Reusable flush buffers: the endpoint's queues are drained into
    /// these (append + drain) so the steady state allocates nothing.
    completed_scratch: Vec<(NodeId, Seq)>,
    datagram_scratch: Vec<(NodeId, WireDatagram)>,
    freed_scratch: Vec<ItemId>,
    /// Reusable per-dispatch scratch (the steady-state transaction path
    /// must not allocate): access sets, net deltas, demands, released
    /// locks. Taken with `mem::take` for the duration of a call and
    /// restored before returning, so reentrant dispatches (Conc2 waiter
    /// wake-ups committing nested transactions) fall back to a fresh
    /// allocation instead of corrupting the outer borrow.
    access_scratch: Vec<ItemId>,
    deltas_scratch: Vec<(ItemId, i64)>,
    demands_scratch: Vec<(ItemId, Qty)>,
    deficits_scratch: Vec<(ItemId, Qty)>,
    released_scratch: Vec<ItemId>,
    /// Flush-path scratch: hint recompute buffers, owed-ack peer list,
    /// and the solicitation planner's deficit/read work lists — all
    /// retained so the hinted fast path allocates nothing per dispatch.
    hint_refresh_scratch: Vec<(u32, u64)>,
    peer_hint_scratch: Vec<(u32, u64)>,
    hint_fanout_scratch: Vec<[NodeId; HINT_FANOUT]>,
    owed_scratch: Vec<NodeId>,
    solicit_deficits_scratch: Vec<(ItemId, Qty)>,
    solicit_reads_scratch: Vec<ItemId>,
    /// Op list lent to each `Rds` record while it is appended.
    vm_ops_scratch: Vec<VmLogOp>,
    /// Group commit: a record that must be durable before this dispatch's
    /// frames leave was appended, so the flush boundary owes one force.
    /// Stays `false` across ack-only dispatches — lazy `AckObserved`
    /// notes ride along with the next real force.
    needs_flush: bool,
}

impl SiteNode {
    /// Build a site.
    ///
    /// * `id`/`n`: this site's id and the cluster size.
    /// * `quotas[i]`: this site's initial fragment of item `i` (the data-
    ///   value partitioning). Logged as genesis records.
    /// * `script`: transactions this site will run, indexed by the
    ///   external-event tag the cluster scheduler uses.
    pub fn new(
        id: NodeId,
        n: usize,
        cfg: SiteConfig,
        quotas: Vec<Qty>,
        script: Vec<TxnSpec>,
    ) -> Self {
        let mut log = StableLog::new();
        let mut frags = FragmentStore::new(quotas.len());
        for (i, &q) in quotas.iter().enumerate() {
            let item = ItemId(i as u32);
            log.append(SiteRecord::Init { item, qty: q });
            frags.credit(item, q);
        }
        log.force();
        let items = ItemInterner::from_universe((0..quotas.len()).map(|i| ItemId(i as u32)));
        // The dense-index contract: because the catalog assigns contiguous
        // ids, the interner's sorted-rank assignment is the identity, so
        // the hot paths below may index tables with `item.0` directly.
        debug_assert!(
            items.iter().all(|(idx, key)| idx.raw() == key.0),
            "catalog ids must intern to identity indices"
        );
        let k = quotas.len();
        SiteNode {
            id,
            n,
            cfg,
            clock: LamportClock::new(id),
            frags,
            locks: LockTable::new(),
            vm: VmEndpoint::new(id, Self::vm_config(&cfg)),
            log,
            checkpoint: CheckpointSlot::new(),
            script,
            items,
            active: Vec::new(),
            initial_quotas: quotas,
            demand_hint: vec![None; k],
            own_demand: vec![0.0; k],
            peer_demand: vec![0.0; k * n],
            hint_table: vec![None; k * n],
            hint_confidence: 1.0,
            last_hint_refresh: None,
            rebalance_candidate: None,
            suspect_until: vec![None; n],
            suspect_count: 0,
            lock_queue: vec![VecDeque::new(); k],
            outstanding_out: vec![0; k],
            outstanding_items: 0,
            lease_timers: vec![None; k],
            vm_item: BTreeMap::new(),
            rr: (id + 1) % n.max(1),
            retransmit_armed: false,
            rebalance_armed: false,
            crashpoint_hits: 0,
            crashpoint_tripped: false,
            crash_pending: false,
            media_failed: false,
            bit_rot_done: false,
            ckpt_rot_done: false,
            metrics: SiteMetrics::default(),
            obs: Obs::disabled(),
            last_replayed: 0,
            redo_covered: 0,
            completed_scratch: Vec::new(),
            datagram_scratch: Vec::new(),
            freed_scratch: Vec::new(),
            access_scratch: Vec::new(),
            deltas_scratch: Vec::new(),
            demands_scratch: Vec::new(),
            deficits_scratch: Vec::new(),
            released_scratch: Vec::new(),
            hint_refresh_scratch: Vec::new(),
            peer_hint_scratch: Vec::new(),
            hint_fanout_scratch: Vec::new(),
            owed_scratch: Vec::new(),
            solicit_deficits_scratch: Vec::new(),
            solicit_reads_scratch: Vec::new(),
            vm_ops_scratch: Vec::new(),
            needs_flush: false,
        }
    }

    /// Dense table index of `item` — the interner's sorted-rank
    /// assignment, which is the identity for the contiguous catalog
    /// (asserted in [`SiteNode::new`]).
    #[inline]
    fn di(item: ItemId) -> usize {
        item.0 as usize
    }

    // ---- dense `active` table (sorted by monotonic Ts) -------------------

    fn active_get(&self, ts: Ts) -> Option<&ActiveTxn> {
        self.active
            .binary_search_by_key(&ts, |e| e.0)
            .ok()
            .map(|i| &self.active[i].1)
    }

    fn active_get_mut(&mut self, ts: Ts) -> Option<&mut ActiveTxn> {
        match self.active.binary_search_by_key(&ts, |e| e.0) {
            Ok(i) => Some(&mut self.active[i].1),
            Err(_) => None,
        }
    }

    fn active_remove(&mut self, ts: Ts) -> Option<ActiveTxn> {
        match self.active.binary_search_by_key(&ts, |e| e.0) {
            Ok(i) => Some(self.active.remove(i).1),
            Err(_) => None,
        }
    }

    fn active_insert(&mut self, ts: Ts, txn: ActiveTxn) {
        // Timestamps are monotonic per site, so this is a push-at-end in
        // the steady state; the binary search keeps the table sorted even
        // if an interleaving ever violates that.
        match self.active.binary_search_by_key(&ts, |e| e.0) {
            Ok(_) => debug_assert!(false, "duplicate active txn {ts:?}"),
            Err(i) => self.active.insert(i, (ts, txn)),
        }
    }

    /// The endpoint-level Vm config: the site's `vm` knobs with
    /// datagram coalescing forced on — a site only ever speaks
    /// [`Body::VmDatagram`] (the endpoint's own default keeps that layer
    /// usable standalone with bare frames).
    fn vm_config(cfg: &SiteConfig) -> VmConfig {
        VmConfig {
            coalesce: true,
            ..cfg.vm
        }
    }

    /// Attach a trace handle, shared down into the Vm endpoint and the
    /// stable log so every layer stamps events on the same clock.
    pub fn set_obs(&mut self, obs: Obs) {
        self.vm.set_obs(obs.clone());
        self.log.set_obs(obs.clone(), self.id as u32);
        self.obs = obs;
    }

    // ---- public inspection (harness / audit) ----------------------------

    /// This site's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Fragment store (local portions of every item).
    pub fn fragments(&self) -> &FragmentStore {
        &self.frags
    }

    /// The Vm endpoint (for the conservation auditor).
    pub fn vm_endpoint(&self) -> &VmEndpoint {
        &self.vm
    }

    /// The stable log.
    pub fn log(&self) -> &StableLog<SiteRecord> {
        &self.log
    }

    /// Instrumentation counters.
    pub fn metrics(&self) -> &SiteMetrics {
        &self.metrics
    }

    /// The interner backing the dense per-item tables (see
    /// [`crate::dense::Interner`] for the index-stability contract).
    pub fn item_interner(&self) -> &ItemInterner {
        &self.items
    }

    /// Number of in-flight local transactions.
    pub fn active_txns(&self) -> usize {
        self.active.len()
    }

    /// The site configuration.
    pub fn config(&self) -> &SiteConfig {
        &self.cfg
    }

    /// Whether this site is quarantined after unrecoverable media damage
    /// (see [`SiteMetrics::media_failures`]).
    pub fn media_failed(&self) -> bool {
        self.media_failed
    }

    // ---- helpers ---------------------------------------------------------

    /// Evaluate an armed crashpoint at a named protocol instant. Returns
    /// `true` when it fires: the caller must return immediately without
    /// performing the step that follows the crash site. The kernel applies
    /// the crash when the current callback finishes; `crash_pending` guards
    /// the durable operations that could otherwise run in between.
    fn crashpoint(&mut self, ctx: &mut Context<'_, ProtoMsg>, point: Crashpoint) -> bool {
        if !self.crashpoint_armed(point) {
            return false;
        }
        self.crashpoint_hits += 1;
        if self.crashpoint_hits < self.cfg.inject.crash_on_hit.max(1) {
            return false;
        }
        self.crashpoint_tripped = true;
        self.crash_pending = true;
        self.metrics.crashpoint_trips += 1;
        ctx.crash_self();
        true
    }

    /// Whether `point` is armed at this site and has not fired yet — the
    /// paths that must force eagerly to honour a crashpoint's contract
    /// ask this before reaching it.
    fn crashpoint_armed(&self, point: Crashpoint) -> bool {
        self.cfg.inject.crashpoint == Some(point)
            && self.id == self.cfg.inject.victim
            && !self.crashpoint_tripped
    }

    fn others(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.n).filter(move |&s| s != self.id)
    }

    fn send(&mut self, ctx: &mut Context<'_, ProtoMsg>, to: NodeId, body: Body) {
        let lamport = self.clock.counter();
        let msg = ProtoMsg { lamport, body };
        let bytes = msg.wire_len();
        ctx.send_frames_bytes(to, msg, 1, bytes);
    }

    // ---- adaptive placement ----------------------------------------------

    /// Feed the own-demand estimator with one observed local need.
    fn note_own_demand(&mut self, item: ItemId, qty: Qty) {
        if !self.cfg.placement.is_adaptive() {
            return;
        }
        let e = &mut self.own_demand[Self::di(item)];
        *e += DEMAND_GAIN * (qty as f64 - *e);
    }

    /// Feed the per-peer solicited-demand estimator (incoming requests).
    fn note_peer_demand(&mut self, item: ItemId, from: NodeId, qty: Qty) {
        if !self.cfg.placement.is_adaptive() {
            return;
        }
        let e = &mut self.peer_demand[Self::di(item) * self.n + from];
        *e += DEMAND_GAIN * (qty as f64 - *e);
    }

    /// Fragment value beyond the headroom this site keeps for its own
    /// predicted demand — what it can advertise, predictively donate, or
    /// proactively rebalance away.
    fn spare(&self, item: ItemId) -> Qty {
        let have = self.frags.get(item);
        let own = self.own_demand[Self::di(item)];
        have.saturating_sub(ceil_qty(HEADROOM * own))
    }

    /// The demand figure a solicitation advertises: the requester's own
    /// EWMA estimate, at least the instant need. Zero (inert) when the
    /// adaptive subsystem is off.
    fn advertised_demand(&self, item: ItemId, need: Qty) -> Qty {
        if !self.cfg.placement.is_adaptive() {
            return 0;
        }
        let e = self.own_demand[Self::di(item)];
        need.max(ceil_qty(e))
    }

    /// Recompute the availability hints offered to outgoing datagrams:
    /// the top few items by spareable surplus, then targeted per
    /// peer by observed demand — a peer only receives the hints for
    /// items it has recently solicited (its `peer_demand` estimate is
    /// above the noise floor), because a surplus figure for an item a
    /// peer never asks about is gossip it can never act on. Advisory —
    /// a peer believing a stale figure only wastes a solicitation.
    fn refresh_hints(&mut self) {
        let mut hints = std::mem::take(&mut self.hint_refresh_scratch);
        hints.clear();
        for idx in 0..self.initial_quotas.len() {
            let item = ItemId(idx as u32);
            let s = self.spare(item);
            if s > 0 {
                hints.push((item.0, s));
            }
        }
        hints.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
        // Scope-to-budget matching: the endpoint's gate admits only
        // `HINT_WINDOW_BUDGET` entries per resend window, so gossiping a
        // longer list spreads that budget across more (item, peer) pairs
        // than it can keep fresh — every table entry ends up older than
        // the TTL and the hinted path starves. Advertise only the few
        // best surpluses (and, below, only to the couple of peers most
        // likely to act) so each advertised pair is re-gossiped well
        // inside the TTL.
        hints.truncate(HINT_WINDOW_BUDGET as usize);
        // Second half of scope-to-budget: each advertised item goes only
        // to its `HINT_FANOUT` hardest-soliciting peers above the demand
        // floor. Rank once per item — one O(peers) pass filling a top-k
        // insertion array (ascending peer order, strictly-greater
        // replacement, so ties keep the lower id) — instead of re-ranking
        // the whole peer set for every (peer, item) pair.
        let mut fanout = std::mem::take(&mut self.hint_fanout_scratch);
        fanout.clear();
        for &(item, _) in &hints {
            let base = item as usize * self.n;
            let mut top = [usize::MAX; HINT_FANOUT];
            let mut top_d = [0.0f64; HINT_FANOUT];
            for q in 0..self.n {
                if q == self.id {
                    continue;
                }
                let mut cand = (self.peer_demand[base + q], q);
                if cand.0 < HINT_DEMAND_FLOOR {
                    continue;
                }
                for k in 0..HINT_FANOUT {
                    if top[k] == usize::MAX || cand.0 > top_d[k] {
                        std::mem::swap(&mut cand.0, &mut top_d[k]);
                        std::mem::swap(&mut cand.1, &mut top[k]);
                        if cand.1 == usize::MAX {
                            break;
                        }
                    }
                }
            }
            fanout.push(top);
        }
        let mut filtered = std::mem::take(&mut self.peer_hint_scratch);
        for peer in 0..self.n {
            if peer == self.id {
                continue;
            }
            filtered.clear();
            filtered.extend(
                hints
                    .iter()
                    .zip(&fanout)
                    .filter(|(_, top)| top.contains(&peer))
                    .map(|(&h, _)| h),
            );
            self.vm.set_peer_hints(peer, &filtered);
        }
        self.peer_hint_scratch = filtered;
        self.hint_fanout_scratch = fanout;
        self.hint_refresh_scratch = hints;
    }

    /// Record arriving availability hints (through the chaos knob, for
    /// the safety-inertness proptests).
    fn ingest_hints(&mut self, from: NodeId, hints: &Hints, now: SimTime) {
        let chaos = match self.cfg.placement.adaptive_params() {
            Some(a) => a.chaos,
            None => return, // subsystem off: arriving hints are ignored
        };
        if chaos == HintChaos::Drop {
            return;
        }
        let reps = if chaos == HintChaos::Duplicate { 2 } else { 1 };
        for _ in 0..reps {
            for (item, surplus) in hints.iter() {
                // Hints arrive off the wire: an id outside the catalog
                // has no table slot (and could never match a
                // solicitation), so it is dropped rather than trusted.
                if (item as usize) < self.initial_quotas.len() {
                    self.hint_table[item as usize * self.n + from] = Some((surplus, now));
                }
            }
        }
    }

    /// Feed the hint-trust estimator with one hinted-solicitation
    /// outcome: the hinted donor either delivered (`true`) or let the
    /// transaction time out (`false`).
    fn note_hint_outcome(&mut self, hit: bool) {
        let target = if hit { 1.0 } else { 0.0 };
        self.hint_confidence += DEMAND_GAIN * (target - self.hint_confidence);
    }

    /// The hint TTL scaled by observed hint trust: full `HINT_TTL` while
    /// hints keep paying off, down to a quarter of it when they keep
    /// lying (fast drift makes old gossip worthless sooner).
    fn effective_hint_ttl_us(&self) -> u64 {
        let scale = self.hint_confidence.clamp(0.25, 1.0);
        (HINT_TTL.as_micros() as f64 * scale) as u64
    }

    /// The peer with the highest fresh advertised surplus for `item`
    /// (suspects and expired hints excluded). `None` ⇒ the `Hinted`
    /// fan-out falls back to broadcast.
    fn hinted_target(&self, item: ItemId, need: Qty, now: SimTime) -> Option<(NodeId, Qty)> {
        let a = self.cfg.placement.adaptive_params()?;
        if a.chaos == HintChaos::Stale {
            return None; // chaos: every hint is treated as expired
        }
        let ttl_us = self.effective_hint_ttl_us();
        let mut best: Option<(NodeId, Qty)> = None;
        let base = Self::di(item) * self.n;
        for peer in 0..self.n {
            let (surplus, at) = match self.hint_table[base + peer] {
                Some(h) => h,
                None => continue,
            };
            // A hint below the need would aim the whole solicitation at a
            // donor that cannot cover it — under Conc1's silent declines
            // that burns the full timeout, so such hints don't qualify.
            if peer == self.id || surplus < need.max(1) {
                continue;
            }
            if now.since(at).as_micros() > ttl_us || self.is_suspect(peer, now) {
                continue;
            }
            if best.is_none_or(|(_, s)| surplus > s) {
                best = Some((peer, surplus));
            }
        }
        best
    }

    /// Whether `peer` is currently suspected unresponsive.
    fn is_suspect(&self, peer: NodeId, now: SimTime) -> bool {
        self.suspect_until[peer].is_some_and(|until| now < until)
    }

    /// A record that must be durable before any frame of this dispatch
    /// leaves was just appended: the flush boundary owes one force.
    fn force_record(&mut self) {
        self.needs_flush = true;
    }

    /// Drain every queued Vm frame into per-peer wire datagrams and put
    /// them on the wire.
    fn send_vm_datagrams(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        let mut dgrams = std::mem::take(&mut self.datagram_scratch);
        self.vm
            .drain_datagrams_into(ctx.now().micros(), &mut dgrams);
        for (to, wire) in dgrams.drain(..) {
            let frames = u64::from(wire.frame_count());
            let lamport = self.clock.counter();
            let msg = ProtoMsg {
                lamport,
                body: Body::VmDatagram(wire),
            };
            let bytes = msg.wire_len();
            ctx.send_frames_bytes(to, msg, frames, bytes);
        }
        self.datagram_scratch = dgrams;
    }

    /// Drain the Vm outbox onto the wire, account completed Vm
    /// lifecycles, and keep the retransmit timer armed while needed.
    fn flush_vm(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        if self.crash_pending {
            return;
        }
        // Group commit: a single force here hardens every record appended
        // while handling the current event — *before* any frame leaves the
        // site, so the paper's force-before-send discipline holds per
        // datagram. The force runs only when the dispatch appended a
        // record that needs it (`needs_flush`); ack-only dispatches stay
        // lazy.
        if self.needs_flush {
            self.log.force_if_dirty();
            self.needs_flush = false;
        }
        if self.cfg.placement.is_adaptive() {
            // Refresh the availability gossip riding whatever leaves now
            // (free: hints piggyback on datagrams that exist anyway) —
            // but at most once per hint TTL: the endpoint's gate decides
            // what actually goes on the wire, so recomputing the per-peer
            // lists any faster changes no bytes (verified identical
            // wire/hint counts at quarter-TTL cadence) and only costs
            // O(items · peers) sweeps per event.
            let now_us = ctx.now().micros();
            if self
                .last_hint_refresh
                .is_none_or(|t| now_us.saturating_sub(t) >= HINT_TTL.as_micros())
            {
                self.refresh_hints();
                self.last_hint_refresh = Some(now_us);
            }
        }
        // One wire datagram per peer per flush: every queued frame toward
        // a peer rides a single transmission, with owed acks folded in.
        self.send_vm_datagrams(ctx);
        // Acks still owed found no data to piggyback on: they leave right
        // now, in this same dispatch, as ack-only datagrams — acks from
        // one dispatch dedup into one cumulative frame per peer, and ack
        // timing (and with it window advance and borderline txn timeouts)
        // never depends on how much reverse traffic there is.
        let mut owed = std::mem::take(&mut self.owed_scratch);
        owed.clear();
        owed.extend(self.vm.owed_ack_peers());
        if !owed.is_empty() {
            for &peer in &owed {
                self.vm.flush_owed_ack(peer);
            }
            self.send_vm_datagrams(ctx);
        }
        self.owed_scratch = owed;
        let mut completed = std::mem::take(&mut self.completed_scratch);
        self.vm.drain_completed_into(&mut completed);
        let mut freed_items = std::mem::take(&mut self.freed_scratch);
        freed_items.clear();
        for (peer, seq) in completed.drain(..) {
            if let Some(item) = self.vm_item.remove(&(peer, seq)) {
                let c = &mut self.outstanding_out[Self::di(item)];
                if *c > 0 {
                    *c -= 1;
                    if *c == 0 {
                        self.outstanding_items -= 1;
                        freed_items.push(item);
                    }
                }
                // Lazy durable note so recovery forgets completed Vms too.
                let op = VmLogOp::AckObserved { to: peer, seq };
                self.append_rds(Ts::ZERO, DbActions::new(), op);
            }
        }
        self.completed_scratch = completed;
        for &item in &freed_items {
            self.unblock_reads(item, ctx);
        }
        self.freed_scratch = freed_items;
        if !self.retransmit_armed && self.vm.has_outstanding() {
            ctx.set_timer(self.cfg.retransmit_every, TAG_RETRANSMIT);
            self.retransmit_armed = true;
        }
        self.maybe_checkpoint(ctx);
    }

    /// Append the `[database-actions, message-sequence]` record of a
    /// one-op redistribution step. The log encodes at append and keeps no
    /// record, so the op list is a retained scratch lent to the record
    /// for the duration of the call: the step allocates nothing.
    fn append_rds(&mut self, txn: Ts, actions: DbActions, op: VmLogOp) {
        let mut vm_ops = std::mem::take(&mut self.vm_ops_scratch);
        vm_ops.push(op);
        let rec = SiteRecord::Rds {
            txn,
            actions,
            vm_ops,
        };
        self.log.append(&rec);
        if let SiteRecord::Rds { mut vm_ops, .. } = rec {
            vm_ops.clear();
            self.vm_ops_scratch = vm_ops;
        }
    }

    /// Take a checkpoint when the stable log has grown past the
    /// configured bound: snapshot durable state, remember the redo point,
    /// truncate the log prefix.
    fn maybe_checkpoint(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        if self.crash_pending || self.media_failed {
            return;
        }
        let limit = match self.cfg.checkpoint_every {
            Some(l) => l,
            None => return,
        };
        // Trigger on the *un-checkpointed* suffix, not total log length:
        // two-generation retention keeps the whole previous window in the
        // log (see the `redo_floor` truncation below), so a total-length
        // trigger would fire on every flush once the first window filled.
        if self.log.stable_len() - self.redo_covered < limit {
            return;
        }
        // Only *forced* state may enter the snapshot; force first so the
        // snapshot and the redo point agree.
        self.log.force();
        let redo_from = self.log.next_lsn();
        self.checkpoint.install(
            redo_from,
            SiteSnapshot {
                frag_vals: self.frags.snapshot(),
                frag_ts: self.frags.ts_snapshot(),
                vm: self.vm.snapshot(),
            },
        );
        if self.crashpoint(ctx, Crashpoint::MidCheckpoint) {
            // Crash between installing the checkpoint and truncating the
            // log: the snapshotted records are still in the log, and
            // recovery must not redo them (the LSN skip below).
            return;
        }
        // Retain back to the *older* generation's redo point, not the new
        // one's: if the slot just written rots, recovery falls back a
        // generation and must still find that generation's redo suffix in
        // the log.
        self.log.truncate_before(self.checkpoint.redo_floor());
        self.redo_covered = self.log.stable_len();
        self.metrics.checkpoints += 1;
        self.obs
            .emit_with(self.id as u32, || EventKind::Checkpoint {
                redo_from: redo_from.0,
            });
    }

    // ---- transaction lifecycle -------------------------------------------

    fn begin_txn(&mut self, spec: TxnSpec, ctx: &mut Context<'_, ProtoMsg>) {
        let ts = self.clock.tick_at(ctx.now().micros());
        let timer = ctx.set_timer(self.cfg.txn_timeout, TAG_TIMEOUT | ts.0);
        debug_assert!(
            ts.0 <= TAG_PAYLOAD_MASK,
            "timestamp exceeds timer-tag space"
        );
        let mut items = std::mem::take(&mut self.access_scratch);
        spec.access_set_into(&mut items);
        self.obs.emit_with(self.id as u32, || EventKind::TxnStart {
            txn: ts.0,
            ops: items.len() as u32,
        });
        let mut txn = ActiveTxn::new(spec, ctx.now(), timer);

        match self.cfg.conc {
            ConcMode::Conc1 => {
                // Step 1: all locks atomically, with the TS(t) > TS(d) check.
                let mut conflict = None;
                for &item in items.iter() {
                    if self.locks.is_locked(item) {
                        conflict = Some(AbortReason::LockConflict);
                        break;
                    }
                    if ts <= self.frags.ts(item) {
                        conflict = Some(AbortReason::TsConflict);
                        break;
                    }
                }
                if let Some(reason) = conflict {
                    self.access_scratch = items;
                    self.finish_abort_unstarted(ts, txn, reason, ctx);
                    return;
                }
                for &item in items.iter() {
                    self.locks
                        .try_lock(item, Holder::Txn(ts))
                        .expect("checked free above");
                    self.frags.bump_ts(item, ts);
                }
                self.access_scratch = items;
                self.active_insert(ts, txn);
                self.locks_granted(ts, ctx);
            }
            ConcMode::Conc2 => {
                // Incremental ordered acquisition with FIFO queues.
                let mut pending: Vec<ItemId> = Vec::new();
                for (idx, &item) in items.iter().enumerate() {
                    match self.locks.try_lock(item, Holder::Txn(ts)) {
                        Ok(()) => {}
                        Err(_) => {
                            self.lock_queue[Self::di(item)].push_back(Waiter::LocalTxn(ts));
                            self.obs.emit_with(self.id as u32, || EventKind::TxnQueued {
                                txn: ts.0,
                                item: item.0,
                            });
                            pending = items[idx..].to_vec();
                            break;
                        }
                    }
                }
                self.access_scratch = items;
                txn.pending_locks = pending;
                let held = txn.locks_held();
                self.active_insert(ts, txn);
                if held {
                    self.locks_granted(ts, ctx);
                }
            }
        }
    }

    /// Abort a transaction that never got registered in `active`.
    fn finish_abort_unstarted(
        &mut self,
        ts: Ts,
        txn: ActiveTxn,
        reason: AbortReason,
        ctx: &mut Context<'_, ProtoMsg>,
    ) {
        ctx.cancel_timer(txn.timeout_timer);
        let latency = ctx.now().since(txn.started).as_micros();
        self.metrics.record_abort(reason, latency);
        self.obs.emit_with(self.id as u32, || EventKind::TxnAbort {
            txn: ts.0,
            reason: reason.tag(),
            latency_us: latency,
        });
    }

    /// All local locks are held: enter the solicitation phase (Step 2) or
    /// commit immediately on the write-only fast path.
    fn locks_granted(&mut self, ts: Ts, ctx: &mut Context<'_, ProtoMsg>) {
        let mut demands = std::mem::take(&mut self.demands_scratch);
        let reads = {
            let t = self.active_get(ts).expect("active");
            t.spec.demands_into(&mut demands);
            // Empty for write-only transactions (no allocation); read
            // transactions are off the fast path and may allocate.
            t.spec.reads()
        };

        // Deficits after counting what is already local.
        let mut deficits = std::mem::take(&mut self.deficits_scratch);
        deficits.clear();
        for &(item, demand) in demands.iter() {
            // Every local demand feeds the estimator, satisfied or not —
            // a hot site with enough local value still wants the
            // rebalancer (and its own headroom) to keep it stocked.
            self.note_own_demand(item, demand);
            let have = self.frags.get(item);
            let deficit = demand.saturating_sub(have);
            if deficit > 0 {
                deficits.push((item, deficit));
            }
        }
        self.demands_scratch = demands;

        let mut read_pending: Vec<(ItemId, Vec<NodeId>)> = Vec::new();
        let mut blocked: Vec<ItemId> = Vec::new();
        for item in reads {
            if self.outstanding_out[Self::di(item)] > 0 {
                // Our own outgoing Vms must complete before the read can be
                // exact (they would double-count or escape otherwise).
                blocked.push(item);
            } else {
                read_pending.push((item, self.others().collect()));
            }
        }

        let ready = {
            let t = self.active_get_mut(ts).expect("active");
            t.deficits.clear();
            t.deficits.extend_from_slice(&deficits);
            t.read_pending = read_pending;
            t.reads_blocked_on_self = blocked;
            t.ready()
        };
        self.deficits_scratch = deficits;

        if ready {
            self.commit_txn(ts, ctx);
            return;
        }
        self.solicit(ts, ctx);
    }

    /// Step 2: send solicitations for every unmet need, arming the
    /// retry schedule on the first round.
    fn solicit(&mut self, ts: Ts, ctx: &mut Context<'_, ProtoMsg>) {
        let retries = self.cfg.solicit_retries;
        let first_round = {
            let t = self.active_get_mut(ts).expect("active");
            let first = !t.solicited;
            t.solicited = true;
            if first {
                t.retries_left = retries;
            }
            first
        };
        if first_round && self.cfg.solicit_retries > 0 {
            // Space the retries evenly inside the timeout window so the
            // decision bound is untouched.
            let gap = SimDuration::micros(
                self.cfg.txn_timeout.as_micros() / (self.cfg.solicit_retries as u64 + 1),
            );
            ctx.set_timer(gap, TAG_SOLICIT_RETRY | ts.0);
        }
        self.send_solicitations(ts, ctx);
    }

    /// Transmit requests for the transaction's *current* unmet needs.
    fn send_solicitations(&mut self, ts: Ts, ctx: &mut Context<'_, ProtoMsg>) {
        let mut deficits = std::mem::take(&mut self.solicit_deficits_scratch);
        let mut read_items = std::mem::take(&mut self.solicit_reads_scratch);
        deficits.clear();
        read_items.clear();
        {
            let t = match self.active_get(ts) {
                Some(t) => t,
                None => {
                    self.solicit_deficits_scratch = deficits;
                    self.solicit_reads_scratch = read_items;
                    return;
                }
            };
            deficits.extend(t.deficits.iter().filter(|&&(_, d)| d > 0).copied());
            read_items.extend(
                t.read_pending
                    .iter()
                    .filter(|(_, pending)| !pending.is_empty())
                    .map(|&(i, _)| i),
            );
        }
        for &(item, need) in &deficits {
            let demand = self.advertised_demand(item, need);
            match self.cfg.placement.fanout() {
                Fanout::All => self.broadcast_request(ts, item, need, demand, ctx),
                Fanout::One => {
                    let to = self.next_rr(ctx.now());
                    self.send_one_request(ts, item, need, demand, to, false, ctx);
                }
                Fanout::Hinted => match self.hinted_target(item, need, ctx.now()) {
                    Some((to, surplus)) => {
                        self.metrics.hinted_solicits += 1;
                        self.obs
                            .emit_with(self.id as u32, || EventKind::HintSolicit {
                                txn: ts.0,
                                item: item.0,
                                to: to as u32,
                                surplus,
                            });
                        self.send_one_request(ts, item, need, demand, to, true, ctx);
                        // Debit the hint locally: soliciting consumes the
                        // advertised surplus, so back-to-back deficits
                        // don't all pile onto the same (now drained)
                        // donor before its next gossip refresh.
                        if let Some(h) = self.hint_table[Self::di(item) * self.n + to].as_mut() {
                            h.0 = h.0.saturating_sub(need);
                        }
                    }
                    // No usable hint (cold start, everything stale or
                    // suspect): broadcast. Losing every hint costs
                    // messages, never liveness.
                    None => self.broadcast_request(ts, item, need, demand, ctx),
                },
            }
        }
        // Reads always go to every other site: Π needs every fragment.
        for &item in &read_items {
            for to in 0..self.n {
                if to == self.id {
                    continue;
                }
                self.send(
                    ctx,
                    to,
                    Body::Request {
                        txn: ts,
                        item,
                        need: 0,
                        demand: 0,
                        read: true,
                    },
                );
                self.metrics.requests_sent += 1;
                self.obs
                    .emit_with(self.id as u32, || EventKind::TxnSolicit {
                        txn: ts.0,
                        item: item.0,
                        to: to as u32,
                        qty: 0,
                    });
            }
        }
        self.solicit_deficits_scratch = deficits;
        self.solicit_reads_scratch = read_items;
    }

    /// Solicit `item` from every other site.
    fn broadcast_request(
        &mut self,
        ts: Ts,
        item: ItemId,
        need: Qty,
        demand: Qty,
        ctx: &mut Context<'_, ProtoMsg>,
    ) {
        for to in 0..self.n {
            if to == self.id {
                continue;
            }
            self.send(
                ctx,
                to,
                Body::Request {
                    txn: ts,
                    item,
                    need,
                    demand,
                    read: false,
                },
            );
            self.metrics.requests_sent += 1;
            self.obs
                .emit_with(self.id as u32, || EventKind::TxnSolicit {
                    txn: ts.0,
                    item: item.0,
                    to: to as u32,
                    qty: need as i64,
                });
        }
    }

    /// Solicit `item` from exactly one peer, remembering the target so a
    /// timeout can mark it suspect (and a hinted answer count as a hit).
    #[allow(clippy::too_many_arguments)]
    fn send_one_request(
        &mut self,
        ts: Ts,
        item: ItemId,
        need: Qty,
        demand: Qty,
        to: NodeId,
        hinted: bool,
        ctx: &mut Context<'_, ProtoMsg>,
    ) {
        self.send(
            ctx,
            to,
            Body::Request {
                txn: ts,
                item,
                need,
                demand,
                read: false,
            },
        );
        self.metrics.requests_sent += 1;
        self.obs
            .emit_with(self.id as u32, || EventKind::TxnSolicit {
                txn: ts.0,
                item: item.0,
                to: to as u32,
                qty: need as i64,
            });
        if let Some(t) = self.active_get_mut(ts) {
            match t.single_targets.binary_search_by_key(&item, |e| e.0) {
                Ok(i) => t.single_targets[i] = (item, to, hinted),
                Err(i) => t.single_targets.insert(i, (item, to, hinted)),
            }
        }
    }

    fn next_rr(&mut self, now: SimTime) -> NodeId {
        let mut cand = self.rr % self.n;
        if cand == self.id {
            cand = (cand + 1) % self.n;
        }
        // Skip peers recently seen unresponsive to a single-target
        // solicitation — asking a known-dead peer burns the whole
        // timeout for nothing. If every peer is suspect, keep the
        // original candidate: asking is still no worse than aborting.
        let mut probe = cand;
        for _ in 0..self.n {
            if probe != self.id && !self.is_suspect(probe, now) {
                cand = probe;
                break;
            }
            probe = (probe + 1) % self.n;
        }
        self.rr = (cand + 1) % self.n;
        cand
    }

    /// A read item blocked on our own outstanding Vms just cleared.
    fn unblock_reads(&mut self, item: ItemId, ctx: &mut Context<'_, ProtoMsg>) {
        let waiting: Vec<Ts> = self
            .active
            .iter()
            .filter(|(_, t)| t.reads_blocked_on_self.binary_search(&item).is_ok())
            .map(|&(ts, _)| ts)
            .collect();
        for ts in waiting {
            let donors: Vec<NodeId> = self.others().collect();
            {
                let t = self.active_get_mut(ts).expect("active");
                if let Ok(i) = t.reads_blocked_on_self.binary_search(&item) {
                    t.reads_blocked_on_self.remove(i);
                }
                match t.read_pending.binary_search_by_key(&item, |e| e.0) {
                    Ok(i) => t.read_pending[i] = (item, donors),
                    Err(i) => t.read_pending.insert(i, (item, donors)),
                }
            }
            for to in 0..self.n {
                if to == self.id {
                    continue;
                }
                self.send(
                    ctx,
                    to,
                    Body::Request {
                        txn: ts,
                        item,
                        need: 0,
                        demand: 0,
                        read: true,
                    },
                );
                self.metrics.requests_sent += 1;
            }
        }
    }

    /// Tell donors a read transaction has decided, so they can drop their
    /// leases early.
    fn release_read_leases(&mut self, ts: Ts, spec: &TxnSpec, ctx: &mut Context<'_, ProtoMsg>) {
        for item in spec.reads() {
            for to in 0..self.n {
                if to != self.id {
                    self.send(ctx, to, Body::ReleaseLease { txn: ts, item });
                }
            }
        }
    }

    /// Steps 5–7: force the commit record, install changes, release locks.
    fn commit_txn(&mut self, ts: Ts, ctx: &mut Context<'_, ProtoMsg>) {
        if self.crash_pending {
            return; // the impending crash will abort it as Crashed
        }
        let t = self.active_remove(ts).expect("active");
        ctx.cancel_timer(t.timeout_timer);
        self.release_read_leases(ts, &t.spec, ctx);

        let mut deltas = std::mem::take(&mut self.deltas_scratch);
        t.spec.deltas_into(&mut deltas);
        // `reads()` is empty (and allocation-free) for write-only
        // transactions; 1–2 entries stay inline in the journal `SVec`s.
        let reads: SVec<(ItemId, Qty), 2> = t
            .spec
            .reads()
            .into_iter()
            .map(|item| (item, self.frags.get(item)))
            .collect();

        // Step 5: the forced commit record IS the commit point. The
        // force is deferred to this dispatch's flush boundary — still
        // before any frame leaves the site, and crashes only arrive
        // between dispatches, so the commit point stays within the same
        // indivisible instant of simulated time.
        if self.crashpoint_armed(Crashpoint::AfterAppendBeforeForce) {
            // Pin the crashpoint's contract: records appended earlier in
            // this dispatch harden now, so the trip below kills exactly
            // the Commit record it names.
            self.log.force_if_dirty();
        }
        self.log.append(SiteRecord::Commit {
            txn: ts,
            actions: DbActions::from_slice(&deltas),
        });
        if self.crashpoint(ctx, Crashpoint::AfterAppendBeforeForce) {
            // Crash with the Commit record appended but unforced: the
            // record dies with the tail, so the transaction must *not*
            // survive recovery (it never reached its commit point):
            // `crash_pending` makes the flush skip its force.
            self.deltas_scratch = deltas;
            return;
        }
        self.force_record();

        // Step 6: install and note installation.
        for &(item, delta) in deltas.iter() {
            self.frags.apply_delta(item, delta);
            self.frags.bump_ts(item, ts);
        }
        self.log.append(SiteRecord::Applied { txn: ts });

        let journal = SVec::from_slice(&deltas);
        self.deltas_scratch = deltas;

        // Step 7: release locks (and wake Conc2 waiters).
        let mut released = std::mem::take(&mut self.released_scratch);
        self.locks.release_all_into(ts, &mut released);
        for &item in &released {
            self.grant_waiters(item, ctx);
        }
        self.released_scratch = released;

        let latency = ctx.now().since(t.started).as_micros();
        self.metrics.record_commit(
            CommitEntry {
                txn: ts,
                at: ctx.now(),
                deltas: journal,
                reads,
            },
            latency,
            !t.solicited,
        );
        if t.solicited {
            // Phase split: solicit = start → first credit arriving,
            // gather = first credit → commit (zero when a single credit
            // completed the transaction in the same instant).
            let fc = t.first_credit_at.unwrap_or_else(|| ctx.now());
            self.metrics
                .phases
                .record("solicit", fc.since(t.started).as_micros());
            self.metrics
                .phases
                .record("gather", ctx.now().since(fc).as_micros());
        }
        self.obs.emit_with(self.id as u32, || EventKind::TxnCommit {
            txn: ts.0,
            latency_us: latency,
            fast_path: !t.solicited,
        });
    }

    fn abort_txn(&mut self, ts: Ts, reason: AbortReason, ctx: &mut Context<'_, ProtoMsg>) {
        let t = match self.active_remove(ts) {
            Some(t) => t,
            None => return,
        };
        ctx.cancel_timer(t.timeout_timer);
        if reason == AbortReason::Timeout {
            // Unanswered single-target solicitations mark their target
            // suspect for two timeout spans: the next round-robin or
            // hinted pick skips it (any message from the peer clears
            // the suspicion — see `on_message`).
            let until = ctx.now() + self.cfg.txn_timeout.saturating_mul(2);
            for &(item, peer, hinted) in &t.single_targets {
                if self.suspect_until[peer].replace(until).is_none() {
                    self.suspect_count += 1;
                }
                if hinted {
                    // The hint that aimed this solicitation lied — the
                    // advertised surplus was gone by the time the request
                    // landed. Drop the entry so the retry (and every
                    // other transaction) stops re-targeting the same
                    // dead end, and lower the site's trust in gossip so
                    // borderline-stale hints expire sooner.
                    self.hint_table[Self::di(item) * self.n + peer] = None;
                    self.note_hint_outcome(false);
                }
            }
            // Unmet deficits are demand the estimator under-called:
            // re-emphasize them so the next advertisement asks higher.
            for &(item, d) in &t.deficits {
                if d > 0 {
                    self.note_own_demand(item, d);
                }
            }
        }
        self.release_read_leases(ts, &t.spec, ctx);
        let mut released = std::mem::take(&mut self.released_scratch);
        self.locks.release_all_into(ts, &mut released);
        for &item in &released {
            self.grant_waiters(item, ctx);
        }
        self.released_scratch = released;
        let latency = ctx.now().since(t.started).as_micros();
        self.metrics.record_abort(reason, latency);
        self.obs.emit_with(self.id as u32, || EventKind::TxnAbort {
            txn: ts.0,
            reason: reason.tag(),
            latency_us: latency,
        });
        // Value already absorbed stays: the aborted transaction degenerates
        // to an Rds transaction (Section 6).
    }

    /// Pop Conc2 waiters for a freed item until someone holds the lock.
    fn grant_waiters(&mut self, item: ItemId, ctx: &mut Context<'_, ProtoMsg>) {
        loop {
            if self.locks.is_locked(item) {
                return;
            }
            let waiter = match self.lock_queue[Self::di(item)].pop_front() {
                Some(w) => w,
                None => return,
            };
            match waiter {
                Waiter::LocalTxn(ts) => {
                    if self.active_get(ts).is_none() {
                        continue; // timed out while waiting
                    }
                    self.locks
                        .try_lock(item, Holder::Txn(ts))
                        .expect("item is free");
                    // Continue ordered acquisition from after this item.
                    let mut rest: Vec<ItemId> = {
                        let t = self.active_get_mut(ts).expect("active");
                        debug_assert_eq!(t.pending_locks.first(), Some(&item));
                        t.pending_locks.drain(..1).count();
                        t.pending_locks.clone()
                    };
                    let mut blocked_at: Option<usize> = None;
                    for (idx, &next) in rest.iter().enumerate() {
                        match self.locks.try_lock(next, Holder::Txn(ts)) {
                            Ok(()) => {}
                            Err(_) => {
                                self.lock_queue[Self::di(next)].push_back(Waiter::LocalTxn(ts));
                                blocked_at = Some(idx);
                                break;
                            }
                        }
                    }
                    match blocked_at {
                        Some(idx) => {
                            rest.drain(..idx);
                            self.active_get_mut(ts).expect("active").pending_locks = rest;
                        }
                        None => {
                            self.active_get_mut(ts).expect("active").pending_locks = Vec::new();
                            self.locks_granted(ts, ctx);
                        }
                    }
                    return; // the item is now held
                }
                Waiter::Request {
                    from,
                    txn,
                    need,
                    demand,
                    read,
                } => {
                    // Momentary Rds: donate and keep popping (the lock is
                    // free again afterwards, unless a read lease pinned it).
                    self.try_donate(from, txn, item, need, demand, read, ctx);
                }
            }
        }
    }

    // ---- remote requests (donor side) --------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn handle_request(
        &mut self,
        from: NodeId,
        txn: Ts,
        item: ItemId,
        need: Qty,
        demand: Qty,
        read: bool,
        ctx: &mut Context<'_, ProtoMsg>,
    ) {
        self.demand_hint[Self::di(item)] = Some(from);
        if !read {
            // Every incoming solicitation is observed demand at `from`
            // (the demand-driven rebalancer's targeting signal).
            self.note_peer_demand(item, from, demand.max(need));
        }
        if self.locks.is_locked(item) {
            match self.cfg.conc {
                ConcMode::Conc1 => {
                    // "site s_j can simply decide not to honor the request"
                    self.metrics.requests_ignored += 1;
                    self.obs
                        .emit_with(self.id as u32, || EventKind::TxnDecline {
                            txn: txn.0,
                            item: item.0,
                        });
                }
                ConcMode::Conc2 => {
                    self.lock_queue[Self::di(item)].push_back(Waiter::Request {
                        from,
                        txn,
                        need,
                        demand,
                        read,
                    });
                }
            }
            return;
        }
        self.try_donate(from, txn, item, need, demand, read, ctx);
    }

    /// Honour a request against an unlocked item (an Rds transaction).
    #[allow(clippy::too_many_arguments)]
    fn try_donate(
        &mut self,
        from: NodeId,
        txn: Ts,
        item: ItemId,
        need: Qty,
        demand: Qty,
        read: bool,
        ctx: &mut Context<'_, ProtoMsg>,
    ) {
        if self.crash_pending {
            return;
        }
        if self.cfg.conc == ConcMode::Conc1 && txn <= self.frags.ts(item) {
            // Conc1: the soliciting transaction is too old for this value.
            self.metrics.requests_ignored += 1;
            self.obs
                .emit_with(self.id as u32, || EventKind::TxnDecline {
                    txn: txn.0,
                    item: item.0,
                });
            return;
        }
        let have = self.frags.get(item);
        let (amount, kind) = if read {
            if !self.cfg.unsafe_skip_read_drain_gate && self.outstanding_out[Self::di(item)] > 0 {
                // Cannot certify quiescence: our own Vms for this item are
                // still in flight. Ignore; the read will abort or retry.
                self.metrics.requests_ignored += 1;
                self.obs
                    .emit_with(self.id as u32, || EventKind::TxnDecline {
                        txn: txn.0,
                        item: item.0,
                    });
                return;
            }
            (have, TransferKind::ReadGrant)
        } else {
            let base = self.cfg.placement.base_refill(need, have);
            let amount = if self.cfg.placement.is_adaptive() {
                // Predictive refill: top up toward the requester's
                // estimated ongoing demand, capped by what we can spare
                // beyond our own predicted needs — one Vm now instead
                // of another solicitation round-trip soon.
                let extra = demand
                    .saturating_sub(need)
                    .min(self.spare(item).saturating_sub(base));
                (base + extra).min(have)
            } else {
                base
            };
            if amount == 0 {
                self.metrics.requests_ignored += 1;
                self.obs
                    .emit_with(self.id as u32, || EventKind::TxnDecline {
                        txn: txn.0,
                        item: item.0,
                    });
                return;
            }
            (amount, TransferKind::Refill)
        };

        let payload = Transfer {
            item,
            amount,
            for_txn: txn,
            donor: self.id,
            kind,
        }
        .to_bytes();
        let op = self.vm.create(from, payload);
        let seq = match &op {
            VmLogOp::Created { seq, .. } => *seq,
            _ => unreachable!("create returns Created"),
        };
        // The [database-actions, message-sequence] record, forced — the Vm
        // exists from this dispatch's flush boundary, ahead of the frame.
        self.append_rds(txn, DbActions::one((item, -(amount as i64))), op);
        if self.crashpoint_armed(Crashpoint::AfterForceBeforeSend) {
            // The crashpoint names the instant *after* the force: honour
            // its contract by forcing eagerly on the armed path. Forcing
            // the whole tail early is always safe — only *missing* forces
            // endanger durability.
            self.log.force();
        } else {
            self.force_record();
        }
        if self.crashpoint(ctx, Crashpoint::AfterForceBeforeSend) {
            // Crash with the Rds record forced but the Vm frame never
            // transmitted: the Vm exists durably and must still reach its
            // destination via post-recovery retransmission.
            return;
        }
        self.frags.debit(item, amount);
        self.frags.bump_ts(item, txn);
        self.bump_outstanding(item);
        self.vm_item.insert((from, seq), item);
        self.metrics.donations += 1;
        self.obs.emit_with(self.id as u32, || EventKind::TxnDonate {
            txn: txn.0,
            item: item.0,
            to: from as u32,
            qty: amount as i64,
        });

        if read {
            // Pin the drained item until the reader has surely decided.
            self.locks
                .try_lock(item, Holder::Lease(txn))
                .expect("item was free");
            let timer = ctx.set_timer(self.cfg.read_lease(), TAG_LEASE | item.0 as u64);
            self.lease_timers[Self::di(item)] = Some(timer);
        }
        self.flush_vm(ctx);
    }

    /// One more unacked outgoing Vm for `item`.
    fn bump_outstanding(&mut self, item: ItemId) {
        let c = &mut self.outstanding_out[Self::di(item)];
        if *c == 0 {
            self.outstanding_items += 1;
        }
        *c += 1;
    }

    /// Arm the periodic rebalance timer unless one is already pending
    /// (or the placement policy has none). Called from every entry point
    /// that could create work for a tick — start, arrivals, messages —
    /// so the cadence is continuous under load but the timer chain dies
    /// out when the cluster drains (quiescence stays reachable).
    fn arm_rebalance(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        if self.rebalance_armed {
            return;
        }
        if let Some(every) = self.cfg.placement.rebalance_every() {
            ctx.set_timer(every, TAG_REBALANCE);
            self.rebalance_armed = true;
        }
    }

    /// The proactive rebalancer: spontaneous Rds transactions shipping
    /// surplus value toward observed demand. The reactive arm uses the
    /// fixed surplus-factor threshold aimed at the *last* solicitor; the
    /// adaptive arm sizes and targets by the demand EWMAs.
    fn run_rebalance(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        if self.crash_pending {
            return;
        }
        match self.cfg.placement {
            Placement::Static => return,
            Placement::Reactive(r) => {
                let rb = match r.rebalance {
                    Some(rb) => rb,
                    None => return,
                };
                for idx in 0..self.initial_quotas.len() {
                    let item = ItemId(idx as u32);
                    let quota = self.initial_quotas[idx];
                    if quota == 0 || self.locks.is_locked(item) {
                        continue;
                    }
                    let have = self.frags.get(item);
                    let threshold = ceil_qty(rb.surplus_factor * quota as f64);
                    if have <= threshold {
                        continue;
                    }
                    let to = match self.demand_hint[idx] {
                        Some(to) if to != self.id => to,
                        _ => continue, // no demand signal: leave the value be
                    };
                    // Ship the excess above the threshold (keep `threshold`).
                    self.ship_rebalance(item, to, have - threshold);
                }
            }
            Placement::Adaptive(_) => {
                // An idle tick (nothing shipped) appended no records and
                // queued no frames — the trailing flush would be a pure
                // no-op, and at the rebalance cadence those no-ops add up.
                // The hint-refresh check rides the next real dispatch.
                if !self.run_adaptive_rebalance(ctx.now()) {
                    return;
                }
            }
        }
        self.flush_vm(ctx);
    }

    /// The demand-driven rebalancer: for every item with spareable
    /// surplus, ship toward the peer whose solicited-demand estimate is
    /// highest, sized by that estimate — value migrates to where demand
    /// actually is instead of draining to whoever asked last. Returns
    /// whether anything actually shipped (the caller skips the trailing
    /// flush otherwise).
    fn run_adaptive_rebalance(&mut self, now: SimTime) -> bool {
        // One ship per tick, for the (item, peer) pair with the strongest
        // demand signal. Rebalance Rds transfers are not free — each one
        // costs a force and a Vm round trip — so the rebalancer moves the
        // single most valuable block per cadence instead of dribbling on
        // every item at once (which was measured to *raise* frames/txn
        // past what hint-directed solicitation saves).
        let mut best: Option<(ItemId, NodeId, f64)> = None;
        // Item-major nested scan: visits (item, peer) pairs in the
        // lexicographic order the old `BTreeMap` iterated, so ties break
        // identically (the winner is the first pair holding the largest
        // qualifying estimate). A slot can only win by clearing the noise
        // floor, this site's own headroom and the best estimate so far,
        // so each row is first screened whole by one branch-free pass
        // (`&` and `|`, not `&&` and `||`): under symmetric load the
        // estimates hover around the noise floor, and a per-slot filter
        // chain then mispredicts on nearly every slot of every tick
        // (measured: 7 ms of an 85 ms full-scale banking run).
        let n = self.n;
        for item_idx in 0..self.initial_quotas.len() {
            let base = item_idx * n;
            let own = HEADROOM * self.own_demand[item_idx];
            let row = &self.peer_demand[base..base + n];
            let bar = best.map_or(own, |(_, _, b)| if b > own { b } else { own });
            if !row
                .iter()
                .fold(false, |live, &e| live | ((e >= 1.0) & (e > bar)))
            {
                continue;
            }
            for (peer, &e) in row.iter().enumerate() {
                // Noise floor 1.0: a peer must have asked recently and
                // repeatedly before unsolicited value flows its way. And
                // demand *contrast*: the peer must want the item materially
                // more than (a) this site expects to use it itself and
                // (b) the average of the other peers — both with the donor-
                // headroom margin. A spontaneous ship only pays for its
                // force and Vm round trip when demand has genuinely
                // concentrated somewhere; under a symmetric workload every
                // site sees comparable solicited demand for every item,
                // transient EWMA gaps pass any single-estimate test, and
                // an ungated rebalancer ships value in circles.
                if e >= 1.0
                    && peer != self.id
                    && e > own
                    && best.is_none_or(|(_, _, b)| e > b)
                    && !self.is_suspect(peer, now)
                    && !self.locks.is_locked(ItemId(item_idx as u32))
                {
                    let others: f64 = (0..n)
                        .filter(|&q| q != self.id && q != peer)
                        .map(|q| self.peer_demand[base + q])
                        .sum();
                    let avg_other = others / (n.saturating_sub(2).max(1)) as f64;
                    if e > HEADROOM * avg_other {
                        best = Some((ItemId(item_idx as u32), peer, e));
                    }
                }
            }
        }
        // Persistence gate: a genuine demand gradient keeps the same
        // (item, peer) pair on top across ticks, because the hot peer
        // keeps soliciting faster than the EWMA decays. Request noise
        // under symmetric load instead rotates the top pair nearly every
        // tick (whoever asked last wins). Shipping only on the third
        // consecutive tick costs a hotspot two ticks of latency and
        // filters out almost every circular ship.
        const SHIP_PERSISTENCE: u32 = 3;
        let streak = match (best, self.rebalance_candidate) {
            (Some((item, to, _)), Some((pi, pp, s))) if item == pi && to == pp => s + 1,
            (Some(_), _) => 1,
            (None, _) => 0,
        };
        self.rebalance_candidate = best.map(|(item, to, _)| (item, to, streak));
        let mut shipped = false;
        if let Some((item, to, est)) = best.filter(|_| streak >= SHIP_PERSISTENCE) {
            // Ship toward the peer's estimated demand (with the same
            // headroom a donor keeps for itself), never more than spare.
            let amount = self.spare(item).min(ceil_qty(HEADROOM * est));
            if amount > 0 {
                self.ship_rebalance(item, to, amount);
                shipped = true;
                self.obs
                    .emit_with(self.id as u32, || EventKind::PlacementShip {
                        item: item.0,
                        to: to as u32,
                        qty: amount,
                    });
                // The shipped block covers the demand we knew about;
                // zeroing the estimate keeps the next tick from shipping
                // again before fresh solicitations justify it.
                self.peer_demand[Self::di(item) * self.n + to] = 0.0;
            }
        }
        // Demand estimates fade unless refreshed: without decay, a
        // once-hot site would keep attracting value forever after the
        // hotspot drifts elsewhere. (Decaying a zero slot keeps it zero,
        // so sweeping the dense tables matches decaying map entries.)
        for e in self.own_demand.iter_mut() {
            *e *= 1.0 - DEMAND_GAIN;
        }
        for e in self.peer_demand.iter_mut() {
            *e *= 1.0 - DEMAND_GAIN;
        }
        shipped
    }

    /// Ship `amount` of `item` to `to` as a spontaneous Rds transaction
    /// (the shared trunk of both rebalancer arms).
    fn ship_rebalance(&mut self, item: ItemId, to: NodeId, amount: Qty) {
        let payload = Transfer {
            item,
            amount,
            for_txn: Ts::ZERO,
            donor: self.id,
            kind: TransferKind::Rebalance,
        }
        .to_bytes();
        let op = self.vm.create(to, payload);
        let seq = match &op {
            VmLogOp::Created { seq, .. } => *seq,
            _ => unreachable!("create returns Created"),
        };
        self.append_rds(Ts::ZERO, DbActions::one((item, -(amount as i64))), op);
        self.force_record();
        self.frags.debit(item, amount);
        self.bump_outstanding(item);
        self.vm_item.insert((to, seq), item);
        self.metrics.rebalances += 1;
    }

    // ---- Vm arrivals (receiver side) ---------------------------------------

    /// Process one arriving datagram: every coalesced frame in order,
    /// then a single flush — so all acceptances the datagram causes are
    /// hardened by one force and answered by (at most) one datagram per
    /// peer, exactly the amortization the batching exists for.
    fn handle_vm_datagram(
        &mut self,
        from: NodeId,
        wire: WireDatagram,
        ctx: &mut Context<'_, ProtoMsg>,
    ) {
        let datagram = wire.decode();
        // Piggybacked availability hints first: pure volatile gossip,
        // recorded (or chaos-mangled) before any frame is processed.
        if !datagram.hints.is_empty() {
            self.ingest_hints(from, &datagram.hints, ctx.now());
        }
        self.vm.begin_datagram(datagram.id);
        for frame in datagram.frames {
            self.process_vm_frame(from, frame, ctx);
        }
        self.flush_vm(ctx);
    }

    fn process_vm_frame(&mut self, from: NodeId, frame: Frame, ctx: &mut Context<'_, ProtoMsg>) {
        let receipt = self.vm.on_frame(from, frame);
        if let Receipt::Fresh { seq, payload } = receipt {
            let transfer = match Transfer::from_bytes(&payload) {
                Ok(t) => t,
                Err(e) => {
                    debug_assert!(false, "undecodable transfer payload: {e}");
                    return;
                }
            };
            match self.locks.holder(transfer.item) {
                None => {
                    // Unlocked: accept as a spontaneous Rds transaction.
                    self.accept_transfer(from, seq, &transfer, ctx);
                }
                Some(Holder::Lease(_)) => {
                    // A read lease pins the item: ignore; the sender will
                    // retransmit and we will accept after the lease.
                }
                Some(Holder::Txn(holder)) => {
                    // The lock holder performs the acceptance itself
                    // (Section 5: no need to wait for the lock).
                    self.accept_transfer(from, seq, &transfer, ctx);
                    self.credit_to_txn(holder, &transfer, ctx);
                }
            }
        }
    }

    /// Durably accept a transfer: `[database-actions]` + `Accepted` op.
    fn accept_transfer(
        &mut self,
        from: NodeId,
        seq: Seq,
        transfer: &Transfer,
        _ctx: &mut Context<'_, ProtoMsg>,
    ) {
        if self.crash_pending {
            return;
        }
        let op = self.vm.commit_accept(from, seq);
        let credit = DbActions::one((transfer.item, transfer.amount as i64));
        self.append_rds(transfer.for_txn, credit, op);
        // The acceptance must be durable before our ack frame leaves:
        // the flush forces ahead of the datagram drain.
        self.force_record();
        self.frags.credit(transfer.item, transfer.amount);
        self.frags.bump_ts(transfer.item, transfer.for_txn);
        self.metrics.absorbed += 1;
        self.obs.emit_with(self.id as u32, || EventKind::TxnAbsorb {
            txn: transfer.for_txn.0,
            item: transfer.item.0,
            from: transfer.donor as u32,
            qty: transfer.amount as i64,
        });
    }

    /// Track an absorbed transfer against the waiting transaction's needs.
    fn credit_to_txn(&mut self, holder: Ts, transfer: &Transfer, ctx: &mut Context<'_, ProtoMsg>) {
        let mut hinted_hit = false;
        let now = ctx.now();
        let ready = {
            let t = match self.active_get_mut(holder) {
                Some(t) => t,
                None => return,
            };
            if t.first_credit_at.is_none() {
                t.first_credit_at = Some(now);
            }
            if let Ok(i) = t.deficits.binary_search_by_key(&transfer.item, |e| e.0) {
                let d = &mut t.deficits[i].1;
                *d = d.saturating_sub(transfer.amount);
            }
            if let Ok(i) = t
                .single_targets
                .binary_search_by_key(&transfer.item, |e| e.0)
            {
                let (_, peer, hinted) = t.single_targets[i];
                if hinted && peer == transfer.donor {
                    // The hint-selected donor answered: the hint paid off.
                    t.single_targets.remove(i);
                    hinted_hit = true;
                }
            }
            if transfer.kind == TransferKind::ReadGrant && transfer.for_txn == holder {
                if let Ok(i) = t.read_pending.binary_search_by_key(&transfer.item, |e| e.0) {
                    let pending = &mut t.read_pending[i].1;
                    if let Some(p) = pending.iter().position(|&d| d == transfer.donor) {
                        pending.remove(p);
                    }
                }
            }
            t.ready()
        };
        if hinted_hit {
            self.metrics.hint_hits += 1;
            self.note_hint_outcome(true);
        }
        if ready {
            self.commit_txn(holder, ctx);
        }
    }
    /// The Section 7 recovery scan: reconstruct fragments, timestamps,
    /// and Vm state purely from the local stable log.
    fn rebuild_from_log(&mut self) {
        // Re-verify the checkpoint slots from their durable bytes first: a
        // rotten newest slot must surface *now*, as a generation fallback,
        // not be masked by a stale decoded cache.
        let mut lost_snapshot = false;
        if let Some(fb) = self.checkpoint.refresh() {
            self.metrics.checkpoint_fallbacks += 1;
            lost_snapshot = fb.used_generation.is_none();
            self.obs
                .emit_with(self.id as u32, || EventKind::CheckpointFallback {
                    bad_generation: fb.bad_generation,
                    used_generation: fb.used_generation.unwrap_or(0),
                });
        }
        // Start from the newest *verifying* checkpoint image (if any),
        // then redo the log suffix. Records before the checkpoint were
        // truncated away — unless the crash landed between checkpoint
        // installation and log truncation, in which case the LSN skip
        // below keeps the redo from double-applying the snapshotted
        // prefix. A generation fallback lengthens the redo: the log
        // retains back to the older generation's redo point exactly for
        // this (see `maybe_checkpoint`).
        match self.checkpoint.load() {
            Some(cp) => {
                self.frags
                    .restore(&cp.snapshot.frag_vals, &cp.snapshot.frag_ts);
                self.vm.restore(&cp.snapshot.vm);
            }
            None => self.frags.reset(),
        }
        let redo_from = self.checkpoint.redo_from();
        let entries = match self.log.recover_salvage() {
            SalvageOutcome::Clean { entries } => entries,
            SalvageOutcome::TailTear {
                entries,
                bytes_dropped,
                ..
            } => {
                // WAL-style: the torn tail frame never committed; the
                // salvage scan dropped it and repaired the image so later
                // scans see a clean log.
                self.metrics.torn_crashes += 1;
                self.metrics.torn_bytes_dropped += bytes_dropped;
                entries
            }
            SalvageOutcome::MediaDamage {
                entries,
                dropped,
                report,
            } => {
                // A *durable* record rotted: the log was truncated at the
                // first bad record. Declare an upper bound on the value
                // each dropped record could have displaced, then decide
                // whether the surviving checkpoint covers the loss.
                self.metrics.salvages += 1;
                self.metrics.salvaged_records_lost += report.records_lost;
                self.metrics.salvaged_bytes_lost += report.bytes_lost;
                self.obs.emit_with(self.id as u32, || EventKind::Salvage {
                    first_bad_lsn: report.first_bad_lsn.0,
                    records_lost: report.records_lost,
                    bytes_lost: report.bytes_lost,
                });
                let mut uncovered = 0u64;
                for (lsn, rec) in &dropped {
                    if *lsn < redo_from {
                        // The snapshot already reflects this record; its
                        // loss from the log costs nothing.
                        continue;
                    }
                    uncovered += 1;
                    declare_damage(&mut self.metrics.salvage_damage, rec);
                }
                if uncovered > 0 && !self.media_failed {
                    self.quarantine(uncovered);
                }
                entries
            }
        };
        if lost_snapshot {
            // Every checkpoint generation failed verification; only the
            // log remains. If its genesis prefix survives, a full replay
            // reconstructs everything and nothing was lost. If it was
            // already truncated by a checkpoint, the snapshot's effects
            // are unreconstructible — and unboundable.
            let genesis_intact = entries.first().map(|(l, _)| *l) == Some(Lsn::FIRST);
            if !genesis_intact {
                self.metrics.salvage_unbounded = true;
                if !self.media_failed {
                    self.quarantine(0);
                }
            }
        }
        self.redo_covered = entries.partition_point(|(lsn, _)| *lsn < redo_from);
        if !self.cfg.unsafe_skip_recovery_redo {
            self.last_replayed = (entries.len() - self.redo_covered) as u64;
            redo_entries(&mut self.frags, &mut self.vm, &entries, redo_from);
        }
        // Rebuild the per-item outstanding index from the endpoint.
        for peer in self.vm.peers() {
            for (seq, payload) in self.vm.outgoing_toward(peer) {
                if let Ok(t) = Transfer::from_bytes(&payload) {
                    self.vm_item.insert((peer, seq), t.item);
                    let c = &mut self.outstanding_out[Self::di(t.item)];
                    if *c == 0 {
                        self.outstanding_items += 1;
                    }
                    *c += 1;
                }
            }
        }
    }

    /// Enter media-failure quarantine: committed effects were destroyed
    /// beyond what any checkpoint generation covers. The site stays up in
    /// the simulator but refuses every event from now on (see the guards
    /// in the `Node` impl) — serving its salvaged state could double-pay
    /// or lose value, and its peers' timeouts already handle an
    /// unresponsive site safely.
    fn quarantine(&mut self, records_lost: u64) {
        self.media_failed = true;
        self.metrics.media_failures += 1;
        self.obs
            .emit_with(self.id as u32, || EventKind::MediaFailure { records_lost });
    }

    /// Reconstruct this site's durable state — fragments and Vm channels —
    /// from the checkpoint slot and stable log alone, touching nothing
    /// live. The nemesis rebuild-equivalence oracle compares this against
    /// the running site: recovery must be a pure function of stable
    /// storage.
    pub fn rebuilt_durable_state(&self) -> (FragmentStore, VmEndpoint) {
        let mut frags = FragmentStore::new(self.initial_quotas.len());
        let mut vm = VmEndpoint::new(self.id, Self::vm_config(&self.cfg));
        if let Some(cp) = self.checkpoint.load() {
            frags.restore(&cp.snapshot.frag_vals, &cp.snapshot.frag_ts);
            vm.restore(&cp.snapshot.vm);
        }
        let recovered = self.log.recover_lenient();
        redo_entries(
            &mut frags,
            &mut vm,
            &recovered.entries,
            self.checkpoint.redo_from(),
        );
        (frags, vm)
    }
}

/// Accumulate the per-item damage *upper bound* a salvage-dropped record
/// represents: the magnitude of every fragment delta it applied plus the
/// amount of every Vm payload it created. This is deliberately a bound,
/// not an exact loss — a dropped `Created` whose frame is still sitting
/// in a live sender's retransmit queue costs nothing, and a dropped
/// `Commit` *resurrects* value (negative discrepancy). The media-aware
/// conservation oracle checks |discrepancy| against the declared total.
fn declare_damage(damage: &mut BTreeMap<ItemId, u64>, rec: &SiteRecord) {
    match rec {
        SiteRecord::Init { item, qty } => {
            *damage.entry(*item).or_insert(0) += qty;
        }
        SiteRecord::Rds {
            actions, vm_ops, ..
        } => {
            for &(item, delta) in actions {
                *damage.entry(item).or_insert(0) += delta.unsigned_abs();
            }
            for op in vm_ops {
                if let VmLogOp::Created { payload, .. } = op {
                    if let Ok(t) = Transfer::from_bytes(payload) {
                        *damage.entry(t.item).or_insert(0) += t.amount;
                    }
                }
            }
        }
        SiteRecord::Commit { actions, .. } => {
            for &(item, delta) in actions {
                *damage.entry(item).or_insert(0) += delta.unsigned_abs();
            }
        }
        SiteRecord::Applied { .. } => {}
    }
}

/// Redo the log suffix at or past `redo_from` onto `frags`/`vm` (the
/// shared core of live recovery and the pure rebuild oracle). Entries
/// below `redo_from` are already reflected in the checkpoint snapshot.
fn redo_entries(
    frags: &mut FragmentStore,
    vm: &mut VmEndpoint,
    entries: &[(Lsn, SiteRecord)],
    redo_from: Lsn,
) {
    for (lsn, rec) in entries {
        if *lsn < redo_from {
            continue;
        }
        match rec {
            SiteRecord::Init { item, qty } => frags.credit(*item, *qty),
            SiteRecord::Rds {
                txn,
                actions,
                vm_ops,
            } => {
                for &(item, delta) in actions {
                    frags.apply_delta(item, delta);
                    frags.bump_ts(item, *txn);
                }
                for op in vm_ops {
                    vm.replay(op);
                }
            }
            SiteRecord::Commit { txn, actions } => {
                for &(item, delta) in actions {
                    frags.apply_delta(item, delta);
                    frags.bump_ts(item, *txn);
                }
            }
            SiteRecord::Applied { .. } => {}
        }
    }
}

impl Node for SiteNode {
    type Msg = ProtoMsg;

    fn on_start(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        self.arm_rebalance(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: ProtoMsg, ctx: &mut Context<'_, ProtoMsg>) {
        if self.media_failed {
            return; // quarantined: inert until the end of time
        }
        self.clock.observe_counter(msg.lamport);
        // Any message from a suspected peer proves it alive again.
        if self.suspect_count > 0 && self.suspect_until[from].take().is_some() {
            self.suspect_count -= 1;
        }
        // Traffic can change what the next rebalance tick would ship.
        self.arm_rebalance(ctx);
        match msg.body {
            Body::VmDatagram(wire) => self.handle_vm_datagram(from, wire, ctx),
            Body::Request {
                txn,
                item,
                need,
                demand,
                read,
            } => {
                self.handle_request(from, txn, item, need, demand, read, ctx);
            }
            Body::ReleaseLease { txn, item } => {
                if self.locks.holder(item) == Some(Holder::Lease(txn)) {
                    self.locks.unlock(item, txn);
                    if let Some(timer) = self.lease_timers[Self::di(item)].take() {
                        ctx.cancel_timer(timer);
                    }
                    self.grant_waiters(item, ctx);
                    // Waking waiters can commit queued transactions and
                    // donate — flush so their records harden this dispatch.
                    self.flush_vm(ctx);
                }
            }
        }
    }

    fn on_external(&mut self, tag: u64, ctx: &mut Context<'_, ProtoMsg>) {
        if self.media_failed {
            return; // quarantined: no new transactions ever start here
        }
        let idx = tag as usize;
        if idx < self.script.len() {
            // Each external tag arrives exactly once, so the scripted
            // spec is *taken* (not cloned): starting a transaction on the
            // steady-state path allocates nothing.
            let spec = std::mem::replace(&mut self.script[idx], TxnSpec { ops: Vec::new() });
            if spec.ops.is_empty() {
                debug_assert!(false, "external tag {tag} replayed or scripted empty");
                return;
            }
            self.arm_rebalance(ctx);
            self.begin_txn(spec, ctx);
            self.flush_vm(ctx);
        } else {
            debug_assert!(false, "external tag {tag} has no scripted transaction");
        }
    }

    fn on_timer(&mut self, _id: TimerId, tag: u64, ctx: &mut Context<'_, ProtoMsg>) {
        if self.media_failed {
            return; // quarantined: pre-quarantine timers are all stale
        }
        let kind = tag >> TAG_KIND_SHIFT << TAG_KIND_SHIFT;
        let payload = tag & TAG_PAYLOAD_MASK;
        match kind {
            TAG_RETRANSMIT => {
                self.retransmit_armed = false;
                if self.vm.has_outstanding() {
                    self.vm.tick();
                }
                self.flush_vm(ctx);
            }
            TAG_TIMEOUT => {
                let ts = Ts(payload);
                self.abort_txn(ts, AbortReason::Timeout, ctx);
                // Released locks can wake Conc2 waiters into commits and
                // donations — flush the dispatch like every other entry.
                self.flush_vm(ctx);
            }
            TAG_SOLICIT_RETRY => {
                let ts = Ts(payload);
                let retry = self
                    .active_get_mut(ts)
                    .filter(|t| t.locks_held() && !t.ready() && t.retries_left > 0)
                    .map(|t| {
                        t.retries_left -= 1;
                        t.retries_left
                    });
                if let Some(left) = retry {
                    self.send_solicitations(ts, ctx);
                    if left > 0 {
                        let gap = SimDuration::micros(
                            self.cfg.txn_timeout.as_micros()
                                / (self.cfg.solicit_retries as u64 + 1),
                        );
                        ctx.set_timer(gap, TAG_SOLICIT_RETRY | ts.0);
                    }
                }
            }
            TAG_REBALANCE => {
                self.rebalance_armed = false;
                self.run_rebalance(ctx);
                // Keep the cadence while this site still has local work;
                // an idle site's next arrival or message re-arms it.
                if !self.active.is_empty() || self.outstanding_items > 0 {
                    self.arm_rebalance(ctx);
                }
            }
            TAG_LEASE => {
                let item = ItemId(payload as u32);
                if self.lease_timers[Self::di(item)] != Some(_id) {
                    return; // stale timer from an earlier, already-released lease
                }
                self.lease_timers[Self::di(item)] = None;
                if matches!(self.locks.holder(item), Some(Holder::Lease(_))) {
                    let holder = self.locks.holder(item).expect("just matched").txn();
                    self.locks.unlock(item, holder);
                    self.grant_waiters(item, ctx);
                    self.flush_vm(ctx);
                }
            }
            _ => debug_assert!(false, "unknown timer tag kind"),
        }
    }

    fn on_crash(&mut self) {
        self.crash_pending = false;
        // The flush debt dies with the unforced tail it tracked.
        self.needs_flush = false;
        // The unforced log tail and every piece of volatile state die here.
        // The nemesis victim's crashes may additionally tear the in-flight
        // log write (a half-written tail frame the recovery scan repairs).
        let torn_mode = if self.id == self.cfg.inject.victim {
            self.cfg.inject.torn
        } else {
            TornWrite::None
        };
        self.log.crash_torn(torn_mode);
        // Media decay (nemesis): the victim's stable storage may addition-
        // ally rot at crash time — one byte of the durable log region, or
        // one checkpoint slot. Both are one-shot: they disarm once bytes
        // actually flipped, so recovery cannot rot-loop.
        if self.id == self.cfg.inject.victim {
            if self.cfg.inject.bit_rot && !self.bit_rot_done {
                let len = self.log.stable_image_len();
                if len > 0 {
                    // Deterministic offset: hash the site id and image
                    // length so a replayed seed rots the same byte.
                    let mut key = [0u8; 16];
                    key[..8].copy_from_slice(&(self.id as u64).to_be_bytes());
                    key[8..].copy_from_slice(&(len as u64).to_be_bytes());
                    let offset = crc32(&key) as usize % len;
                    if self.log.corrupt_stable(offset..offset + 1) > 0 {
                        self.bit_rot_done = true;
                    }
                }
            }
            if let Some(slot) = self.cfg.inject.corrupt_ckpt {
                if !self.ckpt_rot_done {
                    let slot = slot as usize % 2;
                    let len = self.checkpoint.slot_image_len(slot);
                    if len > 0 && self.checkpoint.corrupt_slot(slot, len / 2) {
                        self.ckpt_rot_done = true;
                    }
                }
            }
        }
        self.vm.crash_reset();
        self.locks.clear();
        for (_, t) in self.active.drain(..) {
            let _ = t; // in-flight transactions simply vanish
            *self
                .metrics
                .aborted
                .entry(AbortReason::Crashed)
                .or_insert(0) += 1;
        }
        for q in self.lock_queue.iter_mut() {
            q.clear();
        }
        self.outstanding_out.fill(0);
        self.outstanding_items = 0;
        self.lease_timers.fill(None);
        self.vm_item.clear();
        // The adaptive subsystem's entire memory is volatile by design:
        // demand estimates, received hints, and peer suspicion all
        // describe a pre-crash world and die here (the endpoint's
        // outgoing hints died in `crash_reset` above). Recovery never
        // consults any of it — hints must stay safety-inert.
        self.own_demand.fill(0.0);
        self.peer_demand.fill(0.0);
        self.hint_table.fill(None);
        self.hint_confidence = 1.0;
        self.last_hint_refresh = None;
        self.rebalance_candidate = None;
        self.suspect_until.fill(None);
        self.suspect_count = 0;
        self.clock.crash_reset();
        self.retransmit_armed = false;
        // A pre-crash rebalance timer may still fire after recovery; the
        // handler treats it as a fresh tick and re-arms as needed.
        self.rebalance_armed = false;
        // What remains of the site *is* its durable log; materialize that
        // view immediately so the site's observable state (fragments, Vm
        // cursors) equals stable storage for the whole downtime. This is
        // the redo scan of Section 7 — running it eagerly is equivalent
        // (the site receives no events while down) and keeps omniscient
        // audits honest: a crashed site's value is its logged value.
        self.rebuild_from_log();
    }

    fn on_recover(&mut self, ctx: &mut Context<'_, ProtoMsg>) {
        if self.media_failed {
            // A quarantined site refuses to rejoin: its durable state lost
            // committed effects, and resuming would reuse Vm sequence
            // numbers and hand peers already-consumed value again.
            return;
        }
        // State was already rebuilt from the stable log at crash time
        // (see on_crash); restarting is just resuming normal processing.
        self.metrics.recoveries += 1;
        self.obs.emit(self.id as u32, EventKind::RecoveryBegin);
        self.obs
            .emit_with(self.id as u32, || EventKind::RecoveryEnd {
                replayed: self.last_replayed,
                remote_msgs: 0,
            });
        // recovery_remote_messages stays 0: nothing consulted a peer.
        // Outstanding Vms resume in the normal course of processing.
        if self.vm.has_outstanding() {
            self.vm.tick();
        }
        self.arm_rebalance(ctx);
        self.flush_vm(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_qty_is_ceil_then_cast_for_every_kind_of_input() {
        let mut cases = vec![
            0.0,
            -0.0,
            -3.5,
            0.25,
            1.0,
            1.0 + f64::EPSILON,
            2.5,
            1e15 + 0.5,
            9_007_199_254_740_992.0, // 2^53: every f64 from here up is whole
            1.8446744073709552e19,   // 2^64
            1e300,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        // The shapes the call sites produce: HEADROOM x a decaying EWMA.
        let mut e = 97.0f64;
        for _ in 0..200 {
            cases.push(HEADROOM * e);
            e *= 1.0 - DEMAND_GAIN;
        }
        for x in cases {
            assert_eq!(ceil_qty(x), x.ceil() as Qty, "x = {x:e}");
        }
    }
}
