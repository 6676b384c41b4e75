//! Ending an in-doubt transaction without the coordinator's word: the
//! periodic decision query, and — 3PC only — cooperative termination
//! (ask the fellow writers, then apply the timeout rule).

use super::msg::{TradBody, TradMsg};
use super::participant::PartTxn;
use super::{CommitProtocol, TradNode, RETRY_EVERY, TAG_QUERY_RETRY};
use dvp_core::clock::Ts;
use dvp_simnet::node::Context;
use dvp_simnet::NodeId;

/// In-doubt query rounds a 3PC participant waits before applying the
/// termination rule.
const TERMINATION_ROUNDS: u32 = 4;

impl TradNode {
    /// The in-doubt timer fired: ask the coordinator again, and under 3PC
    /// work toward terminating without it.
    pub(super) fn on_query_retry(&mut self, ts: Ts, ctx: &mut Context<'_, TradMsg>) {
        let in_doubt = |p: &&mut PartTxn| p.prepared_writes.is_some();
        let Some(p) = self.part.get_mut(&ts).filter(in_doubt) else {
            return;
        };
        p.term_attempts += 1;
        let (coordinator, precommitted, attempts, peers) =
            (p.coordinator, p.precommitted, p.term_attempts, p.peers);
        self.send(coordinator, TradBody::DecisionQuery { txn: ts });
        match self.cfg.protocol {
            // 2PC: nothing else is safe — keep asking (this is the
            // blocking).
            CommitProtocol::TwoPhase => {}
            CommitProtocol::ThreePhase if attempts >= TERMINATION_ROUNDS => {
                // Termination rule: pre-committed sites commit, uncertain
                // sites abort. Safe for crashes; *divergent* under
                // partitions — the Section 2 impossibility made flesh.
                self.resolve_locally(ts, precommitted, ctx);
                return;
            }
            CommitProtocol::ThreePhase => {
                for peer in peers.iter() {
                    self.send(peer, TradBody::StateQuery { txn: ts });
                }
            }
        }
        let timer = ctx.set_timer(RETRY_EVERY.saturating_mul(2), TAG_QUERY_RETRY | ts.0);
        self.part.get_mut(&ts).expect("checked above").timer = timer;
    }

    pub(super) fn on_state_query(&mut self, from: NodeId, ts: Ts) {
        // A peer that is done with `txn` committed it (2) or, aborted or
        // never prepared, reports abort (3).
        let state = match self.part.get(&ts) {
            Some(p) => u8::from(p.precommitted),
            None if self.commits.contains(&ts) => 2,
            None => 3,
        };
        self.send(from, TradBody::StateReply { txn: ts, state });
    }

    pub(super) fn on_state_reply(&mut self, ts: Ts, state: u8, ctx: &mut Context<'_, TradMsg>) {
        match state {
            1 | 2 => self.resolve_locally(ts, true, ctx),
            3 => self.resolve_locally(ts, false, ctx),
            _ => {} // uncertain peer: keep waiting
        }
    }

    /// Terminate an in-doubt transaction locally (the termination rule,
    /// or a peer's definitive state). An unprepared one is not ours to
    /// resolve.
    fn resolve_locally(&mut self, ts: Ts, commit: bool, ctx: &mut Context<'_, TradMsg>) {
        if self
            .part
            .get(&ts)
            .is_some_and(|p| p.prepared_writes.is_some())
        {
            let p = self.part.remove(&ts).expect("checked above");
            self.resolve(ts, p, commit, ctx);
        }
    }
}
