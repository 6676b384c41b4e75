//! Model-based property test of [`OutcomeAudit`].
//!
//! The audit checks decision consistency as outcomes arrive and forgets a
//! transaction once nobody can resolve it. The reference model here is
//! the design it replaced: a map of every outcome resolved, kept for the
//! whole run, whose first disagreement is the verdict. Random histories
//! shaped like the protocol are fed to both:
//!
//! - a coordinator opens a transaction, then writers vote YES and later
//!   resolve it, and the coordinator is done with it at some point;
//! - a *voted* transaction had every YES before its coordinator was done
//!   (it committed, or its coordinator crashed holding every vote), and
//!   its writers may resolve it differently — 3PC under a partition;
//! - an *abandoned* one lost its coordinator at any point (an abort, or a
//!   crash before the votes were in), and every writer resolves abort,
//!   some after the coordinator already gave up on it.
//!
//! At random query points the verdict and the number of live entries
//! must match the model's; after the last event nothing may stay live.

use dvp_baselines::twopc::OutcomeAudit;
use dvp_core::Ts;
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeMap;

const SITES: usize = 4;

/// One step a site reports to the audit.
#[derive(Clone, Copy, Debug)]
enum Step {
    Open,
    Prepared,
    Resolved { site: usize, commit: bool },
    Done,
}

/// A transaction's shape: `(voted?, commit?, open instant, writers, done
/// gap)`, each writer `(prepare gap, resolve gap, flip)`; a voted
/// writer's outcome flips on one draw in five. Gaps place the events on
/// one clock shared by every transaction.
type Shape = (bool, bool, u16, Vec<(u16, u16, u8)>, u16);

fn shape() -> impl Strategy<Value = Shape> {
    (
        any::<bool>(),
        any::<bool>(),
        0u16..400,
        vec((1u16..200, 1u16..200, 0u8..5), 1..SITES + 1),
        1u16..300,
    )
}

/// Lay every transaction's events on the shared clock: `(instant, txn,
/// step)` in the order the audit receives them.
fn history(shapes: &[Shape]) -> Vec<(u32, Ts, Step)> {
    let mut events = Vec::new();
    for (k, (voted, commit, open, writers, done_gap)) in shapes.iter().enumerate() {
        let txn = Ts(((k as u64 + 1) << 10) | (k % SITES) as u64);
        let open = u32::from(*open);
        events.push((open, txn, Step::Open));
        let mut last_prepare = open;
        for (site, &(prepare, resolve, flip)) in writers.iter().enumerate() {
            let prepared = open + u32::from(prepare);
            last_prepare = last_prepare.max(prepared);
            events.push((prepared, txn, Step::Prepared));
            let outcome = *voted && (*commit != (flip == 0));
            let resolved = Step::Resolved {
                site,
                commit: outcome,
            };
            events.push((prepared + u32::from(resolve), txn, resolved));
        }
        let done_after = if *voted { last_prepare } else { open };
        events.push((done_after + u32::from(*done_gap), txn, Step::Done));
    }
    // Stable: a transaction's own events keep their order on ties, and
    // each writer prepares strictly before it resolves.
    events.sort_by_key(|&(at, _, _)| at);
    events
}

/// The all-outcomes reference: every transaction's first resolution,
/// kept forever, and the first resolution that disagreed with one.
#[derive(Default)]
struct Model {
    first: BTreeMap<Ts, (bool, usize)>,
    verdict: Option<String>,
    /// Per opened transaction: coordinator done, YES votes, resolutions.
    progress: BTreeMap<Ts, (bool, u32, u32)>,
}

impl Model {
    fn apply(&mut self, txn: Ts, step: Step) {
        let p = self.progress.entry(txn).or_default();
        match step {
            Step::Open => {}
            Step::Prepared => p.1 += 1,
            Step::Resolved { site, commit } => {
                p.2 += 1;
                let &mut (prev, prev_site) = self.first.entry(txn).or_insert((commit, site));
                if prev != commit && self.verdict.is_none() {
                    self.verdict = Some(format!(
                        "txn {txn:?} diverged: site {prev_site} resolved {prev}, \
                         site {site} resolved {commit}"
                    ));
                }
            }
            Step::Done => p.0 = true,
        }
    }

    fn verdict(&self) -> Result<(), String> {
        self.verdict.clone().map_or(Ok(()), Err)
    }

    /// Transactions some site can still resolve: not yet both abandoned
    /// by the coordinator and resolved by every writer that prepared.
    fn live(&self) -> usize {
        let settled = |&(done, prepared, resolved): &(bool, u32, u32)| done && prepared == resolved;
        self.progress.values().filter(|p| !settled(p)).count()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn audit_matches_the_all_outcomes_map(
        shapes in vec(shape(), 1..8),
        queries in vec(any::<bool>(), 64..65),
    ) {
        let audit = OutcomeAudit::default();
        let mut model = Model::default();
        let events = history(&shapes);
        for (k, &(at, txn, step)) in events.iter().enumerate() {
            match step {
                Step::Open => audit.open(txn),
                Step::Prepared => audit.prepared(txn),
                Step::Resolved { site, commit } => audit.resolved(txn, site, commit),
                Step::Done => audit.coordinator_done(txn),
            }
            model.apply(txn, step);
            if queries[k % queries.len()] {
                prop_assert_eq!(audit.divergence(), model.verdict(), "after event {} at {}", k, at);
                prop_assert_eq!(audit.live(), model.live(), "after event {} at {}", k, at);
            }
        }
        prop_assert_eq!(audit.divergence(), model.verdict());
        prop_assert_eq!(audit.live(), 0, "every transaction retired");
    }
}
