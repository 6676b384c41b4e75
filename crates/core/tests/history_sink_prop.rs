//! Model-based property test of [`HistorySink`].
//!
//! The sink checks committed reads as they happen and keeps O(items)
//! state. The reference model here *is* the design it replaced: a journal
//! of every commit, replayed in recorded order from the initial totals
//! whenever a verdict is asked for. Random commit streams — non-decreasing
//! instants with many ties, txn ids in no particular order, deltas that
//! can overdraw, reads that sometimes return the truth and sometimes do
//! not — are fed to both, and at random query points the verdict, the read
//! count, the last read, and every item's running total and low-water mark
//! must agree.

use dvp_core::audit::{AuditError, History, HistorySink};
use dvp_core::item::{Catalog, Split};
use dvp_core::{ItemId, Qty, Ts};
use dvp_simnet::time::SimTime;
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Catalogued items; commits may also touch one item past them.
const ITEMS: u32 = 3;

/// One journal entry of the deleted design.
#[derive(Clone, Debug)]
struct Entry {
    at: SimTime,
    txn: Ts,
    deltas: Vec<(ItemId, i64)>,
    reads: Vec<(ItemId, Qty)>,
}

/// What the old journal-replay `check_reads` computes from a journal,
/// plus the counts and totals the sink now reports.
#[derive(Debug, PartialEq)]
struct Replay {
    verdict: Result<(), AuditError>,
    reads: u64,
    last_read: Option<(ItemId, Qty)>,
    totals: BTreeMap<ItemId, i64>,
    low_water: BTreeMap<ItemId, i64>,
}

fn replay(catalog: &Catalog, journal: &[Entry]) -> Replay {
    let mut totals: BTreeMap<ItemId, i64> = catalog
        .items()
        .iter()
        .map(|d| (d.id, d.total as i64))
        .collect();
    let mut low_water = totals.clone();
    let (mut verdict, mut reads, mut last_read) = (Ok(()), 0, None);
    for e in journal {
        for &(item, got) in &e.reads {
            let expected = totals.get(&item).copied().unwrap_or(0);
            if expected != got as i64 && verdict.is_ok() {
                verdict = Err(AuditError::WrongRead {
                    item,
                    expected,
                    got,
                    txn: e.txn,
                    at: e.at,
                });
            }
            reads += 1;
            last_read = Some((item, got));
        }
        for &(item, d) in &e.deltas {
            let t = totals.entry(item).or_insert(0);
            *t += d;
            let low = low_water.entry(item).or_insert(0);
            *low = (*low).min(*t);
        }
    }
    Replay {
        verdict,
        reads,
        last_read,
        totals,
        low_water,
    }
}

/// The sink's view in the model's shape.
fn observe(h: &History) -> Replay {
    let items = (0..=ITEMS).map(ItemId);
    Replay {
        verdict: h.verdict(),
        reads: h.reads_checked(),
        last_read: h.last_read(),
        totals: items.clone().map(|i| (i, h.total(i))).collect(),
        low_water: items.map(|i| (i, h.low_water(i))).collect(),
    }
}

/// The model's totals over the same item range (an item nobody touched
/// reads 0 on both sides).
fn padded(mut r: Replay) -> Replay {
    for i in (0..=ITEMS).map(ItemId) {
        r.totals.entry(i).or_insert(0);
        r.low_water.entry(i).or_insert(0);
    }
    r
}

/// `(query?, instant step, txn key, deltas, reads)`; a read is
/// `(item, truthful?, value if not)`.
type Step = (u8, u64, u64, Vec<(u32, u64)>, Vec<(u32, bool, u64)>);

fn step() -> impl Strategy<Value = Step> {
    (
        0u8..6,
        0u64..5,
        0u64..16,
        vec((0u32..ITEMS + 1, 0u64..61), 0..3),
        vec((0u32..ITEMS + 1, any::<bool>(), 0u64..400), 0..3),
    )
}

/// Lay the steps out as a recorded stream of commits and query points.
/// Instants advance on 2 of 5 draws, so most instants hold several
/// commits; txn ids are unique but random within an instant. A truthful
/// read is given the value the recorded order says it saw.
fn stream(catalog: &Catalog, steps: &[Step]) -> (Vec<Entry>, Vec<usize>) {
    let mut at = SimTime(1);
    let mut journal = Vec::new();
    let mut queries = Vec::new();
    let mut totals: BTreeMap<ItemId, i64> = catalog
        .items()
        .iter()
        .map(|d| (d.id, d.total as i64))
        .collect();
    for (idx, (query, dt, key, deltas, reads)) in steps.iter().enumerate() {
        if *query == 0 {
            queries.push(journal.len());
            continue;
        }
        if *dt >= 3 {
            at = SimTime(at.0 + dt);
        }
        let truth = |i: u32| totals.get(&ItemId(i)).copied().unwrap_or(0) as Qty;
        let reads = reads
            .iter()
            .map(|&(i, t, v)| (ItemId(i), if t { truth(i) } else { v }))
            .collect();
        let deltas: Vec<(ItemId, i64)> = deltas
            .iter()
            .map(|&(i, d)| (ItemId(i), d as i64 - 40))
            .collect();
        for &(item, d) in &deltas {
            *totals.entry(item).or_insert(0) += d;
        }
        journal.push(Entry {
            at,
            txn: Ts((key << 10) | idx as u64),
            deltas,
            reads,
        });
    }
    (journal, queries)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn sink_matches_journal_replay(
        initial in vec(0u64..120, 3..4),
        steps in vec(step(), 1..48),
    ) {
        let mut catalog = Catalog::new();
        for (k, &total) in initial.iter().enumerate() {
            catalog.add(format!("item-{k}"), total, Split::Even);
        }
        let (journal, mut queries) = stream(&catalog, &steps);
        queries.push(journal.len());
        let sink = HistorySink::new(&catalog);
        let mut fed = 0;
        for q in queries {
            for e in &journal[fed..q] {
                sink.commit(e.at, e.txn, &e.deltas, &e.reads);
            }
            fed = q;
            let want = padded(replay(&catalog, &journal[..fed]));
            prop_assert_eq!(observe(&sink.history()), want, "after {} commits", fed);
        }
    }
}
