//! **F4 — Aggregate-field hot spot: exclusive vs Escrow vs DvP-sharded.**
//!
//! Claim (Section 8): "using DvP may alleviate the problem of contention
//! by allowing several processes to access a particular quantity
//! simultaneously", in the territory O'Neil's Escrow method was designed
//! for. This experiment uses **real threads** (the only wall-clock-timed
//! experiment, and so the only table `tests/experiments_md.rs` does not
//! check by equality): each transaction reserves one unit of a hot
//! counter, performs some work, and commits.
//!
//! * exclusive locking holds the lock across the work — serial;
//! * Escrow holds only two short critical sections;
//! * DvP-sharded works against a private fragment and steals on
//!   exhaustion — near-zero shared-state traffic.

use crate::table::{f2, Table};
use crate::Scale;
use dvp_baselines::escrow::Counter;
use dvp_baselines::{EscrowCounter, ExclusiveCounter, ShardedCounter};
use std::sync::Arc;
use std::time::Instant;

/// Busy-work standing in for the rest of the transaction (µs-scale).
/// Every step passes through `black_box`: without it an optimised build
/// folds the whole chain away and the "transaction" holds its
/// reservation for no time at all.
fn work(iters: u32) -> u64 {
    let mut acc = 0u64;
    for i in 0..iters {
        acc = std::hint::black_box(acc.wrapping_mul(6364136223846793005).wrapping_add(i as u64));
    }
    acc
}

/// Run `threads` concurrent clients against `counter`, each performing
/// `per_thread` reserve-work-commit transactions; returns the committed
/// count. Reads no clock: on a counter that never runs dry the result is
/// exactly `threads × per_thread`.
pub fn drive(counter: &Arc<dyn Counter>, threads: usize, per_thread: usize) -> u64 {
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let c = Arc::clone(counter);
            std::thread::spawn(move || {
                let mut done = 0u64;
                for _ in 0..per_thread {
                    if let Some(ticket) = c.try_reserve(1) {
                        work(200);
                        c.commit_decr(ticket);
                        done += 1;
                    } else {
                        // Exhausted: put a unit back so the run keeps going
                        // (models replenishment).
                        c.incr(1);
                    }
                }
                done
            })
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("client thread panicked"))
        .sum()
}

/// Throughput (committed ops/second) of [`drive`] on `counter`.
pub fn throughput(counter: Arc<dyn Counter>, threads: usize, per_thread: usize) -> f64 {
    let start = Instant::now();
    let committed = drive(&counter, threads, per_thread);
    committed as f64 / start.elapsed().as_secs_f64()
}

const INITIAL: u64 = 1 << 40; // effectively inexhaustible

/// The three schemes, in column order.
fn schemes() -> [Arc<dyn Counter>; 3] {
    [
        Arc::new(ExclusiveCounter::new(INITIAL)),
        Arc::new(EscrowCounter::new(INITIAL)),
        Arc::new(ShardedCounter::new(INITIAL, 16)),
    ]
}

/// Run F4 and return the table (wall-clock timed; shapes, not absolutes,
/// are the reproducible part).
pub fn run(scale: Scale) -> Table {
    let per_thread = scale.pick(5_000, 50_000);
    let mut t = Table::new(
        "F4: hot-spot throughput, ops/s (real threads; reserve-work-commit)",
        &["threads", "exclusive", "escrow", "dvp-sharded (16)"],
    );
    // One cell at a time: each cell spawns its own timed threads, and
    // concurrent cells would contend for cores and distort each other.
    for threads in [1usize, 2, 4, 8] {
        let mut row = vec![threads.to_string()];
        row.extend(
            schemes()
                .into_iter()
                .map(|c| f2(throughput(c, threads, per_thread))),
        );
        t.row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scheme_commits_every_op_and_conserves_the_counter() {
        // No clock is read here: on an inexhaustible counter every
        // reservation succeeds, so the committed count and the final
        // total are exact whatever the interleaving.
        let (threads, per_thread) = (4, 2_000);
        for counter in schemes() {
            let committed = drive(&counter, threads, per_thread);
            assert_eq!(committed, (threads * per_thread) as u64);
            assert_eq!(counter.total(), INITIAL - committed);
        }
    }

    #[test]
    fn a_dry_counter_is_replenished_not_overdrawn() {
        // One unit, one client: reserve-commit drains it, the next
        // attempt fails and puts a unit back — commits and refills
        // alternate, and the counter never goes negative.
        for counter in [
            Arc::new(ExclusiveCounter::new(1)) as Arc<dyn Counter>,
            Arc::new(EscrowCounter::new(1)),
            Arc::new(ShardedCounter::new(1, 1)),
        ] {
            assert_eq!(drive(&counter, 1, 10), 5);
            assert_eq!(counter.total(), 1);
        }
    }
}
