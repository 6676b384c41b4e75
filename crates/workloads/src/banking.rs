//! Banking workload (Sections 1, 2.2): deposits, withdrawals, transfers,
//! balance reads.
//!
//! The paper's canonical partition anecdote — "if an individual's account
//! balance ... is inaccessible due to a network partition failure, then if
//! the person wants to deposit some money (without caring about the net
//! balance) this is not possible" in a traditional system — corresponds to
//! the deposit (`Incr`) path here: under DvP it is a write-only fast-path
//! transaction that always commits locally.

use crate::arrivals::Arrivals;
use crate::stream::{self, Mix};
use crate::zipf::Zipf;
use crate::Workload;
use dvp_core::item::{Catalog, ItemId, Split};
use dvp_core::txn::TxnSpec;
use dvp_core::Qty;
use dvp_simnet::rng::SimRng;
use dvp_simnet::time::SimDuration;
use dvp_simnet::NodeId;

/// Parameters of the banking workload.
#[derive(Clone, Debug)]
pub struct BankingWorkload {
    /// Number of branch sites.
    pub n_sites: usize,
    /// Number of accounts.
    pub accounts: usize,
    /// Opening balance per account (cents).
    pub opening_balance: Qty,
    /// Transactions to generate.
    pub txns: usize,
    /// Zipf θ over accounts (hot accounts).
    pub account_skew: f64,
    /// Mix: (deposit, withdraw, transfer, balance-read); remainder =
    /// deposit.
    pub mix: (f64, f64, f64, f64),
    /// Largest single amount moved.
    pub max_amount: Qty,
    /// Arrival process.
    pub arrivals: Arrivals,
    /// Initial balance split across sites.
    pub split: Split,
}

impl Default for BankingWorkload {
    fn default() -> Self {
        BankingWorkload {
            n_sites: 4,
            accounts: 8,
            opening_balance: 10_000,
            txns: 200,
            account_skew: 0.8,
            mix: (0.35, 0.35, 0.20, 0.10),
            max_amount: 500,
            arrivals: Arrivals::Poisson {
                mean_gap: SimDuration::millis(5),
            },
            split: Split::Even,
        }
    }
}

impl BankingWorkload {
    /// Generate the workload deterministically from `seed`: the catalog,
    /// and one drawn script per branch.
    pub fn generate(&self, seed: u64) -> Workload {
        let mut catalog = Catalog::new();
        for a in 0..self.accounts {
            catalog.add(
                format!("acct-{a}"),
                self.opening_balance,
                self.split.clone(),
            );
        }
        let mix = BankingMix {
            w: self.clone(),
            accounts: Zipf::new(self.accounts, self.account_skew),
            ids: catalog.items().iter().map(|d| d.id).collect(),
        };
        let rng = SimRng::new(seed ^ 0xBA2C);
        let scripts = stream::scripts(self.n_sites, self.arrivals, self.txns, rng, mix);
        Workload { catalog, scripts }
    }
}

/// What one banking arrival is.
#[derive(Clone)]
struct BankingMix {
    w: BankingWorkload,
    accounts: Zipf,
    ids: Vec<ItemId>,
}

impl Mix for BankingMix {
    fn draw(&self, _k: usize, rng: &mut SimRng) -> (NodeId, TxnSpec) {
        let w = &self.w;
        let (p_dep, p_wdr, p_tr, p_read) = w.mix;
        // Branch traffic is uniform; account popularity is skewed.
        let site = rng.index(w.n_sites);
        let acct = self.ids[self.accounts.sample(rng)];
        let amount = rng.uniform(1, w.max_amount.max(1));
        let u = rng.unit();
        let spec = if u < p_dep {
            TxnSpec::release(acct, amount)
        } else if u < p_dep + p_wdr {
            TxnSpec::reserve(acct, amount)
        } else if u < p_dep + p_wdr + p_tr && w.accounts > 1 {
            let mut other = self.ids[self.accounts.sample(rng)];
            if other == acct {
                other = self.ids[(acct.0 as usize + 1) % w.accounts];
            }
            TxnSpec::transfer(acct, other, amount)
        } else if u < p_dep + p_wdr + p_tr + p_read {
            TxnSpec::read(acct)
        } else {
            TxnSpec::release(acct, amount)
        };
        (site, spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvp_core::ops::Op;
    use dvp_core::Script;

    #[test]
    fn generates_accounts_and_txns() {
        let w = BankingWorkload::default().generate(1);
        assert_eq!(w.catalog.len(), 8);
        assert_eq!(w.txn_count(), 200);
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(
            BankingWorkload::default().generate(2).scripts,
            BankingWorkload::default().generate(2).scripts
        );
    }

    #[test]
    fn hot_account_receives_most_traffic() {
        let w = BankingWorkload {
            txns: 3000,
            account_skew: 2.0,
            ..Default::default()
        }
        .generate(3);
        let mut by_item = [0u64; 8];
        for (_, spec) in w.scripts.iter().flat_map(Script::iter) {
            by_item[spec.ops[0].0 .0 as usize] += 1;
        }
        let hottest = *by_item.iter().max().unwrap();
        assert_eq!(by_item[0], hottest, "account 0 is the Zipf head");
        assert!(hottest as f64 > 0.5 * 3000.0);
    }

    #[test]
    fn deposits_are_incrs() {
        let w = BankingWorkload {
            txns: 100,
            mix: (1.0, 0.0, 0.0, 0.0),
            ..Default::default()
        }
        .generate(4);
        for (_, spec) in w.scripts.iter().flat_map(Script::iter) {
            assert!(matches!(spec.ops.as_slice(), [(_, Op::Incr(_))]));
        }
    }

    #[test]
    fn transfers_touch_distinct_accounts() {
        let w = BankingWorkload {
            txns: 1000,
            mix: (0.0, 0.0, 1.0, 0.0),
            ..Default::default()
        }
        .generate(5);
        for (_, spec) in w.scripts.iter().flat_map(Script::iter) {
            if spec.ops.len() == 2 {
                assert_ne!(spec.ops[0].0, spec.ops[1].0);
            }
        }
    }
}
