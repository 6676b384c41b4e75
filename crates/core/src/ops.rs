//! The transaction-facing operation vocabulary.
//!
//! The engine partitions quantities under summation (Π = Σ), and [`Op`]
//! names Section 4.1's two worked partitionable operators on them —
//! "increment the argument by m" and "decrement the argument by m if the
//! result does not fall below 0" — plus the full-value `Read`, which is
//! *not* partitionable and therefore needs the gather protocol of
//! Section 5. The Σ law the engine relies on is property-tested against
//! the sites' own state, in [`fragment`](crate::fragment).

use crate::Qty;

/// One operation a transaction performs on one item.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Op {
    /// Add `m` to the item (deposit, cancellation, restock). Executes at
    /// the home site alone — the write-only fast path of Section 5.
    Incr(Qty),
    /// Subtract `m` from the item if the *gathered local portion* covers
    /// it (reservation, withdrawal, shipment). May require soliciting
    /// value from other sites first.
    Decr(Qty),
    /// Read the item's full value `d = Π(Π⁻¹(d))` — requires gathering
    /// every fragment and in-flight Vm (Section 5's read protocol).
    /// The `Default`, as the only payload-free variant: it fills unused
    /// inline slots of a [`TxnSpec`](crate::txn::TxnSpec)'s op list and
    /// is never observed there.
    #[default]
    Read,
}

impl Op {
    /// Net change to the item's total value if the op commits. The
    /// amount fits: [`ClusterConfig::simulate`](crate::ClusterConfig::simulate)
    /// refuses one above `i64::MAX`.
    pub fn delta(&self) -> i64 {
        match self {
            Op::Incr(m) => *m as i64,
            Op::Decr(m) => -(*m as i64),
            Op::Read => 0,
        }
    }

    /// How much local value the op consumes (what must be covered by the
    /// home fragment, possibly after solicitation).
    pub fn demand(&self) -> Qty {
        match self {
            Op::Decr(m) => *m,
            Op::Incr(_) | Op::Read => 0,
        }
    }

    /// Whether this op requires the full-value gather protocol.
    pub fn is_read(&self) -> bool {
        matches!(self, Op::Read)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_delta_signs() {
        assert_eq!(Op::Incr(3).delta(), 3);
        assert_eq!(Op::Decr(3).delta(), -3);
        assert_eq!(Op::Read.delta(), 0);
    }

    #[test]
    fn op_demand_only_for_decr() {
        assert_eq!(Op::Incr(3).demand(), 0);
        assert_eq!(Op::Decr(3).demand(), 3);
        assert_eq!(Op::Read.demand(), 0);
        assert!(Op::Read.is_read());
        assert!(!Op::Decr(1).is_read());
    }
}
