//! What every generator shares: a resumable draw of arrivals.
//!
//! A generator draws each arrival's instant from a gap clock and its site
//! and transaction from a second RNG. Both start from the generator's
//! seeded RNG: the clock from the seed itself, the spec RNG from its state
//! after `txns` gaps. So the stream is exactly the sequence of a generator
//! that drew every gap before its first spec, drawn one arrival at a time
//! and kept nowhere.

use crate::arrivals::Arrivals;
use dvp_core::script::{Arrival, Generator};
use dvp_core::{Script, TxnSpec};
use dvp_simnet::rng::SimRng;
use dvp_simnet::time::SimTime;
use dvp_simnet::NodeId;
use std::sync::Arc;

/// The first arrival is due one gap after this instant, 1 ms.
pub(crate) const START: SimTime = SimTime(1_000);

/// The per-arrival half of a generator: where arrival `k` starts and what
/// it runs.
pub(crate) trait Mix: Clone + Send + Sync + 'static {
    /// Site and transaction of arrival `k`, drawn from the spec RNG.
    fn draw(&self, k: usize, rng: &mut SimRng) -> (NodeId, TxnSpec);
}

/// A workload's generator: `txns` arrivals spaced by `arrivals`, each one
/// drawn by `mix`.
struct Stream<M> {
    n_sites: usize,
    arrivals: Arrivals,
    txns: usize,
    /// The gap clock's RNG at the first arrival.
    clock: SimRng,
    /// The spec RNG at the first arrival.
    specs: SimRng,
    mix: M,
}

impl<M: Mix> Generator for Stream<M> {
    fn n_sites(&self) -> usize {
        self.n_sites
    }

    fn draw(&self) -> Box<dyn Iterator<Item = Arrival>> {
        let (arrivals, mix) = (self.arrivals, self.mix.clone());
        let (mut clock, mut specs) = (self.clock.clone(), self.specs.clone());
        let mut at = START;
        Box::new((0..self.txns).map(move |k| {
            at += arrivals.gap(&mut clock);
            let (site, spec) = mix.draw(k, &mut specs);
            (site, at, spec)
        }))
    }
}

/// One drawn script for each of `n_sites`: `txns` arrivals spaced by
/// `arrivals` and drawn by `mix`, from the generator's seeded `rng`.
pub(crate) fn scripts<M: Mix>(
    n_sites: usize,
    arrivals: Arrivals,
    txns: usize,
    rng: SimRng,
    mix: M,
) -> Vec<Script> {
    let mut specs = rng.clone();
    arrivals.skip(txns, &mut specs);
    Script::drawn(Arc::new(Stream {
        n_sites,
        arrivals,
        txns,
        clock: rng,
        specs,
        mix,
    }))
}
