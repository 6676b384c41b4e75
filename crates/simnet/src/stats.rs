//! Kernel-level network statistics.
//!
//! These count what the *network* did (sent, delivered, lost, cut,
//! duplicated, dropped-at-crashed-site). Protocol-level accounting (how
//! many of those were Vm retransmissions, say) belongs to the layers above.

/// Counters maintained by the simulation kernel.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Messages (wire transmissions) handed to the network by nodes. A
    /// coalesced datagram counts once however many frames it carries.
    pub sent: u64,
    /// Logical protocol frames handed to the network: plain sends count
    /// 1; a coalesced datagram counts its declared frame total (see
    /// `Context::send_frames_bytes`). Equals `sent` when no node batches.
    pub frames_sent: u64,
    /// Encoded wire bytes declared by senders via
    /// `Context::send_frames_bytes`. This is the engine-neutral
    /// wire-volume counter the cross-engine benchmarks compare; sends
    /// made without a byte declaration contribute 0, so it is a lower
    /// bound when a protocol mixes declared and undeclared sends.
    pub wire_bytes: u64,
    /// Message deliveries performed (duplicates count individually).
    pub delivered: u64,
    /// Messages dropped by random loss.
    pub lost: u64,
    /// Messages cut by a network partition.
    pub partitioned: u64,
    /// Extra copies created by link duplication.
    pub duplicated: u64,
    /// Deliveries suppressed because the recipient was crashed.
    pub dropped_crashed: u64,
    /// Arrivals (client requests bound for `on_external`) suppressed
    /// because their node was crashed. Not a network loss, so not part of
    /// [`total_undelivered`](Self::total_undelivered).
    pub externals_dropped: u64,
    /// Timer events fired.
    pub timers_fired: u64,
    /// Timer events suppressed by cancellation or crash. A timer set and
    /// cancelled in one callback never reaches the timer lane and still
    /// counts once here.
    pub timers_suppressed: u64,
    /// Events processed by the kernel (deliveries, arrivals, timer fires,
    /// crashes, recoveries — everything the main loop pops).
    pub events_processed: u64,
    /// High-water mark of resident work, all three lanes summed: scheduled
    /// arrivals and faults + in-flight messages + armed timers. An arrival
    /// stream is resident as its next arrival only; the arrivals it has
    /// not drawn yet count in `Simulation::pending_events` but not here.
    pub peak_queue_depth: u64,
}

impl NetStats {
    /// Total messages that failed to arrive, for any reason.
    pub fn total_undelivered(&self) -> u64 {
        self.lost + self.partitioned + self.dropped_crashed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_undelivered_sums_causes() {
        let s = NetStats {
            lost: 3,
            partitioned: 4,
            dropped_crashed: 5,
            ..Default::default()
        };
        assert_eq!(s.total_undelivered(), 12);
    }
}
