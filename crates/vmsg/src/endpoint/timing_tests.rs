//! Endpoint unit tests of retransmission timing: each channel's
//! deadline, the round-trip estimate behind it, and its backoff.

use super::tests::{b, expire, flush, pair};
use super::*;
use crate::rto::{INITIAL_RTO_US, MAX_RTO_US};

/// The channel's smoothed round trip toward `peer`, once sampled.
fn srtt(e: &VmEndpoint, peer: SiteId) -> Option<u64> {
    e.chan_ref(peer).and_then(|c| c.rto.srtt())
}

/// The gap between the clock and the earliest deadline.
fn timeout(e: &VmEndpoint) -> u64 {
    e.next_deadline().expect("a Vm is unacked") - e.now
}

#[test]
fn nothing_is_resent_before_its_deadline() {
    let (mut s, _r) = pair();
    let _ = s.create(1, b("x"));
    s.drain_outbox();
    assert_eq!(
        timeout(&s),
        INITIAL_RTO_US,
        "unsampled: the initial timeout"
    );
    s.advance_clock(INITIAL_RTO_US - 1);
    s.tick();
    assert!(s.drain_outbox().is_empty());
    assert_eq!(s.stats().retransmissions, 0);
    s.advance_clock(INITIAL_RTO_US);
    s.tick();
    assert_eq!(s.drain_outbox().len(), 1);
}

#[test]
fn a_clean_round_trip_is_sampled() {
    let (mut s, mut r) = pair();
    let _ = s.create(1, b("x"));
    for receipt in flush(&mut s, &mut r) {
        if let Receipt::Fresh { seq, .. } = receipt {
            r.commit_accept(0, seq);
        }
    }
    s.advance_clock(6_000);
    flush(&mut r, &mut s);
    assert_eq!(srtt(&s, 1), Some(6_000));
    // The next Vm on the channel times out on the estimate: 6 + 4·3 ms.
    let _ = s.create(1, b("y"));
    assert_eq!(timeout(&s), 18_000);
}

/// Karn's rule: the ack of a resent frame cannot say which copy it
/// answers, so it yields no sample.
#[test]
fn karn_no_sample_from_a_resent_frame() {
    let (mut s, mut r) = pair();
    let _ = s.create(1, b("x"));
    s.drain_outbox(); // lost
    expire(&mut s);
    for receipt in flush(&mut s, &mut r) {
        if let Receipt::Fresh { seq, .. } = receipt {
            r.commit_accept(0, seq);
        }
    }
    s.advance_clock(s.now + 4_000);
    flush(&mut r, &mut s);
    assert!(!s.has_outstanding());
    assert_eq!(srtt(&s, 1), None, "no sample from a frame sent twice");
}

/// Each timeout without progress doubles the next one, up to the cap.
#[test]
fn backoff_doubles_to_the_cap_without_progress() {
    let (mut s, _r) = pair();
    let _ = s.create(1, b("x"));
    s.drain_outbox();
    let mut gaps = Vec::new();
    for _ in 0..10 {
        expire(&mut s);
        s.drain_outbox(); // every copy is lost
        gaps.push(timeout(&s) / 1_000);
    }
    assert_eq!(gaps, [20, 40, 80, 160, 320, 640, 1000, 1000, 1000, 1000]);
    assert_eq!(s.stats().retransmissions, 10);
}

/// Take one clean round trip of `rtt` µs on the channel 0 → 1, so that
/// its base timeout is `rtt + 4·rtt/2 = 3·rtt`.
fn sampled_pair(rtt: u64) -> (VmEndpoint, VmEndpoint) {
    let (mut s, mut r) = pair();
    let _ = s.create(1, b("warm-up"));
    for receipt in flush(&mut s, &mut r) {
        if let Receipt::Fresh { seq, .. } = receipt {
            r.commit_accept(0, seq);
        }
    }
    s.advance_clock(s.now + rtt);
    flush(&mut r, &mut s);
    assert_eq!(srtt(&s, 1), Some(rtt));
    (s, r)
}

#[test]
fn progress_resets_the_backoff() {
    let (mut s, mut r) = sampled_pair(2_000);
    let _ = s.create(1, b("a"));
    let _ = s.create(1, b("b"));
    s.drain_outbox();
    for _ in 0..3 {
        expire(&mut s);
        s.drain_outbox();
    }
    assert_eq!(timeout(&s), 8 * 6_000);
    // The next copy of `a` gets through; `b`'s is lost again.
    expire(&mut s);
    let frames = s.drain_outbox();
    if let Receipt::Fresh { seq, .. } = r.on_frame(0, frames[0].1.clone()) {
        r.commit_accept(0, seq);
    }
    flush(&mut r, &mut s);
    assert_eq!(s.in_flight_to(1), 1);
    assert_eq!(timeout(&s), 6_000, "progress undoes every doubling");
}

/// Karn's rule on a link slower than the initial timeout: the ack of a
/// resent Vm is no sample, but it bounds the round trip from above, so
/// the next Vm waits twice that bound and is measured.
#[test]
fn a_slow_link_is_measured_after_one_bounded_round_trip() {
    const RTT: u64 = 50_000;
    let (mut s, mut r) = pair();
    // Deliver `frame` to `r` and its ack back to `s` at `at`.
    let round_trip = |s: &mut VmEndpoint, r: &mut VmEndpoint, frame: Frame, at: u64| {
        if let Receipt::Fresh { seq, .. } = r.on_frame(0, frame) {
            r.commit_accept(0, seq);
        }
        s.advance_clock(at);
        flush(r, s);
    };
    let _ = s.create(1, b("x"));
    let x = s.drain_outbox().remove(0).1;
    // Resent at 10 and 30 ms; the first copy's ack lands at 50 ms.
    for _ in 0..2 {
        expire(&mut s);
        s.drain_outbox();
    }
    assert_eq!(timeout(&s), 40_000);
    round_trip(&mut s, &mut r, x, RTT);
    assert!(!s.has_outstanding());
    assert_eq!(srtt(&s, 1), None, "Karn: no sample from a resent frame");
    let _ = s.create(1, b("y"));
    assert_eq!(timeout(&s), 2 * RTT, "twice the bound the ack gave");
    let y = s.drain_outbox().remove(0).1;
    round_trip(&mut s, &mut r, y, 2 * RTT);
    assert_eq!(srtt(&s, 1), Some(RTT));
    assert_eq!(s.stats().retransmissions, 2);
}

/// A channel that has measured nothing starts from what its endpoint's
/// other channels measured.
#[test]
fn a_new_channel_starts_from_its_endpoints_seed() {
    let (mut s, _r) = sampled_pair(30_000);
    let _ = s.create(2, b("x"));
    assert_eq!(srtt(&s, 2), Some(30_000));
    assert_eq!(timeout(&s), 90_000, "not the 10 ms guess");
}

/// Anything from the peer shows it is up: a backed-off channel toward it
/// resends on its base timeout again.
#[test]
fn hearing_from_the_peer_resets_the_backoff() {
    let (mut s, _r) = sampled_pair(2_000);
    let _ = s.create(1, b("x"));
    s.drain_outbox();
    for _ in 0..5 {
        expire(&mut s);
        s.drain_outbox();
    }
    assert_eq!(timeout(&s), 32 * 6_000);
    s.advance_clock(s.now + 1_000);
    s.heard_from(1);
    assert_eq!(timeout(&s), 6_000);
}

/// Toward a peer silent for 100 s, the resends grow with log(cap/RTO)
/// until the timeout reaches the cap, then with t/cap — 105 in all,
/// where one resend every 10 ms would be 10,000.
#[test]
fn a_silent_peer_costs_resends_bounded_by_the_cap() {
    let (mut s, _r) = pair();
    let _ = s.create(1, b("x"));
    s.drain_outbox();
    let mut rounds = 0;
    while s.next_deadline().expect("unacked") <= 100_000_000 {
        expire(&mut s);
        s.drain_outbox();
        rounds += 1;
    }
    // Seven resends on timeouts from 10 ms to 640 ms, then one per 1 s
    // cap.
    let doublings = 7;
    let ramp_us = (10 + 20 + 40 + 80 + 160 + 320 + 640) * 1_000;
    let capped = (100_000_000 - ramp_us) / MAX_RTO_US;
    assert_eq!(rounds, doublings + capped);
    assert_eq!(rounds, 105);
}

/// Two endpoints on a lossless link with `delay` µs each way, 500 Vms
/// created 3 ms apart: returns the resends, those made after the
/// channel's first sample, and the sample's SRTT.
fn lossless_fixed_delay_link(delay: u64) -> (u64, u64, Option<u64>) {
    let (mut s, mut r) = pair();
    // In flight: (arrival instant, destination, frame), in send order.
    let mut wire: Vec<(u64, SiteId, Frame)> = Vec::new();
    let mut next_create = 0;
    let mut created = 0;
    let mut before_sample = None;
    loop {
        let arrival = wire.first().map(|w| w.0);
        let due = s.next_deadline();
        let create = (created < 500).then_some(next_create);
        let Some(now) = [arrival, due, create].into_iter().flatten().min() else {
            break;
        };
        s.advance_clock(now);
        r.advance_clock(now);
        if create == Some(now) {
            let _ = s.create(1, b("v"));
            created += 1;
            next_create += 3_000;
        } else if arrival == Some(now) {
            let (_, to, frame) = wire.remove(0);
            if to == 1 {
                if let Receipt::Fresh { seq, .. } = r.on_frame(0, frame) {
                    r.commit_accept(0, seq);
                }
            } else {
                s.on_frame(1, frame);
            }
        } else {
            s.tick();
        }
        if before_sample.is_none() && srtt(&s, 1).is_some() {
            before_sample = Some(s.stats().retransmissions);
        }
        for (to, f) in s.drain_outbox().into_iter().chain(r.drain_outbox()) {
            wire.push((now + delay, to, f));
        }
    }
    assert_eq!(s.stats().completed, 500);
    let resent = s.stats().retransmissions;
    (resent, resent - before_sample.unwrap_or(0), srtt(&s, 1))
}

/// On a lossless link with a fixed delay each way, every Vm is acked
/// within one round trip. A round trip within the initial timeout is
/// measured at once and nothing is ever resent. A longer one is resent
/// only while the doubling climbs past it (10, 20, 40 ms for a 42 ms
/// round trip, one window of unacked Vms each time), and never once the
/// channel has measured it.
#[test]
fn a_lossless_fixed_delay_link_draws_no_retransmission() {
    assert_eq!(lossless_fixed_delay_link(3_000), (0, 0, Some(6_000)));
    let (resent, after_sample, srtt) = lossless_fixed_delay_link(21_000);
    assert_eq!((after_sample, srtt), (0, Some(42_000)));
    assert!(resent <= 3 * VmConfig::default().window as u64, "{resent}");
}
