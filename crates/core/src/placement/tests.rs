//! Planner unit tests: no cluster, no kernel — a hand-rolled [`View`].

use super::*;

/// A site as the planner sees it: `have[i]` / `locked[i]` of item `i`.
struct Site(Vec<Qty>, Vec<bool>);

impl View for Site {
    fn have(&self, item: ItemId) -> Qty {
        self.0[item.0 as usize]
    }
    fn locked(&self, item: ItemId) -> bool {
        self.1[item.0 as usize]
    }
}

const A: ItemId = ItemId(0);
const B: ItemId = ItemId(1);

/// Site 0 of 4 with 100 of each of two items, under `policy`.
fn planner(policy: Placement) -> (Planner, Site) {
    let site = Site(vec![100, 100], vec![false, false]);
    (Planner::new(0, 4, policy, site.0.len()), site)
}

#[test]
fn ceil_qty_is_ceil_then_cast_for_every_kind_of_input() {
    // 2^53 (every f64 from there up is whole) and 2^64 included.
    let mut cases = vec![
        0.0,
        -0.0,
        -3.5,
        0.25,
        1.0,
        1.0 + f64::EPSILON,
        2.5,
        1e15 + 0.5,
        9_007_199_254_740_992.0,
        1.8446744073709552e19,
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

#[test]
fn rebalance_cadence_follows_the_policy() {
    let every = |p| planner(p).0.rebalance_every();
    assert_eq!(every(Placement::Static), None);
    assert_eq!(every(Placement::reactive()), None);
    assert_eq!(every(Placement::adaptive()), Some(ADAPTIVE_REBALANCE_EVERY));
}

#[test]
fn refill_follows_the_policy_and_never_exceeds_have() {
    let refill = |policy, need, demand, have| planner(policy).0.refill(A, need, demand, have);
    assert_eq!(
        refill(Placement::Static, 5, 0, 100),
        0,
        "static never grants"
    );
    assert_eq!(refill(Placement::reactive(), 5, 30, 10), 5, "demand-exact");
    assert_eq!(
        refill(Placement::Reactive(RefillPolicy::DemandHalf), 5, 0, 71),
        38
    );
    // Adaptive: the deficit plus a top-up toward the advertised demand,
    // capped by the donor's spare beyond 1.5x its own predicted demand.
    assert_eq!(refill(Placement::adaptive(), 5, 30, 100), 30);
    assert_eq!(
        refill(Placement::adaptive(), 5, 30, 3),
        3,
        "short: all of it"
    );
    let (mut p, _) = planner(Placement::adaptive());
    p.local_demand(A, 40); // own EWMA 10: keeps 15 back
    assert_eq!(p.refill(A, 5, 30, 100), 30);
    assert_eq!(p.refill(A, 5, 30, 22), 7, "spare is 22 - 15");
    assert_eq!(p.refill(A, 5, 30, 12), 5, "no spare: the deficit only");
    assert_eq!(p.refill(B, 5, 30, 12), 12, "B: no own demand, all spare");
}

#[test]
fn adaptive_arm_ships_on_the_third_tick_the_same_pair_stays_on_top() {
    let (mut p, site) = planner(Placement::adaptive());
    assert_eq!(p.plan_rebalance(&site).1, 0, "no demand, no row");
    let tick = |p: &mut Planner, hot: NodeId| {
        p.peer_request(B, hot, 40, 40, false);
        let (ship, rows_scanned) = p.plan_rebalance(&site);
        assert_eq!(rows_scanned, 1, "only B's row clears the screen");
        ship
    };
    assert!(tick(&mut p, 2).is_none());
    assert!(tick(&mut p, 2).is_none());
    let Some((item, to, amount)) = tick(&mut p, 2) else {
        panic!("third tick must ship");
    };
    assert_eq!((item, to), (B, 2));
    assert!((1..=100).contains(&amount));

    // A different peer taking over the top restarts the streak.
    let (mut p, _) = planner(Placement::adaptive());
    assert!(tick(&mut p, 2).is_none());
    assert!(tick(&mut p, 2).is_none());
    p.peer_request(B, 3, 400, 400, false);
    assert!(tick(&mut p, 3).is_none());
}

#[test]
fn adaptive_arm_never_ships_under_symmetric_demand() {
    let (mut p, site) = planner(Placement::adaptive());
    for k in 0..20 {
        for peer in 1..4 {
            p.peer_request(A, peer, 30, 30, false);
        }
        assert!(
            p.plan_rebalance(&site).0.is_none(),
            "no peer stands out: the contrast gate must hold at tick {k}"
        );
    }
}

/// The property an ungated rebalancer lacks: once solicitations stop,
/// each fed pair ships at most once, and then the planner goes quiet for
/// good — its estimates decay below the 1.0 noise floor, so the screen
/// passes no row and nothing can ship in circles.
#[test]
fn adaptive_arm_goes_quiet_once_solicitations_stop() {
    let (mut p, site) = planner(Placement::adaptive());
    // A is hot at peer 2 alone; B is wanted evenly by every peer, so the
    // contrast gate holds it back however long it stays above the floor.
    for _ in 0..10 {
        p.peer_request(A, 2, 40, 40, false);
        for peer in 1..4 {
            p.peer_request(B, peer, 30, 30, false);
        }
    }
    // B's estimates (~28.3) fall below 1.0 after 12 decays.
    const QUIET_AFTER: u64 = 12;
    let mut ships = Vec::new();
    for k in 1..=50 {
        let (ship, rows_scanned) = p.plan_rebalance(&site);
        if let Some((item, to, _)) = ship {
            ships.push((item, to));
            assert!(k <= QUIET_AFTER, "shipped {item:?} to {to} at tick {k}");
        }
        if k > QUIET_AFTER {
            assert_eq!(rows_scanned, 0, "estimates decayed, yet tick {k} scanned");
        }
    }
    assert_eq!(ships, [(A, 2)], "each fed pair ships at most once");
}

/// Only the adaptive arm remembers what it observes: the same sequence
/// leaves a reactive or static planner exactly as it was built.
#[test]
fn reset_leaves_a_freshly_built_planner_after_any_observation_sequence() {
    for policy in [
        Placement::adaptive(),
        Placement::reactive(),
        Placement::Static,
    ] {
        let (mut p, site) = planner(policy);
        let fresh = p.clone();
        let mut x = 0x9E37_79B9_7F4A_7C15u64; // xorshift: any sequence will do
        for _ in 0..400 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let (item, peer) = (ItemId((x >> 8) as u32 % 2), 1 + (x >> 16) as usize % 3);
            let qty = (x >> 24) % 90;
            match x % 4 {
                0 => p.local_demand(item, qty),
                1 => p.peer_request(item, peer, qty, qty + 5, x & 256 != 0),
                2 => drop(p.refill(item, qty, qty + 9, 50)),
                _ => drop(p.plan_rebalance(&site)),
            }
        }
        if policy.is_adaptive() {
            assert_ne!(p, fresh, "the sequence must have left a mark");
        } else {
            assert_eq!(p, fresh, "only the adaptive arm remembers: {policy:?}");
        }
        p.reset();
        assert_eq!(p, fresh);
    }
}

/// The module is pure by construction only while it cannot *name*
/// anything safety-bearing — the transport included. Every non-test
/// file of this directory is read, so a new one is covered unasked. The
/// cut holds from the other side too: the site reads its placement
/// policy only to build its planner, so every placement decision is
/// made here.
#[test]
fn placement_names_nothing_safety_bearing() {
    /// Every file under `src/{dir}` but `tests.rs`, up to its first
    /// `#[cfg(test)]`.
    fn sources(dir: &str) -> Vec<(std::path::PathBuf, String)> {
        let dir = format!("{}/src/{dir}", env!("CARGO_MANIFEST_DIR"));
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir).expect("source directory") {
            let path = entry.expect("directory entry").path();
            if path.file_name().is_some_and(|f| f == "tests.rs") {
                continue;
            }
            let source = std::fs::read_to_string(&path).expect("source file");
            let code = source.split("#[cfg(test)]").next().unwrap().to_string();
            out.push((path, code));
        }
        out
    }
    fn code(source: &str) -> impl Iterator<Item = &str> {
        source.lines().filter(|l| !l.trim_start().starts_with("//"))
    }
    let placement = sources("placement");
    assert!(!placement.is_empty(), "mod.rs must be scanned");
    for (path, source) in &placement {
        for line in code(source) {
            for banned in
                "FragmentStore StableLog SiteRecord VmEndpoint Context dvp_vmsg".split(' ')
            {
                assert!(
                    !line.contains(banned),
                    "`{banned}` named in {}: {line}",
                    path.display()
                );
            }
        }
    }
    let site = sources("site");
    assert!(site.len() >= 5, "every site module must be scanned");
    for (path, source) in &site {
        for line in code(source) {
            assert!(
                !line.contains(".placement") || line.contains("Planner::new("),
                "the site branches on its placement policy in {}: {line}",
                path.display()
            );
        }
    }
}
