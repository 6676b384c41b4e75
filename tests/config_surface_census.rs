//! Census of the public configuration surface: every config struct of
//! both engines, destructured exhaustively (no `..`), so a new field
//! cannot compile until someone has looked at DESIGN.md's
//! "Configuration surface" table and recorded which non-test caller or
//! nemesis config needs a non-default value for it. This is the only
//! place that sees `dvp-core`, `dvp-vmsg` and `dvp-baselines` together.

use dvp::baselines::TradConfig;
use dvp::core::{AdaptivePlacement, InjectConfig, ReactivePlacement, SiteConfig};
use dvp::vmsg::VmConfig;

#[test]
fn config_surface_census() {
    let SiteConfig {
        txn_timeout: _,
        placement: _,
        conc: _,
        vm: _,
        solicit_retries: _,
        checkpoint_every: _,
        unsafe_skip_read_drain_gate: _,
        unsafe_skip_recovery_redo: _,
        inject: _,
    } = SiteConfig::default();
    let VmConfig {
        window: _,
        eager_acks: _,
        coalesce: _,
    } = VmConfig::default();
    let AdaptivePlacement {
        fanout: _,
        chaos: _,
    } = AdaptivePlacement::default();
    let ReactivePlacement {
        refill: _,
        fanout: _,
        rebalance: _,
    } = ReactivePlacement::default();
    let InjectConfig {
        crashpoint: _,
        crash_on_hit: _,
        victim: _,
        torn: _,
        bit_rot: _,
        corrupt_ckpt: _,
    } = InjectConfig::default();
    let TradConfig {
        protocol: _,
        placement: _,
    } = TradConfig::default();
    // 9 + 3 + 2 + 3 + 6 + 2: the table in DESIGN.md lists 25 rows.
}
