//! Census of the public configuration surface: every config struct of
//! both engines, destructured exhaustively (no `..`), so a new field
//! cannot compile until someone has looked at DESIGN.md's
//! "Configuration surface" table and recorded which non-test caller or
//! nemesis config needs a non-default value for it. The same field list
//! is then held equal to that table's rows, so neither can drift from
//! the other. This is the only place that sees `dvp-core`, `dvp-vmsg`
//! and `dvp-baselines` together.

use dvp::baselines::TradConfig;
use dvp::core::SiteConfig;
use dvp::vmsg::VmConfig;

/// Destructure each `Type { field, … }` group exhaustively from its
/// default, and return the fields as `Type::field`, in order.
macro_rules! census {
    ($($ty:ident { $($field:ident),* $(,)? })*) => {{
        $(let $ty { $($field: _),* } = $ty::default();)*
        vec![$($(concat!(stringify!($ty), "::", stringify!($field))),*),*]
    }};
}

#[test]
fn config_surface_census() {
    let fields: Vec<&str> = census! {
        SiteConfig {
            txn_timeout,
            placement,
            conc,
            checkpoint_every,
        }
        VmConfig {
            window,
            coalesce,
        }
        TradConfig {
            protocol,
            placement,
        }
    };
    let section = include_str!("../DESIGN.md")
        .split("\n## 5c. Configuration surface\n")
        .nth(1)
        .expect("DESIGN.md has a Configuration surface section")
        .split("\n## ")
        .next()
        .unwrap();
    let rows: Vec<&str> = section
        .lines()
        .filter_map(|l| l.strip_prefix("| `")?.split_once("` |"))
        .map(|(field, _)| field)
        .collect();
    assert_eq!(
        rows, fields,
        "DESIGN.md §5c rows vs the destructured fields"
    );
    assert!(
        section.contains(&format!("{} in all", fields.len())),
        "DESIGN.md §5c must say the surface has {} fields",
        fields.len()
    );
}
