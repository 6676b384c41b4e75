//! `DVP_*` environment knobs, parsed in one place.
//!
//! [`BenchEnv`] holds the parsing rules and their precedence: an explicit,
//! well-formed variable always wins; a malformed or absent one falls back
//! to the documented default.

use crate::Scale;

/// Parsed `DVP_*` environment configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BenchEnv {
    /// `DVP_SCALE`: experiment scale (`full`/`FULL` ⇒ [`Scale::Full`],
    /// anything else ⇒ [`Scale::Quick`]).
    pub scale: Scale,
    /// `DVP_NEMESIS_SEEDS` override, if set and well-formed. Resolve with
    /// [`BenchEnv::nemesis_seeds`].
    pub nemesis_seeds_override: Option<u64>,
    /// `DVP_NEMESIS_INTENSITY`: scale factor on the standard nemesis
    /// intensity (default 1.0).
    pub nemesis_intensity: f64,
}

/// `DVP_TRACE`: where trace-emitting binaries write their JSONL event
/// stream (unset ⇒ no trace, except `fault_campaign --replay`, which
/// defaults to a path under `target/`). Kept out of [`BenchEnv`] because
/// it is a `String`, and `BenchEnv` stays `Copy`.
pub fn trace_path() -> Option<String> {
    std::env::var("DVP_TRACE").ok().filter(|s| !s.is_empty())
}

impl BenchEnv {
    /// Parse from the process environment.
    pub fn from_env() -> BenchEnv {
        BenchEnv::from_lookup(|k| std::env::var(k).ok())
    }

    /// Parse from an arbitrary lookup (unit-testable without touching the
    /// process environment).
    pub fn from_lookup(get: impl Fn(&str) -> Option<String>) -> BenchEnv {
        let scale = match get("DVP_SCALE").as_deref() {
            Some("full") | Some("FULL") => Scale::Full,
            _ => Scale::Quick,
        };
        let nemesis_seeds_override = get("DVP_NEMESIS_SEEDS").and_then(|s| s.parse().ok());
        let nemesis_intensity = get("DVP_NEMESIS_INTENSITY")
            .and_then(|s| s.parse().ok())
            .unwrap_or(1.0);
        BenchEnv {
            scale,
            nemesis_seeds_override,
            nemesis_intensity,
        }
    }

    /// Nemesis campaigns per configuration: the `DVP_NEMESIS_SEEDS`
    /// override if given, else 50 quick / 100 full.
    pub fn nemesis_seeds(&self) -> u64 {
        self.nemesis_seeds_override
            .unwrap_or_else(|| self.scale.pick(50, 100))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn env_of(pairs: &[(&str, &str)]) -> BenchEnv {
        let map: HashMap<String, String> = pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        BenchEnv::from_lookup(|k| map.get(k).cloned())
    }

    #[test]
    fn defaults_when_unset() {
        let e = env_of(&[]);
        assert_eq!(e.scale, Scale::Quick);
        assert_eq!(e.nemesis_seeds_override, None);
        assert_eq!(e.nemesis_seeds(), 50);
        assert_eq!(e.nemesis_intensity, 1.0);
    }

    #[test]
    fn explicit_values_take_precedence() {
        let e = env_of(&[
            ("DVP_SCALE", "full"),
            ("DVP_NEMESIS_SEEDS", "7"),
            ("DVP_NEMESIS_INTENSITY", "2.5"),
        ]);
        assert_eq!(e.scale, Scale::Full);
        assert_eq!(e.nemesis_seeds(), 7, "override beats the scale default");
        assert_eq!(e.nemesis_intensity, 2.5);
    }

    #[test]
    fn full_scale_raises_seed_default() {
        let e = env_of(&[("DVP_SCALE", "FULL")]);
        assert_eq!(e.scale, Scale::Full);
        assert_eq!(e.nemesis_seeds(), 100);
    }

    #[test]
    fn malformed_values_fall_back() {
        let e = env_of(&[
            ("DVP_SCALE", "medium"),
            ("DVP_NEMESIS_SEEDS", "-4"),
            ("DVP_NEMESIS_INTENSITY", "hot"),
        ]);
        assert_eq!(e.scale, Scale::Quick);
        assert_eq!(e.nemesis_seeds(), 50);
        assert_eq!(e.nemesis_intensity, 1.0);
    }
}
